"""EP-GNN endpoint encoder (paper Eq. 2 and Eq. 3)."""

from repro.gnn.epgnn import EMBED_DIM, HIDDEN_DIM, NUM_LAYERS, EPGNN, GraphConvLayer
from repro.gnn.incremental import (
    EncoderSession,
    check_enabled,
    set_check,
)

__all__ = [
    "EPGNN",
    "GraphConvLayer",
    "EMBED_DIM",
    "HIDDEN_DIM",
    "NUM_LAYERS",
    "EncoderSession",
    "check_enabled",
    "set_check",
]
