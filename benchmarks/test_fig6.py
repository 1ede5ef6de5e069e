"""Benchmark: regenerate paper Fig. 6 — transfer learning on block19.

The paper pre-trains the EP-GNN on other same-technology designs, attaches
a fresh encoder/decoder, and shows the transferred agent converging to
comparable TNS in far fewer training iterations than from-scratch training.
"""

from __future__ import annotations

import pytest

from repro.benchsuite.figures import fig6_transfer
from repro.benchsuite.report import format_fig6


@pytest.fixture(scope="module")
def fig6(table2_config):
    """One Fig.-6 run shared by both tests.  Each test still uses the
    ``benchmark`` fixture (timing a trivial step) so that
    ``--benchmark-only`` runs it."""
    return fig6_transfer(config=table2_config)


def test_fig6_block19_transfer(benchmark, fig6):
    text = benchmark.pedantic(format_fig6, args=(fig6,), rounds=1, iterations=1)
    print()
    print(text)
    assert fig6.design == "block19"
    assert fig6.pretrain_designs, "EP-GNN must be pre-trained on sources"
    # Shape: the transferred agent reaches (at least) comparable best TNS.
    scratch_best = float(fig6.scratch_curve[-1])
    transfer_best = float(fig6.transfer_curve[-1])
    assert transfer_best >= scratch_best - abs(scratch_best) * 0.25


@pytest.mark.xfail(
    strict=True,
    reason="seed 0, 12 episodes: scratch reaches -3.446, transfer -3.559 and "
    "never the scratch value, so episodes_to_reach gives (12, 0)",
)
def test_fig6_transfer_converges_faster(benchmark, fig6):
    """The paper's "comparable results in a much faster convergence rate":
    the transferred agent reaches scratch-final quality, and no later than
    two episodes after scratch does."""
    s_eps, t_eps = benchmark.pedantic(
        fig6.episodes_to_reach, args=(float(fig6.scratch_curve[-1]),), rounds=1, iterations=1
    )
    assert 0 < t_eps <= s_eps + 2
