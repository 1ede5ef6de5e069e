"""Improved overlap-masking strategies — the paper's stated future work (§V).

"…so as to improve the overlap masking technique and quantify its impact on
the achieved PPA values."  The paper's Algorithm 1 uses one fixed threshold
ρ = 0.3 for every selection.  This module generalizes masking behind a
small strategy interface and provides three variants:

* :class:`FixedRho` — the paper's rule (reference behaviour);
* :class:`SizeAdaptiveRho` — the effective threshold scales with the
  selected endpoint's cone size relative to the design median: selecting a
  *large* cone masks more aggressively (it genuinely dominates more logic),
  selecting a tiny cone barely masks — fixing the fixed-ρ pathology where a
  2-cell cone fully contained in a 400-cell cone is treated the same as two
  heavily entangled large cones;
* :class:`DecayingRho` — the threshold tightens geometrically with each
  selection, so early picks keep options open and late picks stop flooding
  the margin set (bounding the total selection count, and with it the skew
  perturbation's power/area side effects).

All strategies return the same boolean to-mask vector contract as
:meth:`repro.features.cones.ConeIndex.mask_after_selection`, so
:class:`repro.agent.env.EndpointSelectionEnv` accepts any of them via its
``masking`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.cones import ConeIndex
from repro.utils.validation import check_in_range, check_probability


class MaskingStrategy:
    """Interface: decide which valid endpoints to mask after a selection."""

    def mask_after_selection(
        self,
        cones: ConeIndex,
        selected: int,
        currently_valid: np.ndarray,
        step: int,
    ) -> np.ndarray:
        """Boolean to-mask vector over the canonical endpoint order.

        ``step`` is the zero-based selection count before this selection.
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedRho(MaskingStrategy):
    """The paper's rule: mask overlap ratios above a constant ρ."""

    rho: float = 0.3

    def __post_init__(self) -> None:
        check_probability("rho", self.rho)

    def mask_after_selection(self, cones, selected, currently_valid, step):
        return cones.mask_after_selection(selected, currently_valid, self.rho)

    def describe(self) -> str:
        return f"fixed(rho={self.rho})"


@dataclass(frozen=True)
class SizeAdaptiveRho(MaskingStrategy):
    """Threshold scaled by the selected cone's size vs the design median.

    effective ρ = clip(ρ₀ · (median cone size / selected cone size)^α, lo, hi)

    Selecting a cone twice the median size (α = 1) halves the threshold —
    more masking pressure from dominant cones; small cones get a looser
    threshold and leave neighbours selectable.
    """

    base_rho: float = 0.3
    alpha: float = 0.5
    min_rho: float = 0.05
    max_rho: float = 0.9

    def __post_init__(self) -> None:
        check_probability("base_rho", self.base_rho)
        check_in_range("alpha", self.alpha, 0.0, 2.0)
        if not 0.0 < self.min_rho <= self.max_rho <= 1.0:
            raise ValueError("need 0 < min_rho <= max_rho <= 1")

    def mask_after_selection(self, cones, selected, currently_valid, step):
        sizes = cones.cone_sizes
        median = max(1.0, float(np.median(sizes[sizes > 0])) if (sizes > 0).any() else 1.0)
        own = max(1, int(sizes[cones.position(selected)]))
        rho = float(
            np.clip(
                self.base_rho * (median / own) ** self.alpha,
                self.min_rho,
                self.max_rho,
            )
        )
        return cones.mask_after_selection(selected, currently_valid, rho)

    def describe(self) -> str:
        return f"size-adaptive(base={self.base_rho}, alpha={self.alpha})"


@dataclass(frozen=True)
class DecayingRho(MaskingStrategy):
    """Threshold tightens with each selection: ρ_t = ρ₀ · decay^t."""

    base_rho: float = 0.5
    decay: float = 0.85
    min_rho: float = 0.05

    def __post_init__(self) -> None:
        check_probability("base_rho", self.base_rho)
        check_in_range("decay", self.decay, 0.0, 1.0)
        check_probability("min_rho", self.min_rho)

    def mask_after_selection(self, cones, selected, currently_valid, step):
        rho = max(self.min_rho, self.base_rho * self.decay**step)
        return cones.mask_after_selection(selected, currently_valid, rho)

    def describe(self) -> str:
        return f"decaying(base={self.base_rho}, decay={self.decay})"
