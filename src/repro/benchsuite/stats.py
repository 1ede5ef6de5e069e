"""Robustness statistics: multi-seed sweeps and summary intervals.

The paper reports single-seed results ("we use the same seed in each run to
completely remove non-deterministic run-to-run variation").  For a
reproduction on synthetic designs it is worth quantifying how sensitive the
headline claim (RL-CCD ≥ default flow) is to the *training* seed, which
controls parameter init and trajectory sampling while the design and flow
stay fixed.  :func:`seed_sweep` runs one block across several seeds and
:func:`summarize_sweep` reports mean / std / a normal-approximation
confidence interval of the TNS improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from repro.benchsuite.designs import DesignSpec, build_design, get_block
from repro.benchsuite.table2 import Table2Config, Table2Row, run_table2_row

#: Student's t 97.5% quantiles, ``T_975[df - 1]`` for df = 1..30, as
#: ``scipy.stats.t.ppf(0.975, df)`` gives them (scipy 1.17), so the 95%
#: interval needs no scipy import.
T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,  # df 1-3
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,  # df 4-6
    2.364624251592784, 2.306004135204166, 2.262157162798205,  # df 7-9
    2.228138851986274, 2.200985160091639, 2.1788128296672284,  # df 10-12
    2.1603686564627913, 2.144786687917804, 2.131449545559776,  # df 13-15
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,  # df 16-18
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,  # df 19-21
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,  # df 22-24
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,  # df 25-27
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,  # df 28-30
)


def t_quantile_975(df: int) -> float:
    """Student's t 97.5% quantile for ``df`` degrees of freedom (1..30)."""
    if not 1 <= df <= len(T_975):
        raise ValueError(
            f"t quantile table covers df 1..{len(T_975)} "
            f"(a sweep of up to {len(T_975) + 1} seeds); got df={df}"
        )
    return T_975[df - 1]


@dataclass
class SweepResult:
    """Per-seed rows plus the sweep's identity."""

    design: str
    seeds: List[int]
    rows: List[Table2Row]

    def improvements(self) -> np.ndarray:
        return np.array([r.tns_improvement_pct for r in self.rows])


@dataclass
class SweepSummary:
    """Aggregate statistics of a seed sweep."""

    design: str
    num_seeds: int
    mean_improvement_pct: float
    std_improvement_pct: float
    ci95_low: float
    ci95_high: float
    fraction_improved: float
    worst_improvement_pct: float

    def __str__(self) -> str:
        return (
            f"{self.design}: TNS improvement {self.mean_improvement_pct:+.1f}% "
            f"± {self.std_improvement_pct:.1f}% "
            f"(95% CI [{self.ci95_low:+.1f}%, {self.ci95_high:+.1f}%], "
            f"improved {self.fraction_improved:.0%} of {self.num_seeds} seeds, "
            f"worst {self.worst_improvement_pct:+.1f}%)"
        )


def seed_sweep(
    spec_or_name,
    seeds: Sequence[int] = (0, 1, 2),
    config: Table2Config = Table2Config(),
) -> SweepResult:
    """Run one block's Table-II row under several training seeds.

    The design (generator seed, placement, clock) is identical across runs;
    only the agent's initialization/sampling seed varies.
    """
    spec: DesignSpec = (
        get_block(spec_or_name) if isinstance(spec_or_name, str) else spec_or_name
    )
    if not seeds:
        raise ValueError("seed_sweep needs at least one seed")
    prepared = build_design(spec)
    rows: List[Table2Row] = []
    for seed in seeds:
        seeded = replace(config, seed=int(seed))
        rows.append(run_table2_row(spec, seeded, prepared=prepared))
    return SweepResult(design=spec.name, seeds=list(seeds), rows=rows)


def summarize_sweep(sweep: SweepResult) -> SweepSummary:
    """Mean / std / 95% CI of TNS improvement across seeds."""
    imps = sweep.improvements()
    n = imps.size
    mean = float(imps.mean())
    std = float(imps.std(ddof=1)) if n > 1 else 0.0
    if n > 1 and std > 0:
        sem = std / np.sqrt(n)
        t_crit = t_quantile_975(n - 1)
        lo, hi = mean - t_crit * sem, mean + t_crit * sem
    else:
        lo = hi = mean
    return SweepSummary(
        design=sweep.design,
        num_seeds=n,
        mean_improvement_pct=mean,
        std_improvement_pct=std,
        ci95_low=float(lo),
        ci95_high=float(hi),
        fraction_improved=float((imps > 0).mean()),
        worst_improvement_pct=float(imps.min()),
    )
