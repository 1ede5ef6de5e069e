"""Benchmark suite: the 19 blocks plus Table-II / Fig-5 / Fig-6 / ablation harnesses."""

from repro.benchsuite.ablations import (
    AblationPoint,
    PpaPoint,
    full_flow_comparison,
    masking_strategies,
    overfix_vs_underfix,
    rho_sweep,
    selection_baselines,
)
from repro.benchsuite.designs import (
    BLOCKS,
    BLOCKS_BY_NAME,
    DesignSpec,
    PreparedDesign,
    bench_scale,
    build_design,
    get_block,
)
from repro.benchsuite.figures import (
    Fig5Result,
    Fig6Result,
    fig5_arrival_histogram,
    fig6_transfer,
)
from repro.benchsuite.persistence import (
    compare_runs,
    load_rows,
    row_to_dict,
    save_rows,
)
from repro.benchsuite.report import (
    format_ablation,
    format_fig5,
    format_fig6,
    format_ppa,
    format_table2,
)
from repro.benchsuite.stats import (
    SweepResult,
    SweepSummary,
    seed_sweep,
    summarize_sweep,
)
from repro.benchsuite.table2 import (
    Table2Config,
    Table2Row,
    run_table2_row,
    summarize_improvements,
)

__all__ = [
    "BLOCKS",
    "BLOCKS_BY_NAME",
    "DesignSpec",
    "PreparedDesign",
    "bench_scale",
    "build_design",
    "get_block",
    "Table2Config",
    "Table2Row",
    "run_table2_row",
    "summarize_improvements",
    "Fig5Result",
    "Fig6Result",
    "fig5_arrival_histogram",
    "fig6_transfer",
    "AblationPoint",
    "PpaPoint",
    "overfix_vs_underfix",
    "rho_sweep",
    "selection_baselines",
    "masking_strategies",
    "full_flow_comparison",
    "format_table2",
    "format_fig5",
    "format_fig6",
    "format_ablation",
    "format_ppa",
    "SweepResult",
    "SweepSummary",
    "seed_sweep",
    "summarize_sweep",
    "save_rows",
    "load_rows",
    "row_to_dict",
    "compare_runs",
]
