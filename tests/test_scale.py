"""Scale-path tests: the vectorized design generator, the fast-path wiring
in ``build_design``, and the scale-sweep bench section with its
``section.scale.*`` pseudo-phases.

The sweep itself runs here at its floor sizes (1000 cells) so the suite
stays fast; the 10K–200K points run in the nightly ``scale-sweep`` job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchsuite.designs import (
    FAST_PATH_MIN_CELLS,
    DesignSpec,
    bench_scale,
    build_design,
)
from repro.benchsuite.scale import fast_design
from repro.netlist.generator import GeneratorConfig
from repro.netlist.validate import validate_netlist
from repro.obs import bench
from repro.obs.bench import BenchConfig, ScaleSweepConfig, run_scale_sweep, scale_label
from repro.obs.history import section_medians
from repro.timing.clock import ClockModel
from repro.timing.sta import TimingAnalyzer


def _config(n_cells: int, seed: int = 5) -> GeneratorConfig:
    return GeneratorConfig(
        name=f"scale{n_cells}",
        n_cells=n_cells,
        seed=seed,
        n_inputs=max(8, n_cells // 40),
        n_outputs=max(6, n_cells // 60),
    )


class TestFastDesign:
    def test_valid_and_analyzable(self):
        netlist = fast_design(_config(2_000))
        validate_netlist(netlist)  # acyclic, fully driven, sinks everywhere
        analyzer = TimingAnalyzer(netlist, incremental=False)
        report = analyzer.analyze(
            ClockModel.for_netlist(netlist, netlist.library.default_clock_period)
        )
        assert report.endpoints.size > 0
        assert np.isfinite(report.arrival).all()

    def test_deterministic(self):
        a = fast_design(_config(1_500))
        b = fast_design(_config(1_500))
        assert [c.name for c in a.cells] == [c.name for c in b.cells]
        assert [c.size_index for c in a.cells] == [c.size_index for c in b.cells]
        assert [tuple(c.fanin_nets) for c in a.cells] == [
            tuple(c.fanin_nets) for c in b.cells
        ]
        assert [(c.x, c.y) for c in a.cells] == [(c.x, c.y) for c in b.cells]

    def test_seed_changes_structure(self):
        a = fast_design(_config(1_500, seed=5))
        b = fast_design(_config(1_500, seed=6))
        assert [tuple(c.fanin_nets) for c in a.cells] != [
            tuple(c.fanin_nets) for c in b.cells
        ]

    def test_cell_count_exact(self):
        netlist = fast_design(_config(3_000))
        assert netlist.num_cells == 3_000


class TestBuildDesignFastPath:
    def test_large_spec_uses_fast_path(self):
        # paper_cells chosen so n_cells() clears the fast-path floor at any
        # REPRO_BENCH_SCALE <= the default.
        spec = DesignSpec("huge", FAST_PATH_MIN_CELLS * bench_scale(), "tech7", 7, 0.4)
        assert spec.n_cells() >= FAST_PATH_MIN_CELLS
        prepared = build_design(spec)
        assert prepared.netlist.num_cells == spec.n_cells()
        assert prepared.clock_period > 0.0
        # Placed inline: every cell has coordinates on the die.
        assert all(c.x >= 0.0 and c.y >= 0.0 for c in prepared.netlist.cells)


class TestScaleSweepConfig:
    def test_labels(self):
        assert scale_label(10_000) == "10k"
        assert scale_label(200_000) == "200k"
        assert scale_label(1_500) == "1500"


class TestBenchConfigMessage:
    def test_cells_error_reports_value_and_minimum(self):
        with pytest.raises(ValueError) as excinfo:
            BenchConfig(cells=49)
        assert "cells=49" in str(excinfo.value)
        assert "minimum of 50" in str(excinfo.value)


class TestRunScaleSweep:
    def test_sweep_section_shape_and_medians(self, monkeypatch):
        monkeypatch.setattr(bench, "SCALE_CELLS", (1_000,))
        monkeypatch.setattr(bench, "SCALE_ROUNDS", 1)
        monkeypatch.setattr(bench, "SCALE_RESIZES_PER_ROUND", 8)
        section = run_scale_sweep(ScaleSweepConfig(seed=3))
        assert section["rounds"] == 1
        assert set(section["designs"]) == {"1k"}
        entry = section["designs"]["1k"]
        assert entry["cells"] == 1_000
        assert entry["peak_mb"] > 0.0
        assert set(entry) == {
            "cells", "endpoints", "clock_period", "build_s", "compile_s",
            "full_analyze_s", "incremental_s", "peak_mb", "per_kcell",
        }
        per_kcell = entry["per_kcell"]
        assert set(per_kcell) == {"build", "compile", "full_analyze", "incremental"}
        assert all(v > 0.0 for v in per_kcell.values())

        # The sweep feeds the nightly gate as section.scale.* pseudo-phases.
        medians = section_medians({"scale": section})
        assert set(medians) == {
            "section.scale.1k.build",
            "section.scale.1k.compile",
            "section.scale.1k.full_analyze",
            "section.scale.1k.incremental",
        }
        assert medians["section.scale.1k.incremental"] == pytest.approx(
            per_kcell["incremental"]
        )
