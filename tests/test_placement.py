"""Tests for the synthetic global placer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netlist.generator import quick_design
from repro.placement import global_place
from repro.placement.global_place import PlacementConfig, die_size, place_design


class TestPlacement:
    def test_deterministic(self):
        a = quick_design(n_cells=300, seed=1)
        b = quick_design(n_cells=300, seed=1)
        place_design(a, PlacementConfig(seed=5))
        place_design(b, PlacementConfig(seed=5))
        for ca, cb in zip(a.cells, b.cells):
            assert ca.x == cb.x and ca.y == cb.y

    def test_all_cells_inside_die(self):
        nl = quick_design(n_cells=400, seed=2)
        place_design(nl, PlacementConfig(seed=1))
        side = die_size(nl)
        for c in nl.cells:
            assert -1e-9 <= c.x <= side + 1e-9
            assert -1e-9 <= c.y <= side + 1e-9

    def test_input_ports_on_west_edge(self):
        nl = quick_design(n_cells=300, seed=3)
        place_design(nl, PlacementConfig(seed=1))
        for c in nl.cells:
            if c.is_input_port:
                assert c.x == 0.0

    def test_output_ports_on_east_edge(self):
        nl = quick_design(n_cells=300, seed=3)
        place_design(nl, PlacementConfig(seed=1))
        side = die_size(nl)
        for c in nl.cells:
            if c.is_output_port:
                assert c.x == pytest.approx(side)

    def test_clusters_spatially_separated(self):
        nl = quick_design(n_cells=600, seed=4, n_clusters=4)
        place_design(nl, PlacementConfig(seed=1))
        centroids = {}
        for c in nl.cells:
            if c.cell_type.is_port:
                continue
            centroids.setdefault(c.cluster, []).append((c.x, c.y))
        means = {k: np.mean(v, axis=0) for k, v in centroids.items()}
        keys = list(means)
        # At least one pair of clusters must be well separated.
        dists = [
            np.linalg.norm(means[a] - means[b])
            for i, a in enumerate(keys)
            for b in keys[i + 1 :]
        ]
        assert max(dists) > 0.2 * die_size(nl)

    def test_refinement_reduces_wirelength(self, monkeypatch):
        nl_scatter = quick_design(n_cells=500, seed=5)
        nl_refined = quick_design(n_cells=500, seed=5)
        monkeypatch.setattr(global_place, "REFINEMENT_SWEEPS", 0)
        place_design(nl_scatter, PlacementConfig(seed=1))
        monkeypatch.setattr(global_place, "REFINEMENT_SWEEPS", 4)
        place_design(nl_refined, PlacementConfig(seed=1))
        assert nl_refined.total_hpwl() < nl_scatter.total_hpwl()

    def test_die_scales_with_cells(self):
        small = quick_design(n_cells=200, seed=6)
        large = quick_design(n_cells=800, seed=6)
        assert die_size(large) > die_size(small)
