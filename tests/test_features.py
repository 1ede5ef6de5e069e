"""Tests for fan-in cones, overlap masking, and Table-I feature extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.cones import ConeIndex, fanin_cone
from repro.features.table1 import FEATURE_NAMES, NUM_FEATURES, FeatureExtractor
from repro.netlist.generator import quick_design
from repro.timing.clock import ClockModel
from repro.timing.sta import TimingAnalyzer, compile_timing


class TestFaninCone:
    def test_tiny_pipeline_cones(self, tiny_pipeline):
        nl = tiny_pipeline
        ff1 = nl.cell_by_name("ff1").index
        ff2 = nl.cell_by_name("ff2").index
        y = nl.cell_by_name("y").index
        g1 = nl.cell_by_name("g1").index
        g2 = nl.cell_by_name("g2").index
        g3 = nl.cell_by_name("g3").index
        assert fanin_cone(nl, ff1) == {g1}
        assert fanin_cone(nl, ff2) == {g2}
        assert fanin_cone(nl, y) == {g3}

    def test_cone_stops_at_startpoints(self, tiny_pipeline):
        """ff2's cone must not reach through ff1 into g1."""
        nl = tiny_pipeline
        ff2 = nl.cell_by_name("ff2").index
        g1 = nl.cell_by_name("g1").index
        assert g1 not in fanin_cone(nl, ff2)

    def test_cone_excludes_endpoint_itself(self, small_design):
        nl, _ = small_design
        for e in nl.endpoints()[:10]:
            assert e not in fanin_cone(nl, e)

    def test_cone_contains_only_comb_cells(self, small_design):
        nl, _ = small_design
        for e in nl.endpoints()[:10]:
            for c in fanin_cone(nl, e):
                cell = nl.cells[c]
                assert not cell.is_startpoint
                assert not cell.is_sequential


class TestConeIndex:
    @pytest.fixture
    def index(self, small_design):
        nl, _ = small_design
        return nl, ConeIndex(compile_timing(nl), nl.endpoints())

    def test_self_overlap_is_one(self, index):
        nl, idx = index
        for pos, e in enumerate(idx.endpoints[:15]):
            if fanin_cone(nl, e):
                assert idx.overlap_ratios(e)[pos] == 1.0

    def test_ratio_in_unit_interval(self, index):
        nl, idx = index
        for a in idx.endpoints[:8]:
            ratios = idx.overlap_ratios(a)
            assert np.all(ratios >= 0.0)
            assert np.all(ratios <= 1.0)

    def test_ratio_formula_matches_sets(self, index):
        nl, idx = index
        a, b = idx.endpoints[0], idx.endpoints[1]
        cone_a, cone_b = fanin_cone(nl, a), fanin_cone(nl, b)
        if cone_b:
            expected = len(cone_a & cone_b) / len(cone_b)
            assert idx.overlap_ratios(a)[1] == pytest.approx(expected)

    def test_empty_cone_ratio_zero(self, index):
        nl, idx = index
        # Endpoint fed directly by a startpoint has an empty cone.
        empties = [e for e in idx.endpoints if not fanin_cone(nl, e)]
        ratios = idx.overlap_ratios(idx.endpoints[0])
        for e in empties[:3]:
            assert ratios[idx.position(e)] == 0.0

    def test_overlap_ratios_match_set_intersections(self, index):
        """Integer counts over the transpose give exactly the set-based
        ratio ``len(A & B) / len(B)``, for every ordered pair, on the
        fixture design and on a seeded design with heavy cone reuse."""
        seeded = quick_design(n_cells=500, seed=17, reuse_probability=0.6)
        for nl in (index[0], seeded):
            idx = ConeIndex(compile_timing(nl), nl.endpoints())
            cones = [fanin_cone(nl, e) for e in idx.endpoints]
            assert any(len(c) > 0 for c in cones)
            for a, cone_a in zip(idx.endpoints, cones):
                ratios = idx.overlap_ratios(a)
                for b, cone_b in zip(idx.endpoints, cones):
                    expected = len(cone_a & cone_b) / len(cone_b) if cone_b else 0.0
                    assert ratios[idx.position(b)] == expected

    def test_cone_arrays_match_frozensets(self, index):
        """Each CSR row is ``sorted(fanin_cone(e))`` and the owner array
        and sizes name its rows: on the fixture design, on a seeded design
        with heavy cone reuse, and for endpoints listed out of cell order."""
        seeded = quick_design(n_cells=500, seed=17, reuse_probability=0.6)
        cases = [index, (seeded, ConeIndex(compile_timing(seeded), seeded.endpoints()))]
        cases.append((seeded, ConeIndex(compile_timing(seeded), seeded.endpoints()[::-3])))
        for nl, idx in cases:
            for pos, e in enumerate(idx.endpoints):
                start, stop = idx.cone_indptr[pos], idx.cone_indptr[pos + 1]
                assert idx.cone_members[start:stop].tolist() == sorted(fanin_cone(nl, e))
                assert np.all(idx.cone_owner[start:stop] == pos)
                assert idx.cone_sizes[pos] == stop - start
            assert idx.cone_members.dtype == np.int64
            assert idx.cone_sizes.dtype == np.int64

    def test_cone_csr_flattens_all_cones(self, index):
        nl, idx = index
        assert idx.cone_indptr.shape == (len(idx.endpoints) + 1,)
        assert idx.cone_indptr[-1] == idx.cone_members.size
        assert idx.cone_owner.shape == idx.cone_members.shape

    def test_transpose_inverts_csr(self, index):
        """Row ``c`` of the transpose lists, ascending, exactly the endpoint
        positions whose ``fanin_cone`` contains cell ``c``."""
        nl, idx = index
        cones = [fanin_cone(nl, e) for e in idx.endpoints]
        assert idx.cell_indptr.shape == (nl.num_cells + 1,)
        for c in range(nl.num_cells):
            row = idx.cell_cones[idx.cell_indptr[c] : idx.cell_indptr[c + 1]]
            assert row.tolist() == [p for p, cone in enumerate(cones) if c in cone]

    def test_endpoint_position_maps_endpoint_cells(self, index):
        nl, idx = index
        expected = np.full(nl.num_cells, -1)
        expected[idx.endpoints] = np.arange(len(idx))
        assert np.array_equal(idx.endpoint_position, expected)
        assert idx.position(idx.endpoints[3]) == 3
        non_endpoint = int(np.nonzero(expected < 0)[0][0])
        with pytest.raises(KeyError):
            idx.position(non_endpoint)

    def test_cones_containing_inverts_membership(self, index):
        nl, idx = index
        some_cells = idx.cone_members[:5]
        touched = idx.cones_containing(some_cells)
        expected = {
            pos
            for pos, e in enumerate(idx.endpoints)
            if fanin_cone(nl, e) & set(some_cells.tolist())
        }
        assert set(touched.tolist()) == expected
        # One strictly ascending transpose row per listed cell.
        counts = idx.cell_indptr[some_cells + 1] - idx.cell_indptr[some_cells]
        for row in np.split(touched, np.cumsum(counts)[:-1]):
            assert np.all(np.diff(row) > 0)

    def test_cones_containing_empty_input(self, index):
        nl, idx = index
        assert idx.cones_containing(np.empty(0, dtype=np.int64)).size == 0

    def test_mask_respects_rho(self, index):
        nl, idx = index
        selected = idx.endpoints[0]
        valid = np.ones(len(idx), bool)
        strict = idx.mask_after_selection(selected, valid, rho=0.1)
        loose = idx.mask_after_selection(selected, valid, rho=0.9)
        assert strict.sum() >= loose.sum()

    def test_mask_never_includes_selected(self, index):
        nl, idx = index
        selected = idx.endpoints[0]
        valid = np.ones(len(idx), bool)
        mask = idx.mask_after_selection(selected, valid, rho=0.0)
        assert not mask[0]

    def test_mask_only_among_valid(self, index):
        nl, idx = index
        selected = idx.endpoints[0]
        valid = np.zeros(len(idx), bool)
        valid[1] = True
        mask = idx.mask_after_selection(selected, valid, rho=0.0)
        assert mask.sum() <= 1

    def test_bad_rho_raises(self, index):
        nl, idx = index
        with pytest.raises(ValueError):
            idx.mask_after_selection(idx.endpoints[0], np.ones(len(idx), bool), 1.5)

    def test_bad_valid_shape_raises(self, index):
        nl, idx = index
        with pytest.raises(ValueError):
            idx.mask_after_selection(idx.endpoints[0], np.ones(3, bool), 0.3)

    def test_cone_sizes(self, index):
        nl, idx = index
        sizes = idx.cone_sizes
        assert sizes.shape == (len(idx),)
        assert sizes.tolist() == [len(fanin_cone(nl, e)) for e in idx.endpoints]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 300), rho=st.floats(0.0, 1.0))
def test_property_masking_loop_terminates(seed, rho):
    """Selecting worst-valid repeatedly always ends with all selected/masked,
    and selected cones pairwise overlap at most rho (w.r.t. later cones)."""
    nl = quick_design(n_cells=250, seed=seed)
    endpoints = nl.endpoints()
    idx = ConeIndex(compile_timing(nl), endpoints)
    valid = np.ones(len(idx), bool)
    selected = []
    for _ in range(len(idx) + 1):
        if not valid.any():
            break
        pos = int(np.nonzero(valid)[0][0])
        endpoint = idx.endpoints[pos]
        valid[pos] = False
        mask = idx.mask_after_selection(endpoint, valid, rho)
        valid &= ~mask
        selected.append(endpoint)
    assert not valid.any()
    # Later selections were valid when chosen: their overlap with every
    # earlier selection is <= rho.
    for i, later in enumerate(selected):
        for earlier in selected[:i]:
            assert idx.overlap_ratios(earlier)[idx.position(later)] <= rho


class TestFeatureExtractor:
    @pytest.fixture
    def context(self, small_design):
        nl, period = small_design
        analyzer = TimingAnalyzer(nl)
        clock = ClockModel.for_netlist(nl, period)
        report = analyzer.analyze(clock)
        return nl, clock, report, FeatureExtractor(nl)

    def test_shape_and_names(self, context):
        nl, clock, report, fx = context
        feats = fx.extract(report, clock)
        assert feats.shape == (nl.num_cells, NUM_FEATURES)
        assert len(FEATURE_NAMES) == NUM_FEATURES

    def test_mask_column(self, context):
        nl, clock, report, fx = context
        eps = nl.endpoints()[:3]
        feats = fx.extract(report, clock, masked_or_selected=eps)
        assert np.all(feats[eps, 0] == 1.0)
        assert feats[:, 0].sum() == len(eps)

    def test_update_mask_column_in_place(self, context):
        nl, clock, report, fx = context
        feats = fx.extract(report, clock)
        out = fx.update_mask_column(feats, [5, 7])
        assert out is feats
        assert feats[5, 0] == 1.0 and feats[7, 0] == 1.0
        fx.update_mask_column(feats, [])
        assert feats[:, 0].sum() == 0.0

    def test_locations_normalized(self, context):
        nl, clock, report, fx = context
        feats = fx.extract(report, clock)
        assert feats[:, 1].max() <= 1.0 + 1e-9
        assert feats[:, 2].max() <= 1.0 + 1e-9

    def test_all_finite(self, context):
        nl, clock, report, fx = context
        feats = fx.extract(report, clock)
        assert np.all(np.isfinite(feats))

    def test_endpoint_slack_feature_margin_aware(self, small_design):
        nl, period = small_design
        analyzer = TimingAnalyzer(nl)
        clock = ClockModel.for_netlist(nl, period)
        ep = nl.endpoints()[0]
        fx = FeatureExtractor(nl)
        plain = fx.extract(analyzer.analyze(clock), clock)
        margined = fx.extract(analyzer.analyze(clock, margins={ep: 0.1}), clock)
        assert margined[ep, 10] < plain[ep, 10]

    def test_clock_flexibility_feature(self, context):
        nl, clock, report, fx = context
        feats = fx.extract(report, clock)
        for f, bound in nl.skew_bounds.items():
            assert feats[f, 13] == pytest.approx(bound / clock.period)
        comb = next(
            c.index for c in nl.cells if not c.is_sequential and not c.cell_type.is_port
        )
        assert feats[comb, 13] == 0.0

    def test_toggle_feature_passthrough(self, context):
        nl, clock, report, fx = context
        feats = fx.extract(report, clock)
        for c in nl.cells[:20]:
            assert feats[c.index, 9] == pytest.approx(c.toggle_rate)
