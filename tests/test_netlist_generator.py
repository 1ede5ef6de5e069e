"""Tests for the synthetic design generator, validation and GNN transform."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.core import Netlist
from repro.netlist.generator import GeneratorConfig, generate_design, quick_design
from repro.netlist.library import get_library
from repro.netlist.transform import to_message_passing_graph
from repro.netlist.validate import NetlistError, validate_netlist


class TestGeneratorConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(name="x", n_cells=0)
        with pytest.raises(ValueError):
            GeneratorConfig(name="x", flop_fraction=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(name="x", n_inputs=0)
        with pytest.raises(ValueError):
            GeneratorConfig(name="x", max_fanout=1)
        with pytest.raises(ValueError):
            GeneratorConfig(name="x", reuse_probability=-0.1)


class TestGeneratedStructure:
    def test_deterministic(self):
        a = quick_design(n_cells=300, seed=1)
        b = quick_design(n_cells=300, seed=1)
        assert a.num_cells == b.num_cells
        assert [c.cell_type.name for c in a.cells] == [
            c.cell_type.name for c in b.cells
        ]
        assert a.skew_bounds == b.skew_bounds

    def test_seed_changes_structure(self):
        a = quick_design(n_cells=300, seed=1)
        b = quick_design(n_cells=300, seed=2)
        assert [c.cell_type.name for c in a.cells] != [
            c.cell_type.name for c in b.cells
        ]

    def test_cell_count_near_target(self):
        nl = quick_design(n_cells=500, seed=3)
        assert 0.6 * 500 <= nl.num_cells <= 1.1 * 500

    def test_validates_clean(self):
        validate_netlist(quick_design(n_cells=400, seed=4))

    def test_every_endpoint_reaches_a_startpoint(self):
        nl = quick_design(n_cells=300, seed=5)
        for e in nl.endpoints():
            frontier = [e]
            seen = set()
            hit = False
            while frontier:
                v = frontier.pop()
                for u in nl.fanin_cells(v):
                    if u in seen:
                        continue
                    seen.add(u)
                    if nl.cells[u].is_startpoint:
                        hit = True
                        frontier = []
                        break
                    frontier.append(u)
            assert hit, f"endpoint {e} has no startpoint in its cone"

    def test_skew_bounds_cover_all_flops(self):
        nl = quick_design(n_cells=300, seed=6)
        for f in nl.sequential_cells():
            assert f in nl.skew_bounds
            assert nl.skew_bounds[f] >= 0.0

    def test_skew_bound_diversity(self):
        nl = quick_design(n_cells=600, seed=7)
        bounds = np.array([nl.skew_bounds[f] for f in nl.sequential_cells()])
        assert bounds.max() > 3 * (bounds.min() + 1e-6)

    def test_headroom_diversity_across_clusters(self):
        nl = quick_design(n_cells=800, seed=8)
        by_cluster = {}
        for c in nl.cells:
            if c.cell_type.is_port or c.is_sequential:
                continue
            by_cluster.setdefault(c.cluster, []).append(c.size_index)
        means = [np.mean(v) for v in by_cluster.values() if len(v) > 10]
        assert max(means) > min(means) + 1.0

    def test_toggle_rates_in_unit_interval(self):
        nl = quick_design(n_cells=300, seed=9)
        for c in nl.cells:
            assert 0.0 <= c.toggle_rate <= 1.0

    def test_reuse_probability_drives_cone_overlap(self):
        from repro.features.cones import ConeIndex
        from repro.timing.sta import compile_timing

        def mean_overlap(reuse):
            nl = quick_design(n_cells=500, seed=10, reuse_probability=reuse)
            eps = nl.endpoints()[:20]
            cones = ConeIndex(compile_timing(nl), eps)
            vals = []
            for i, e in enumerate(eps):
                ratios = cones.overlap_ratios(e)
                vals.extend(np.delete(ratios, i))
            return float(np.mean(vals))

        assert mean_overlap(0.6) > mean_overlap(0.05)


@settings(max_examples=10, deadline=None)
@given(
    n_cells=st.integers(150, 600),
    seed=st.integers(0, 1000),
    reuse=st.floats(0.0, 0.7),
    depth=st.floats(3.0, 14.0),
)
def test_property_generator_always_valid(n_cells, seed, reuse, depth):
    """Any config in the supported range yields a structurally valid design."""
    config = GeneratorConfig(
        name="prop",
        n_cells=n_cells,
        seed=seed,
        reuse_probability=reuse,
        mean_depth=depth,
    )
    netlist = generate_design(config)
    validate_netlist(netlist)
    assert netlist.endpoints()
    assert netlist.startpoints()


class TestValidate:
    def test_detects_unconnected_pin(self):
        lib = get_library("tech7")
        nl = Netlist("bad", lib)
        nl.add_cell("g", lib.cell_type("INV"))
        with pytest.raises(NetlistError, match="unconnected"):
            validate_netlist(nl)

    def test_detects_dangling_comb_cell(self):
        lib = get_library("tech7")
        nl = Netlist("bad", lib)
        a = nl.add_cell("a", lib.cell_type("INPORT"))
        g = nl.add_cell("g", lib.cell_type("INV"))
        nl.add_net("na", a.index, [(g.index, 0)])
        with pytest.raises(NetlistError, match="drives nothing"):
            validate_netlist(nl)

    def test_allows_dangling_input_port(self):
        lib = get_library("tech7")
        nl = Netlist("ok", lib)
        nl.add_cell("a", lib.cell_type("INPORT"))
        b = nl.add_cell("b", lib.cell_type("INPORT"))
        y = nl.add_cell("y", lib.cell_type("OUTPORT"))
        nl.add_net("nb", b.index, [(y.index, 0)])
        validate_netlist(nl)

    def test_detects_combinational_cycle(self):
        lib = get_library("tech7")
        nl = Netlist("loop", lib)
        g1 = nl.add_cell("g1", lib.cell_type("INV"))
        g2 = nl.add_cell("g2", lib.cell_type("INV"))
        y = nl.add_cell("y", lib.cell_type("OUTPORT"))
        nl.add_net("n1", g1.index, [(g2.index, 0)])
        nl.add_net("n2", g2.index, [(g1.index, 0), (y.index, 0)])
        with pytest.raises(NetlistError, match="cycle"):
            validate_netlist(nl)

    def test_flop_breaks_cycle_legally(self):
        lib = get_library("tech7")
        nl = Netlist("feedback", lib)
        f = nl.add_cell("f", lib.cell_type("DFF"))
        g = nl.add_cell("g", lib.cell_type("INV"))
        y = nl.add_cell("y", lib.cell_type("OUTPORT"))
        nl.add_net("nf", f.index, [(g.index, 0)])
        nl.add_net("ng", g.index, [(f.index, 0), (y.index, 0)])
        validate_netlist(nl)  # must not raise

    def test_detects_empty_net(self):
        lib = get_library("tech7")
        nl = Netlist("empty", lib)
        a = nl.add_cell("a", lib.cell_type("INPORT"))
        nl.add_net("na", a.index)
        with pytest.raises(NetlistError, match="no sinks"):
            validate_netlist(nl)


class TestTransform:
    def test_bidirectional_doubles_edges(self, tiny_pipeline):
        g = to_message_passing_graph(tiny_pipeline)
        sink_pins = sum(len(net.sinks) for net in tiny_pipeline.nets)
        assert g.num_edges == 2 * sink_pins

    def test_forward_edges_follow_signal(self, tiny_pipeline):
        nl = tiny_pipeline
        g = to_message_passing_graph(nl)
        g1 = nl.cell_by_name("g1").index
        ff1 = nl.cell_by_name("ff1").index
        assert g1 in g.neighbors(ff1)  # g1 drives ff1: driver -> sink

    def test_backward_mode(self, tiny_pipeline):
        """Every driver -> sink edge is paired with its sink -> driver reverse."""
        nl = tiny_pipeline
        g = to_message_passing_graph(nl)
        g1 = nl.cell_by_name("g1").index
        ff1 = nl.cell_by_name("ff1").index
        assert ff1 in g.neighbors(g1)

    def test_mean_aggregate_correct(self, tiny_pipeline):
        nl = tiny_pipeline
        g = to_message_passing_graph(nl)
        feats = np.arange(nl.num_cells, dtype=float)[:, None]
        agg = g.mean_aggregate(feats)
        for v in range(nl.num_cells):
            nbrs = g.neighbors(v)
            expected = feats[nbrs].mean() if len(nbrs) else 0.0
            assert agg[v, 0] == pytest.approx(expected)

    def test_degree_matches_indptr(self, small_design):
        nl, _ = small_design
        g = to_message_passing_graph(nl)
        assert g.degree().sum() == g.num_edges
        assert g.indptr[-1] == g.num_edges

    def test_isolated_node_zero_aggregate(self):
        lib = get_library("tech7")
        nl = Netlist("iso", lib)
        nl.add_cell("alone", lib.cell_type("INPORT"))
        b = nl.add_cell("b", lib.cell_type("INPORT"))
        y = nl.add_cell("y", lib.cell_type("OUTPORT"))
        nl.add_net("nb", b.index, [(y.index, 0)])
        g = to_message_passing_graph(nl)
        agg = g.mean_aggregate(np.ones((3, 2)))
        np.testing.assert_array_equal(agg[0], [0.0, 0.0])
