#!/usr/bin/env python
"""Bring your own netlist: build a circuit by hand and inspect CCD behaviour.

Shows the substrate layers directly, without the RL agent:

* construct a small pipelined datapath with :class:`NetlistBuilder`;
* run STA and read per-endpoint slack;
* apply useful skew by hand and watch slack move between stages;
* run the data-path optimizer and see which cells it resized.

Run:  python examples/custom_design.py
"""

from __future__ import annotations

from repro import ClockModel, TimingAnalyzer, get_library, summarize
from repro.ccd.datapath_opt import optimize_datapath
from repro.ccd.useful_skew import optimize_useful_skew
from repro.netlist import NetlistBuilder
from repro.timing import trace_critical_path


def build_pipeline():
    """Two-stage pipeline with a deliberately slow first stage."""
    lib = get_library("tech7")
    b = NetlistBuilder("custom", lib)
    a = b.add_input("a")
    c = b.add_input("c")
    d = b.add_input("d")

    # Stage 1: a deep cone into ff1 (will violate).
    g1 = b.add_gate("NAND2", "g1", [a, c])
    g2 = b.add_gate("XOR2", "g2", [g1, d])
    g3 = b.add_gate("OAI21", "g3", [g2, g1, c])
    g4 = b.add_gate("INV", "g4", [g3])
    g5 = b.add_gate("NOR2", "g5", [g4, g2])
    ff1 = b.add_flop("ff1", g5, skew_bound=0.15)

    # Stage 2: shallow logic into ff2 (plenty of slack to donate).
    h1 = b.add_gate("INV", "h1", [ff1])
    ff2 = b.add_flop("ff2", h1, skew_bound=0.15)

    out = b.add_gate("BUF", "g_out", [ff2])
    b.add_output("y", out)
    netlist = b.build()
    for i, cell in enumerate(netlist.cells):  # simple manual placement
        cell.x, cell.y = 12.0 * i, 8.0
    return netlist


def main() -> None:
    netlist = build_pipeline()
    analyzer = TimingAnalyzer(netlist)
    period = 0.22  # tight on purpose: stage 1 violates
    clock = ClockModel.for_netlist(netlist, period)

    report = analyzer.analyze(clock)
    print(f"design {netlist.name}: {summarize(report)}")
    for e in report.endpoints:
        cell = netlist.cells[int(e)]
        print(f"  endpoint {cell.name:>4}: slack {report.endpoint_slack(int(e)):+.4f}")

    worst = int(report.endpoints[report.slack.argmin()])
    path = trace_critical_path(analyzer.compiled, report, worst)
    names = [netlist.cells[c].name for c in path.cells]
    print(f"critical path into {netlist.cells[worst].name}: {' -> '.join(names)}")

    # --- clock-path optimization: useful skew --------------------------- #
    skew_result = optimize_useful_skew(analyzer, clock)
    report = analyzer.analyze(clock)
    print(f"\nafter useful skew ({skew_result.commits} commits): {summarize(report)}")
    for f, adj in sorted(clock.adjustments().items()):
        print(f"  {netlist.cells[f].name}: clock arrival {adj:+.4f} ns")

    # --- data-path optimization ------------------------------------------ #
    sizes_before = {c.name: c.size.code for c in netlist.cells}
    dp_result = optimize_datapath(analyzer, clock, effort_per_violation=4.0)
    report = analyzer.analyze(clock)
    print(
        f"\nafter data-path opt ({dp_result.sizing_moves} sizings, "
        f"{dp_result.buffer_moves} buffers): {summarize(report)}"
    )
    for cell in netlist.cells:
        before = sizes_before.get(cell.name)
        if before is None:
            print(f"  inserted buffer {cell.name} ({cell.size.code})")
        elif before != cell.size.code:
            print(f"  resized {cell.name}: {before} -> {cell.size.code}")


if __name__ == "__main__":
    main()
