"""First-order power models.

Supplies the Table-II "total power" column and three Table-I features (cell
internal power, leakage power, net switching power).  The models follow the
standard decomposition:

* **internal power** — library per-cell coefficient scaled by toggle rate;
* **leakage power** — library per-cell static coefficient;
* **net switching power** — ``½ · α · C_net · V² · f`` with voltage folded
  into a constant, i.e. proportional to toggle rate × net capacitance ×
  clock frequency.

Upsizing cells raises internal/leakage power and input capacitance (which
raises the upstream net's switching power) — so the data-path optimizer's
fixes cost power, while useful skew is power-neutral.  That asymmetry is why
the paper can claim RL-CCD improves timing without degrading power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.core import Netlist
from repro.timing.clock import ClockModel

# Folds V² and unit conversion into one constant (mW per fF·GHz·toggle).
_SWITCHING_COEFF = 0.0065


@dataclass(frozen=True)
class PowerReport:
    """Per-component and total design power (mW)."""

    internal: float
    leakage: float
    switching: float

    @property
    def total(self) -> float:
        return self.internal + self.leakage + self.switching

    def __str__(self) -> str:
        return (
            f"power: total={self.total:9.3f} mW "
            f"(int={self.internal:.3f}, leak={self.leakage:.3f}, "
            f"sw={self.switching:.3f})"
        )


def cell_internal_power(netlist: Netlist, cell_index: int) -> float:
    """Internal (short-circuit + charging) power of one cell, mW."""
    cell = netlist.cells[cell_index]
    return cell.size.internal_power * cell.toggle_rate


def cell_leakage_power(netlist: Netlist, cell_index: int) -> float:
    """Static leakage power of one cell, mW."""
    return netlist.cells[cell_index].size.leakage_power


def switching_power(toggle_rate, load_cap, frequency_ghz: float):
    """``½·α·C·V²·f`` in mW, for scalars or elementwise over arrays (the
    same operation order either way, so both agree bit for bit)."""
    return _SWITCHING_COEFF * toggle_rate * load_cap * frequency_ghz


def net_switching_power(netlist: Netlist, net_index: int, frequency_ghz: float) -> float:
    """Dynamic power dissipated charging one net, mW."""
    net = netlist.nets[net_index]
    driver = netlist.cells[net.driver]
    return switching_power(driver.toggle_rate, netlist.net_load_cap(net_index), frequency_ghz)


def report_power(netlist: Netlist, clock: ClockModel) -> PowerReport:
    """Total design power under ``clock`` (frequency = 1/period GHz).

    Each cell's size is read from its type's size table directly: a
    netlist's size indices are in range by construction.
    """
    frequency = 1.0 / clock.period
    internal = 0.0
    leakage = 0.0
    for cell in netlist.cells:
        size = cell.cell_type.sizes[cell.size_index]
        internal += size.internal_power * cell.toggle_rate
        leakage += size.leakage_power
    switching = sum(
        net_switching_power(netlist, i, frequency) for i in range(netlist.num_nets)
    )
    return PowerReport(internal=internal, leakage=leakage, switching=switching)
