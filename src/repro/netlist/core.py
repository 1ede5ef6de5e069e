"""Gate-level netlist data model.

A :class:`Netlist` is a set of :class:`Cell` instances connected by
:class:`Net` instances.  Cells reference a :class:`~repro.netlist.library.CellType`
and carry a mutable ``size_index`` (the data-path optimizer's sizing moves) and
a placement location (filled in by :mod:`repro.placement`).

Terminology follows STA practice:

* **startpoints** — primary input ports and flip-flop Q outputs (where timing
  paths launch);
* **endpoints** — flip-flop D inputs and primary output ports (where timing
  paths are captured; the objects RL-CCD prioritizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.netlist.library import CellSize, CellType, Library


@dataclass
class Cell:
    """One instance of a library cell type.

    ``fanin_nets[i]`` is the net driving input pin ``i`` (or ``None`` while
    under construction); ``fanout_net`` is the net driven by the output pin
    (``None`` for output ports, which only consume).
    """

    index: int
    name: str
    cell_type: CellType
    size_index: int = 0
    x: float = 0.0
    y: float = 0.0
    fanin_nets: List[Optional[int]] = field(default_factory=list)
    fanout_net: Optional[int] = None
    # Switching activity at the output pin (0..1, toggles per clock cycle);
    # feeds the net-switching-power model and the Table-I "max toggle" feature.
    toggle_rate: float = 0.1
    # Logical-hierarchy cluster id; the placer keeps clusters together.
    cluster: int = 0

    def __post_init__(self) -> None:
        if not self.fanin_nets:
            self.fanin_nets = [None] * self.cell_type.num_inputs

    @property
    def size(self) -> CellSize:
        """The currently selected drive strength."""
        return self.cell_type.size(self.size_index)

    @property
    def is_sequential(self) -> bool:
        return self.cell_type.is_sequential

    @property
    def is_input_port(self) -> bool:
        return self.cell_type.is_port and self.cell_type.num_inputs == 0

    @property
    def is_output_port(self) -> bool:
        return self.cell_type.is_port and self.cell_type.num_inputs == 1

    @property
    def is_endpoint(self) -> bool:
        """Endpoints are where setup checks happen: flop D pins, output ports."""
        return self.is_sequential or self.is_output_port

    @property
    def is_startpoint(self) -> bool:
        """Startpoints launch paths: input ports, flop Q pins."""
        return self.is_sequential or self.is_input_port

    @property
    def sizing_headroom(self) -> int:
        """How many upsizing steps remain for this cell."""
        return self.cell_type.max_size_index - self.size_index

    def __repr__(self) -> str:
        return (
            f"Cell({self.index}, {self.name!r}, {self.cell_type.name}"
            f"{self.size.code}, at=({self.x:.1f},{self.y:.1f}))"
        )


@dataclass
class Net:
    """A signal net: one driver output pin, many sink input pins.

    Sinks are ``(cell_index, input_pin_index)`` pairs.
    """

    index: int
    name: str
    driver: int
    sinks: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def __repr__(self) -> str:
        return f"Net({self.index}, {self.name!r}, driver={self.driver}, fanout={self.fanout})"


class Netlist:
    """A mutable gate-level netlist bound to a technology library."""

    def __init__(self, name: str, library: Library):
        self.name = name
        self.library = library
        self.cells: List[Cell] = []
        self.nets: List[Net] = []
        self._name_to_cell: Dict[str, int] = {}
        # Per-flop useful-skew flexibility in ns (filled by the generator or
        # user; the useful-skew engine clamps adjustments to ±bound).
        self.skew_bounds: Dict[int, float] = {}
        self._parasitic_scale: float = 1.0
        # Monotonic counter bumped by every mutator (add_cell/add_net/
        # connect/resize_cell/insert_buffer/parasitic_scale writes).
        # TimingAnalyzer compares it against the version it last
        # compiled/was notified at, so a mutation that skipped
        # notify_resize()/invalidate() can never be read stale.
        # restore_netlist_state() bumps it too — a restore is a bulk
        # mutation from the analyzer's point of view.  Cell coordinates are
        # not versioned: place a design before analyzing or snapshotting it.
        self.mutation_version: int = 0

    @property
    def parasitic_scale(self) -> float:
        """Wire-parasitic multiplier on the library's per-µm coefficients.

        1.0 = placement-stage estimates; the full-flow extension raises it
        at later stages to model extracted parasitics.  Every wire delay
        and wire cap depends on it, so a write is a mutation.
        """
        return self._parasitic_scale

    @parasitic_scale.setter
    def parasitic_scale(self, value: float) -> None:
        self._parasitic_scale = value
        self.mutation_version += 1

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_cell(self, name: str, cell_type: CellType, size_index: int = 0) -> Cell:
        """Append a cell; names must be unique within the netlist."""
        if name in self._name_to_cell:
            raise ValueError(f"duplicate cell name {name!r}")
        cell_type.size(size_index)  # bounds check
        cell = Cell(index=len(self.cells), name=name, cell_type=cell_type, size_index=size_index)
        self.cells.append(cell)
        self._name_to_cell[name] = cell.index
        self.mutation_version += 1
        return cell

    def add_net(self, name: str, driver: int, sinks: Sequence[Tuple[int, int]] = ()) -> Net:
        """Create a net driven by ``driver``'s output pin."""
        driver_cell = self.cells[driver]
        if driver_cell.is_output_port:
            raise ValueError(f"output port {driver_cell.name!r} cannot drive a net")
        if driver_cell.fanout_net is not None:
            raise ValueError(f"cell {driver_cell.name!r} already drives a net")
        net = Net(index=len(self.nets), name=name, driver=driver)
        self.nets.append(net)
        driver_cell.fanout_net = net.index
        self.mutation_version += 1
        for cell_index, pin in sinks:
            self.connect(net.index, cell_index, pin)
        return net

    def connect(self, net_index: int, cell_index: int, pin: int) -> None:
        """Attach input pin ``pin`` of ``cell_index`` to ``net_index``."""
        net = self.nets[net_index]
        cell = self.cells[cell_index]
        if not 0 <= pin < cell.cell_type.num_inputs:
            raise ValueError(
                f"cell {cell.name!r} ({cell.cell_type.name}) has no input pin {pin}"
            )
        if cell.fanin_nets[pin] is not None:
            raise ValueError(f"input pin {pin} of {cell.name!r} already connected")
        cell.fanin_nets[pin] = net.index
        net.sinks.append((cell_index, pin))
        self.mutation_version += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def cell_by_name(self, name: str) -> Cell:
        try:
            return self.cells[self._name_to_cell[name]]
        except KeyError:
            raise KeyError(f"no cell named {name!r} in netlist {self.name!r}") from None

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def endpoints(self) -> List[int]:
        """Indices of all endpoint cells (flops and output ports)."""
        return [c.index for c in self.cells if c.is_endpoint]

    def startpoints(self) -> List[int]:
        """Indices of all startpoint cells (flops and input ports)."""
        return [c.index for c in self.cells if c.is_startpoint]

    def sequential_cells(self) -> List[int]:
        return [c.index for c in self.cells if c.is_sequential]

    def fanin_cells(self, cell_index: int) -> List[int]:
        """Driver cell of each connected input pin."""
        cell = self.cells[cell_index]
        drivers = []
        for net_index in cell.fanin_nets:
            if net_index is not None:
                drivers.append(self.nets[net_index].driver)
        return drivers

    def fanout_cells(self, cell_index: int) -> List[int]:
        """Sink cells of the driven net (empty for output ports)."""
        cell = self.cells[cell_index]
        if cell.fanout_net is None:
            return []
        return [sink_cell for sink_cell, _pin in self.nets[cell.fanout_net].sinks]

    def net_load_cap(self, net_index: int) -> float:
        """Total capacitive load on a net: sink pin caps + wire cap.

        The sum of :meth:`net_sink_cap` and :meth:`net_wire_cap`, in that
        order; the timing compile and its resize patch add the same two
        terms, so all three agree bit for bit.
        """
        return self.net_sink_cap(net_index) + self.net_wire_cap(net_index)

    def net_sink_cap(self, net_index: int) -> float:
        """Sum of the net's sink pin capacitances, in sink order.

        Output ports present the library's ``default_port_cap``; other sinks
        the input cap of their current size.  A resize changes this term only.
        """
        cap = 0.0
        for sink_cell, _pin in self.nets[net_index].sinks:
            sink = self.cells[sink_cell]
            if sink.is_output_port:
                cap += self.library.default_port_cap
            else:
                cap += sink.cell_type.sizes[sink.size_index].input_cap
        return cap

    def net_wire_cap(self, net_index: int) -> float:
        """Wire capacitance of a net: its half-perimeter bounding box scaled
        by the library's per-µm coefficient and the parasitic scale."""
        return (
            self._parasitic_scale
            * self.library.wire_cap_per_um
            * self.net_hpwl(net_index)
        )

    def net_hpwl(self, net_index: int) -> float:
        """Half-perimeter wirelength of a net's bounding box (µm)."""
        net = self.nets[net_index]
        driver = self.cells[net.driver]
        xs = [driver.x]
        ys = [driver.y]
        for sink_cell, _pin in net.sinks:
            xs.append(self.cells[sink_cell].x)
            ys.append(self.cells[sink_cell].y)
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def total_hpwl(self) -> float:
        """Sum of net half-perimeter wirelengths (the placer's objective)."""
        return sum(self.net_hpwl(i) for i in range(len(self.nets)))

    def total_cell_area(self) -> float:
        """Sum of placed cell areas (µm²) — the A in PPA reporting.

        Grows when the data-path optimizer upsizes cells or inserts buffers;
        useful skew leaves it untouched.
        """
        return sum(c.size.area for c in self.cells)

    # ------------------------------------------------------------------ #
    # mutation (data-path optimization moves)
    # ------------------------------------------------------------------ #
    def resize_cell(self, cell_index: int, new_size_index: int) -> int:
        """Change a cell's drive strength; returns the previous size index."""
        cell = self.cells[cell_index]
        cell.cell_type.size(new_size_index)  # bounds check
        previous = cell.size_index
        cell.size_index = new_size_index
        self.mutation_version += 1
        return previous

    def insert_buffer(
        self,
        net_index: int,
        sink_subset: Sequence[Tuple[int, int]],
        location: Optional[Tuple[float, float]] = None,
        size_index: int = 0,
    ) -> Cell:
        """Insert a BUF driving ``sink_subset``, detached from ``net_index``.

        The classic fanout-splitting move: the original net keeps the
        remaining sinks plus the new buffer's input; a fresh net routes the
        buffer output to ``sink_subset``.  Returns the new buffer cell.
        """
        net = self.nets[net_index]
        subset = list(sink_subset)
        if not subset:
            raise ValueError("insert_buffer requires a non-empty sink subset")
        current = set(net.sinks)
        for pair in subset:
            if pair not in current:
                raise ValueError(f"sink {pair} is not on net {net.name!r}")
        buf_type = self.library.cell_type("BUF")
        buf = self.add_cell(f"{net.name}_buf{len(self.cells)}", buf_type, size_index)
        if location is None:
            xs = [self.cells[c].x for c, _ in subset]
            ys = [self.cells[c].y for c, _ in subset]
            location = (sum(xs) / len(xs), sum(ys) / len(ys))
        buf.x, buf.y = location
        # Rewire: subset sinks move to the new net.
        net.sinks = [pair for pair in net.sinks if pair not in set(subset)]
        new_net = Net(index=len(self.nets), name=f"{net.name}_split{len(self.nets)}", driver=buf.index)
        self.nets.append(new_net)
        buf.fanout_net = new_net.index
        for cell_index, pin in subset:
            self.cells[cell_index].fanin_nets[pin] = new_net.index
            new_net.sinks.append((cell_index, pin))
        # Buffer input joins the original net.
        buf.fanin_nets[0] = net.index
        net.sinks.append((buf.index, 0))
        self.mutation_version += 1
        return buf

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, lib={self.library.name}, "
            f"cells={len(self.cells)}, nets={len(self.nets)})"
        )

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)
