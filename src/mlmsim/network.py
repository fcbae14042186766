"""Netlist representation, an exact DC solver, and the cell's closed form.

Networks are small (tens of nodes), so the solver is plain dense nodal
analysis with voltage sources handled as extra current unknowns and solved
by direct factorization. Memristor elements are placeholders whose
resistance is supplied per solve. `MnaTemplate.solve` and `solve_dc`
re-stamp and re-factor the whole system on each call and stay the
reference; a template holds only its assembly. `solve_dc` reports node
voltages, per-element currents and the total source power.

The multi-level cell builder produces one sub-cell per memristor:

    write source --[r_write]-- P_i (+) --[device]-- N_i (-) --[r_series]-- M
                                                            M --[r_ground]-- gnd

with a switchable reset source on every device negative terminal and a
switchable read source on every programming terminal P_i. Putting the read
rail on the P side forces the read current through the devices, so the
probe voltage across r_ground is the divider of the parallel device
branches that the cell is built around. Inactive sources are open circuits.
The reset always drives the write ports at 0 V as well, because the erase
current needs a return path to ground through them.

Every phase of that cell is therefore a star around the membrane node M,
one branch per sub-cell, which Millman's theorem solves in closed form.
`Star` holds one phase's constants, built from the topology, the phase's
role (reset, write or read) and each branch's source amplitudes, with no
netlist; its `settle` checks a block of solved timesteps and folds their
source power into each row's peak. The controller's kernels evaluate the
formulas themselves.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Sub-cells per cell: one per trit of the 3-trit write code.
N_SUBCELLS = 3

# Default ground (probe) resistor, raised from the original 100 ohm; neither
# value is fitted to the reference levels (level 000 reads high at 200 ohm).
DEFAULT_R_GROUND = 200.0


class SingularNetwork(Exception):
    """The nodal system has no unique solution (floating subgraph or source loop)."""


class InvalidTopology(Exception):
    """Cell topology description is inconsistent (bad count or resistor value)."""


# ---------------------------------------------------------------------------
# Elements and netlist
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Resistor:
    a: int
    b: int
    ohms: float


@dataclass(frozen=True)
class MemristorRef:
    """Placeholder for device `device`; node a is the programming (+) terminal."""

    a: int
    b: int
    device: int


@dataclass(frozen=True)
class VoltageSource:
    """Ideal source forcing V(a) - V(b) = volts when active; open when not."""

    a: int
    b: int
    volts: float
    active: bool = True


class Netlist:
    """Immutable element list over nodes 0..node_count-1, node 0 = ground."""

    def __init__(self, node_count, elements):
        self.node_count = int(node_count)
        self.elements = tuple(elements)
        if self.node_count < 1:
            raise ValueError("netlist needs at least the ground node")
        devices = set()
        for idx, el in enumerate(self.elements):
            for node in (el.a, el.b):
                if not 0 <= node < self.node_count:
                    raise ValueError(f"element {idx} references node {node} "
                                     f"outside 0..{self.node_count - 1}")
            if isinstance(el, Resistor) and el.ohms <= 0:
                raise ValueError(f"element {idx}: resistance must be positive, got {el.ohms}")
            if isinstance(el, MemristorRef):
                if el.device < 0:
                    raise ValueError(f"element {idx}: negative device index")
                devices.add(el.device)
        self.device_count = max(devices) + 1 if devices else 0


# ---------------------------------------------------------------------------
# MNA assembly and solve
# ---------------------------------------------------------------------------

class MnaTemplate:
    """Assembled nodal system for one fixed source configuration.

    Fixed resistors and source rows are stamped once; per-solve only the
    memristor conductances are added, so repeated solves over a transient
    (or a batch of cell instances) reuse the assembly. `source_values`
    maps a source's element index to a value, which switches that source on
    at that value; a source it leaves out keeps its own (volts, active).
    """

    def __init__(self, netlist, source_values=None):
        overrides = dict(source_values or {})
        self.netlist = netlist
        nv = netlist.node_count - 1

        active = []
        for idx, el in enumerate(netlist.elements):
            if isinstance(el, VoltageSource):
                if idx in overrides:
                    active.append((idx, float(overrides.pop(idx))))
                elif el.active:
                    active.append((idx, el.volts))
        if overrides:
            raise ValueError(f"source override for non-source element(s): {sorted(overrides)}")

        self.nv = nv
        self.m = nv + len(active)
        self.active_sources = tuple(active)
        self.source_row = {idx: nv + s for s, (idx, _) in enumerate(active)}

        a_mat = np.zeros((self.m, self.m))
        z = np.zeros(self.m)
        stamps = []
        for idx, el in enumerate(netlist.elements):
            if isinstance(el, Resistor):
                self._stamp_conductance(a_mat, el.a, el.b, 1.0 / el.ohms)
            elif isinstance(el, MemristorRef):
                stamps.append((el.device, el.a, el.b))
        for s, (idx, volts) in enumerate(active):
            el = netlist.elements[idx]
            row = nv + s
            if el.a > 0:
                a_mat[el.a - 1, row] += 1.0
                a_mat[row, el.a - 1] += 1.0
            if el.b > 0:
                a_mat[el.b - 1, row] -= 1.0
                a_mat[row, el.b - 1] -= 1.0
            z[row] = volts
        self.a_base = a_mat
        self.z_base = z
        self.device_stamps = tuple(stamps)

    @staticmethod
    def _stamp_conductance(a_mat, na, nb, g):
        if na > 0:
            a_mat[..., na - 1, na - 1] += g
        if nb > 0:
            a_mat[..., nb - 1, nb - 1] += g
        if na > 0 and nb > 0:
            a_mat[..., na - 1, nb - 1] -= g
            a_mat[..., nb - 1, na - 1] -= g

    def rhs(self, source_volts):
        """RHS vector with per-solve source voltages.

        source_volts maps element index -> value (may be batched arrays);
        only sources already active in this template can be re-valued.
        """
        batch = np.broadcast_shapes(*map(np.shape, source_volts.values()))
        z = np.broadcast_to(self.z_base, batch + (self.m,)).copy()
        for idx, value in source_volts.items():
            z[..., self.source_row[idx]] = value
        return z

    def solve(self, device_conductances=None, z=None):
        """Solve; returns (node_voltages, source_currents), batched if inputs are.

        device_conductances has trailing dimension = netlist.device_count.
        Source currents follow element order of the template's active list,
        oriented a->b through the source.
        """
        g_dev = None
        if self.device_stamps:
            if device_conductances is None:
                raise ValueError("netlist has memristors; device conductances required")
            g_dev = np.atleast_1d(np.asarray(device_conductances, dtype=float))
            if g_dev.shape[-1] < self.netlist.device_count:
                raise ValueError("missing device conductances")
        if z is None:
            z = self.z_base
        batch = np.broadcast_shapes(
            z.shape[:-1], () if g_dev is None else g_dev.shape[:-1])
        a_mat = np.broadcast_to(self.a_base, batch + (self.m, self.m)).copy()
        for dev, na, nb in self.device_stamps:
            self._stamp_conductance(a_mat, na, nb, g_dev[..., dev])
        z = np.broadcast_to(z, batch + (self.m,))
        x = _solve_checked(a_mat, z[..., None])[..., 0]
        volts = np.zeros(batch + (self.netlist.node_count,))
        volts[..., 1:] = x[..., :self.nv]
        return volts, x[..., self.nv:]


def _solve_checked(a_mat, rhs):
    """A^-1 rhs, or SingularNetwork when A is singular or the residual is too large."""
    try:
        sol = np.linalg.solve(a_mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularNetwork(f"nodal system is singular: {exc}") from None
    _check_solution(a_mat, sol, rhs)
    return sol


def _check_solution(a_mat, sol, rhs):
    """SingularNetwork unless A sol = rhs to within 1e-6 of each right-hand side's scale.

    Each column of rhs, at any batch index, is checked against the larger
    of 1 and its own largest |entry|, so it passes or fails alike in any
    batch; a NaN residual fails.
    """
    residual = np.abs(a_mat @ sol - rhs).max(axis=-2)
    failed = ~(residual <= 1e-6 * np.maximum(1.0, np.abs(rhs).max(axis=-2)))
    if failed.any():
        raise SingularNetwork(f"nodal solve residual {residual[failed].max():g} indicates "
                              "an ill-conditioned (floating?) network")


@dataclass
class SolveResult:
    """DC operating point: per-node voltages and per-element currents (a->b)."""

    node_voltages: np.ndarray
    element_currents: np.ndarray
    total_source_power: float
    netlist: Netlist


def solve_dc(netlist, device_resistances=(), source_values=None):
    """Solve the network DC operating point.

    device_resistances[i] is the present resistance of memristor i.
    source_values optionally maps source element indices to values, each
    switching that source on at that value. Raises SingularNetwork for
    topologies without a unique solution.
    """
    template = MnaTemplate(netlist, source_values)
    res = np.atleast_1d(np.asarray(device_resistances, dtype=float))
    if netlist.device_count and res.shape[-1] < netlist.device_count:
        raise ValueError(f"need {netlist.device_count} device resistances, got {res.size}")
    g = 1.0 / res if netlist.device_count else None
    volts, i_src = template.solve(g)

    currents = np.zeros(len(netlist.elements))
    source_power = 0.0
    for idx, el in enumerate(netlist.elements):
        if isinstance(el, Resistor):
            currents[idx] = (volts[el.a] - volts[el.b]) / el.ohms
        elif isinstance(el, MemristorRef):
            currents[idx] = (volts[el.a] - volts[el.b]) / res[el.device]
        elif idx in template.source_row:
            i = i_src[template.source_row[idx] - template.nv]
            currents[idx] = i
            value = dict(template.active_sources)[idx]
            source_power += -value * i
    return SolveResult(volts, currents, source_power, netlist)


# ---------------------------------------------------------------------------
# Multi-level cell topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellTopology:
    """Port resistor values of the N_SUBCELLS-sub-cell cell.

    r_series and r_write accept either a single value or one per sub-cell;
    unequal per-sub-cell values unlock the larger code space, equal values
    collapse permuted codes onto the same read-out level. read_series_ohms,
    when positive, puts that resistor between each read source and its
    device programming terminal.
    """

    r_series: object = 500.0
    r_write: object = 1500.0
    r_ground: float = DEFAULT_R_GROUND
    read_series_ohms: float = 0.0

    def __post_init__(self):
        if not 0 < self.r_ground < math.inf:
            raise InvalidTopology(f"r_ground must be positive and finite, "
                                  f"got {self.r_ground!r}")
        if not 0 <= self.read_series_ohms < math.inf:
            raise InvalidTopology(f"read_series_ohms must be nonnegative and finite, "
                                  f"got {self.read_series_ohms!r}")
        for name in ("r_series", "r_write"):
            for value in self.per_subcell(name):
                if not 0 < value < math.inf:
                    raise InvalidTopology(f"{name} values must be positive and finite, "
                                          f"got {value!r}")

    def per_subcell(self, name):
        value = getattr(self, name)
        if np.isscalar(value):
            return (float(value),) * N_SUBCELLS
        values = tuple(float(v) for v in value)
        if len(values) != N_SUBCELLS:
            raise InvalidTopology(f"{name} needs 1 or {N_SUBCELLS} values, "
                                  f"got {len(values)}")
        return values


@dataclass(frozen=True)
class CellPorts:
    """Element/node handles into the built cell netlist."""

    write: tuple            # write source element index per sub-cell
    reset: tuple            # reset source element indices (one per device terminal)
    read: tuple             # read source element indices
    devices: tuple          # memristor element index per sub-cell
    probe_node: int         # V_out is the voltage of this node (across r_ground)
    n_devices: int


def build_mlm_cell(topology: CellTopology):
    """Build the N_SUBCELLS-sub-cell cell netlist; returns (netlist, ports).

    All sources are created inactive; the cycle controller switches them
    per phase via solve-time overrides.
    """
    n = N_SUBCELLS
    r_series = topology.per_subcell("r_series")
    r_write = topology.per_subcell("r_write")

    nodes = itertools.count(2)  # node 0 is ground, node 1 the membrane
    membrane = 1
    elements = []
    dev_elems = []
    p_nodes = []
    n_nodes = []
    sw_nodes = []
    for i in range(n):
        p, nneg, sw = next(nodes), next(nodes), next(nodes)
        p_nodes.append(p)
        n_nodes.append(nneg)
        sw_nodes.append(sw)
        elements.append(Resistor(sw, p, r_write[i]))
        dev_elems.append(len(elements))
        elements.append(MemristorRef(p, nneg, device=i))
        elements.append(Resistor(nneg, membrane, r_series[i]))
    elements.append(Resistor(membrane, 0, topology.r_ground))

    write_srcs = []
    for i in range(n):
        write_srcs.append(len(elements))
        elements.append(VoltageSource(sw_nodes[i], 0, 0.0, active=False))

    reset_srcs = []
    for i in range(n):
        reset_srcs.append(len(elements))
        elements.append(VoltageSource(n_nodes[i], 0, 0.0, active=False))

    read_srcs = []
    for i in range(n):
        attach = p_nodes[i]
        if topology.read_series_ohms > 0:
            tap = next(nodes)
            elements.append(Resistor(tap, p_nodes[i], topology.read_series_ohms))
            attach = tap
        read_srcs.append(len(elements))
        elements.append(VoltageSource(attach, 0, 0.0, active=False))

    netlist = Netlist(next(nodes), elements)
    ports = CellPorts(
        write=tuple(write_srcs),
        reset=tuple(reset_srcs),
        read=tuple(read_srcs),
        devices=tuple(dev_elems),
        probe_node=membrane,
        n_devices=n,
    )
    return netlist, ports


class Star:
    """One phase of a built cell in closed form: a star around M.

    kind is the phase, "reset", "write" or "read", and n_steps its length
    in timesteps. Branch i runs from its source U_i through fixed resistors
    F_i and the device R_i, so Z_i = R_i + F_i and y_i = 1/Z_i:

      write - the write source through r_write_i, the device and r_series_i to M;
      read  - the read source through read_series_ohms, the device and
              r_series_i to M;
      reset - the write source through r_write_i to the device, whose
              negative terminal the reset source pins at L_i.

    In a write or a read M floats, and

        V_M = sum U_i y_i / (1/r_ground + sum y_i),    v_i = (U_i - V_M) R_i/Z_i;

    the source power is sum U_i (U_i - V_M) y_i, and a read's probe is V_M.
    In the reset, v_i = (U_i - L_i) R_i/Z_i, V_M is a constant of the phase,
    and the power is sum (U_i - L_i)^2 y_i + sum L_i (L_i - V_M)/r_series_i.

    The drive argument holds each branch's U_i, (rows, n), and pin the
    reset's L_i, of the same shape. The drive attribute holds the branch's
    driving voltage: U_i, or U_i - L_i in the reset; fixed holds the F_i and
    g_ground 1/r_ground, as Python floats. The reset also has v_m, its V_M,
    and rest, the power of its reset branches; both are None in a write or
    a read.
    """

    def __init__(self, topology, kind, n_steps, drive, pin=None):
        r_series = topology.per_subcell("r_series")
        r_write = topology.per_subcell("r_write")
        self.n_steps = n_steps
        self.is_read = kind == "read"
        self.g_ground = 1.0 / float(topology.r_ground)
        self.v_m = self.rest = None
        if kind == "read":
            fixed = [float(topology.read_series_ohms) + r for r in r_series]
        elif kind == "write":
            fixed = [rw + rs for rw, rs in zip(r_write, r_series)]
        elif kind == "reset":
            fixed = r_write
            drive = drive - pin
            # M is Millman's node of the pinned terminals behind r_series
            g_series = [1.0 / r for r in r_series]
            self.v_m = (sum(pin[:, i] * g for i, g in enumerate(g_series))
                        / (self.g_ground + sum(g_series)))
            self.rest = sum(pin[:, i] * (pin[:, i] - self.v_m) / r
                            for i, r in enumerate(r_series))
        else:
            raise ValueError(f"phase kind {kind!r} is none of 'reset', 'write', 'read'")
        self.drive = drive
        self.fixed = tuple(fixed)

    def settle(self, block, peak, rows=slice(None)):
        """Check a block of timesteps and fold its largest source power into peak.

        block is (steps, 2n + 1, rows): each step's branch admittances y,
        branch voltages v and V_M, for the rows selected by rows. Every
        branch voltage and each step's source power must be finite, and in a
        write or a read the currents into M must balance, sum (U_i - V_M) y_i
        = V_M/r_ground, to within 1e-6 of the step's own current scale, so a
        row passes or fails alike in any batch. Otherwise SingularNetwork;
        once every step passes, each row's largest power goes into peak[rows].
        """
        n = len(self.fixed)
        y, v, v_m = block[:, :n], block[:, n:2 * n], block[:, 2 * n]
        drive = self.drive[rows].T
        if self.rest is None:
            current = (drive - v_m[:, None]) * y
            power = _branch_sum(drive * current)
            leak = v_m * self.g_ground
            balanced = (np.abs(_branch_sum(current) - leak)
                        <= 1e-6 * (_branch_sum(np.abs(current)) + np.abs(leak))).all()
        else:
            power = _branch_sum(drive * (drive * y)) + self.rest[rows]
            balanced = True
        # each test is false for NaN
        if not (balanced and np.isfinite(power).all() and np.isfinite(v).all()):
            raise SingularNetwork("a solved step has a non-finite branch voltage or source "
                                  "power, or currents that do not balance at M")
        np.maximum(peak[rows], power.max(axis=0), out=peak[rows])


def _branch_sum(x):
    """x summed over its branch axis, 1, in branch order, the same bits in any layout."""
    return sum((x[:, i] for i in range(1, x.shape[1])), x[:, 0])
