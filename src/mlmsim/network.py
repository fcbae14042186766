"""Netlist representation and an exact DC solver for resistive networks.

Networks are small (tens of nodes), so the solver is plain dense nodal
analysis with voltage sources handled as extra current unknowns and solved
by direct factorization. Memristor elements are placeholders whose
resistance is supplied per solve. `MnaTemplate.solve` and `solve_dc`
re-stamp and re-factor the whole system on each call and stay the
reference; a template holds only its assembly. For a transient,
`PortModel` reduces the system onto the device branches and writes every
output as a ratio of two polynomials in the device conductances, with
2^n_devices coefficients each. It keeps those coefficients per batch row,
8 x 6 doubles for three devices, so a timestep costs one polynomial
evaluation, and `PortModel.settle` checks a whole block of timesteps and
folds its per-step source power into each row's peak. The part of the
reduction that does not depend on the source values (`PortReduction`) is
built once per source set and kept by its owner, so a model for new
source values costs a few row-wise products. Neither keeps any model; the
caller keeps what it reuses.

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
"""

import math
from dataclasses import dataclass

import numpy as np

# Sub-cells per cell: one per trit of the 3-trit write code.
N_SUBCELLS = 3

# Default ground (probe) resistor, raised from the original 100 ohm; neither
# value is fitted to the reference levels (level 000 reads high at 200 ohm).
DEFAULT_R_GROUND = 200.0
UNCALIBRATED_R_GROUND = 100.0


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

    def __init__(self, node_count, elements, node_names=None):
        self.node_count = int(node_count)
        self.elements = tuple(elements)
        self.node_names = dict(node_names or {})
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

    def _node_label(self, n):
        return self.node_names.get(n, f"n{n}")

    def describe(self):
        """Human-readable element list for debugging."""
        lines = [f"netlist: {self.node_count} nodes, {len(self.elements)} elements"]
        for idx, el in enumerate(self.elements):
            a, b = self._node_label(el.a), self._node_label(el.b)
            if isinstance(el, Resistor):
                lines.append(f"[{idx:2d}] R {a}-{b} {el.ohms:g} ohm")
            elif isinstance(el, MemristorRef):
                lines.append(f"[{idx:2d}] M {a}(+)-{b}(-) device {el.device}")
            elif isinstance(el, VoltageSource):
                state = "on" if el.active else "off"
                lines.append(f"[{idx:2d}] V {a}-{b} {el.volts:g} V ({state})")
        return "\n".join(lines)


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


def _rowwise_product(x, mat):
    """x @ mat for the rows of x, summed one term at a time in order.

    A matrix product takes one BLAS path for one row and another for
    several, and the two can round differently; here each row's result has
    the same bits in a batch of any size.
    """
    out = x[..., 0, None] * mat[0]
    for k in range(1, len(mat)):
        out += x[..., k, None] * mat[k]
    return out


class PortReduction:
    """The half of a `PortModel` that does not depend on the source values.

    A template fixes which sources are engaged, so A0 and its inverse,
    Y = A0^-1 B, K = B^T Y, the subset determinants and adjugates, and the
    reduced system's rows depend only on the template, g0 and the probe
    node. system_t holds those rows transposed, K^T above (I - g0 K)^T, in
    the order [g v; v] of the products and branch voltages they multiply.
    Every array here is read-only, because each model shares it.
    """

    def __init__(self, template, g0, probe_node):
        n = template.netlist.device_count
        b_mat = np.zeros((template.m, n))
        for dev, na, nb in template.device_stamps:
            if b_mat[:, dev].any():
                raise ValueError(f"device {dev} appears in more than one branch")
            if na > 0:
                b_mat[na - 1, dev] = 1.0
            if nb > 0:
                b_mat[nb - 1, dev] = -1.0
        a0 = template.a_base + g0 * (b_mat @ b_mat.T)
        y = _solve_checked(a0, b_mat)
        # row k is A0^-1's column k, so x0 = A0^-1 z sums them weighted by z
        a0_inv_t = _solve_checked(a0, np.eye(template.m)).T.copy()
        keep = [probe_node - 1, *range(template.nv, template.m)]
        k_mat = b_mat.T @ y

        # In g, the system is (I - g0 K + K diag(g)) v = u, and the kept rows
        # are x0_keep + g0 Y_keep^T v - Y_keep^T (g v). Stack both: column j
        # is constant[:, j] + g_j columns[:, j]. For device subset s, `mixed`
        # takes column j from `columns` if j is in s and from `constant` if
        # not; the adjugate of its square part (determinants with one column
        # replaced) gives the Cramer numerators of s's term.
        subsets = 2 ** n
        in_subset = (np.arange(subsets)[:, None] >> np.arange(n)) & 1 == 1
        columns = np.vstack([k_mat, y[keep]])
        constant = np.eye(len(columns), n) - g0 * columns
        mixed = np.where(in_subset[:, None, :], columns, constant)
        block, coupling = mixed[:, :n], mixed[:, n:]
        denominator = np.linalg.det(block)
        # adjugate[s, i, c]: block s with column i replaced by e_c
        replaced = np.broadcast_to(block[:, None, None], (subsets, n, n, n, n)).copy()
        idx = np.arange(n)
        replaced[:, idx, :, :, idx] = np.eye(n)
        adjugate = np.linalg.det(replaced)
        per_u = np.concatenate([adjugate, -(coupling @ adjugate)], axis=1)

        self.template = template
        self.n = n
        self.subsets = subsets
        self.keep = np.array(keep)
        self.b_mat = b_mat
        self.a0 = a0
        self.a0_inv_t = a0_inv_t
        self.per_u = per_u.reshape(-1, n).T
        self.denominator = denominator
        self.no_self_term = ~in_subset
        self.system_t = np.vstack([k_mat.T, constant[:n].T])
        for array in (b_mat, a0, a0_inv_t, self.keep, self.per_u, denominator,
                      self.no_self_term, self.system_t):
            array.flags.writeable = False


class PortModel:
    """A template's system for fixed sources, in closed form in the device conductances.

    Only the device conductances g change from solve to solve, so the nodal
    system is A(g) = A0 + B diag(g - g0) B^T, where B is the node-by-device
    incidence matrix and A0 has every device at the reference conductance
    g0. Solving A0 against B and against z gives Y = A0^-1 B and
    x0 = A0^-1 z (Kron reduction onto the device ports, by the Woodbury
    identity). That leaves one device-count-square system per solve,

        (I + K diag(g - g0)) v = B^T x0,    K = B^T Y,

    whose solution v is the branch voltages; the probe voltage and the
    source currents are x0 - Y ((g - g0) v) on their rows alone.

    Each column of that system is affine in one g_j, so by Cramer's rule
    every output is a ratio of two polynomials that are multilinear in g,
    with one term per subset of the devices: for three devices a, b, c the
    monomials 1, g_a, g_b, g_a g_b, g_c, g_a g_c, g_b g_c, g_a g_b g_c. The
    denominator is the system's determinant,
    shared by every output and every batch row; each numerator is linear in
    the row's right-hand side. The constructor takes every coefficient from
    batched determinants of the column-mixed system. One more numerator,
    the source currents' numerators weighted by each source's -V from z,
    gives the total source power -V*I over the same denominator, so a solve
    never sums the currents, and the currents' own numerators are not kept.
    The model keeps 2^n coefficients per batch row for each branch, the
    probe, the power and the denominator, in that column order: 8 x 6
    doubles per row for three devices, in every phase. A solve is then the
    monomials of g, their products with the coefficients summed in monomial
    order, and one division; the controller's kernels evaluate it
    themselves. The expansion is in g, not in g - g0: the determinant of a
    passive network has terms of one sign in g (the matrix-tree theorem),
    so its sum does not cancel. `check` tests the residual of the reduced
    system against each row's tolerance, 1e-6 times the larger of 1 and
    the row's largest |u|, and raises SingularNetwork on NaN, inf or an
    ill-conditioned system, for many steps at once. `settle` checks a
    kernel's block of steps and folds each row's largest power into its
    peak; `power` gives that power from a float-kernel row's conductances.

    Everything but x0 depends only on the template, g0 and the probe node:
    A0 and its inverse, Y, K, the subset determinants and adjugates, and
    the reduced system's rows. That half is the `PortReduction` the model
    is built from, read-only. The constructor computes only the
    source-dependent half: x0, u = B^T x0, the numerators, the power column
    and the tolerances, each row by products summed in a fixed order, so a
    row's model, and so its checks, have the same bits in a batch of any
    size. Every array a model exposes is its own, so changing one leaves
    the reduction and the next model unchanged.

    z has trailing dimension template.m and may carry batch rows; each
    device appears once in the netlist, and its column is its device index.
    """

    def __init__(self, reduction, z):
        red, tmpl = reduction, reduction.template
        n = red.n
        z = np.asarray(z, dtype=float)
        # x0 and the numerators are row-wise products, so a row's model has
        # the same bits in a batch of any size
        x0 = _rowwise_product(z, red.a0_inv_t)
        _check_solution(red.a0, x0.reshape(-1, tmpl.m).T, z.reshape(-1, tmpl.m).T)
        # B's entries are 0 and +-1, at most two nonzero per column, so every
        # summation order gives u the same bits
        u = x0 @ red.b_mat
        # numerators[..., s, r]: branches adjugate u, kept rows x0_keep D - coupling adjugate u
        numerators = _rowwise_product(u, red.per_u).reshape(u.shape[:-1] + (red.subsets, -1))
        numerators[..., n:] += x0[..., None, red.keep] * red.denominator[:, None]
        # a branch voltage has no term in its own device's conductance
        numerators[..., :n] *= red.no_self_term
        # total source power -V.I: the source currents' numerators weighted by -V
        power = -(numerators[..., n + 1:] * z[..., None, tmpl.nv:]).sum(axis=-1)
        self.coef = np.concatenate(
            [numerators[..., :n + 1], power[..., None],
             np.broadcast_to(red.denominator[:, None], power.shape + (1,))], axis=-1)
        self.system_t = red.system_t.copy()
        self.u = u
        # each row's own tolerance, so its checks do not depend on its batch
        self.tol = 1e-6 * np.maximum(1.0, np.abs(u).max(axis=-1))

    def check(self, stacked, rows=slice(None)):
        """Raise SingularNetwork unless branch voltages solve the reduced
        system to within each row's tol.

        stacked holds, on its second-to-last axis, the products g_j v_j of
        each device's conductance and branch voltage, then the branch
        voltages v_j; its last axis is the batch rows selected by rows, all
        by default, and leading axes, such as a block of timesteps, are
        checked alike; so is one row with its steps on the last axis. A
        NaN or infinite residual fails.
        """
        # the reduced system's residual: K (g v) + (I - g0 K) v - u
        residual = self.system_t.T @ stacked
        residual -= np.atleast_2d(self.u[rows]).T
        np.abs(residual, out=residual)
        failed = ~(residual <= np.atleast_1d(self.tol)[rows])  # also true for NaN and inf
        if failed.any():
            raise SingularNetwork(f"reduced solve residual {residual[failed].max():g} "
                                  "indicates a singular or ill-conditioned network")

    def power(self, g, row):
        """Row row's total source power at each step of a record, from the
        step's conductances g, (n, steps): the power polynomial over the
        denominator's, each g_j folded in, the same operations at any length."""
        poly = self.coef[row, :, -2:, None]
        for j in reversed(range(len(g))):
            upper = poly[2 ** j:] * g[j]
            poly = np.add(upper, poly[:2 ** j], out=upper)
        return poly[0, 0] / poly[0, 1]

    def settle(self, block, power, peak, rows=slice(None)):
        """Check a block of timesteps and fold its largest source power into peak.

        block is (steps, 2n, rows), or one row's (1, 2n, steps): each
        step's conductances g, then branch voltages v, for the rows selected
        by rows; g becomes g v. power is each step's source power, (steps,
        rows) or (steps,). Once every step passes `check`, each row's
        largest power goes into peak[rows], a NaN too.
        """
        n = block.shape[-2] // 2
        np.multiply(block[:, :n], block[:, n:], out=block[:, :n])
        self.check(block, rows)
        np.maximum(peak[rows], power.max(axis=0), out=peak[rows])


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


def network_power(result: SolveResult):
    """Total power dissipated in the passive elements (I squared R)."""
    total = 0.0
    volts = result.node_voltages
    for idx, el in enumerate(result.netlist.elements):
        if isinstance(el, (Resistor, MemristorRef)):
            total += result.element_currents[idx] * (volts[el.a] - volts[el.b])
    return total


def kcl_residual(result: SolveResult):
    """Largest absolute net current into any non-ground node."""
    sums = np.zeros(result.netlist.node_count)
    for idx, el in enumerate(result.netlist.elements):
        i = result.element_currents[idx]
        sums[el.a] -= i
        sums[el.b] += i
    return float(np.abs(sums[1:]).max()) if result.netlist.node_count > 1 else 0.0


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

    names = {0: "gnd", 1: "mem"}
    next_node = 2

    def new_node(label):
        nonlocal next_node
        node = next_node
        names[node] = label
        next_node += 1
        return node

    membrane = 1
    elements = []
    dev_elems = []
    p_nodes = []
    n_nodes = []
    sw_nodes = []
    for i in range(n):
        p = new_node(f"p{i + 1}")
        nneg = new_node(f"q{i + 1}")
        sw = new_node(f"w{i + 1}")
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
            tap = new_node(f"r{i + 1}")
            elements.append(Resistor(tap, p_nodes[i], topology.read_series_ohms))
            attach = tap
        read_srcs.append(len(elements))
        elements.append(VoltageSource(attach, 0, 0.0, active=False))

    netlist = Netlist(next_node, elements, names)
    ports = CellPorts(
        write=tuple(write_srcs),
        reset=tuple(reset_srcs),
        read=tuple(read_srcs),
        devices=tuple(dev_elems),
        probe_node=membrane,
        n_devices=n,
    )
    return netlist, ports
