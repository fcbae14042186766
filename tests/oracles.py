"""Independent reference computations used to freeze expected test values.

Almost everything in here is deliberately written without importing the
package under test: closed-form ODE solutions, hand-rolled series-parallel
ladder reduction, and a brute-force inversion counter. The exceptions are
the dense solve's KCL residual and dissipated power, summed from the
currents it reports; the dense cycle integrator, which reuses the dense
nodal solver and the device kernel but none of the controller; and the
reference device step, the kernel in whole-array form. Tests compare
simulator output against these.
"""

import math

import numpy as np

from mlmsim import device as dev
from mlmsim import network as net


# ---------------------------------------------------------------------------
# Logistic drift oracle
#
# With window exponent 1 the state equation under constant voltage is
#   dw/dt = rate * v * 4 * w * (1 - w)
# which is a logistic ODE, linear in log-odds ln(w/(1-w)).
# ---------------------------------------------------------------------------

def logistic_drift(w0, rate, v, t):
    """Exact state after time t under constant voltage v (window exponent 1)."""
    if w0 <= 0.0:
        return 0.0
    if w0 >= 1.0:
        return 1.0
    lam = math.log(w0 / (1.0 - w0)) + 4.0 * rate * v * t
    # sigmoid, stable on both tails
    if lam >= 0:
        return 1.0 / (1.0 + math.exp(-lam))
    e = math.exp(lam)
    return e / (1.0 + e)


def logistic_drift_trajectory(w0, rate, v, times):
    return np.array([logistic_drift(w0, rate, v, t) for t in times])


# ---------------------------------------------------------------------------
# Series-parallel ladder oracle
#
# Ladder: source node 1 held at v_src, then for each rung i (0-based)
# a series resistor from chain node i to chain node i+1 and a shunt
# resistor from chain node i+1 to ground. All node voltages follow from
# backward impedance reduction plus forward divider ratios; no linear
# algebra involved.
# ---------------------------------------------------------------------------

def random_ladder(rng, max_rungs=5):
    n_rungs = int(rng.integers(1, max_rungs + 1))
    r_series = rng.uniform(10.0, 1e5, size=n_rungs)
    r_shunt = rng.uniform(10.0, 1e5, size=n_rungs)
    v_src = rng.uniform(0.01, 10.0)
    return v_src, r_series.tolist(), r_shunt.tolist()


def ladder_node_voltages(v_src, r_series, r_shunt):
    """Expected voltages at chain nodes 1..n_rungs+1 (node 1 is the source)."""
    n = len(r_series)
    assert len(r_shunt) == n
    # downstream resistance seen from chain node i+1 toward ground
    down = [0.0] * (n + 1)
    down[n] = r_shunt[n - 1]
    for i in range(n - 1, 0, -1):
        rest = r_series[i] + down[i + 1]
        down[i] = r_shunt[i - 1] * rest / (r_shunt[i - 1] + rest)
    volts = [v_src]
    for i in range(n):
        volts.append(volts[i] * down[i + 1] / (r_series[i] + down[i + 1]))
    return volts


def ladder_input_resistance(r_series, r_shunt):
    volts = ladder_node_voltages(1.0, r_series, r_shunt)
    i_in = (volts[0] - volts[1]) / r_series[0]
    return 1.0 / i_in


def divider_vout(v_src, r_top, r_bottom):
    """Two-resistor divider probe voltage, the simplest read-out oracle."""
    return v_src * r_bottom / (r_top + r_bottom)


# ---------------------------------------------------------------------------
# Dense solve checks
#
# Conservation laws a DC operating point must satisfy, summed element by
# element from the currents solve_dc reports.
# ---------------------------------------------------------------------------

def network_power(result):
    """Total power dissipated in the passive elements (I squared R)."""
    total = 0.0
    volts = result.node_voltages
    for idx, el in enumerate(result.netlist.elements):
        if isinstance(el, (net.Resistor, net.MemristorRef)):
            total += result.element_currents[idx] * (volts[el.a] - volts[el.b])
    return total


def kcl_residual(result):
    """Largest absolute net current into any non-ground node."""
    sums = np.zeros(result.netlist.node_count)
    for idx, el in enumerate(result.netlist.elements):
        i = result.element_currents[idx]
        sums[el.a] -= i
        sums[el.b] += i
    return float(np.abs(sums[1:]).max()) if result.netlist.node_count > 1 else 0.0


# ---------------------------------------------------------------------------
# Ordering oracle
# ---------------------------------------------------------------------------

def inversion_count(sequence):
    """Number of pairwise inversions, counted by brute force."""
    seq = list(sequence)
    count = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                count += 1
    return count


# ---------------------------------------------------------------------------
# Euler reference stepper (plain floats, no dependency on the package)
# ---------------------------------------------------------------------------

def euler_drift_reference(w0, rate, v, dt, n_steps, p=1):
    """Forward-Euler integration of dw/dt = rate*v*(1-(2w-1)^(2p)), clamped."""
    w = float(w0)
    for _ in range(n_steps):
        f = 1.0 - ((2.0 * w - 1.0) ** 2) ** p
        w = w + rate * v * f * dt
        if w < 0.0:
            w = 0.0
        elif w > 1.0:
            w = 1.0
    return w


# ---------------------------------------------------------------------------
# Reference device step
#
# The device kernel in whole-array form: one expression per quantity, a
# select for the threshold gate and np.clip for the bounds. The in-place
# kernel in mlmsim.device must give the same bits for finite inputs.
# ---------------------------------------------------------------------------

def reference_step_array(w, v, dt, params, kind):
    """In-place one-step forward-Euler update of the states w under branch voltages v."""
    active = np.ones_like(w, dtype=bool)
    if kind is dev.DeviceModelKind.THRESHOLD_DRIFT:
        active = (v >= params.v_th_pos) | (v <= params.v_th_neg)

    # window evaluated off the boundary when the drive points inward
    arg = np.where(v > 0, np.maximum(w, dev.W_BOUNDARY_ESCAPE),
                   np.minimum(w, 1.0 - dev.W_BOUNDARY_ESCAPE))
    f = 1.0 - ((2.0 * arg - 1.0) ** 2) ** params.window_p
    dw = params.drift_rate * v * f * dt
    w += np.where(active, dw, 0.0)
    np.clip(w, 0.0, 1.0, out=w)
    return w


# ---------------------------------------------------------------------------
# Dense cycle integrator
#
# One reset/write/read cycle of a batch-1 cell, re-solving the whole network
# with network.solve_dc on every timestep and running every step of every
# phase. The phase schedule and the order of the noise draws are the
# documented ones: reset amplitude, one per write port held at 0 V during
# the reset, one per write port, then the read amplitude.
# ---------------------------------------------------------------------------

def dense_sources(ports, kind, drive, pin=None):
    """A phase given by role as the built netlist's source element indices.

    kind, drive and pin are as `network.Star` takes them: drive[..., i]
    goes on sub-cell i's write port (reset, write) or read port (read), and
    in the reset pin[..., i] on its device negative terminal. The values
    are as `network.solve_dc` and `network.MnaTemplate` take them.
    """
    rails = ports.read if kind == "read" else ports.write
    sources = dict(zip(rails, np.moveaxis(np.asarray(drive, dtype=float), -1, 0)))
    if kind == "reset":
        sources.update(zip(ports.reset, np.moveaxis(np.asarray(pin, dtype=float), -1, 0)))
    return sources


def dense_cycle(cell, volts, cfg, w0=None, sigma=0.0, rng=None):
    """Run one cycle; returns (mean read-out voltage, final device states)."""
    def draw():
        return rng.normal(0.0, sigma) if sigma else 0.0

    ports, netlist = cell.ports, cell.netlist
    dev_a = [netlist.elements[e].a for e in ports.devices]
    dev_b = [netlist.elements[e].b for e in ports.devices]
    w = np.zeros((1, ports.n_devices)) if w0 is None else np.array(w0, float)[None, :]

    def steps(duration):
        return int(round(duration / cfg.dt))

    n = ports.n_devices
    phases = []
    if cfg.t_reset > 0:
        pin = [cfg.v_reset + draw()] * n
        reset = dense_sources(ports, "reset", [draw() for _ in range(n)], pin)
        phases.append((reset, steps(cfg.t_reset), False))
    if cfg.t_write > 0:
        write = dense_sources(ports, "write", [v + draw() for v in volts])
        phases.append((write, steps(cfg.t_write), False))
    n_read = steps(cfg.t_read)
    phases.append((dense_sources(ports, "read", [cfg.v_read + draw()] * n), n_read, True))

    probe_sum = 0.0
    for sources, n_steps, is_read in phases:
        for _ in range(n_steps):
            r = dev.resistance_array(w, cell.params, cfg.temperature)
            node_v = net.solve_dc(netlist, r[0], sources).node_voltages
            v_dev = node_v[dev_a] - node_v[dev_b]
            dev.step_array(w, v_dev[None, :], cfg.dt, cell.params, cell.kind)
            if is_read:
                probe_sum += node_v[ports.probe_node]
    return probe_sum / n_read, w[0]
