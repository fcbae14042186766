"""Dense-reference integrator for one reset/write/read cycle.

Independent of the controller's cycle core: every timestep re-solves the
whole cell with `network.solve_dc` (which assembles and factors the full
nodal system from scratch), then advances the device states with
`device.resistance_array` and `device.step_array`. The phase schedule is
the documented one:

  reset - v_reset on every reset source, write ports driven at 0 V;
  write - the pattern voltages on the write sources;
  read  - v_read on the read sources; the result is the probe voltage
          averaged over the read window.

A later fast path (reduced solves, skipped steps, de-duplicated rows) must
keep matching this reference.
"""

import numpy as np

from mlmsim import device as dev
from mlmsim import network as net

# Port voltages for logic 0 / 1 / 2, as documented for the write pattern.
WRITE_LEVELS = (0.0, 2.5, 4.0)


def code_voltages(code):
    """Write-port voltages for a code string such as "012"."""
    return tuple(WRITE_LEVELS[int(trit)] for trit in code)


def _steps(duration, dt):
    return int(round(duration / dt))


def dense_cycle(cell, volts, cfg, w0=None):
    """Run one cycle; returns (mean read-out voltage, final device states)."""
    ports = cell.ports
    netlist = cell.netlist
    dev_a = [netlist.elements[e].a for e in ports.devices]
    dev_b = [netlist.elements[e].b for e in ports.devices]
    w = np.zeros((1, ports.n_devices)) if w0 is None else np.array(w0, float)[None, :]

    reset = {idx: cfg.v_reset for idx in ports.reset}
    reset.update({idx: 0.0 for idx in ports.write})
    phases = []
    if cfg.t_reset > 0:
        phases.append((reset, _steps(cfg.t_reset, cfg.dt), False))
    if cfg.t_write > 0:
        phases.append((dict(zip(ports.write, volts)), _steps(cfg.t_write, cfg.dt), False))
    n_read = _steps(cfg.t_read, cfg.dt)
    phases.append(({idx: cfg.v_read for idx in ports.read}, n_read, True))

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


def relative_mismatch(actual, reference):
    """Largest |actual - reference| / |reference|; exact zeros must match."""
    actual = np.atleast_1d(np.asarray(actual, float))
    reference = np.atleast_1d(np.asarray(reference, float))
    diff = np.abs(actual - reference)
    scale = np.abs(reference)
    if np.any((scale == 0) & (diff > 0)):
        return float("inf")
    nonzero = scale > 0
    return float((diff[nonzero] / scale[nonzero]).max()) if nonzero.any() else 0.0
