"""Cycle execution and experiment drivers for the multi-level cell.

A cycle is a list of quasi-static phases. Every phase of the cell is a star
around the membrane node M, so each phase is a `network.Star`, which holds
it in closed form: built from the cell's topology, the phase's role (reset,
write or read), its step count and each branch's source amplitude, one per
batch row. One loop, `_run_phases`, runs any such list. On every timestep
Millman's theorem then gives the exact branch voltages for the frozen
device resistances, after which each device state advances one explicit
Euler step under its own branch voltage. Devices therefore interact
through the shared node M during the write transient, which is the only
mechanism that can make a device's final state depend on the whole
pattern rather than its own port alone.

A step that leaves every state of the batch bit-identical would repeat
itself for the rest of the phase, so the phase ends there. Both kernels add
a read's probe voltage to its sum on every step, and a read that ends
early adds its last probe voltage once per remaining step, so the mean
rounds exactly as a full read's would; peak power cannot change. The
kernels only step: `_run_phases` measures a read's drift once, from the
states before and after it.

The full cycle is the list below; a zero-length reset or write is left out,
and the single-phase operations run a one-element list through the same loop.
  reset  - every device negative terminal pinned at v_reset, each branch
           driven at 0 V from its write port so the erase current can
           return to ground; drives every state toward w = 0.
  write  - every branch driven from its write port at the pattern voltage.
  read   - every branch driven from its read port at v_read; the
           measurement is the mean probe voltage over the window, and any
           state motion beyond tolerance raises NonQuiescentRead.

Both kernels hand each step's branch admittances, branch voltages and V_M,
a block at a time, to the phase's star (`network.Star.settle`), the only
code that checks a step or takes the source power: it checks that every
branch voltage and power is finite and that the currents balance at M,
and folds each row's largest power into its peak.

Two kernels step a phase, chosen by the number of rows simulated at once. A
batch of more than FLOAT_KERNEL_MAX_ROWS rows, as in the temperature study
and the noisy sweep, runs numpy calls on whole device-major arrays
(`_step_arrays`), each step into a buffer of at most BLOCK_DOUBLES doubles
that is settled when it fills or the phase goes quiescent. At a few rows a
numpy call costs more in overhead than in arithmetic, so the kernel
prepares the device law once per phase (`device.step_scratch`) and binds
what a step calls. A smaller batch, as in `run_cycle`, the single-phase
operations, the ten distinct rows of the sweep and the level scan, steps
in Python floats (`_step_floats`): one row after another, each step
straight-line code over the three devices' floats with the device law
inline, and each row ends a phase at its own quiescent step. A float step
recomputes a device's resistance and admittance only when its state
moved. Both kernels use the same phase list, star, settle and read sum,
and the same operations in the same order, so a row gets the same bits
from either; the inline law gives `device.step_array`'s bits.

Fresh cells without noise give equal write patterns equal results, so the
input sweep and the all-codes scan simulate each distinct pattern once and
copy its results to every row that has it: the default 61-point sweep
simulates 10 rows. The kernel follows those simulated rows, so the
default sweep runs the float kernel.

With source noise, each phase draws its perturbations as its star is
built, in this order: the reset's pin amplitude, one per branch the reset
drives at 0 V, one per branch of the write, then the read amplitude.
Every noise stream comes from `_noise_rng`: the seed, plus a spawn key
that names an independent substream where a driver needs several.

Everything operates on batches of cell instances at once (one row per
pattern / trial), which keeps sweeps, studies and calibration inside one
batched evaluation per timestep. A batch may hold several groups of equal
size, each with its own spawn key and so its own substream: each draw
above takes one value per row of the first group from that group's
substream, then one per row of the second group from its own, and so on,
in group order. A group therefore sees exactly the numbers it would draw
if it ran alone. Each row may also carry its own temperature. Every row is
solved and stepped on its own, elementwise, and a phase that runs on past
a group's quiescent step repeats that step bit for bit, so a group gets
the same results inside a batch of any size as alone, on either kernel.
"""

import dataclasses
import math
import numbers
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import device as dev
from . import encoder as enc
from . import network as net

# Maximum tolerated state motion during a read, as a fraction of full scale.
READ_DISTURB_TOLERANCE = 1e-3

# Smallest gap between adjacent read-out levels, as a fraction of their span,
# that `write_then_read_all_codes` accepts.
MIN_LEVEL_SEPARATION = 0.005

# Longest cycle a CycleConfig may describe, in timesteps (the default is 2800).
MAX_CYCLE_STEPS = 10**6

# Most rows a batched driver may simulate at once (a temperature study runs
# temperatures x trials x codes rows).
MAX_BATCH_ROWS = 10**5

# Largest batch that `_run_phases` steps in Python floats, one row after
# another; a larger one steps in numpy. On noisy (1 mV) default-dt level-code
# cycles (medians of interleaved CPU-time ratios), floats are 1.4-1.5x faster at
# 12 rows, 1.2-1.25x at 14, 1.05-1.1x at 16-17, 0.96-1.01x at 18, 0.91-0.99x at 20.
FLOAT_KERNEL_MAX_ROWS = 17

# Most doubles a kernel keeps for one block of a phase's timesteps before
# the star settles it (`_block_length`): 117 steps at 40 rows, 4681 of one
# row. A whole-phase buffer would grow with the phase and the batch.
BLOCK_DOUBLES = 2**15


class NonQuiescentRead(Exception):
    """A read phase moved device state beyond tolerance (thresholds mis-set)."""


class DegenerateLevels(Exception):
    """Two codes produced read-out levels closer than the separation tolerance."""


class CalibrationFailed(Exception):
    """The optimizer could not improve on the initial parameter guess."""


def celsius_to_kelvin(temp_c):
    return temp_c + 273.15


@dataclass(frozen=True)
class CycleConfig:
    """Timing and amplitudes of one reset/write/read cycle."""

    v_reset: float = 4.0
    t_reset: float = 0.6e-3
    v_read: float = 0.05
    t_write: float = 0.6e-3
    t_read: float = 0.2e-3
    dt: float = 5e-7
    temperature: float = 293.15

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be above 0 K, got {self.temperature!r}")
        if self.v_read == 0:
            raise ValueError("v_read must be nonzero: a 0 V read gives every level 0 V")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        for name in ("t_reset", "t_write", "t_read"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.t_read < self.dt:
            raise ValueError("t_read must cover at least one timestep")
        shortest = min(t for t in (self.t_reset, self.t_write, self.t_read) if t > 0)
        if self.dt > shortest / 10:
            raise ValueError(f"dt {self.dt} too coarse for shortest phase {shortest}")
        n_steps = (self.t_reset + self.t_write + self.t_read) / self.dt
        if n_steps > MAX_CYCLE_STEPS:
            raise ValueError(f"a cycle of {n_steps:.4g} steps exceeds the "
                             f"{MAX_CYCLE_STEPS}-step limit")

    def steps(self, duration):
        return int(round(duration / self.dt))


@dataclass(frozen=True)
class NoiseConfig:
    """Seeded additive perturbation of engaged source amplitudes, per phase."""

    source_noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.source_noise_sigma) or self.source_noise_sigma < 0:
            raise ValueError("noise sigma must be finite and nonnegative")
        if not isinstance(self.rng_seed, numbers.Integral) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {self.rng_seed!r}")


@dataclass
class Measurement:
    """One recorded cycle.

    v_in is the sweep input in V (None when no encoder drove the cycle),
    code the recorded code, v_out the mean read-out in V,
    final_device_states the device states w after the read, pattern the
    WritePattern applied to the write ports (V), and peak_power the largest
    total source power at any step of the cycle, in W.
    """

    v_in: object
    code: enc.TernaryCode
    v_out: float
    final_device_states: tuple
    pattern: enc.WritePattern
    peak_power: float


@dataclass(frozen=True)
class StudyStats:
    code: enc.TernaryCode
    temp_c: float
    mean: float
    stdev: float


@dataclass(frozen=True)
class Cell:
    """A built cell: device parameterization, topology, netlist and ports."""

    params: dev.MemristorParams
    kind: dev.DeviceModelKind
    topology: net.CellTopology
    netlist: net.Netlist
    ports: net.CellPorts


def make_cell(topology=None, params=None,
              kind=dev.DeviceModelKind.THRESHOLD_DRIFT) -> Cell:
    topology = topology or net.CellTopology()
    params = params or dev.MemristorParams()
    netlist, ports = net.build_mlm_cell(topology)
    return Cell(params, kind, topology, netlist, ports)


# ---------------------------------------------------------------------------
# Phase schedule and the loop that runs it
# ---------------------------------------------------------------------------

def _no_noise():
    return 0.0


def _noise_rng(noise, spawn_key=()):
    """The seeded noise stream; spawn_key names an independent substream."""
    return np.random.default_rng(np.random.SeedSequence(noise.rng_seed,
                                                        spawn_key=spawn_key))


def _noise_draw(noise, spawn_keys, rows):
    """Per-phase amplitude perturbation: one fresh draw per call.

    Each draw concatenates `rows` values from each spawn key's substream,
    in the order of spawn_keys.
    """
    if noise is None or noise.source_noise_sigma == 0.0:
        return _no_noise
    rngs = [_noise_rng(noise, key) for key in spawn_keys]
    sigma = noise.source_noise_sigma
    return lambda: np.concatenate([rng.normal(0.0, sigma, size=rows) for rng in rngs])


def _branches(rows, amplitudes):
    """One column per branch, (rows, n): each amplitude a float or one value per row."""
    return np.column_stack([np.broadcast_to(np.asarray(a, dtype=float), (rows,))
                            for a in amplitudes])


def _reset_phase(cell, cfg, rows, draw):
    pin = cfg.v_reset + draw()
    held = [np.zeros(rows) + draw() for _ in range(net.N_SUBCELLS)]
    return net.Star(cell.topology, "reset", cfg.steps(cfg.t_reset), _branches(rows, held),
                    _branches(rows, [pin] * net.N_SUBCELLS))


def _write_phase(cell, cfg, patterns, draw):
    drive = _branches(len(patterns), [patterns[:, k] + draw() for k in range(net.N_SUBCELLS)])
    return net.Star(cell.topology, "write", cfg.steps(cfg.t_write), drive)


def _read_phase(cell, cfg, rows, draw):
    drive = _branches(rows, [cfg.v_read + draw()] * net.N_SUBCELLS)
    return net.Star(cell.topology, "read", cfg.steps(cfg.t_read), drive)


def _cycle_phases(cell, cfg, patterns, draw):
    """Reset, write, read; a zero-length reset or write is left out."""
    rows = len(patterns)
    phases = []
    if cfg.t_reset > 0:
        phases.append(_reset_phase(cell, cfg, rows, draw))
    if cfg.t_write > 0:
        phases.append(_write_phase(cell, cfg, patterns, draw))
    phases.append(_read_phase(cell, cfg, rows, draw))
    return phases


def _run_phases(cell, cfg, phases, w, temperature=None):
    """Run the phases in order on the (B, n) states w, which change in place.

    Each phase is a `network.Star` of B rows, which carries its step count
    and whether it is the read. temperature holds one value per batch row
    in K; None means cfg.temperature for every row. Returns (v_out, read
    drift, peak source power), one value per batch row; v_out and drift
    stay None when no phase is the read. A batch of up to
    FLOAT_KERNEL_MAX_ROWS rows steps in Python floats (`_step_floats`), a
    larger one in numpy (`_step_arrays`).
    """
    batch = w.shape[0]
    if temperature is None:
        temperature = cfg.temperature
    else:
        temperature = np.reshape(temperature, (batch, 1))
    factor = dev.temperature_factor(cell.params, temperature)
    if not np.all(factor > 0):
        k, t = int(np.argmin(factor)), np.ravel(temperature)
        raise ValueError(f"the device temperature factor 1 + temp_coeff*(T - t_ref) is "
                         f"{np.ravel(factor)[k]:.4g} at T = {t[k]:.6g} K; it must be positive")
    run_phase = _step_floats if batch <= FLOAT_KERNEL_MAX_ROWS else _step_arrays
    v_out = drift = None
    peak_power = np.zeros(batch)
    for star in phases:
        w_start = w.copy() if star.is_read else None
        try:
            probe_sum = run_phase(cell, cfg, star, w, factor, peak_power)
        except ZeroDivisionError:
            # a float-kernel division by zero, where numpy's NaN fails the guard
            raise net.SingularNetwork("a solved step divides by zero") from None
        if star.is_read:
            # a read drives every branch at the row's one amplitude, so
            # every branch voltage has its sign at every step: each state
            # moves one way, and its largest |w_t - w_0| is its last, bit for bit
            drift = np.abs(w - w_start).max(axis=1)
            if (drift >= READ_DISTURB_TOLERANCE).any():
                raise NonQuiescentRead(
                    f"read moved device state by {drift.max():.3e} of full scale "
                    f"(tolerance {READ_DISTURB_TOLERANCE:g})")
            v_out = probe_sum / star.n_steps
    return v_out, drift, peak_power


def _block_length(n_steps, n, batch):
    """Steps per settled block: at most BLOCK_DOUBLES doubles of 2n + 1 per row, or one."""
    return max(1, min(n_steps, BLOCK_DOUBLES // ((2 * n + 1) * batch)))


def _step_arrays(cell, cfg, star, w, factor, peak_power):
    """Step the states w through the phase the star holds; returns the probe sum.

    The star gives the phase's step count, whether it is the read, and its
    constants. factor is the device temperature factor, a scalar or a
    (B, 1) array. w and peak_power change in place; the probe sum, one
    value per batch row, stays zero unless the phase is the read.

    The loop runs device-major, on (n, B) states whose rows are devices.
    Each step computes the device resistances R, the branch admittances
    y = 1/(R + F) and ratios R/(R + F), then the star's formulas
    (`network.Star`): V_M, whose sums run over the devices in order, and
    the branch voltages; the reset's branch voltages need no V_M. It then
    steps the devices. Its admittances, branch voltages and V_M go into one
    slab of a (`_block_length`, 2n + 1, B) trajectory buffer, and a read
    adds V_M, its probe voltage, to the sum. When the buffer fills or the
    phase goes quiescent, the star settles the block (`network.Star.settle`),
    so the kernel's memory does not grow with the phase length.

    Once per phase the kernel prepares the device law for the cell's
    parameters, dt and kind (`device.step_scratch`: its constants as 0-d
    arrays, its window exponent decided), broadcasts the temperature factor
    and the fixed resistors to the states' shape, since a numpy call costs
    about twice as much when it broadcasts an operand, looks up
    `device.step_array` through the module, and binds each slab's views.
    A step is then 31 numpy calls in a write or a read, with each output
    passed by position where numpy allows it: 13 for the star and 18 for
    the device step (one more for a window exponent above 1); a read adds 1
    for its probe sum, and the reset needs 7 for its star. Every operation
    is the float kernel's, in its order, so both give a row the same bits.
    """
    batch, n = w.shape
    params, dt, kind = cell.params, cfg.dt, cell.kind
    is_read, n_steps = star.is_read, star.n_steps
    old = np.ascontiguousarray(w.T)
    new = np.empty_like(old)
    # the device law prepared for this phase, and every function a step uses
    # bound once: step_array through the module, so a wrapper installed on
    # it sees every step
    scratch = dev.step_scratch(old.shape, params, dt, kind)
    span, r_on = scratch[4][:2]
    step = dev.step_array
    add, subtract, multiply, divide, add_reduce = (np.add, np.subtract, np.multiply,
                                                   np.divide, np.add.reduce)
    # every constant at the states' shape, so no step broadcasts it
    factor = np.broadcast_to(np.transpose(factor), old.shape).copy()
    fixed = np.broadcast_to(np.array(star.fixed)[:, None], old.shape).copy()
    pinned = star.v_m is not None
    drive = np.ascontiguousarray(star.drive.T)
    one, g_ground = np.array(1.0), np.array(star.g_ground)
    r, z, ratio, work = (np.empty_like(old) for _ in range(4))
    num, den = np.empty((2, batch))
    steps = np.empty((_block_length(n_steps, n, batch), 2 * n + 1, batch))
    if pinned:
        steps[:, 2 * n] = star.v_m
    # per slab, made when a step first reaches it (most phases go quiescent
    # within a few steps): its admittances, branch voltages and V_M
    slabs = []
    probe_sum = np.zeros(batch)
    done = 0
    while done < n_steps:
        for count in range(1, min(len(steps), n_steps - done) + 1):
            if count > len(slabs):
                slab = steps[count - 1]
                slabs.append((slab[:n], slab[n:2 * n], slab[2 * n]))
            y, v, v_m = slabs[count - 1]
            multiply(old, span, r)
            add(r, r_on, r)
            multiply(r, factor, r)
            add(r, fixed, z)
            divide(one, z, y)
            divide(r, z, ratio)
            if pinned:
                multiply(drive, ratio, v)
            else:
                multiply(drive, y, work)
                add_reduce(work, 0, None, num)
                add_reduce(y, 0, None, den)
                add(den, g_ground, den)
                divide(num, den, v_m)
                subtract(drive, v_m, work)
                multiply(work, ratio, v)
            step(old, v, dt, params, kind, new, scratch)
            if is_read:
                add(probe_sum, v_m, probe_sum)
            old, new = new, old
            # bytes, faster than ==: a state that only turns 0.0 into -0.0
            # delays the stop by one step, which repeats exactly
            quiescent = old.tobytes() == new.tobytes()
            if quiescent:
                break
        done += count
        star.settle(steps[:count], peak_power)
        if quiescent:
            # every later step of the phase would repeat this one exactly,
            # so each adds the same probe voltage
            if is_read:
                for _ in range(n_steps - done):
                    add(probe_sum, v_m, probe_sum)
            break
    w[...] = old.T
    return probe_sum


def _step_floats(cell, cfg, star, w, factor, peak_power):
    """`_step_arrays` for a small batch of the cell's three devices, in Python floats.

    At three devices a numpy call costs more than the arithmetic it does, so
    the rows are stepped one after another in straight-line float code, each
    at its own temperature factor, through the star's phase (`network.Star`):
    its step count, whether it is the read, and its constants unpacked as
    Python floats. A step computes V_M and the three branch voltages (the
    reset's stay fixed until their device moves), the device law and a
    read's probe sum, and packs its admittances, branch voltages and V_M
    into the record. Every `_block_length` steps and at the row's
    last step, the star settles the record for row k with its steps first
    (`network.Star.settle`). Each row ends the phase at its own quiescent
    step, which in the numpy kernel it would repeat bit for bit.

    The device law is `device._law`'s, unpacked as Python floats: one
    threshold law, whose band is empty under linear drift. It is written
    out for each device with the float operations `device.step_array`
    applies elementwise, so it gives its bits for every kind and window_p.
    A device's resistance, admittance and ratio are recomputed only when its
    state moved. Every operation is the numpy kernel's, in its order, so a
    row has the same bits in either kernel.
    """
    is_read, n_steps = star.is_read, star.n_steps
    span, r_on, rate, dt, th_pos, th_neg, p = dev._law(cell.params, cfg.dt, cell.kind)
    low, high = dev.W_BOUNDARY_ESCAPE, 1.0 - dev.W_BOUNDARY_ESCAPE
    fa, fb, fc = star.fixed
    g_ground = star.g_ground
    pinned = star.v_m is not None
    drives = star.drive.tolist()
    # the reset's V_M is fixed; a write or a read sets it every step
    v_ms = star.v_m.tolist() if pinned else [0.0] * len(w)
    block = _block_length(n_steps, 3, 1)
    # y_a, y_b, y_c, v_a, v_b, v_c, V_M of each step since the last settle
    record, pack = bytearray(56 * block), struct.Struct("7d").pack_into
    probe_sums = np.zeros(len(w))
    factors = np.broadcast_to(np.ravel(factor), len(w)).tolist()
    for k, factor in enumerate(factors):
        ua, ub, uc = drives[k]
        vm = v_ms[k]
        wa, wb, wc = w[k].tolist()
        ra = (r_on + wa * span) * factor
        rb = (r_on + wb * span) * factor
        rc = (r_on + wc * span) * factor
        za, zb, zc = ra + fa, rb + fb, rc + fc
        ya, yb, yc = 1.0 / za, 1.0 / zb, 1.0 / zc
        ka, kb, kc = ra / za, rb / zb, rc / zc
        # the reset's branch voltages; a write or a read sets them every step
        va, vb, vc = ua * ka, ub * kb, uc * kc
        probe_sum = 0.0
        quiescent = False
        for start in range(0, n_steps, block):
            for step in range(start, min(start + block, n_steps)):
                if not pinned:
                    vm = (ua * ya + ub * yb + uc * yc) / (ya + yb + yc + g_ground)
                    va = (ua - vm) * ka
                    vb = (ub - vm) * kb
                    vc = (uc - vm) * kc
                pack(record, 56 * (step - start), ya, yb, yc, va, vb, vc, vm)
                # the device law, once per device: frozen inside the
                # threshold band, else an Euler step of the window law;
                # each conditional picks what np.maximum / np.minimum would
                if th_neg < va < th_pos:
                    na = wa if wa > 0.0 else 0.0
                else:
                    x = (low if wa < low else wa) if va > 0.0 else (high if wa > high else wa)
                    x = x + x - 1.0
                    x = x * x
                    if p is not None:
                        x = x * x if p == 2 else _window_power(x, p)
                    na = wa + rate * va * (1.0 - x) * dt
                    na = 1.0 if na >= 1.0 else 0.0 if na <= 0.0 else na
                if th_neg < vb < th_pos:
                    nb = wb if wb > 0.0 else 0.0
                else:
                    x = (low if wb < low else wb) if vb > 0.0 else (high if wb > high else wb)
                    x = x + x - 1.0
                    x = x * x
                    if p is not None:
                        x = x * x if p == 2 else _window_power(x, p)
                    nb = wb + rate * vb * (1.0 - x) * dt
                    nb = 1.0 if nb >= 1.0 else 0.0 if nb <= 0.0 else nb
                if th_neg < vc < th_pos:
                    nc = wc if wc > 0.0 else 0.0
                else:
                    x = (low if wc < low else wc) if vc > 0.0 else (high if wc > high else wc)
                    x = x + x - 1.0
                    x = x * x
                    if p is not None:
                        x = x * x if p == 2 else _window_power(x, p)
                    nc = wc + rate * vc * (1.0 - x) * dt
                    nc = 1.0 if nc >= 1.0 else 0.0 if nc <= 0.0 else nc
                if is_read:
                    probe_sum += vm
                # equal states, 0.0 and -0.0 included, have equal resistances
                moved = False
                if na != wa:
                    ra = (r_on + na * span) * factor
                    za = ra + fa
                    ya, ka = 1.0 / za, ra / za
                    va = ua * ka
                    moved = True
                if nb != wb:
                    rb = (r_on + nb * span) * factor
                    zb = rb + fb
                    yb, kb = 1.0 / zb, rb / zb
                    vb = ub * kb
                    moved = True
                if nc != wc:
                    rc = (r_on + nc * span) * factor
                    zc = rc + fc
                    yc, kc = 1.0 / zc, rc / zc
                    vc = uc * kc
                    moved = True
                if not moved:
                    # every later step of the phase would repeat this one exactly
                    if is_read:
                        for _ in range(n_steps - step - 1):
                            probe_sum += vm
                    quiescent = True
                    break
                wa, wb, wc = na, nb, nc
            steps = np.frombuffer(record, count=7 * (step + 1 - start)).reshape(-1, 7, 1)
            star.settle(steps, peak_power, slice(k, k + 1))
            if quiescent:
                break
        w[k] = wa, wb, wc
        probe_sums[k] = probe_sum
    return probe_sums


def _window_power(x, p):
    """x ** p as numpy's power loop rounds it; Python's pow can differ in the last bit."""
    return np.power([x], p).tolist()[0]


def _initial_states(cell, w0, batch):
    """w0 as a fresh (batch, n_devices) array; each state finite and in [0, 1]."""
    n = net.N_SUBCELLS
    w = np.array(w0, dtype=float)
    if w.ndim == 0 or w.shape[-1] != n or w.size != batch * n:
        raise ValueError(f"w0 needs {n} device states for each of {batch} row(s), "
                         f"got shape {w.shape}")
    bad = ~((w >= 0.0) & (w <= 1.0))  # also true for NaN
    if bad.any():
        raise ValueError(f"w0 state {w[bad][0]!r} is not a finite value in [0, 1]")
    return w.reshape(batch, n)


def _run_batch(cell, patterns, cfg, w0=None, noise=None, spawn_keys=((),),
               temperature=None):
    """One cycle over the pattern rows: (v_out, final states, drift, peak power).

    The rows split into len(spawn_keys) equal groups, in order, and each
    group draws its noise from its own substream. temperature optionally
    gives one value per row in K.
    """
    patterns = np.asarray(patterns, dtype=float)
    if patterns.ndim == 1:
        patterns = patterns[None, :]
    batch, n = patterns.shape
    if n != net.N_SUBCELLS:
        raise ValueError(f"pattern has {n} ports, cell has {net.N_SUBCELLS}")
    bad = np.argwhere(~np.isfinite(patterns))
    if len(bad):
        row, port = bad[0]
        raise ValueError(f"write voltage {float(patterns[row, port])!r} at row {row}, port {port} "
                         "is not finite")
    w = np.zeros((batch, n)) if w0 is None else _initial_states(cell, w0, batch)
    draw = _noise_draw(noise, spawn_keys, batch // len(spawn_keys))
    phases = _cycle_phases(cell, cfg, patterns, draw)
    v_out, drift, peak_power = _run_phases(cell, cfg, phases, w, temperature)
    return v_out, w, drift, peak_power


def _measure(cell, cfg, patterns, codes, v_ins, noise=None, w0=None):
    """One batched cycle over WritePatterns; a Measurement per row, in order.

    Without starting states or noise, each distinct row of write voltages,
    compared by its bits, is simulated once, and its results go to every
    row that has it.
    """
    volts = np.array([p.port_voltages for p in patterns], dtype=float)
    if (w0 is None and len(volts) > 1
            and (noise is None or noise.source_noise_sigma == 0.0)):
        _, first, inverse = np.unique(volts.view(np.int64), axis=0, return_index=True,
                                      return_inverse=True)
        v_out, w, _, peak = _run_batch(cell, volts[first], cfg)
        v_out, w, peak = v_out[inverse], w[inverse], peak[inverse]
    else:
        v_out, w, _, peak = _run_batch(cell, volts, cfg, w0=w0, noise=noise)
    return [Measurement(v_in, code, float(vo), tuple(states), p, float(pk))
            for v_in, code, p, vo, states, pk in zip(v_ins, codes, patterns, v_out, w, peak)]


def _level_patterns(table):
    return [enc.code_to_write_voltages(row.code) for row in table.rows]


def _level_volts(table):
    return np.array([p.port_voltages for p in _level_patterns(table)])


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def run_cycle(cell: Cell, pattern, cfg: CycleConfig = CycleConfig(),
              noise: NoiseConfig = None, w0=None) -> Measurement:
    """Execute one full reset/write/read cycle for a single pattern."""
    if not isinstance(pattern, enc.WritePattern):
        pattern = enc.WritePattern(tuple(float(v) for v in pattern))
    return _measure(cell, cfg, [pattern], [enc.quantize_pattern(pattern)], [None],
                    noise, w0)[0]


def run_reset_phase(cell: Cell, w0, cfg: CycleConfig = CycleConfig()):
    """Apply only the reset phase to the given states; returns new states."""
    w = _initial_states(cell, w0, 1)
    _run_phases(cell, cfg, [_reset_phase(cell, cfg, 1, _no_noise)], w)
    return w[0]


def run_read_phase(cell: Cell, w0, cfg: CycleConfig = CycleConfig()):
    """Apply only the read phase; returns (v_out, new states, largest state change)."""
    w = _initial_states(cell, w0, 1)
    v_out, drift, _ = _run_phases(cell, cfg, [_read_phase(cell, cfg, 1, _no_noise)], w)
    return float(v_out[0]), w[0], float(drift[0])


def run_input_sweep(cell, encoder_path="behavioral", cfg: CycleConfig = CycleConfig(),
                    sweep=None, table: enc.BinTable = enc.DEFAULT_BIN_TABLE,
                    enc_cfg: enc.EncoderConfig = enc.EncoderConfig(),
                    noise: NoiseConfig = None):
    """One fresh-cell cycle per sweep input; returns Measurements in order.

    encoder_path selects how the write pattern is produced: "behavioral"
    uses the exact table voltages, "structural" feeds the simulated ladder
    output (possibly nonideal) to the ports.
    """
    if encoder_path not in ("behavioral", "structural"):
        raise ValueError(f"unknown encoder path {encoder_path!r}")
    if sweep is None:
        sweep = np.linspace(table.v_min, table.v_max, 61)
    codes = [enc.encode_behavioral(v, table) for v in sweep]
    if encoder_path == "behavioral":
        patterns = [enc.code_to_write_voltages(c) for c in codes]
    else:
        patterns = [enc.encode_structural(v, table, enc_cfg) for v in sweep]
    return _measure(cell, cfg, patterns, codes, [float(v) for v in sweep], noise)


def simulate_levels(cell: Cell, cfg: CycleConfig = CycleConfig(),
                    table: enc.BinTable = enc.DEFAULT_BIN_TABLE):
    """Read-out level per table code, one fresh cycle each, in table order."""
    v_out, w, _, _ = _run_batch(cell, _level_volts(table), cfg)
    return v_out, w


def peak_source_power(cell: Cell, patterns, cfg: CycleConfig = CycleConfig()):
    """Largest instantaneous total source power over a cycle, per pattern row."""
    patterns = np.asarray(patterns, dtype=float)
    _, _, _, peak = _run_batch(cell, patterns, cfg)
    return float(peak[0]) if patterns.ndim == 1 else peak


@dataclass
class LevelScan:
    """All-codes read-out, sorted ascending, with its ordering diagnostics."""

    measurements: list                 # sorted by v_out
    permutation: tuple                 # table row index of each sorted entry
    inversions: int                    # pairwise inversions vs table order
    min_separation: float              # smallest gap as a fraction of the span


def _count_inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


def write_then_read_all_codes(cell, cfg: CycleConfig = CycleConfig()) -> LevelScan:
    """Program every default-table code on a fresh cell and sort codes by
    read-out; raises DegenerateLevels below MIN_LEVEL_SEPARATION."""
    table = enc.DEFAULT_BIN_TABLE
    rows = _measure(cell, cfg, _level_patterns(table), [row.code for row in table.rows],
                    [None] * len(table.rows))
    v_out = np.array([m.v_out for m in rows])
    order = np.argsort(v_out, kind="stable")
    measurements = [rows[i] for i in order]
    sorted_v = np.sort(v_out)
    span = float(sorted_v[-1] - sorted_v[0])
    gaps = np.diff(sorted_v)
    min_sep = float(gaps.min() / span) if span > 0 else 0.0
    if span <= 0 or min_sep < MIN_LEVEL_SEPARATION:
        raise DegenerateLevels(
            f"minimum level separation {min_sep:.4%} of span is below "
            f"{MIN_LEVEL_SEPARATION:.2%}")
    return LevelScan(measurements, tuple(int(i) for i in order),
                     _count_inversions(order), min_sep)


def run_temperature_study(cell, temps_c=(20.0, 30.0, 40.0, 50.0), trials=5,
                          noise: NoiseConfig = NoiseConfig(),
                          cfg: CycleConfig = CycleConfig(),
                          table: enc.BinTable = enc.DEFAULT_BIN_TABLE):
    """Mean/stdev of every code's read-out per temperature, seeded noise.

    The whole study is one batched simulation: every code of the table,
    once per (temperature, trial) group, temperature-major. Each group gets
    its own deterministic substream, spawn key (temperature index, trial),
    so its numbers are those it would draw alone. The batch holds
    len(temps_c) * trials * len(table.rows) rows, at most MAX_BATCH_ROWS.
    """
    if len(temps_c) == 0:
        raise ValueError("need at least one temperature")
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard deviation")
    if len(set(temps_c)) != len(temps_c):
        raise ValueError(f"temperatures must be distinct, got {list(temps_c)}")
    n_codes = len(table.rows)
    n_rows = len(temps_c) * trials * n_codes
    if n_rows > MAX_BATCH_ROWS:
        raise ValueError(f"{len(temps_c)} temperatures x {trials} trials x {n_codes} "
                         f"codes is {n_rows} rows, over the {MAX_BATCH_ROWS}-row limit")
    # every temperature is validated before the simulation, and named as given
    for t in temps_c:
        if not (math.isfinite(t) and celsius_to_kelvin(t) > 0):
            raise ValueError(f"temperature must be finite and above -273.15 C, got {t!r} C")
    kelvins = [celsius_to_kelvin(t) for t in temps_c]
    groups = [(t_idx, trial) for t_idx in range(len(temps_c)) for trial in range(trials)]
    v_out, _, _, _ = _run_batch(cell, np.tile(_level_volts(table), (len(groups), 1)), cfg,
                                noise=noise, spawn_keys=groups,
                                temperature=np.repeat(kelvins, trials * n_codes))
    outputs = v_out.reshape(len(temps_c), trials, n_codes)

    stats = []
    for c_idx, row in enumerate(table.rows):
        for t_idx, temp_c in enumerate(temps_c):
            values = outputs[t_idx, :, c_idx]
            # equal trials have no spread, though their mean can miss them by an ulp
            spread = (values != values[0]).any()
            stats.append(StudyStats(
                code=row.code,
                temp_c=float(temp_c),
                mean=float(values.mean()),
                stdev=float(values.std(ddof=1)) if spread else 0.0,
            ))
    return stats


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

CALIBRATION_FREE_PARAMS = ("r_on", "r_off", "drift_rate", "v_th_pos", "r_ground")


@dataclass
class CalibrationResult:
    params: dev.MemristorParams
    topology: net.CellTopology
    residual_initial: float
    residual_best: float
    per_code: list                      # (code, target, achieved, rel_error)
    ordering: tuple                     # codes sorted by achieved v_out
    inversions: int                     # vs table row order
    n_evaluations: int

    @property
    def improvement(self):
        if self.residual_initial == 0:
            return 0.0
        return 1.0 - self.residual_best / self.residual_initial


def _apply_free_params(base_params, base_topology, free, vector):
    """Candidate (params, topology) from a log10 parameter vector; raises
    ValueError or InvalidTopology when it violates an invariant (r_off <= r_on etc.)."""
    values = dict(zip(free, 10.0 ** np.asarray(vector)))
    r_ground = values.pop("r_ground", None)
    params = replace(base_params, **values) if values else base_params
    topology = (base_topology if r_ground is None
                else replace(base_topology, r_ground=r_ground))
    return params, topology


def calibrate(targets, base_params=None, base_topology=None,
              cfg: CycleConfig = CycleConfig(),
              free=CALIBRATION_FREE_PARAMS,
              table: enc.BinTable = enc.DEFAULT_BIN_TABLE,
              n_restarts=5, seed=0, maxiter=150) -> CalibrationResult:
    """Fit device/network parameters to target read-out levels.

    targets: iterable of (code, v_out) pairs; codes may be strings. The
    objective is the sum of squared relative errors over the targeted
    codes, minimized with Nelder-Mead restarted from seeded perturbations
    of the initial point (the first restart starts exactly there).
    """
    from scipy import optimize  # slow to import; only calibration needs it

    base_params = base_params or dev.MemristorParams()
    base_topology = base_topology or net.CellTopology()
    goal = {}
    for code, value in (targets.items() if isinstance(targets, dict) else targets):
        if str(code) in goal:
            raise ValueError(f"target code {code} is given more than once")
        goal[str(code)] = float(value)
    unusable = sorted(c for c, v in goal.items() if not math.isfinite(v) or v == 0)
    if unusable:
        raise ValueError("target levels must be finite and nonzero: "
                         + ", ".join(f"{c}={goal[c]!r}" for c in unusable))
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be at least 1, got {n_restarts}")
    if maxiter < 1:
        raise ValueError(f"maxiter must be at least 1, got {maxiter}")
    table_codes = [str(row.code) for row in table.rows]
    unknown = set(goal) - set(table_codes)
    if unknown:
        raise ValueError(f"target codes not in the bin table: {sorted(unknown)}")
    bad_names = set(free) - set(CALIBRATION_FREE_PARAMS)
    if bad_names:
        raise ValueError(f"free parameter(s) {sorted(bad_names)} cannot be fitted; "
                         f"choose from {list(CALIBRATION_FREE_PARAMS)}")
    if not free or len(set(free)) != len(free):
        raise ValueError(f"free parameters must be at least one, each named once; "
                         f"got {list(free)}")
    starts = [getattr(base_params, f) if f != "r_ground" else base_topology.r_ground
              for f in free]
    nonpositive = [f"{f}={v!r}" for f, v in zip(free, starts) if not v > 0]
    if nonpositive:
        raise ValueError("free parameters are fitted on a log scale and must start "
                         "above 0: " + ", ".join(nonpositive))

    evals = [0]

    def levels_for(vector):
        params, topology = _apply_free_params(base_params, base_topology, free, vector)
        cell = make_cell(topology, params)
        v_out, _ = simulate_levels(cell, cfg, table)
        return dict(zip(table_codes, v_out))

    def objective(vector):
        evals[0] += 1
        try:
            levels = levels_for(vector)
        except (net.SingularNetwork, ValueError, net.InvalidTopology, NonQuiescentRead):
            return 1e9
        return sum(((levels[c] - goal[c]) / goal[c]) ** 2 for c in goal)

    x0 = np.log10(starts)
    residual_initial = objective(x0)

    rng = np.random.default_rng(seed)
    best_x, best_val = x0, residual_initial
    for restart in range(n_restarts):
        start = x0 if restart == 0 else x0 + rng.normal(0.0, 0.12, size=len(free))
        result = optimize.minimize(
            objective, start, method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-4, "fatol": 1e-10,
                     "adaptive": True})
        if result.fun < best_val:
            best_val, best_x = float(result.fun), result.x

    if best_val >= residual_initial and residual_initial > 1e-18:
        raise CalibrationFailed(
            f"no improvement over the initial residual {residual_initial:.4g}")

    params, topology = _apply_free_params(base_params, base_topology, free, best_x)
    levels = levels_for(best_x)
    per_code = [(c, goal[c], levels[c], (levels[c] - goal[c]) / goal[c])
                for c in table_codes if c in goal]
    order = np.argsort([levels[c] for c in table_codes], kind="stable")
    ordering = tuple(table_codes[i] for i in order)
    return CalibrationResult(
        params=params,
        topology=topology,
        residual_initial=float(residual_initial),
        residual_best=float(best_val),
        per_code=per_code,
        ordering=ordering,
        inversions=_count_inversions(order),
        n_evaluations=evals[0],
    )
