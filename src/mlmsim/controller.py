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
itself for the rest of the phase, so the phase ends there; peak power
cannot change. The kernels only step, and `_run_phases` owns the outputs:
it measures a read's drift once, from the states before and after it, and
gives each read a zeroed probe sum. The star adds the probe voltage of
every step to it, the last one again for each step a quiescent stop left
out, so the mean rounds exactly as a full read's would.

`_run_batch` is the one way in: it builds a schedule of roles into stars,
the full cycle below by default, leaving out a zero-length reset or write.
The single-phase operations are one-role schedules on the same path.
  reset  - every device negative terminal pinned at v_reset, each branch
           driven at 0 V from its write port so the erase current can
           return to ground; drives every state toward w = 0.
  write  - every branch driven from its write port at the pattern voltage.
  read   - every branch driven from its read port at v_read; the
           measurement is the mean probe voltage over the window, and any
           state motion beyond tolerance raises NonQuiescentRead.

One block loop, `_run_phase`, runs each phase: it asks the kernel to step
every row through a block of at most `network.BLOCK_DOUBLES` doubles and
hands the kernel's record of each step's branch admittances, branch
voltages and V_M to the phase's star (`network.Star.settle`), the only
code that checks a step or folds its outputs: it checks that every branch
voltage and power is finite and that the currents balance at M, folds each
row's largest power into its peak and adds a read's probe voltages, the
quiescent tail included when the batch stops inside the block.

Two kernels step a phase, chosen by the number of rows simulated at once. A
batch of more than FLOAT_KERNEL_MAX_ROWS rows, as in the temperature study
and the noisy sweep, runs numpy calls on whole device-major arrays
(`_step_arrays`). At a few rows a numpy call costs more in overhead than
in arithmetic, so the kernel prepares the device law once per phase
(`device.step_scratch`) and binds what a step calls. A smaller batch, as
in `run_cycle`, the single-phase operations, the ten distinct rows of the
sweep and the level scan, steps in Python floats (`_step_floats`), one
row after another through each block, each row stopping at its own
quiescent step and the batch at its latest row's stop.
A row's step is straight-line float code that `_row_stepper` generates
from the device law's text (`device.resistance_source`,
`device.step_source`) and caches per phase kind, window exponent and the
row's twin classes: devices with equal drive, fixed resistance and start
state stay equal at every step, so the code steps one device per class. A
float step recomputes a device's resistance, admittance and source
current only when its state moved. Both kernels use the same phase list,
block loop, star, settle and read sum, and the same operations in the
same order, so a row gets the same bits from either; the law's text gives
`device.step_array`'s bits.

Fresh cells without noise give equal write patterns equal results, so the
input sweep and the all-codes scan simulate each distinct pattern once and
copy its results to every row that has it: the default 61-point sweep
simulates 10 rows. The kernel follows those simulated rows, so the
default sweep runs the float kernel.

Each phase draws its perturbations as its star is built, one float per
row per draw, zeros without noise, in this order: the reset's pin
amplitude, one per branch the reset drives at 0 V, one per branch of the
write, then the read amplitude. Every noise stream comes from
`_noise_rng`: the seed, plus a spawn key that names an independent
substream where a driver needs several.

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
import functools
import math
import numbers
import struct
import textwrap
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
# cycles (medians of 7 interleaved CPU-time ratios), numpy takes 1.38x the
# floats' time at 12 rows, 1.23x at 14, 1.06x at 16, 0.97x at 18, 0.92x at 20
# and 0.72x at 24. Noise gives every device its own drive, so those rows had no
# twin devices; twins only make a float row cheaper, so the crossover is no
# lower. No perfbench workload runs 11-39 rows.
FLOAT_KERNEL_MAX_ROWS = 17


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

def _noise_rng(noise, spawn_key=()):
    """The seeded noise stream; spawn_key names an independent substream."""
    return np.random.default_rng(np.random.SeedSequence(noise.rng_seed,
                                                        spawn_key=spawn_key))


def _noise_draw(noise, rows, spawn_keys=((),)):
    """Per-phase amplitude perturbation: each call returns one float64 per row.

    Without noise that is np.zeros(rows). Otherwise the rows split into
    len(spawn_keys) equal groups, and each call concatenates one value per
    row of each group from that group's substream, in the order of
    spawn_keys.
    """
    if noise is None or noise.source_noise_sigma == 0.0:
        return lambda: np.zeros(rows)
    rngs = [_noise_rng(noise, key) for key in spawn_keys]
    sigma, size = noise.source_noise_sigma, rows // len(spawn_keys)
    return lambda: np.concatenate([rng.normal(0.0, sigma, size=size) for rng in rngs])


def _reset_phase(cell, cfg, draw):
    pin = cfg.v_reset + draw()
    held = [draw() for _ in range(net.N_SUBCELLS)]
    return net.Star(cell.topology, "reset", cfg.steps(cfg.t_reset), np.column_stack(held),
                    np.column_stack([pin] * net.N_SUBCELLS))


def _write_phase(cell, cfg, patterns, draw):
    drive = np.column_stack([patterns[:, k] + draw() for k in range(net.N_SUBCELLS)])
    return net.Star(cell.topology, "write", cfg.steps(cfg.t_write), drive)


def _read_phase(cell, cfg, draw):
    drive = np.column_stack([cfg.v_read + draw()] * net.N_SUBCELLS)
    return net.Star(cell.topology, "read", cfg.steps(cfg.t_read), drive)


def _run_phases(cell, cfg, phases, w, temperature=None):
    """Run the phases in order on the (B, n) states w, which change in place.

    Each phase is a `network.Star` of B rows, which carries its step count
    and whether it is the read. temperature is in K, a float or one value
    per batch row, None meaning cfg.temperature; it is broadcast to one
    value per row, so each kernel gets one temperature factor per row.
    Returns (v_out, read drift, peak source power), one value per batch
    row; v_out and drift stay None when no phase is the read. A batch of up to
    FLOAT_KERNEL_MAX_ROWS rows steps in Python floats (`_step_floats`), a
    larger one in numpy (`_step_arrays`), and `_run_phase` runs each phase
    with that kernel, folding its steps into the peak and a read's own
    zeroed probe sum.
    """
    batch = w.shape[0]
    temperature = np.broadcast_to(cfg.temperature if temperature is None else temperature,
                                  batch)
    factor = dev.temperature_factor(cell.params, temperature)
    if not np.all(factor > 0):
        k = int(np.argmin(factor))
        raise ValueError(f"the device temperature factor 1 + temp_coeff*(T - t_ref) is "
                         f"{factor[k]:.4g} at T = {temperature[k]:.6g} K; it must be positive")
    kernel = _step_floats if batch <= FLOAT_KERNEL_MAX_ROWS else _step_arrays
    v_out = drift = None
    peak_power = np.zeros(batch)
    for star in phases:
        w_start = w.copy() if star.is_read else None
        probe_sum = np.zeros(batch) if star.is_read else None
        try:
            _run_phase(kernel, cell, cfg, star, w, factor, peak_power, probe_sum)
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


def _block_length(n_steps, batch):
    """Steps per settled block: at most net.BLOCK_DOUBLES doubles of 7 per row, or one."""
    return max(1, min(n_steps, net.BLOCK_DOUBLES // (7 * batch)))


def _run_phase(kernel, cell, cfg, star, w, factor, peak_power, probe_sum):
    """Step the (B, 3) states w through the star's phase with kernel, block by block.

    The kernel, `_step_arrays` or `_step_floats`, yields its (block, 7, B)
    record, then on each send((start, stop)) steps every row from start and
    yields the states and the step the batch stopped at. The star settles
    each block into peak_power and probe_sum, a read's or None; a batch
    that stops before stop would repeat its last step for the rest of the
    phase, which the star adds as the tail, and the phase ends. w takes the
    last states.
    """
    n_steps = star.n_steps
    block = _block_length(n_steps, len(w))
    stepper = kernel(cell, cfg, star, w, factor, block)
    record = next(stepper)
    states = w  # a phase of no steps, as a zero-length reset, leaves them
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        states, end = stepper.send((start, stop))
        if end < stop:
            star.settle(record[:end + 1 - start], peak_power, probe_sum, tail=n_steps - end - 1)
            break
        star.settle(record[:stop - start], peak_power, probe_sum)
    w[...] = states


def _step_arrays(cell, cfg, star, w, factor, block):
    """The numpy kernel of `_run_phase`: every row of w at once, block steps to a record.

    The loop runs device-major, on (n, B) states whose rows are devices.
    Each step computes the device resistances R, the branch admittances
    y = 1/(R + F) and ratios R/(R + F), then the star's formulas
    (`network.Star`): V_M, whose sums run over the devices in order, and
    the branch voltages; the reset's branch voltages need no V_M. It then
    steps the devices. Its admittances, branch voltages and V_M (not the
    reset's) go into one slab of the (block, 2n + 1, B) record. The batch
    stops at its first step that leaves every state bit-identical.

    Once per phase the kernel prepares the device law for the cell's
    parameters, dt and kind (`device.step_scratch`: its constants as 0-d
    arrays, its window exponent decided), broadcasts the temperature factor
    and the fixed resistors to the states' shape, since a numpy call costs
    about twice as much when it broadcasts an operand, looks up
    `device.step_array` through the module, and binds each slab's views.
    A step is then 31 numpy calls in a write or a read, with each output
    passed by position where numpy allows it: 13 for the star and 18 for
    the device step (one more for a window exponent above 1), and the reset
    needs 7 for its star. Every operation is the float kernel's, in its
    order, so both give a row the same bits.
    """
    batch, n = w.shape
    params, dt, kind = cell.params, cfg.dt, cell.kind
    old = np.ascontiguousarray(w.T)
    new = np.empty_like(old)
    # the device law prepared for this phase, and every function a step uses
    # bound once: step_array through the module, so a wrapper installed on
    # it sees every step
    scratch = dev.step_scratch(old.shape, params, dt, kind)
    span, r_on = scratch[4][:2]
    step_array = dev.step_array
    add, subtract, multiply, divide, add_reduce = (np.add, np.subtract, np.multiply,
                                                   np.divide, np.add.reduce)
    # every constant at the states' shape, so no step broadcasts it
    factor = np.broadcast_to(factor, old.shape).copy()
    fixed = np.broadcast_to(np.array(star.fixed)[:, None], old.shape).copy()
    pinned = star.rest is not None
    drive = np.ascontiguousarray(star.drive.T)
    one, g_ground = np.array(1.0), np.array(star.g_ground)
    r, z, ratio, work = (np.empty_like(old) for _ in range(4))
    num, den = np.empty((2, batch))
    steps = np.empty((block, 2 * n + 1, batch))
    # per slab, made when a step first reaches it (most phases go quiescent
    # within a few steps): its admittances, branch voltages and V_M
    slabs = []
    start, stop = yield steps
    while True:
        for step in range(start, stop):
            if step - start == len(slabs):
                slab = steps[step - start]
                slabs.append((slab[:n], slab[n:2 * n], slab[2 * n]))
            y, v, v_m = slabs[step - start]
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
            step_array(old, v, dt, params, kind, new, scratch)
            old, new = new, old
            # bytes, faster than ==; with no -0.0 state (`_initial_states`
            # reads it as 0.0, and the law never makes one) finite states
            # compare alike either way
            if old.tobytes() == new.tobytes():
                break
        else:
            step = stop
        start, stop = yield old.T, step


def _step_floats(cell, cfg, star, w, factor, block):
    """`_step_arrays` for a small batch of the cell's three devices, in Python floats.

    At three devices a numpy call costs more than the arithmetic it does, so
    the rows are stepped one after another, each at its own temperature
    factor, factor[k] as a Python float, by straight-line float code that
    `_row_stepper` generates from the device law's text. A row's code
    computes V_M and the three branch voltages (the reset's stay fixed until
    their device moves) and the device law, and packs its admittances,
    branch voltages and V_M (not the reset's) into its part of one
    (rows, block, 7) record of the whole batch, a bytearray that
    `struct.pack_into` writes; the kernel yields it as (block, 7, rows).
    Each row stops at its own quiescent step and the batch at its latest
    row's.

    Device j of a row is the twin of an earlier device i when its drive,
    fixed resistance and start state have i's bits: the row's factor and
    the law's constants are shared, so the two stay equal at every step,
    and the row's code steps i alone and reads i's values for j. Every
    operation is the numpy kernel's, in its order, so a row has the same
    bits in either kernel.
    """
    law = dev._law(cell.params, cfg.dt, cell.kind)
    power = law[-1] if law[-1] in (None, 2) else 3
    law += (dev.W_BOUNDARY_ESCAPE, 1.0 - dev.W_BOUNDARY_ESCAPE, dev._window_power)
    pinned = star.rest is not None
    batch = len(w)
    # each row's y_a, y_b, y_c, v_a, v_b, v_c, V_M at each step of the block
    width = 56 * block
    record, pack = bytearray(width * batch), struct.Struct("6d" if pinned else "7d").pack_into
    # a device's drive, fixed resistance and start state as their bytes
    bits = struct.Struct("3d").pack
    rows = []
    for k, (drive, row_factor, state) in enumerate(zip(star.drive.tolist(), factor.tolist(),
                                                       w.tolist())):
        # each device's class: the index of the first device with its bits
        a, b, c = map(bits, drive, star.fixed, state)
        classes = 0, 0 if b == a else 1, 0 if c == a else 1 if c == b else 2
        row = _row_stepper(pinned, power, classes)(drive, state, row_factor, law, star,
                                                   record, width * k, pack)
        next(row)
        rows.append(row)
    bounds = yield np.frombuffer(record).reshape(batch, block, 7).transpose(1, 2, 0)
    while True:
        states, ends = zip(*[row.send(bounds) for row in rows])
        bounds = yield states, max(ends)


@functools.cache
def _row_stepper(pinned, power, classes):
    """The float kernel's code for one row, generated from the device law's text.

    pinned is the reset's star, power the law's window exponent beyond the
    square (None, 2, or 3 for any other) and classes gives each device the
    index of the first device it is the twin of. The code steps one device
    per class, with `device.resistance_source` and `device.step_source`,
    and writes every sum and the record in device order a, b, c through
    each device's class. A write or a read keeps each device's source
    current u y beside its admittance, so V_M's numerator sums the three
    in device order, as the numpy kernel's `add.reduce` does; the reset
    keeps its branch voltage u R/Z instead. A device's values are
    recomputed only when its state moves.

    The code is a generator made per row, which the kernel primes with
    next(). Each send((start, stop)) steps the row from start, writing its
    record from its offset, and yields its three states and the step it
    stopped at: its quiescent step, or stop if it ran through. A row that
    stops fills the rest of its record up to stop with its quiescent step,
    which every later step would repeat bit for bit; sent a later block, it
    stops at the block's first step. The code never settles. It is compiled
    with this module's globals, so it looks names such as range up here,
    and cached: there are at most 2 x 3 x 5 keys.
    """
    # device j reads the variables of the first device of its class
    a, b, c = names = ["abc"[i] for i in classes]

    def per_class(text):
        # the text once per class, for its first device d
        return "".join(text.format(d=d) for d in sorted(set(names)))

    def branch(state):
        # the device's resistance at state, its admittance y, its ratio R/Z
        # and the reset's branch voltage or a write's or read's source current
        return (f"r{{d}} = {dev.resistance_source(state)}\nz{{d}} = r{{d}} + f{{d}}\n"
                "y{d}, k{d} = 1.0 / z{d}, r{d} / z{d}\n"
                + ("v{d} = u{d} * k{d}\n" if pinned else "q{d} = u{d} * y{d}\n"))

    record = f"pack(record, at + 56 * step, y{a}, y{b}, y{c}, v{a}, v{b}, v{c}"
    solve = (f"{record})\n" if pinned else
             f"vm = (q{a} + q{b} + q{c}) / (y{a} + y{b} + y{c} + g_ground)\n"
             + per_class("v{d} = (u{d} - vm) * k{d}\n") + f"{record}, vm)\n")
    step = (solve + per_class(dev.step_source("w{d}", "v{d}", "n{d}", power))
            + "moved = False\n"
            + per_class("if n{d} != w{d}:\n" + textwrap.indent(branch("n{d}") + "moved = True\n",
                                                               " " * 4))
            + "if not moved:\n    end = at + 56 * step + 56\n"
            + "    record[end:at + 56 * stop] = record[end - 56:end] * (stop - 1 - step)\n"
            + "    break\n"
            + per_class("w{d} = n{d}\n"))
    setup = textwrap.indent(per_class(branch("w{d}")), " " * 4)
    step = textwrap.indent(step, " " * 12)
    source = f"""\
def step_row(drive, w, factor, law, star, record, offset, pack):
    span, r_on, rate, dt, th_pos, th_neg, p, low, high, window_power = law
    (ua, ub, uc), (wa, wb, wc), (fa, fb, fc) = drive, w, star.fixed
    g_ground = star.g_ground
{setup}\
    start, stop = yield
    while True:
        at = offset - 56 * start
        for step in range(start, stop):
{step}\
        else:
            step = stop
        start, stop = yield (w{a}, w{b}, w{c}), step
"""
    namespace = {}
    exec(compile(source, f"<float kernel row {pinned, power, classes}>", "exec"), globals(),
         namespace)
    return namespace["step_row"]


def _initial_states(w0, batch):
    """w0 as a fresh (batch, n_devices) array; each state finite and in [0, 1].

    A -0.0 state reads as 0.0: the float kernel compares states with != and
    the numpy kernel by their bytes, so only one zero steps alike in both.
    """
    n = net.N_SUBCELLS
    w = np.array(w0, dtype=float) + 0.0
    if w.ndim == 0 or w.shape[-1] != n or w.size != batch * n:
        raise ValueError(f"w0 needs {n} device states for each of {batch} row(s), "
                         f"got shape {w.shape}")
    bad = ~((w >= 0.0) & (w <= 1.0))  # also true for NaN
    if bad.any():
        raise ValueError(f"w0 state {w[bad][0]!r} is not a finite value in [0, 1]")
    return w.reshape(batch, n)


def _run_batch(cell, patterns, cfg, w0=None, noise=None, spawn_keys=((),),
               temperature=None, roles=("reset", "write", "read")):
    """One schedule over the pattern rows: (v_out, final states, drift, peak power).

    roles names the phases in order, by their `network.Star` role: the
    full cycle by default, or one role for a single phase. A zero-length
    reset or write is left out; v_out and drift are None without a read.
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
    w = np.zeros((batch, n)) if w0 is None else _initial_states(w0, batch)
    draw = _noise_draw(noise, batch, spawn_keys)
    star_of = {"reset": lambda: _reset_phase(cell, cfg, draw),
               "write": lambda: _write_phase(cell, cfg, patterns, draw),
               "read": lambda: _read_phase(cell, cfg, draw)}
    # a huge amplitude overflows to inf or NaN as the stars are built and
    # solved; the guard in `network.Star.settle` is then the one report
    with np.errstate(over="ignore", invalid="ignore"):
        phases = [star_of[role]() for role in roles if getattr(cfg, f"t_{role}") > 0]
        v_out, drift, peak_power = _run_phases(cell, cfg, phases, w, temperature)
    return v_out, w, drift, peak_power


def _measure(cell, cfg, patterns, codes, v_ins, noise=None, w0=None):
    """One batched cycle over WritePatterns; a Measurement per row, in order.

    Without starting states or noise, each distinct row of write voltages,
    compared by its bits, is simulated once, and its results go to every
    row that has it.
    """
    volts = np.array([p.port_voltages for p in patterns], dtype=float)
    first = inverse = slice(None)  # each row simulated for itself
    if (w0 is None and len(volts) > 1
            and (noise is None or noise.source_noise_sigma == 0.0)):
        _, first, inverse = np.unique(volts.view(np.int64), axis=0, return_index=True,
                                      return_inverse=True)
    v_out, w, _, peak = _run_batch(cell, volts[first], cfg, w0=w0, noise=noise)
    v_out, w, peak = v_out[inverse], w[inverse], peak[inverse]
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
    _, w, _, _ = _run_batch(cell, np.zeros((1, net.N_SUBCELLS)), cfg, w0, roles=("reset",))
    return w[0]


def run_read_phase(cell: Cell, w0, cfg: CycleConfig = CycleConfig()):
    """Apply only the read phase; returns (v_out, new states, largest state change)."""
    v_out, w, drift, _ = _run_batch(cell, np.zeros((1, net.N_SUBCELLS)), cfg, w0,
                                    roles=("read",))
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
