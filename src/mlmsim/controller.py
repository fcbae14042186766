"""Cycle execution and experiment drivers for the multi-level cell.

A cycle is a list of quasi-static phases, each a `Phase`: the amplitudes of
its engaged sources by element index, its step count, and whether it is the
read. One loop, `_run_phases`, runs any such list. In each phase the
engaged sources are fixed, so the network is reduced once onto the three
device branches (`network.PortModel`, with every device at r_on as the
reference), and every output is written as a ratio of two polynomials in
the three device conductances. On every timestep one evaluation of those
polynomials, with a residual check of the reduced 3x3 system, then gives
the exact branch voltages, probe voltage and source currents for the
frozen device resistances, after which each device state advances one
explicit Euler step under its own branch voltage. Devices therefore
interact through the shared nodes during the write transient, which is the
only mechanism that can make a device's final state depend on the whole
pattern rather than its own port alone.

A step that leaves every state of the batch bit-identical would repeat
itself for the rest of the phase, so the phase ends there. A read that ends
early adds its last probe voltage once per remaining step, so the mean
rounds exactly as a full read's would; drift and peak power cannot change.

The full cycle is the list below; a zero-length reset or write is left out,
and the single-phase operations run a one-element list through the same loop.
  reset  - reset sources on at v_reset on the device negative terminals,
           write ports held at 0 V so the erase current can return to
           ground; drives every state toward w = 0.
  write  - all write sources on simultaneously at the pattern voltages.
  read   - read sources on at v_read; the measurement is the mean probe
           voltage over the window, and any state motion beyond tolerance
           raises NonQuiescentRead.

Every step also folds the total source power -V*I of the phase's engaged
sources into a per-row running maximum, so each run reports its own peak
source power.

With source noise, each phase draws its perturbations as it is built, in
this order: the reset amplitude, one per write port held at 0 V, one per
write port, then the read amplitude. Every noise stream comes from
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
solved and stepped on its own, and a phase that runs on past a group's
quiescent step repeats that step bit for bit, so a group's results are the
same inside a batch as alone.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import device as dev
from . import encoder as enc
from . import network as net

# Maximum tolerated state motion during a read, as a fraction of full scale.
READ_DISTURB_TOLERANCE = 1e-3

# Longest cycle a CycleConfig may describe, in timesteps (the default is 2800).
MAX_CYCLE_STEPS = 10**6

# Most rows a batched driver may simulate at once (a temperature study runs
# temperatures x trials x codes rows).
MAX_BATCH_ROWS = 10**5


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
    code the recorded code, v_out the mean read-out in V, temperature in K,
    final_device_states the device states w after the read, pattern the
    WritePattern applied to the write ports (V), and peak_power the largest
    total source power at any step of the cycle, in W.
    """

    v_in: object
    code: enc.TernaryCode
    v_out: float
    temperature: float
    final_device_states: tuple
    pattern: enc.WritePattern
    peak_power: float


@dataclass(frozen=True)
class StudyStats:
    code: enc.TernaryCode
    temp_c: float
    mean: float
    stdev: float
    trials: int


@dataclass(frozen=True)
class Cell:
    """A built cell: topology, device parameterization, netlist and ports."""

    topology: net.CellTopology
    params: dev.MemristorParams
    kind: dev.DeviceModelKind
    netlist: net.Netlist
    ports: net.CellPorts


def make_cell(topology=None, params=None,
              kind=dev.DeviceModelKind.THRESHOLD_DRIFT) -> Cell:
    topology = topology or net.CellTopology()
    params = params or dev.MemristorParams()
    netlist, ports = net.build_mlm_cell(topology)
    return Cell(topology, params, kind, netlist, ports)


# ---------------------------------------------------------------------------
# Phase schedule and the loop that runs it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Phase:
    """One quasi-static phase: engaged sources and how long they stay on.

    sources maps source element index -> amplitude (a float or one value
    per batch row); every other source is open for the whole phase.
    """

    sources: dict
    n_steps: int
    is_read: bool = False


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


def _reset_phase(cell, cfg, batch, draw):
    sources = dict.fromkeys(cell.ports.reset, cfg.v_reset + draw())
    for idx in cell.ports.write:
        sources[idx] = np.zeros(batch) + draw()
    return Phase(sources, cfg.steps(cfg.t_reset))


def _write_phase(cell, cfg, patterns, draw):
    sources = {idx: patterns[:, k] + draw() for k, idx in enumerate(cell.ports.write)}
    return Phase(sources, cfg.steps(cfg.t_write))


def _read_phase(cell, cfg, draw):
    sources = dict.fromkeys(cell.ports.read, cfg.v_read + draw())
    return Phase(sources, cfg.steps(cfg.t_read), is_read=True)


def _cycle_phases(cell, cfg, patterns, draw):
    """Reset, write, read; a zero-length reset or write is left out."""
    phases = []
    if cfg.t_reset > 0:
        phases.append(_reset_phase(cell, cfg, len(patterns), draw))
    if cfg.t_write > 0:
        phases.append(_write_phase(cell, cfg, patterns, draw))
    phases.append(_read_phase(cell, cfg, draw))
    return phases


def _run_phases(cell, cfg, phases, w, temperature=None):
    """Run the phases in order on the (B, n) states w, which change in place.

    temperature holds one value per batch row in K; None means
    cfg.temperature for every row. Returns (v_out, read drift, peak source
    power), one value per batch row; v_out and drift stay None when no
    phase is the read.
    """
    batch = w.shape[0]
    if temperature is None:
        temperature = cfg.temperature
    else:
        temperature = np.reshape(temperature, (batch, 1))
    temps = np.ravel(temperature)
    factor = dev.temperature_factor(cell.params, temps)
    if not (factor > 0).all():
        k = int(np.argmin(factor))
        raise ValueError(f"the device temperature factor 1 + temp_coeff*(T - t_ref) is "
                         f"{factor[k]:.4g} at T = {temps[k]:.6g} K; it must be positive")
    g0 = 1.0 / cell.params.r_on
    v_out = drift = None
    peak_power = np.zeros(batch)
    w_prev = np.empty_like(w)
    for phase in phases:
        tmpl = net.MnaTemplate(cell.netlist, dict.fromkeys(phase.sources, 0.0))
        z = np.broadcast_to(tmpl.rhs(phase.sources), (batch, tmpl.m))
        model = net.PortModel(tmpl, z, g0, cell.ports.probe_node)
        # -V per engaged source: the source rows of z, ordered like the currents
        neg_volts = -z[..., tmpl.nv:]
        if phase.is_read:
            w_start = w.copy()
            probe_sum = np.zeros(batch)
            drift = np.zeros(batch)
        for step in range(phase.n_steps):
            np.copyto(w_prev, w)
            r = dev.resistance_array(w, cell.params, temperature)
            v_dev, v_probe, i_src = model.solve(1.0 / r)
            dev.step_array(w, v_dev, cfg.dt, cell.params, cell.kind)
            if phase.is_read:
                probe_sum += v_probe
                drift = np.maximum(drift, np.abs(w - w_start).max(axis=-1))
            np.maximum(peak_power, (neg_volts * i_src).sum(axis=-1), out=peak_power)
            if (w == w_prev).all():
                # every later step of the phase would repeat this one exactly
                if phase.is_read:
                    for _ in range(phase.n_steps - step - 1):
                        probe_sum += v_probe
                break
        if phase.is_read:
            if (drift >= READ_DISTURB_TOLERANCE).any():
                raise NonQuiescentRead(
                    f"read moved device state by {drift.max():.3e} of full scale "
                    f"(tolerance {READ_DISTURB_TOLERANCE:g})")
            v_out = probe_sum / phase.n_steps
    return v_out, drift, peak_power


def _initial_states(cell, w0, batch):
    """w0 as a fresh (batch, n_devices) array; each state finite and in [0, 1]."""
    n = cell.ports.n_devices
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
    if n != cell.ports.n_devices:
        raise ValueError(f"pattern has {n} ports, cell has {cell.ports.n_devices}")
    w = np.zeros((batch, n)) if w0 is None else _initial_states(cell, w0, batch)
    draw = _noise_draw(noise, spawn_keys, batch // len(spawn_keys))
    phases = _cycle_phases(cell, cfg, patterns, draw)
    v_out, drift, peak_power = _run_phases(cell, cfg, phases, w, temperature)
    return v_out, w, drift, peak_power


def _measure(cell, cfg, patterns, codes, v_ins, noise=None, w0=None):
    """One batched cycle over WritePatterns; a Measurement per row, in order."""
    volts = np.array([p.port_voltages for p in patterns])
    v_out, w, _, peak = _run_batch(cell, volts, cfg, w0=w0, noise=noise)
    return [Measurement(v_in, code, float(vo), cfg.temperature, tuple(states), p,
                        float(pk))
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
    """Apply only the read phase; returns (v_out, new states, max state drift)."""
    w = _initial_states(cell, w0, 1)
    v_out, drift, _ = _run_phases(cell, cfg, [_read_phase(cell, cfg, _no_noise)], w)
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
                    table: enc.BinTable = enc.DEFAULT_BIN_TABLE,
                    noise: NoiseConfig = None):
    """Read-out level per table code, one fresh cycle each, in table order."""
    v_out, w, _, _ = _run_batch(cell, _level_volts(table), cfg, noise=noise)
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
    span: float


def _count_inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


def write_then_read_all_codes(cell, cfg: CycleConfig = CycleConfig(),
                              table: enc.BinTable = enc.DEFAULT_BIN_TABLE,
                              noise: NoiseConfig = None,
                              min_separation_frac=0.005) -> LevelScan:
    """Program every table code on a fresh cell and sort codes by read-out."""
    rows = _measure(cell, cfg, _level_patterns(table), [row.code for row in table.rows],
                    [None] * len(table.rows), noise)
    v_out = np.array([m.v_out for m in rows])
    order = np.argsort(v_out, kind="stable")
    measurements = [rows[i] for i in order]
    sorted_v = np.sort(v_out)
    span = float(sorted_v[-1] - sorted_v[0])
    gaps = np.diff(sorted_v)
    min_sep = float(gaps.min() / span) if span > 0 and len(gaps) else 0.0
    if span <= 0 or min_sep < min_separation_frac:
        raise DegenerateLevels(
            f"minimum level separation {min_sep:.4%} of span is below "
            f"{min_separation_frac:.2%}")
    return LevelScan(measurements, tuple(int(i) for i in order),
                     _count_inversions(order), min_sep, span)


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
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard deviation")
    if len(set(temps_c)) != len(temps_c):
        raise ValueError(f"temperatures must be distinct, got {list(temps_c)}")
    n_codes = len(table.rows)
    n_rows = len(temps_c) * trials * n_codes
    if n_rows > MAX_BATCH_ROWS:
        raise ValueError(f"{len(temps_c)} temperatures x {trials} trials x {n_codes} "
                         f"codes is {n_rows} rows, over the {MAX_BATCH_ROWS}-row limit")
    # every temperature is validated before the simulation
    kelvins = [replace(cfg, temperature=celsius_to_kelvin(t)).temperature for t in temps_c]
    groups = [(t_idx, trial) for t_idx in range(len(temps_c)) for trial in range(trials)]
    v_out, _, _, _ = _run_batch(cell, np.tile(_level_volts(table), (len(groups), 1)), cfg,
                                noise=noise, spawn_keys=groups,
                                temperature=np.repeat(kelvins, trials * n_codes))
    outputs = v_out.reshape(len(temps_c), trials, n_codes)

    stats = []
    for c_idx, row in enumerate(table.rows):
        for t_idx, temp_c in enumerate(temps_c):
            values = outputs[t_idx, :, c_idx]
            stats.append(StudyStats(
                code=row.code,
                temp_c=float(temp_c),
                mean=float(values.mean()),
                stdev=float(values.std(ddof=1)),
                trials=trials,
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
    """Candidate (params, topology) from a log10 parameter vector, or Nones
    when the vector violates a parameter invariant (r_off <= r_on etc.)."""
    values = dict(zip(free, 10.0 ** np.asarray(vector)))
    r_ground = values.pop("r_ground", None)
    try:
        params = replace(base_params, **values) if values else base_params
        topology = (base_topology if r_ground is None
                    else replace(base_topology, r_ground=r_ground))
    except (ValueError, net.InvalidTopology):
        return None, None
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
    valid_names = {f.name for f in dataclasses.fields(dev.MemristorParams)} | {"r_ground"}
    bad_names = set(free) - valid_names
    if bad_names:
        raise ValueError(f"unknown free parameter(s): {sorted(bad_names)}")

    evals = [0]

    def levels_for(vector):
        params, topology = _apply_free_params(base_params, base_topology, free, vector)
        if params is None:
            return None
        cell = make_cell(topology, params)
        v_out, _ = simulate_levels(cell, cfg, table)
        return dict(zip(table_codes, v_out))

    def objective(vector):
        evals[0] += 1
        try:
            levels = levels_for(vector)
        except (net.SingularNetwork, ValueError, net.InvalidTopology, NonQuiescentRead):
            return 1e9
        if levels is None:
            return 1e9
        return sum(((levels[c] - goal[c]) / goal[c]) ** 2 for c in goal)

    x0 = np.log10([getattr(base_params, f) if f != "r_ground"
                   else base_topology.r_ground for f in free])
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
