"""Cycle execution and experiment drivers for the multi-level cell.

A cycle is a list of quasi-static phases, each a `Phase`: the amplitudes of
its engaged sources by element index, its step count, and whether it is the
read. One loop, `_run_phases`, runs any such list. In each phase the
engaged sources are fixed, and on every timestep the resistive network is
solved exactly for the frozen device resistances, after which each device
state advances one explicit Euler step under its own branch voltage.
Devices therefore interact through the shared nodes during the write
transient, which is the only mechanism that can make a device's final
state depend on the whole pattern rather than its own port alone.

The full cycle is the list below; a zero-length reset or write is left out,
and the single-phase operations run a one-element list through the same loop.
  reset  - reset sources on at v_reset on the device negative terminals,
           write ports held at 0 V so the erase current can return to
           ground; drives every state toward w = 0.
  write  - all write sources on simultaneously at the pattern voltages.
  read   - read sources on at v_read; the measurement is the mean probe
           voltage over the window, and any state motion beyond tolerance
           raises NonQuiescentRead.

With source noise, each phase draws its perturbations as it is built, in
this order: the reset amplitude, one per write port held at 0 V, one per
write port, then the read amplitude.

Everything operates on batches of cell instances at once (one row per
pattern / trial), which keeps sweeps, studies and calibration inside a few
stacked linear solves per timestep.
"""

import dataclasses
from dataclasses import dataclass, replace

import numpy as np

from . import device as dev
from . import encoder as enc
from . import network as net

# Maximum tolerated state motion during a read, as a fraction of full scale.
READ_DISTURB_TOLERANCE = 1e-3


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

    def steps(self, duration):
        return int(round(duration / self.dt))


@dataclass(frozen=True)
class NoiseConfig:
    """Seeded additive perturbation of engaged source amplitudes, per phase."""

    source_noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.source_noise_sigma < 0:
            raise ValueError("noise sigma must be nonnegative")


@dataclass
class Measurement:
    """One recorded cycle: input (if encoder-driven), code, read-out, states."""

    v_in: object
    code: enc.TernaryCode
    v_out: float
    temperature: float
    final_device_states: tuple


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


def _noise_draw(rng, sigma, batch):
    """Per-phase amplitude perturbation: one fresh draw per call."""
    if rng is None or sigma == 0.0:
        return _no_noise
    return lambda: rng.normal(0.0, sigma, size=batch)


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


def _run_phases(cell, cfg, phases, w, track_power=False):
    """Run the phases in order on the (B, n) states w, which change in place.

    Returns (v_out, read drift, peak source power), one value per batch row;
    v_out and drift stay None when no phase is the read.
    """
    netlist, ports = cell.netlist, cell.ports
    dev_a = np.array([netlist.elements[e].a for e in ports.devices])
    dev_b = np.array([netlist.elements[e].b for e in ports.devices])
    batch = w.shape[0]
    v_out = drift = None
    peak_power = np.zeros(batch)
    for phase in phases:
        tmpl = net.MnaTemplate(netlist, dict.fromkeys(phase.sources, 0.0))
        z = tmpl.rhs(phase.sources)
        if track_power:
            src_vals = np.stack([np.broadcast_to(phase.sources[idx], (batch,))
                                 for idx, _ in tmpl.active_sources], axis=-1)
        if phase.is_read:
            w_start = w.copy()
            probe_sum = np.zeros(batch)
            drift = np.zeros(batch)
        for _ in range(phase.n_steps):
            r = dev.resistance_array(w, cell.params, cfg.temperature)
            volts, i_src = tmpl.solve(1.0 / r, z)
            v_dev = volts[..., dev_a] - volts[..., dev_b]
            dev.step_array(w, v_dev, cfg.dt, cell.params, cell.kind)
            if phase.is_read:
                probe_sum += volts[..., ports.probe_node]
                drift = np.maximum(drift, np.abs(w - w_start).max(axis=-1))
            if track_power:
                power = (-src_vals * i_src).sum(axis=-1)
                peak_power = np.maximum(peak_power, power)
        if phase.is_read:
            if (drift >= READ_DISTURB_TOLERANCE).any():
                raise NonQuiescentRead(
                    f"read moved device state by {drift.max():.3e} of full scale "
                    f"(tolerance {READ_DISTURB_TOLERANCE:g})")
            v_out = probe_sum / phase.n_steps
    return v_out, drift, peak_power


def _run_batch(cell, patterns, cfg, w0=None, rng=None, sigma=0.0, track_power=False):
    patterns = np.asarray(patterns, dtype=float)
    if patterns.ndim == 1:
        patterns = patterns[None, :]
    batch, n = patterns.shape
    if n != cell.ports.n_devices:
        raise ValueError(f"pattern has {n} ports, cell has {cell.ports.n_devices}")
    if w0 is None:
        w = np.zeros((batch, n))
    else:
        w = np.array(w0, dtype=float).reshape(batch, n)
    phases = _cycle_phases(cell, cfg, patterns, _noise_draw(rng, sigma, batch))
    v_out, drift, peak_power = _run_phases(cell, cfg, phases, w, track_power)
    return v_out, w, drift, peak_power


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def run_cycle(cell: Cell, pattern, cfg: CycleConfig = CycleConfig(),
              noise: NoiseConfig = None, w0=None) -> Measurement:
    """Execute one full reset/write/read cycle for a single pattern."""
    if isinstance(pattern, enc.WritePattern):
        volts = pattern.port_voltages
    else:
        volts = tuple(float(v) for v in pattern)
    rng, sigma = _noise_rng(noise)
    v_out, w, _, _ = _run_batch(cell, np.array([volts]), cfg,
                                w0=None if w0 is None else np.asarray(w0)[None, :],
                                rng=rng, sigma=sigma)
    code = enc.quantize_pattern(enc.WritePattern(volts))
    return Measurement(None, code, float(v_out[0]), cfg.temperature, tuple(w[0]))


def run_reset_phase(cell: Cell, w0, cfg: CycleConfig = CycleConfig()):
    """Apply only the reset phase to the given states; returns new states."""
    w = np.array(w0, dtype=float).reshape(1, -1)
    _run_phases(cell, cfg, [_reset_phase(cell, cfg, 1, _no_noise)], w)
    return w[0]


def run_read_phase(cell: Cell, w0, cfg: CycleConfig = CycleConfig()):
    """Apply only the read phase; returns (v_out, new states, max state drift)."""
    w = np.array(w0, dtype=float).reshape(1, -1)
    v_out, drift, _ = _run_phases(cell, cfg, [_read_phase(cell, cfg, _no_noise)], w)
    return float(v_out[0]), w[0], float(drift[0])


def _noise_rng(noise):
    if noise is None or noise.source_noise_sigma == 0.0:
        return None, 0.0
    return np.random.default_rng(noise.rng_seed), noise.source_noise_sigma


def run_input_sweep(cell, encoder_path="behavioral", cfg: CycleConfig = CycleConfig(),
                    sweep=None, table: enc.BinTable = enc.DEFAULT_BIN_TABLE,
                    enc_cfg: enc.EncoderConfig = enc.EncoderConfig(),
                    noise: NoiseConfig = None):
    """One fresh-cell cycle per sweep input; returns Measurements in order.

    encoder_path selects how the write pattern is produced: "behavioral"
    uses the exact table voltages, "structural" feeds the simulated ladder
    output (possibly nonideal) to the ports.
    """
    if callable(cell):
        cell = cell()
    if encoder_path not in ("behavioral", "structural"):
        raise ValueError(f"unknown encoder path {encoder_path!r}")
    if sweep is None:
        sweep = np.linspace(table.v_min, table.v_max, 61)
    codes = [enc.encode_behavioral(v, table) for v in sweep]
    if encoder_path == "behavioral":
        patterns = [enc.code_to_write_voltages(c).port_voltages for c in codes]
    else:
        patterns = [enc.encode_structural(v, table, enc_cfg).port_voltages
                    for v in sweep]
    rng, sigma = _noise_rng(noise)
    v_out, w, _, _ = _run_batch(cell, np.array(patterns), cfg, rng=rng, sigma=sigma)
    return [Measurement(float(v_in), code, float(vo), cfg.temperature, tuple(states))
            for v_in, code, vo, states in zip(sweep, codes, v_out, w)]


def simulate_levels(cell: Cell, cfg: CycleConfig = CycleConfig(),
                    table: enc.BinTable = enc.DEFAULT_BIN_TABLE,
                    noise: NoiseConfig = None, rng=None):
    """Read-out level per table code, one fresh cycle each, in table order."""
    if rng is None:
        rng, sigma = _noise_rng(noise)
    else:
        sigma = noise.source_noise_sigma if noise else 0.0
    patterns = [enc.code_to_write_voltages(row.code).port_voltages
                for row in table.rows]
    v_out, w, _, _ = _run_batch(cell, np.array(patterns), cfg, rng=rng, sigma=sigma)
    return v_out, w


def peak_source_power(cell: Cell, patterns, cfg: CycleConfig = CycleConfig()):
    """Largest instantaneous total source power over a cycle, per pattern row."""
    patterns = np.asarray(patterns, dtype=float)
    single = patterns.ndim == 1
    _, _, _, peak = _run_batch(cell, patterns, cfg, track_power=True)
    return float(peak[0]) if single else peak


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
    if callable(cell):
        cell = cell()
    v_out, w = simulate_levels(cell, cfg, table, noise)
    order = np.argsort(v_out, kind="stable")
    measurements = [
        Measurement(None, table.rows[i].code, float(v_out[i]), cfg.temperature,
                    tuple(w[i]))
        for i in order
    ]
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

    Each (temperature, trial) pair gets an independent deterministic
    substream, so results do not depend on execution order.
    """
    if callable(cell):
        cell = cell()
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard deviation")
    sigma = noise.source_noise_sigma
    outputs = {}
    for t_idx, temp_c in enumerate(temps_c):
        run_cfg = replace(cfg, temperature=celsius_to_kelvin(temp_c))
        per_trial = []
        for trial in range(trials):
            rng = None
            if sigma > 0.0:
                seq = np.random.SeedSequence(entropy=noise.rng_seed,
                                             spawn_key=(t_idx, trial))
                rng = np.random.default_rng(seq)
            v_out, _ = simulate_levels(cell, run_cfg, table, noise, rng=rng)
            per_trial.append(v_out)
        outputs[temp_c] = np.stack(per_trial)

    stats = []
    for c_idx, row in enumerate(table.rows):
        for temp_c in temps_c:
            values = outputs[temp_c][:, c_idx]
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
              kind=dev.DeviceModelKind.THRESHOLD_DRIFT,
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
        cell = make_cell(topology, params, kind)
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
