import enum
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from mlmsim import controller as ctl
from mlmsim import device as dev
from mlmsim import encoder as enc
from mlmsim import network as net

from oracles import dense_cycle, inversion_count

# Coarser-than-default timing keeps unit tests quick; correctness at the
# default resolution is covered by the acceptance suite.
FAST = ctl.CycleConfig(dt=4e-6)

# a model kind with the name and value of a real one, from another enum, as
# a second import of the package would give
FOREIGN_KIND = enum.Enum("DeviceModelKind",
                         {"THRESHOLD_DRIFT": "threshold_drift"}).THRESHOLD_DRIFT

# a cell whose sub-cells all differ, with a read series resistor
UNEQUAL = net.CellTopology(r_series=(300.0, 900.0, 2700.0), r_write=(1000.0, 1500.0, 2000.0),
                           r_ground=150.0, read_series_ohms=250.0)

# FLOAT_KERNEL_MAX_ROWS values that put every batch on one kernel, numpy or
# floats, so that runs of different row counts compare bit for bit
ONE_KERNEL = (0, 10**6)


@pytest.fixture(scope="module")
def cell():
    return ctl.make_cell()


def pattern(code_text):
    return enc.code_to_write_voltages(enc.TernaryCode.from_string(code_text))


class TestRunCycle:
    def test_strongest_write_reads_below_no_write(self, cell):
        strongest = ctl.run_cycle(cell, pattern("222"), FAST)
        weakest = ctl.run_cycle(cell, pattern("000"), FAST)
        assert strongest.v_out < weakest.v_out

    def test_zero_write_duration_keeps_reset_state(self, cell):
        cfg = ctl.CycleConfig(dt=4e-6, t_write=0.0)
        m = ctl.run_cycle(cell, pattern("222"), cfg)
        assert m.final_device_states == (0.0, 0.0, 0.0)
        baseline = ctl.run_cycle(cell, pattern("000"), cfg)
        assert m.v_out == baseline.v_out

    def test_deterministic_with_seeded_noise(self, cell):
        noise = ctl.NoiseConfig(source_noise_sigma=2e-3, rng_seed=99)
        a = ctl.run_cycle(cell, pattern("012"), FAST, noise=noise)
        b = ctl.run_cycle(cell, pattern("012"), FAST, noise=noise)
        assert a.v_out == b.v_out
        assert a.final_device_states == b.final_device_states

    def test_noise_actually_perturbs(self, cell):
        quiet = ctl.run_cycle(cell, pattern("012"), FAST)
        noisy = ctl.run_cycle(cell, pattern("012"), FAST,
                              noise=ctl.NoiseConfig(5e-3, 123))
        assert noisy.v_out != quiet.v_out

    def test_recorded_code_matches_applied_pattern(self, cell):
        m = ctl.run_cycle(cell, pattern("201"), FAST)
        assert str(m.code) == "201"

    def test_accepts_raw_voltage_tuple(self, cell):
        m = ctl.run_cycle(cell, (0.0, 2.5, 4.0), FAST)
        assert str(m.code) == "012"


class TestResetAndRead:
    def test_reset_idempotent_from_written_state(self, cell):
        written = np.array(ctl.run_cycle(cell, pattern("210"), FAST).final_device_states)
        once = ctl.run_reset_phase(cell, written, FAST)
        twice = ctl.run_reset_phase(cell, once, FAST)
        assert np.abs(twice - once).max() <= 1e-9

    def test_read_phase_does_not_disturb(self, cell):
        written = np.array(ctl.run_cycle(cell, pattern("012"), FAST).final_device_states)
        v_out, after, drift = ctl.run_read_phase(cell, written, FAST)
        assert drift < 1e-3
        np.testing.assert_array_equal(after, written)
        assert v_out > 0

    def test_single_phases_run_the_cycle_loop(self, cell):
        written = np.array(ctl.run_cycle(cell, pattern("102"), FAST).final_device_states)
        v_out, after, _ = ctl.run_read_phase(cell, ctl.run_reset_phase(cell, written, FAST),
                                             FAST)
        m = ctl.run_cycle(cell, pattern("222"), ctl.CycleConfig(dt=4e-6, t_write=0.0),
                          w0=written)
        assert v_out == m.v_out
        assert tuple(after) == m.final_device_states

    def test_non_quiescent_read_raises(self):
        # no threshold gating plus an oversized read level disturbs the state
        loud = ctl.make_cell(kind=dev.DeviceModelKind.LINEAR_DRIFT)
        with pytest.raises(ctl.NonQuiescentRead):
            ctl.run_cycle(loud, pattern("000"), ctl.CycleConfig(dt=4e-6, v_read=2.0))


class TestStartingStates:
    """A starting state is checked before any phase runs."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated an invalid starting state")
        monkeypatch.setattr(ctl, "_run_phases", unreachable)

    @pytest.mark.parametrize("w0, match", [
        ([1.5, 0.2, 0.1], "1.5"),
        ([-0.5, 0.2, 0.1], "-0.5"),
        ([0.1, float("nan"), 0.1], "nan"),
        ([0.1, 0.2, float("inf")], "inf"),
        ([0.1, 0.2], r"3 device states .* shape \(2,\)"),
        ([0.1, 0.2, 0.3, 0.4], r"shape \(4,\)"),
        (0.5, r"shape \(\)"),
    ], ids=["above-1", "negative", "nan", "inf", "too-few", "too-many", "scalar"])
    def test_invalid_w0_rejected(self, cell, w0, match):
        with pytest.raises(ValueError, match=match):
            ctl.run_cycle(cell, pattern("012"), FAST, w0=w0)
        with pytest.raises(ValueError, match=match):
            ctl.run_reset_phase(cell, w0, FAST)
        with pytest.raises(ValueError, match=match):
            ctl.run_read_phase(cell, w0, FAST)

    def test_one_row_of_states_per_pattern(self, cell):
        volts = np.array([pattern("012").port_voltages, pattern("210").port_voltages])
        with pytest.raises(ValueError, match=r"each of 2 row\(s\), got shape \(3,\)"):
            ctl._run_batch(cell, volts, FAST, w0=[0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match=r"got shape \(3, 2\)"):
            ctl._run_batch(cell, volts, FAST, w0=np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match="1.5"):
            ctl._run_batch(cell, volts, FAST, w0=[[0.1, 0.2, 0.3], [0.4, 1.5, 0.6]])


class TestWriteVoltageEntry:
    """A write voltage is checked before any phase runs."""

    @pytest.mark.parametrize("rows", [1, ctl.FLOAT_KERNEL_MAX_ROWS + 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_write_voltage_rejected(self, cell, value, rows, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated a non-finite write voltage")

        monkeypatch.setattr(ctl, "_run_phases", unreachable)
        volts = np.resize(ctl._level_volts(enc.DEFAULT_BIN_TABLE), (rows, 3))
        volts[-1, 2] = value
        match = re.escape(f"write voltage {value!r} at row {rows - 1}, port 2 ")
        with pytest.raises(ValueError, match=match):
            if rows == 1:
                ctl.run_cycle(cell, volts[0], FAST)
            else:
                ctl._run_batch(cell, volts, FAST)


class TestInputSweep:
    def test_staircase_shape(self, cell):
        ms = ctl.run_input_sweep(cell, "behavioral", FAST)
        assert len(ms) == 61
        assert len({m.v_out for m in ms}) == 10
        by_code = {}
        for m in ms:
            by_code.setdefault(str(m.code), set()).add(m.v_out)
        # exact constancy within each bin under zero noise
        assert all(len(values) == 1 for values in by_code.values())

    def test_structural_path_matches_behavioral(self, cell):
        behavioral = ctl.run_input_sweep(cell, "behavioral", FAST)
        structural = ctl.run_input_sweep(cell, "structural", FAST)
        for b, s in zip(behavioral, structural):
            assert b.v_out == s.v_out

    def test_custom_sweep_array(self):
        ms = ctl.run_input_sweep(ctl.make_cell(), "behavioral", FAST,
                                 sweep=np.array([0.0, 1.3, 3.0]))
        assert [str(m.code) for m in ms] == ["222", "012", "000"]

    def test_unknown_path_rejected(self, cell):
        with pytest.raises(ValueError):
            ctl.run_input_sweep(cell, "magic", FAST)


class TestAllCodes:
    def test_ordering_endpoints_and_permutation(self, cell):
        scan = ctl.write_then_read_all_codes(cell, FAST)
        assert str(scan.measurements[0].code) == "222"
        assert str(scan.measurements[-1].code) == "000"
        assert 0 <= scan.inversions <= 45
        assert scan.inversions == inversion_count(scan.permutation)
        assert sorted(scan.permutation) == list(range(10))
        assert scan.min_separation > 0

    def test_permutation_invariance_under_symmetric_wiring(self, cell):
        patterns = np.array([[enc.WRITE_LEVELS[t] for t in trits]
                             for trits in product((0, 1, 2), repeat=3)])
        v_out, _, _, _ = ctl._run_batch(cell, patterns, FAST)
        groups = {}
        for trits, value in zip(product((0, 1, 2), repeat=3), v_out):
            groups.setdefault(tuple(sorted(trits)), []).append(value)
        assert len(groups) == 10
        for values in groups.values():
            assert max(values) - min(values) <= 1e-12 * max(values)

    def test_degenerate_levels_detected(self):
        dead = ctl.make_cell(params=dev.MemristorParams(drift_rate=0.0))
        with pytest.raises(ctl.DegenerateLevels):
            ctl.write_then_read_all_codes(dead, FAST)


class TestReadIdentity:
    """A quiescent read is the divider of the parallel device branches over r_ground."""

    @pytest.mark.parametrize("topology", [net.CellTopology(), UNEQUAL],
                             ids=["default", "unequal"])
    def test_each_level_reads_the_divider(self, topology):
        cell = ctl.make_cell(topology)
        cfg = ctl.CycleConfig()
        v_out, w = ctl.simulate_levels(cell, cfg)
        r = dev.resistance_array(w, cell.params, cfg.temperature)
        fixed = np.add(topology.per_subcell("r_series"), topology.read_series_ohms)
        s = (1.0 / (r + fixed)).sum(axis=1)
        expected = cfg.v_read * s / (1.0 / topology.r_ground + s)
        assert len(v_out) == 10
        np.testing.assert_allclose(v_out, expected, rtol=1e-12, atol=0.0)


class TestTimestepRefinement:
    def test_halving_default_dt_barely_moves_levels(self, cell):
        base = ctl.CycleConfig()
        fine = ctl.CycleConfig(dt=base.dt / 2)
        v_base, _ = ctl.simulate_levels(cell, base)
        v_fine, _ = ctl.simulate_levels(cell, fine)
        rel = np.abs(v_fine - v_base) / np.abs(v_base)
        assert rel.max() <= 0.005


class TestTemperatureStudy:
    def test_zero_noise_means_zero_stdev(self, cell):
        stats = ctl.run_temperature_study(cell, temps_c=(20.0, 50.0), trials=2,
                                          cfg=FAST)
        assert len(stats) == 20
        assert all(s.stdev == 0.0 for s in stats)

    def test_five_equal_trials_have_zero_stdev(self, cell):
        # the mean of five equal doubles can miss them by an ulp, as it does
        # for several codes here, which std(ddof=1) turns into ~1e-18
        stats = ctl.run_temperature_study(cell, temps_c=(20.0, 30.0, 40.0, 50.0), trials=5,
                                          cfg=FAST)
        assert len(stats) == 40
        assert [s.stdev for s in stats] == [0.0] * 40

    def test_seeded_study_reproducible(self, cell):
        noise = ctl.NoiseConfig(source_noise_sigma=1e-3, rng_seed=7)
        a = ctl.run_temperature_study(cell, temps_c=(20.0,), trials=3,
                                      noise=noise, cfg=FAST)
        b = ctl.run_temperature_study(cell, temps_c=(20.0,), trials=3,
                                      noise=noise, cfg=FAST)
        assert [(s.mean, s.stdev) for s in a] == [(s.mean, s.stdev) for s in b]
        different = ctl.run_temperature_study(cell, temps_c=(20.0,), trials=3,
                                              noise=ctl.NoiseConfig(1e-3, 8),
                                              cfg=FAST)
        assert [s.mean for s in a] != [s.mean for s in different]

    def test_mean_drift_small_across_temperatures(self, cell):
        stats = ctl.run_temperature_study(cell, temps_c=(20.0, 50.0), trials=2,
                                          cfg=FAST)
        for row in enc.DEFAULT_BIN_TABLE.rows:
            means = [s.mean for s in stats if s.code == row.code]
            drift = (max(means) - min(means)) / np.mean(means)
            assert drift <= 0.01

    def test_needs_two_trials(self, cell):
        with pytest.raises(ValueError):
            ctl.run_temperature_study(cell, trials=1, cfg=FAST)
        with pytest.raises(ValueError, match="at least one temperature"):
            ctl.run_temperature_study(cell, temps_c=(), cfg=FAST)

    def test_batched_study_equals_serial_groups(self, monkeypatch):
        # the serial study ran one 10-row simulation per (temperature, trial)
        # group on that group's own substream; the batch must reproduce it
        cell = ctl.make_cell(net.CellTopology(r_series=(400.0, 500.0, 650.0),
                                              read_series_ohms=50.0))
        noise = ctl.NoiseConfig(source_noise_sigma=1e-3, rng_seed=11)
        temps, trials = (0.0, 25.0, 85.0), 3
        rows = enc.DEFAULT_BIN_TABLE.rows
        volts = np.array([enc.code_to_write_voltages(row.code).port_voltages
                          for row in rows])
        for limit in ONE_KERNEL:
            monkeypatch.setattr(ctl, "FLOAT_KERNEL_MAX_ROWS", limit)
            stats = ctl.run_temperature_study(cell, temps_c=temps, trials=trials,
                                              noise=noise, cfg=FAST)
            assert len(stats) == len(rows) * len(temps)
            for t_idx, temp_c in enumerate(temps):
                cfg = ctl.CycleConfig(dt=FAST.dt, temperature=ctl.celsius_to_kelvin(temp_c))
                serial = np.stack([
                    ctl._run_batch(cell, volts, cfg, noise=noise,
                                   spawn_keys=[(t_idx, trial)])[0]
                    for trial in range(trials)])
                for c_idx, row in enumerate(rows):
                    s = stats[c_idx * len(temps) + t_idx]
                    assert (s.code, s.temp_c) == (row.code, temp_c)
                    assert s.mean == float(serial[:, c_idx].mean())
                    assert s.stdev == float(serial[:, c_idx].std(ddof=1))
                    assert s.stdev > 0

    def test_study_is_one_simulation(self, cell, monkeypatch):
        calls = [0]
        step_array = dev.step_array

        def counting(*args, **kwargs):
            calls[0] += 1
            return step_array(*args, **kwargs)

        monkeypatch.setattr(dev, "step_array", counting)
        ctl.run_temperature_study(cell, temps_c=(20.0, 30.0, 40.0, 50.0), trials=5,
                                  noise=ctl.NoiseConfig(1e-3, 5), cfg=FAST)
        # one cycle's worth of steps (see test_quiescent_phases_end_early),
        # not one per (temperature, trial) group
        assert calls[0] <= 160

    def test_row_temperatures_match_scalar_runs(self, cell, monkeypatch):
        volts = np.array([enc.code_to_write_voltages(row.code).port_voltages
                          for row in enc.DEFAULT_BIN_TABLE.rows])
        kelvins = (273.15, 358.15)
        for limit in ONE_KERNEL:
            monkeypatch.setattr(ctl, "FLOAT_KERNEL_MAX_ROWS", limit)
            both = ctl._run_batch(cell, np.vstack([volts, volts]), FAST,
                                  temperature=np.repeat(kelvins, len(volts)))
            for k, kelvin in enumerate(kelvins):
                alone = ctl._run_batch(cell, volts, ctl.CycleConfig(dt=FAST.dt,
                                                                    temperature=kelvin))
                for batched, scalar in zip(both, alone):
                    np.testing.assert_array_equal(
                        batched[k * len(volts):(k + 1) * len(volts)], scalar)

    def test_batch_rows_capped(self, cell, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a study over the row limit reached the simulation")

        monkeypatch.setattr(ctl, "_run_batch", no_simulation)
        trials = ctl.MAX_BATCH_ROWS // len(enc.DEFAULT_BIN_TABLE.rows) + 1
        with pytest.raises(ValueError, match=f"{ctl.MAX_BATCH_ROWS}-row limit"):
            ctl.run_temperature_study(cell, temps_c=(20.0,), trials=trials, cfg=FAST)


class TestCalibration:
    def test_identity_start_leaves_residual_unchanged(self):
        cell = ctl.make_cell()
        v_out, _ = ctl.simulate_levels(cell, FAST)
        targets = list(zip([str(r.code) for r in enc.DEFAULT_BIN_TABLE.rows], v_out))
        result = ctl.calibrate(targets, cfg=FAST, n_restarts=1, maxiter=25)
        assert result.residual_initial <= 1e-18
        assert result.residual_best <= result.residual_initial + 1e-18
        assert result.inversions == ctl._count_inversions(
            np.argsort(v_out, kind="stable"))

    def test_read_disturbing_candidate_scored_not_raised(self):
        # v_th_pos = 0.05 sits just above the read's branch voltage; simplex
        # vertices below it make the read move the state, which must count as
        # a bad candidate, not abort the fit
        v_out, _ = ctl.simulate_levels(ctl.make_cell(), FAST)
        targets = list(zip([str(r.code) for r in enc.DEFAULT_BIN_TABLE.rows],
                           v_out * 1.01))
        result = ctl.calibrate(targets, base_params=dev.MemristorParams(v_th_pos=0.05),
                               free=("v_th_pos", "r_ground"), cfg=FAST,
                               n_restarts=1, maxiter=20)
        assert result.residual_best < result.residual_initial

    def test_invalid_parameter_candidate_scored_not_raised(self, monkeypatch):
        # r_off = 1050 ohm lies within Nelder-Mead's 5% first step of
        # r_on = 1000 ohm, so the first simplex has a vertex with r_on >= r_off;
        # such a candidate must score as bad, not abort the fit
        cell = ctl.make_cell(params=dev.MemristorParams(r_off=1100.0))
        v_out, _ = ctl.simulate_levels(cell, FAST)
        targets = list(zip([str(r.code) for r in enc.DEFAULT_BIN_TABLE.rows], v_out))
        apply_free_params, invalid = ctl._apply_free_params, []

        def counting(*args):
            try:
                return apply_free_params(*args)
            except ValueError:
                invalid.append(args)
                raise

        monkeypatch.setattr(ctl, "_apply_free_params", counting)
        result = ctl.calibrate(targets, base_params=dev.MemristorParams(r_off=1050.0),
                               free=("r_on", "r_off"), cfg=FAST, n_restarts=1, maxiter=20)
        assert invalid
        assert result.residual_best < result.residual_initial
        assert result.params.r_on < result.params.r_off

    def test_unknown_target_code_rejected(self):
        with pytest.raises(ValueError):
            ctl.calibrate([("333", 1e-3)], cfg=FAST)
        # unusable target levels and restart counts fail before any fit
        for targets, kwargs, match in [
            ([("222", float("nan"))], {}, "finite and nonzero"),
            ([("222", float("inf"))], {}, "finite and nonzero"),
            ([("000", 1e-2), ("222", 0.0)], {}, "finite and nonzero"),
            ([("222", 3e-4)], {"n_restarts": 0}, "n_restarts"),
            ([("222", 3e-4)], {"n_restarts": -2}, "n_restarts"),
            ([("222", 3e-4)], {"maxiter": 0}, "maxiter"),
            ([("222", 3e-4)], {"maxiter": -3}, "maxiter"),
            ([("222", 4e-4), ("222", 0.02), ("000", 0.014)], {},
             "target code 222 is given more than once"),
            ([("222", 3e-4)], {"free": ()}, "free parameters"),
            ([("222", 3e-4)], {"free": ("r_on", "r_on")}, "free parameters"),
            # parameters of the device that calibration does not fit
            ([("222", 3e-4)], {"free": ("v_th_neg",)}, "cannot be fitted"),
            ([("222", 3e-4)], {"free": ("window_p",)}, "cannot be fitted"),
            # a free parameter fitted on a log scale from a start of 0
            ([("222", 3e-4)], {"base_params": dev.MemristorParams(drift_rate=0.0)},
             "drift_rate=0.0"),
            ([("222", 3e-4)], {"base_params": dev.MemristorParams(v_th_pos=0.0),
                               "free": ("v_th_pos",)}, "v_th_pos=0.0"),
        ]:
            with pytest.raises(ValueError, match=match):
                ctl.calibrate(targets, cfg=FAST, **kwargs)

    def test_improvement_from_detuned_start(self):
        cell = ctl.make_cell()
        v_out, _ = ctl.simulate_levels(cell, FAST)
        targets = list(zip([str(r.code) for r in enc.DEFAULT_BIN_TABLE.rows], v_out))
        start = dev.MemristorParams(drift_rate=1500.0)
        result = ctl.calibrate(targets, base_params=start, cfg=FAST,
                               n_restarts=1, maxiter=80, seed=1)
        assert result.residual_best < result.residual_initial
        assert result.improvement > 0.5


class TestConfigValidation:
    def test_dt_must_resolve_phases(self):
        with pytest.raises(ValueError):
            ctl.CycleConfig(dt=1e-4)

    def test_dt_must_be_positive(self):
        for dt in (0.0, -1e-6):
            with pytest.raises(ValueError, match="dt must be positive"):
                ctl.CycleConfig(dt=dt)

    def test_read_window_needs_a_step(self):
        with pytest.raises(ValueError):
            ctl.CycleConfig(t_read=1e-8)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            ctl.NoiseConfig(source_noise_sigma=-1.0)
        with pytest.raises(ValueError):
            ctl.NoiseConfig(source_noise_sigma=float("nan"))

    @pytest.mark.parametrize("field", ["v_reset", "t_reset", "v_read", "t_write",
                                       "t_read", "dt", "temperature"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cycle_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ctl.CycleConfig(**{field: value})

    @pytest.mark.parametrize("v_read", [0.0, -0.0])
    def test_zero_read_rejected(self, v_read):
        # a 0 V read reads every level as 0 V
        with pytest.raises(ValueError, match="v_read"):
            ctl.CycleConfig(v_read=v_read)

    @pytest.mark.parametrize("temperature", [0.0, -10.0])
    def test_temperature_must_be_above_absolute_zero(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            ctl.CycleConfig(temperature=temperature)

    def test_cycle_length_capped(self):
        with pytest.raises(ValueError, match="limit"):
            ctl.CycleConfig(t_write=1e3)
        with pytest.raises(ValueError, match="limit"):
            ctl.CycleConfig(dt=1e-300)

    @pytest.mark.parametrize("seed", [1.5, -1, "7", None])
    def test_rng_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            ctl.NoiseConfig(rng_seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 12345678901234])
    def test_noise_stream_without_spawn_key_is_the_plain_seeded_stream(self, seed):
        ours = ctl._noise_rng(ctl.NoiseConfig(1e-3, seed)).normal(size=8)
        assert ours.tolist() == np.random.default_rng(seed).normal(size=8).tolist()

    def test_non_positive_temperature_factor_rejected(self):
        # 1 + temp_coeff * (T - t_ref) = -0.3 at 150 C: negative resistances
        cell = ctl.make_cell(params=dev.MemristorParams(temp_coeff=-0.01))
        hot = ctl.CycleConfig(dt=4e-6, temperature=ctl.celsius_to_kelvin(150.0))
        with pytest.raises(ValueError, match="temperature factor"):
            ctl.run_cycle(cell, pattern("012"), hot)
        with pytest.raises(ValueError, match="423.15 K"):
            ctl.run_temperature_study(cell, temps_c=(20.0, 150.0), trials=2, cfg=FAST)

    def test_pattern_length_checked(self, cell):
        with pytest.raises(ValueError):
            ctl.run_cycle(cell, (4.0, 4.0), FAST)


class TestPower:
    def test_peak_power_positive_and_batched(self, cell):
        patterns = np.array([pattern("222").port_voltages,
                             pattern("000").port_voltages])
        peaks = ctl.peak_source_power(cell, patterns, FAST)
        assert peaks.shape == (2,)
        assert (peaks > 0).all()
        single = ctl.peak_source_power(cell, pattern("222").port_voltages, FAST)
        assert single == pytest.approx(peaks[0])

    def test_peak_power_matches_dense_reference(self, cell):
        # no write on a fresh cell: every step sees w = 0, so the peak is the
        # larger of the reset and read operating points' source power
        cfg = ctl.CycleConfig(dt=4e-6, t_write=0.0)
        m = ctl.run_cycle(cell, pattern("222"), cfg)
        r = dev.resistance_array(np.zeros(cell.ports.n_devices), cell.params,
                                 cfg.temperature)
        reset = dict.fromkeys(cell.ports.reset, cfg.v_reset)
        reset.update(dict.fromkeys(cell.ports.write, 0.0))
        read = dict.fromkeys(cell.ports.read, cfg.v_read)
        expected = max(net.solve_dc(cell.netlist, r, sources).total_source_power
                       for sources in (reset, read))
        assert m.peak_power == pytest.approx(expected, rel=1e-12)

    def test_sweep_records_patterns_and_peak_power(self, cell):
        ms = ctl.run_input_sweep(cell, "behavioral", FAST)
        level_patterns = np.array([enc.code_to_write_voltages(row.code).port_voltages
                                   for row in enc.DEFAULT_BIN_TABLE.rows])
        assert max(m.peak_power for m in ms) == ctl.peak_source_power(
            cell, level_patterns, FAST).max()
        assert all(m.pattern == enc.code_to_write_voltages(m.code) for m in ms)

    def test_structural_sweep_records_ladder_patterns(self, cell):
        enc_cfg = enc.EncoderConfig(comparator_offset=0.004)
        ms = ctl.run_input_sweep(cell, "structural", FAST, enc_cfg=enc_cfg)
        assert all(m.pattern == enc.encode_structural(m.v_in, cfg=enc_cfg)
                   for m in ms)

    def test_cycle_records_its_peak_power(self, cell):
        m = ctl.run_cycle(cell, pattern("012"), FAST)
        assert m.pattern == pattern("012")
        assert m.peak_power == ctl.peak_source_power(cell, pattern("012").port_voltages,
                                                     FAST)


class TestDenseReference:
    """The cycle core against a per-step dense integrator at the default dt."""

    @staticmethod
    def _assert_matches(measurement, reference):
        v_ref, w_ref = reference
        assert measurement.v_out == pytest.approx(v_ref, rel=1e-9, abs=0.0)
        np.testing.assert_allclose(measurement.final_device_states, w_ref,
                                   rtol=1e-9, atol=0.0)

    def test_chained_noisy_cycles(self, cell):
        cfg = ctl.CycleConfig()
        w = ctl.run_cycle(cell, pattern("222"), cfg).final_device_states
        for seed, code in enumerate(("012", "200", "121", "000", "220")):
            noise = ctl.NoiseConfig(1e-3, seed)
            m = ctl.run_cycle(cell, pattern(code), cfg, noise=noise, w0=w)
            self._assert_matches(m, dense_cycle(
                cell, pattern(code).port_voltages, cfg, w0=w, sigma=1e-3,
                rng=np.random.default_rng(seed)))
            w = m.final_device_states

    def test_unequal_cell_at_50c(self):
        cell = ctl.make_cell(net.CellTopology(r_series=(400.0, 500.0, 650.0),
                                              read_series_ohms=50.0))
        cfg = ctl.CycleConfig(temperature=ctl.celsius_to_kelvin(50.0))
        w = ctl.run_cycle(cell, pattern("021"), cfg).final_device_states
        m = ctl.run_cycle(cell, pattern("102"), cfg, w0=w)
        self._assert_matches(m, dense_cycle(cell, pattern("102").port_voltages,
                                            cfg, w0=w))

    @staticmethod
    def _rows_at_their_own_temperatures(cell, n_rows):
        # three rows at 20, 35 and 50 C, repeated to fill n_rows, each from
        # the states an earlier batch left it; each of the three is checked
        # on its own, and each repeat has the bits of its first copy
        cfg = ctl.CycleConfig()
        kelvins = np.resize([ctl.celsius_to_kelvin(t) for t in (20.0, 35.0, 50.0)], n_rows)
        earlier = np.resize([pattern(code).port_voltages for code in ("021", "220", "101")],
                            (n_rows, 3))
        _, w0, _, _ = ctl._run_batch(cell, earlier, cfg, temperature=kelvins)
        volts = np.resize([pattern(code).port_voltages for code in ("102", "012", "210")],
                          (n_rows, 3))
        v_out, w, _, _ = ctl._run_batch(cell, volts, cfg, w0=w0, temperature=kelvins)
        for k, kelvin in enumerate(kelvins[:3]):
            v_ref, w_ref = dense_cycle(cell, volts[k], replace(cfg, temperature=kelvin),
                                       w0=w0[k])
            assert v_out[k] == pytest.approx(v_ref, rel=1e-9, abs=0.0)
            np.testing.assert_allclose(w[k], w_ref, rtol=1e-9, atol=0.0)
        for result in (v_out, w):
            np.testing.assert_array_equal(result[3:].view(np.int64),
                                          result[:-3].view(np.int64))

    def test_numpy_kernel_rows_at_their_own_temperatures(self, cell):
        self._rows_at_their_own_temperatures(cell, ctl.FLOAT_KERNEL_MAX_ROWS + 1)

    def test_float_kernel_rows_at_their_own_temperatures(self, cell):
        self._rows_at_their_own_temperatures(cell, 3)

    def test_quiescent_phases_end_early(self, cell, monkeypatch):
        calls = [0]
        step_array = dev.step_array

        def counting(*args, **kwargs):
            calls[0] += 1
            return step_array(*args, **kwargs)

        monkeypatch.setattr(dev, "step_array", counting)
        # the level codes, repeated to one row more than the float kernel takes
        volts = np.resize(ctl._level_volts(enc.DEFAULT_BIN_TABLE),
                          (ctl.FLOAT_KERNEL_MAX_ROWS + 1, 3))
        ctl._run_batch(cell, volts, FAST)
        # 150 write steps; the reset of a fresh cell and the read are
        # frozen after their first step
        assert 0 < calls[0] <= 160

    def test_float_rows_end_at_their_own_quiescent_step(self, cell, monkeypatch):
        # each row's step loop in the float kernel runs over range(n_steps):
        # a controller-level range that counts what each loop takes
        loops = []

        def counting_range(*args):
            taken = [len(range(*args)), 0]
            loops.append(taken)
            for i in range(*args):
                taken[1] += 1
                yield i

        monkeypatch.setattr(ctl, "range", counting_range, raising=False)
        ctl.simulate_levels(cell, FAST)
        codes = [str(row.code) for row in enc.DEFAULT_BIN_TABLE.rows]
        # one step loop per row and phase (reset, write, read); a read that
        # ends early runs one shorter loop to pad its probe sum
        n_read = FAST.steps(FAST.t_read)
        lengths = {FAST.steps(FAST.t_reset), FAST.steps(FAST.t_write), n_read}
        steps = [taken for n, taken in loops if n in lengths]
        assert len(steps) == 3 * len(codes)
        assert all(n < n_read for n, _ in loops if n not in lengths)
        per_row = np.reshape(steps, (3, len(codes))).sum(axis=0)
        # the 000 row writes nothing: its write is frozen after one step,
        # as are the reset of a fresh cell and the read
        assert per_row[codes.index("000")] == 3
        assert 3 < per_row.max() <= 152


def _parity_case(name):
    """(cell, cycle config, noise) for one kernel-parity case."""
    cfg = ctl.CycleConfig()
    if name == "unequal cell at 50 C":
        cell = ctl.make_cell(net.CellTopology(r_series=(400.0, 500.0, 650.0),
                                              read_series_ohms=50.0))
        return cell, replace(cfg, temperature=ctl.celsius_to_kelvin(50.0)), None
    if name == "1 mV noise":
        return ctl.make_cell(), cfg, ctl.NoiseConfig(1e-3, 7)
    if name == "linear drift":
        # a short, small read keeps a model without thresholds inside the
        # read-disturb tolerance
        return (ctl.make_cell(kind=dev.DeviceModelKind.LINEAR_DRIFT),
                replace(cfg, v_read=0.01, t_read=2e-5), None)
    if name.startswith("window_p"):
        return ctl.make_cell(params=dev.MemristorParams(window_p=int(name[-1]))), cfg, None
    return ctl.make_cell(), cfg, None


class TestKernelParity:
    """A batch of up to FLOAT_KERNEL_MAX_ROWS rows steps in Python floats, a
    larger one in numpy."""

    @pytest.mark.parametrize("name", ["default", "unequal cell at 50 C", "1 mV noise",
                                      "linear drift", "window_p 2", "window_p 3"])
    def test_one_row_matches_a_row_of_two(self, name):
        # row 0 of a two-row batch steps in floats as the one-row run does,
        # and row 0 of a batch one row too large for floats steps in numpy
        cell, cfg, noise = _parity_case(name)
        other = pattern("111").port_voltages
        n_numpy = ctl.FLOAT_KERNEL_MAX_ROWS + 1
        # row 0 of every batch draws from the same substream as the one-row run
        keys = [()] + [(k,) for k in range(1, n_numpy)]
        w_one = w_two = w_numpy = None
        for code in ("222", "012", "120", "000"):
            volts = pattern(code).port_voltages
            v_one, w_one, _, peak_one = ctl._run_batch(cell, [volts], cfg, w0=w_one,
                                                       noise=noise)
            v_two, w_two, _, peak_two = ctl._run_batch(cell, [volts, other], cfg, w0=w_two,
                                                       noise=noise, spawn_keys=keys[:2])
            v_numpy, w_numpy, _, peak_numpy = ctl._run_batch(
                cell, [volts] + [other] * (n_numpy - 1), cfg, w0=w_numpy, noise=noise,
                spawn_keys=keys)
            for one, two, many in ((v_one, v_two, v_numpy), (w_one, w_two, w_numpy),
                                   (peak_one, peak_two, peak_numpy)):
                np.testing.assert_allclose(one, two[:1], rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(two[:1], many[:1], rtol=1e-12, atol=0.0)

    def test_numpy_read_matches_each_float_row(self, cell):
        # a read alone, from programmed states, so the peak is the read's
        # own power and neither it nor v_out comes from another phase
        cfg = ctl.CycleConfig()
        n = ctl.FLOAT_KERNEL_MAX_ROWS + 1
        w0 = np.random.default_rng(11).uniform(0.0, 1.0, size=(n, 3))
        read = ctl._read_phase(cell, cfg, n, ctl._no_noise)
        v_out, _, peak = ctl._run_phases(cell, cfg, [read], w0.copy())
        read_one = ctl._read_phase(cell, cfg, 1, ctl._no_noise)
        for k in range(n):
            v_one, _, peak_one = ctl._run_phases(cell, cfg, [read_one], w0[k:k + 1].copy())
            np.testing.assert_allclose(v_out[k:k + 1], v_one, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(peak[k:k + 1], peak_one, rtol=1e-12, atol=0.0)

    def test_kernel_chosen_by_row_count(self, cell, monkeypatch):
        calls = []
        step_array = dev.step_array

        def counting(w, *args, **kwargs):
            # the numpy kernel steps device-major (3, rows) states
            calls.append(w.shape[-1])
            return step_array(w, *args, **kwargs)

        monkeypatch.setattr(dev, "step_array", counting)
        n = ctl.FLOAT_KERNEL_MAX_ROWS
        volts = [pattern("012").port_voltages] * (n + 1)
        ctl._run_batch(cell, volts[:n], FAST)
        assert calls == []
        ctl._run_batch(cell, volts, FAST)
        assert calls and set(calls) == {n + 1}

    def test_float_rows_do_not_depend_on_their_batch(self, cell):
        # rows from programmed states: each has the same bits beside another
        # row, in a 13-row batch, in the full batch and in run_cycle on it
        # alone, whose star is built from one row
        n = ctl.FLOAT_KERNEL_MAX_ROWS
        codes = np.resize([str(row.code) for row in enc.DEFAULT_BIN_TABLE.rows], n)
        w0 = np.random.default_rng(3).uniform(0.0, 1.0, size=(n, 3))
        volts = np.array([pattern(code).port_voltages for code in codes])

        def results(rows):
            v_out, w, _, peak = ctl._run_batch(cell, volts[rows], FAST, w0=w0[rows])
            return np.column_stack([v_out, w, peak])

        full = results(slice(None))
        thirteen = results(slice(13))
        np.testing.assert_array_equal(thirteen.view(np.int64), full[:13].view(np.int64))
        for k, code in enumerate(codes):
            pair = results([(k + 1) % n, k])
            np.testing.assert_array_equal(pair[1].view(np.int64), full[k].view(np.int64))
            m = ctl.run_cycle(cell, pattern(code), FAST, w0=w0[k])
            alone = np.array([m.v_out, *m.final_device_states, m.peak_power])
            np.testing.assert_array_equal(alone.view(np.int64), full[k].view(np.int64))


class TestModelKind:
    """Linear drift is the threshold law with an empty band, on both kernels."""

    @pytest.mark.parametrize("rows", [1, ctl.FLOAT_KERNEL_MAX_ROWS + 1],
                             ids=["floats", "numpy"])
    def test_linear_drift_is_a_zero_threshold_cell(self, rows):
        linear = ctl.make_cell(kind=dev.DeviceModelKind.LINEAR_DRIFT)
        zero_band = ctl.make_cell(params=dev.MemristorParams(v_th_pos=0.0, v_th_neg=0.0))
        # a small read keeps a cell without thresholds inside the tolerance
        cfg = ctl.CycleConfig(v_read=1e-4)
        volts = np.resize(ctl._level_volts(enc.DEFAULT_BIN_TABLE), (rows, 3))
        noise = ctl.NoiseConfig(1e-3, 4)
        v_lin, w_lin, _, peak_lin = ctl._run_batch(linear, volts, cfg, noise=noise)
        v_zero, w_zero, _, peak_zero = ctl._run_batch(zero_band, volts, cfg, noise=noise)
        for got, want in ((v_lin, v_zero), (w_lin, w_zero), (peak_lin, peak_zero)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind", ["threshold_drift", None, FOREIGN_KIND],
                             ids=["string", "none", "foreign-enum"])
    def test_unknown_kind_rejected(self, kind):
        # run_cycle steps in floats, the larger batch in numpy
        cell = ctl.make_cell(kind=kind)
        with pytest.raises(ValueError, match=re.escape(repr(kind))):
            ctl.run_cycle(cell, pattern("012"), FAST)
        volts = [pattern("012").port_voltages] * (ctl.FLOAT_KERNEL_MAX_ROWS + 1)
        with pytest.raises(ValueError, match=re.escape(repr(kind))):
            ctl._run_batch(cell, volts, FAST)


class TestBlockSettle:
    """Both kernels check and fold each block of steps at once (`Star.settle`)."""

    ROWS = ctl.FLOAT_KERNEL_MAX_ROWS + 1

    def test_nan_state_inside_a_block_raises(self, cell, monkeypatch):
        calls = [0]
        step_array = dev.step_array

        def corrupting(*args, **kwargs):
            out = step_array(*args, **kwargs)
            calls[0] += 1
            if calls[0] == 5:
                out[1, 2] = np.nan  # device b of row 2
            return out

        monkeypatch.setattr(dev, "step_array", corrupting)
        volts = np.resize(ctl._level_volts(enc.DEFAULT_BIN_TABLE), (self.ROWS, 3))
        # the reset of a fresh cell is frozen after its first step, so the
        # NaN lands on the fourth write step, and the 150-step write is one
        # block
        n_write = FAST.steps(FAST.t_write)
        assert ctl._block_length(n_write, 3, self.ROWS) == n_write
        with pytest.raises(net.SingularNetwork):
            ctl._run_batch(cell, volts, FAST)
        # the kernel stepped on past the NaN: the block's check raised
        assert calls[0] > 6

    @pytest.mark.parametrize("rows", [ctl.FLOAT_KERNEL_MAX_ROWS, ROWS],
                             ids=["floats", "numpy"])
    @pytest.mark.parametrize("kind", list(dev.DeviceModelKind))
    def test_one_step_blocks_give_the_same_bits(self, kind, rows, monkeypatch):
        # threshold drift: a noisy write that is several numpy-kernel blocks
        # (one per float-kernel row) and a read that stops early; linear
        # drift: a read that runs every step
        cell = ctl.make_cell(kind=kind)
        cfg = ctl.CycleConfig()
        if kind is dev.DeviceModelKind.LINEAR_DRIFT:
            cfg = replace(cfg, v_read=0.01, t_read=2e-5)
        n_write = cfg.steps(cfg.t_write)
        assert n_write > 2 * ctl._block_length(n_write, 3, self.ROWS)
        volts = np.resize(ctl._level_volts(enc.DEFAULT_BIN_TABLE), (rows, 3))
        w0 = np.random.default_rng(5).uniform(0.0, 1.0, size=(rows, 3))

        def run():
            return ctl._run_batch(cell, volts, cfg, w0=w0, noise=ctl.NoiseConfig(1e-3, 2))

        default = run()
        monkeypatch.setattr(ctl, "BLOCK_DOUBLES", 1)
        for got, want in zip(run(), default):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_early_stopped_read_is_a_per_step_sum(self, cell):
        # the read freezes every state at its first step, so the phase ends
        # there and the rest of the sum is its probe voltage again
        cfg = ctl.CycleConfig()
        w0 = np.random.default_rng(7).uniform(0.0, 1.0, size=(self.ROWS, 3))
        read = ctl._read_phase(cell, cfg, self.ROWS, ctl._no_noise)
        first = net.Star(cell.topology, "read", 1, read.drive)
        probe, _, _ = ctl._run_phases(cell, cfg, [first], w0.copy())
        v_out, drift, _ = ctl._run_phases(cell, cfg, [read], w0.copy())
        assert read.n_steps > 1 and (drift == 0.0).all()
        total = np.zeros(self.ROWS)
        for _ in range(read.n_steps):
            total = total + probe
        np.testing.assert_array_equal(v_out.view(np.int64),
                                      (total / read.n_steps).view(np.int64))


class TestReadDrift:
    """`_run_phases` measures a read's drift from its first and last states."""

    @pytest.mark.parametrize("rows", [1, 10, ctl.FLOAT_KERNEL_MAX_ROWS + 1])
    def test_drift_is_the_largest_step_motion(self, rows):
        # thresholds inside the read's branch voltages, so every step moves
        # the states, up on the rows read at +50 mV and down on those at -50
        cell = ctl.make_cell(
            net.CellTopology(r_series=(300.0, 900.0, 2700.0), read_series_ohms=300.0),
            dev.MemristorParams(v_th_pos=0.01, v_th_neg=-0.01, drift_rate=20.0))
        w0 = np.random.default_rng(rows).uniform(0.1, 0.9, size=(rows, 3))
        amplitudes = np.where(np.arange(rows) % 2 == 0, 0.05, -0.05)
        read = net.Star(cell.topology, "read", FAST.steps(FAST.t_read),
                        np.column_stack([amplitudes] * 3))
        w = w0.copy()
        _, drift, _ = ctl._run_phases(cell, FAST, [read], w)
        # the same read one step at a time, chained through the states
        one_step = net.Star(cell.topology, "read", 1, read.drive)
        w_t, want = w0.copy(), np.zeros(rows)
        for _ in range(read.n_steps):
            ctl._run_phases(cell, FAST, [one_step], w_t)
            np.maximum(want, np.abs(w_t - w0).max(axis=1), out=want)
        assert (drift > 0.0).all()
        np.testing.assert_array_equal(drift.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(w.view(np.int64), w_t.view(np.int64))


class TestRowDeduplication:
    """A noise-free fresh-cell sweep simulates each distinct write pattern once."""

    @pytest.fixture
    def rows_simulated(self, monkeypatch):
        rows = []
        run_phases = ctl._run_phases

        def recording(cell, cfg, phases, w, *args, **kwargs):
            rows.append(len(w))
            return run_phases(cell, cfg, phases, w, *args, **kwargs)

        monkeypatch.setattr(ctl, "_run_phases", recording)
        return rows

    @pytest.mark.parametrize("path", ["behavioral", "structural"])
    def test_default_sweep_simulates_ten_rows(self, cell, rows_simulated, path):
        assert len(ctl.run_input_sweep(cell, path, FAST)) == 61
        assert rows_simulated == [10]

    def test_noisy_sweep_simulates_every_row(self, cell, rows_simulated):
        ctl.run_input_sweep(cell, "behavioral", FAST, noise=ctl.NoiseConfig(1e-3, 0))
        assert rows_simulated == [61]

    @pytest.mark.parametrize("path", ["behavioral", "structural"])
    def test_results_equal_the_full_batch(self, cell, path, monkeypatch):
        cfg = ctl.CycleConfig()
        for limit in ONE_KERNEL:
            monkeypatch.setattr(ctl, "FLOAT_KERNEL_MAX_ROWS", limit)
            ms = ctl.run_input_sweep(cell, path, cfg)
            volts = np.array([m.pattern.port_voltages for m in ms])
            v_out, w, _, peak = ctl._run_batch(cell, volts, cfg)
            for got, want in ((np.array([m.v_out for m in ms]), v_out),
                              (np.array([m.final_device_states for m in ms]), w),
                              (np.array([m.peak_power for m in ms]), peak)):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestFailureParity:
    """A non-finite solve raises SingularNetwork from either kernel, and a row
    passes or fails alike alone and in a batch."""

    @pytest.fixture(params=["zero denominator", "NaN numerator", "NaN right-hand side"])
    def corrupted_stars(self, request, monkeypatch):
        # a write or a read solves V_M = sum U_i y_i / (g_ground + sum y_i),
        # and the guard checks sum (U_i - V_M) y_i = V_M g_ground
        build = net.Star.__init__

        def corrupted(star, *args, **kwargs):
            build(star, *args, **kwargs)
            if request.param == "zero denominator":
                # M floats: every branch and the ground open
                star.fixed = (np.inf,) * len(star.fixed)
                star.g_ground = 0.0
            elif request.param == "NaN numerator":
                # only the middle branch of the last row is NaN, so a max()
                # over the branches would drop it
                star.drive[-1, 1] = np.nan
            else:
                star.g_ground = np.nan

        monkeypatch.setattr(net.Star, "__init__", corrupted)

    def test_one_row(self, cell, corrupted_stars):
        with pytest.raises(net.SingularNetwork):
            ctl.run_cycle(cell, pattern("012"), FAST)

    def test_ten_rows(self, cell, corrupted_stars):
        # the level scan: ten rows, stepped in floats
        with pytest.raises(net.SingularNetwork):
            ctl.simulate_levels(cell, FAST)

    def test_numpy_rows(self, cell, corrupted_stars):
        volts = np.resize(ctl._level_volts(enc.DEFAULT_BIN_TABLE),
                          (ctl.FLOAT_KERNEL_MAX_ROWS + 1, 3))
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(net.SingularNetwork):
            ctl._run_batch(cell, volts, FAST)

    @pytest.mark.parametrize("rows", [1, 10, ctl.FLOAT_KERNEL_MAX_ROWS + 1])
    @pytest.mark.parametrize("phase", ["reset", "write", "read"])
    def test_nan_amplitude_raises(self, cell, phase, rows):
        # a phase whose last row draws NaN for every amplitude, past the
        # entry checks, from programmed states
        volts = np.resize(ctl._level_volts(enc.DEFAULT_BIN_TABLE), (rows, 3))
        w0 = np.random.default_rng(rows).uniform(0.0, 1.0, size=(rows, 3))
        bump = np.zeros(rows)
        bump[-1] = np.nan

        def run(part):
            def draw():
                return bump[part]
            phase_of = {"reset": lambda: ctl._reset_phase(cell, FAST, len(bump[part]), draw),
                        "write": lambda: ctl._write_phase(cell, FAST, volts[part], draw),
                        "read": lambda: ctl._read_phase(cell, FAST, len(bump[part]), draw)}
            ctl._run_phases(cell, FAST, [phase_of[phase]()], w0[part].copy())

        with pytest.raises(net.SingularNetwork):
            run(slice(None))
        with pytest.raises(net.SingularNetwork):
            run(slice(rows - 1, rows))
        if rows > 1:
            run(slice(0, rows - 1))

    @pytest.mark.parametrize("offset", [0.95e-6, 1.05e-6])
    def test_a_row_fails_alone_as_in_a_batch(self, cell, offset):
        # a write step of code 012 beside two of 222, whose currents are
        # larger: 012's V_M is moved off the balance at M by offset times its
        # own current scale, and only that scale may judge it
        volts = np.array([pattern(code).port_voltages for code in ("012", "222", "222")])
        star = ctl._write_phase(cell, FAST, volts, ctl._no_noise)
        r = dev.resistance_array(np.full((3, 3), 0.5), cell.params, FAST.temperature)
        y = 1.0 / (r + star.fixed)
        v_m = (star.drive * y).sum(axis=1) / (y.sum(axis=1) + star.g_ground)
        current = (star.drive - v_m[:, None]) * y
        scale = np.abs(current).sum(axis=1) + np.abs(v_m) * star.g_ground
        assert scale[1:].min() > 1.1 * scale[0]
        v_m[0] += offset * scale[0] / (y[0].sum() + star.g_ground)
        block = np.column_stack([y, (star.drive - v_m[:, None]) * r * y, v_m]).T[None]

        def fails(rows):
            try:
                star.settle(block[..., rows], np.zeros(3), rows)
            except net.SingularNetwork:
                return True
            return False

        alone = fails(slice(0, 1))
        assert alone is (offset > 1e-6)
        assert fails(slice(None)) is alone
        assert not fails(slice(1, 3))


class TestChainedCycles:
    """A cell keeps no state between cycles: a chain of cycles on one cell
    gives the bits of the same chain on fresh cells."""

    CODES = ("222", "012", "120", "000", "111", "202", "021", "112", "001", "220",
             "102", "011")

    @staticmethod
    def _chain(next_cell, codes, noisy):
        w, results = None, []
        for k, code in enumerate(codes):
            noise = ctl.NoiseConfig(1e-3, k) if noisy and k % 3 == 1 else None
            m = ctl.run_cycle(next_cell(), pattern(code), ctl.CycleConfig(), noise=noise,
                              w0=w)
            w = m.final_device_states
            results.append((m.v_out, w, m.peak_power))
        return results

    def _assert_chain_equals_fresh_cells(self, codes, noisy):
        one = ctl.make_cell()
        reused = self._chain(lambda: one, codes, noisy)
        fresh = self._chain(ctl.make_cell, codes, noisy)
        # equal floats, and the same bits: == would let 0.0 match -0.0
        assert repr(reused) == repr(fresh)

    def test_chained_cycles_equal_fresh_cells(self):
        self._assert_chain_equals_fresh_cells(self.CODES, noisy=True)

    def test_repeated_patterns_equal_fresh_cells(self):
        self._assert_chain_equals_fresh_cells(("222", "222", "012", "000", "012", "012"),
                                              noisy=False)

    def test_levels_twice_equal_a_fresh_cell(self):
        cell = ctl.make_cell()
        first = ctl.simulate_levels(cell, FAST)
        second = ctl.simulate_levels(cell, FAST)
        fresh = ctl.simulate_levels(ctl.make_cell(), FAST)
        for a, b, c in zip(first, second, fresh):
            np.testing.assert_array_equal(a.view(np.int64), c.view(np.int64))
            np.testing.assert_array_equal(b.view(np.int64), c.view(np.int64))
