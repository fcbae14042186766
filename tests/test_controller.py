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

    def test_batched_study_equals_serial_groups(self):
        # the serial study ran one 10-row simulation per (temperature, trial)
        # group on that group's own substream; the batch must reproduce it
        cell = ctl.make_cell(net.CellTopology(r_series=(400.0, 500.0, 650.0),
                                              read_series_ohms=50.0))
        noise = ctl.NoiseConfig(source_noise_sigma=1e-3, rng_seed=11)
        temps, trials = (0.0, 25.0, 85.0), 3
        stats = ctl.run_temperature_study(cell, temps_c=temps, trials=trials,
                                          noise=noise, cfg=FAST)
        rows = enc.DEFAULT_BIN_TABLE.rows
        volts = np.array([enc.code_to_write_voltages(row.code).port_voltages
                          for row in rows])
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

    def test_row_temperatures_match_scalar_runs(self, cell):
        volts = np.array([enc.code_to_write_voltages(row.code).port_voltages
                          for row in enc.DEFAULT_BIN_TABLE.rows])
        kelvins = (273.15, 358.15)
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

    def test_quiescent_phases_end_early(self, cell, monkeypatch):
        calls = [0]
        step_array = dev.step_array

        def counting(*args, **kwargs):
            calls[0] += 1
            return step_array(*args, **kwargs)

        monkeypatch.setattr(dev, "step_array", counting)
        ctl.simulate_levels(cell, FAST)
        # 150 write steps; the reset of a fresh cell and the read are
        # frozen after their first step
        assert calls[0] <= 160
