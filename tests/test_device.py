import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlmsim import device as dev

from oracles import logistic_drift

THRESHOLD = dev.DeviceModelKind.THRESHOLD_DRIFT
LINEAR = dev.DeviceModelKind.LINEAR_DRIFT


class TestResistance:
    def test_endpoints_at_reference_temperature(self):
        p = dev.MemristorParams()
        assert dev.resistance(dev.MemristorState(0.0), p, p.t_ref) == p.r_on
        assert dev.resistance(dev.MemristorState(1.0), p, p.t_ref) == p.r_off

    def test_midpoint_of_linear_map(self):
        p = dev.MemristorParams(r_on=1_000.0, r_off=11_000.0, temp_coeff=0.0)
        for temperature in (250.0, 293.15, 400.0):
            assert dev.resistance(dev.MemristorState(0.5), p, temperature) == pytest.approx(6_000.0)

    def test_temperature_factor(self):
        p = dev.MemristorParams(temp_coeff=1e-3, t_ref=300.0)
        r_hot = dev.resistance(dev.MemristorState(0.25), p, 310.0)
        r_ref = dev.resistance(dev.MemristorState(0.25), p, 300.0)
        assert r_hot == pytest.approx(r_ref * 1.01)

    @given(w_lo=st.floats(0, 1), w_hi=st.floats(0, 1),
           temp=st.floats(100.0, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_nondecreasing_in_state(self, w_lo, w_hi, temp):
        p = dev.MemristorParams()
        if w_lo > w_hi:
            w_lo, w_hi = w_hi, w_lo
        r_lo = dev.resistance(dev.MemristorState(w_lo), p, temp)
        r_hi = dev.resistance(dev.MemristorState(w_hi), p, temp)
        assert r_hi >= r_lo
        assert r_lo > 0


class TestResetState:
    def test_reset_is_low_state(self):
        p = dev.MemristorParams()
        assert dev.reset_state(p).w == 0.0
        assert dev.resistance(dev.reset_state(p), p, p.t_ref) == p.r_on

    def test_full_write_pulse_saturates_from_reset(self):
        # a 0.6 ms logic-2 pulse straight across the device must program it
        p = dev.MemristorParams()
        end = dev.integrate_pulse(dev.reset_state(p), 4.0, 0.6e-3, 1e-6, p)
        assert end.w >= 0.99


class TestDriftNumerics:
    def test_matches_logistic_closed_form(self):
        # dt = 1 us against the exact solution of dw/dt = k*v*4w(1-w)
        p = dev.MemristorParams(drift_rate=1.0, window_p=1)
        cases = [(0.2, 1.0), (0.2, 2.0), (0.7, -1.5), (0.45, 0.8)]
        dt, total = 1e-6, 0.1
        w = np.array([c[0] for c in cases])
        v = np.array([c[1] for c in cases])
        for _ in range(int(round(total / dt))):
            dev.step_array(w, v, dt, p, LINEAR)
        for k, (w0, volt) in enumerate(cases):
            expected = logistic_drift(w0, p.drift_rate, volt, total)
            assert abs(w[k] - expected) <= 1e-6

    def test_scalar_step_equals_kernel(self):
        p = dev.MemristorParams()
        state = dev.MemristorState(0.3)
        out = dev.step(state, 2.0, 1e-6, p, LINEAR)
        w = np.array([0.3])
        dev.step_array(w, np.array([2.0]), 1e-6, p, LINEAR)
        assert out.w == w[0]

    def test_deterministic(self):
        p = dev.MemristorParams()
        a = dev.step(dev.MemristorState(0.42), 1.7, 3e-6, p, THRESHOLD)
        b = dev.step(dev.MemristorState(0.42), 1.7, 3e-6, p, THRESHOLD)
        assert a == b

    def test_window_blocks_outward_motion_at_bounds(self):
        p = dev.MemristorParams()
        assert dev.step(dev.MemristorState(0.0), -4.0, 1e-3, p, LINEAR).w == 0.0
        assert dev.step(dev.MemristorState(1.0), 4.0, 1e-3, p, LINEAR).w == 1.0

    def test_boundary_escape_allows_programming_from_reset(self):
        p = dev.MemristorParams()
        moved = dev.step(dev.MemristorState(0.0), 4.0, 1e-6, p, LINEAR)
        assert moved.w > 0.0

    def test_first_order_dt_refinement(self):
        # halving dt moves the endpoint of a fixed pulse train by O(dt)
        p = dev.MemristorParams(drift_rate=1000.0)
        pulses = [(2.5, 2e-4), (-4.0, 1e-4), (4.0, 3e-4)]

        def integrate(dt):
            state = dev.MemristorState(0.5)
            for volt, duration in pulses:
                state = dev.integrate_pulse(state, volt, duration, dt, p, LINEAR)
            return state.w

        coarse, fine = integrate(2e-6), integrate(1e-6)
        assert abs(coarse - fine) <= 5e-4

    def test_state_bounded_under_random_pulse_fuzz(self):
        rng = np.random.default_rng(20240917)
        p = dev.MemristorParams(drift_rate=3_000.0)
        w = rng.uniform(0, 1, size=64)
        for _ in range(10_000 // 64 + 1):
            v = rng.uniform(-5, 5, size=64)
            dt = rng.uniform(1e-7, 1e-5)
            dev.step_array(w, v, dt, p, LINEAR)
            assert (w >= 0.0).all() and (w <= 1.0).all()


class TestThresholdDrift:
    def test_read_level_never_disturbs(self):
        p = dev.MemristorParams()
        for w0 in (0.0, 0.2, 0.5, 0.9, 1.0):
            out = dev.step(dev.MemristorState(w0), 0.05, 1.0, p, THRESHOLD)
            assert out.w == w0

    @given(w0=st.floats(0, 1), v=st.floats(-1.99, 0.29),
           dt=st.floats(1e-9, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_identity_inside_threshold_band(self, w0, v, dt):
        p = dev.MemristorParams(v_th_pos=0.3, v_th_neg=-2.0)
        assert dev.step(dev.MemristorState(w0), v, dt, p, THRESHOLD).w == w0

    def test_active_at_threshold_boundary(self):
        p = dev.MemristorParams(v_th_pos=0.3, v_th_neg=-2.0)
        assert dev.step(dev.MemristorState(0.5), 0.3, 1e-3, p, THRESHOLD).w > 0.5
        assert dev.step(dev.MemristorState(0.5), -2.0, 1e-3, p, THRESHOLD).w < 0.5


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"r_on": 0.0},
        {"r_on": 2000.0, "r_off": 1000.0},
        {"v_th_pos": -0.1},
        {"drift_rate": -1.0},
        {"window_p": 0},
    ])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            dev.MemristorParams(**kwargs)

    def test_state_bounds_enforced(self):
        with pytest.raises(ValueError):
            dev.MemristorState(1.5)

    def test_step_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            dev.step(dev.MemristorState(0.5), 1.0, 0.0, dev.MemristorParams())
