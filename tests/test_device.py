import enum
import re
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlmsim import controller as ctl
from mlmsim import device as dev
from mlmsim import network as net

from oracles import logistic_drift, reference_step_array

THRESHOLD = dev.DeviceModelKind.THRESHOLD_DRIFT
LINEAR = dev.DeviceModelKind.LINEAR_DRIFT


def step(w0, v, dt, p, kind):
    """One kernel step of a single device from state w0; returns the new state."""
    w = np.array([w0], dtype=float)
    dev.step_array(w, np.array([v], dtype=float), dt, p, kind)
    return float(w[0])


def pulse(w0, v, duration, dt, p, kind):
    """A constant-voltage pulse on a single device, stepped at dt."""
    w = w0
    for _ in range(int(round(duration / dt))):
        w = step(w, v, dt, p, kind)
    return w


class TestResistance:
    def test_endpoints_at_reference_temperature(self):
        p = dev.MemristorParams()
        assert dev.resistance_array(0.0, p, p.t_ref) == p.r_on
        assert dev.resistance_array(1.0, p, p.t_ref) == p.r_off

    def test_midpoint_of_linear_map(self):
        p = dev.MemristorParams(r_on=1_000.0, r_off=11_000.0, temp_coeff=0.0)
        for temperature in (250.0, 293.15, 400.0):
            assert dev.resistance_array(0.5, p, temperature) == pytest.approx(6_000.0)

    def test_temperature_factor(self):
        p = dev.MemristorParams(temp_coeff=1e-3, t_ref=300.0)
        r_hot = dev.resistance_array(0.25, p, 310.0)
        r_ref = dev.resistance_array(0.25, p, 300.0)
        assert r_hot == pytest.approx(r_ref * 1.01)

    @given(w_lo=st.floats(0, 1), w_hi=st.floats(0, 1),
           temp=st.floats(100.0, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_nondecreasing_in_state(self, w_lo, w_hi, temp):
        p = dev.MemristorParams()
        if w_lo > w_hi:
            w_lo, w_hi = w_hi, w_lo
        r_lo = dev.resistance_array(w_lo, p, temp)
        r_hi = dev.resistance_array(w_hi, p, temp)
        assert r_hi >= r_lo
        assert r_lo > 0


class TestResetState:
    def test_full_write_pulse_saturates_from_reset(self):
        # a 0.6 ms logic-2 pulse straight across the device must program it
        p = dev.MemristorParams()
        assert pulse(0.0, 4.0, 0.6e-3, 1e-6, p, THRESHOLD) >= 0.99


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

    def test_deterministic(self):
        p = dev.MemristorParams()
        a = step(0.42, 1.7, 3e-6, p, THRESHOLD)
        b = step(0.42, 1.7, 3e-6, p, THRESHOLD)
        assert a == b

    def test_window_blocks_outward_motion_at_bounds(self):
        p = dev.MemristorParams()
        assert step(0.0, -4.0, 1e-3, p, LINEAR) == 0.0
        assert step(1.0, 4.0, 1e-3, p, LINEAR) == 1.0

    def test_boundary_escape_allows_programming_from_reset(self):
        p = dev.MemristorParams()
        assert step(0.0, 4.0, 1e-6, p, LINEAR) > 0.0

    def test_first_order_dt_refinement(self):
        # halving dt moves the endpoint of a fixed pulse train by O(dt)
        p = dev.MemristorParams(drift_rate=1000.0)
        pulses = [(2.5, 2e-4), (-4.0, 1e-4), (4.0, 3e-4)]

        def integrate(dt):
            w = 0.5
            for volt, duration in pulses:
                w = pulse(w, volt, duration, dt, p, LINEAR)
            return w

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


class TestKernelAgainstReference:
    """The in-place kernel against the whole-array reference, bit for bit."""

    @staticmethod
    def _states(rng, size):
        # interior values, the exact bounds, and both escape bands
        esc = dev.W_BOUNDARY_ESCAPE
        pools = [rng.uniform(0.0, 1.0, size), np.zeros(size), np.ones(size),
                 rng.uniform(0.0, esc, size), rng.uniform(1.0 - esc, 1.0, size)]
        return np.choose(rng.integers(len(pools), size=size), pools)

    @staticmethod
    def _voltages(rng, size, params):
        # both sides of both thresholds, exactly on them, and zero
        pools = [rng.uniform(-5.0, 5.0, size),
                 rng.uniform(params.v_th_neg, params.v_th_pos, size),
                 np.full(size, params.v_th_pos), np.full(size, params.v_th_neg),
                 np.nextafter(params.v_th_pos, -np.inf) + np.zeros(size),
                 np.nextafter(params.v_th_neg, np.inf) + np.zeros(size),
                 np.zeros(size)]
        return np.choose(rng.integers(len(pools), size=size), pools)

    @pytest.mark.parametrize("kind", [THRESHOLD, LINEAR])
    @pytest.mark.parametrize("window_p", [1, 2, 3])
    def test_bit_identical(self, kind, window_p):
        rng = np.random.default_rng(window_p)
        for _ in range(700):
            params = dev.MemristorParams(
                v_th_pos=rng.uniform(0.0, 1.0), v_th_neg=-rng.uniform(0.0, 3.0),
                drift_rate=10.0 ** rng.uniform(1.0, 4.0), window_p=window_p)
            shape = (int(rng.integers(1, 8)), int(rng.integers(1, 4)))
            w = self._states(rng, shape)
            v = self._voltages(rng, shape, params)
            dt = 10.0 ** rng.uniform(-8.0, -3.0)
            expected = reference_step_array(w.copy(), v, dt, params, kind)
            got = w.copy()
            assert dev.step_array(got, v, dt, params, kind) is got
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
            # into another array, with the prepared scratch: the same bits, w
            # unchanged
            scratch = dev.step_scratch(shape, params, dt, kind)
            before, out = w.copy(), np.empty_like(w)
            got = dev.step_array(w, v, dt, params, kind, out=out, scratch=scratch)
            assert got is out
            np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))
            np.testing.assert_array_equal(w.view(np.int64), before.view(np.int64))
            # the float kernel's inline law, several steps on three devices
            self._check_float_kernel(rng, params, kind, dt)

    def _check_float_kernel(self, rng, params, kind, dt):
        """The float kernel's inline law against `device.step_array`, bit for bit.

        Both kernels evaluate a phase's star with the same operations, and
        only the numpy kernel steps with `step_array`, so on a real cell and
        phase they must give the same states, peak power and probe sum. The
        states start at the bounds, in the escape bands and inside; half the
        time the thresholds sit on branch voltages of the first step, so the
        inline law meets a voltage exactly on each.
        """
        rows, n_steps = int(rng.integers(1, 8)), int(rng.integers(1, 20))
        w = self._states(rng, (rows, 3))
        temperature = rng.uniform(250.0, 400.0, size=(rows, 1))
        kind_of_phase = ("write", "read", "reset")[int(rng.integers(3))]
        amplitudes = [rng.uniform(-5.0, 5.0, size=rows)
                      for _ in range(6 if kind_of_phase == "reset" else 3)]
        pin = None
        if kind_of_phase == "write":
            drive = np.column_stack(amplitudes)
        elif kind_of_phase == "read":
            # one read rail, at one amplitude per row
            drive = np.column_stack([amplitudes[0]] * 3)
        else:
            pin, drive = np.column_stack(amplitudes[:3]), np.column_stack(amplitudes[3:])
            # one device with 0 V across it in the reset
            j = int(rng.integers(3))
            drive[:, j] = pin[:, j]
        cfg = SimpleNamespace(dt=dt)

        def run(kernel, params, n_steps, star_type=net.Star):
            cell = ctl.make_cell(params=params, kind=kind)
            star = star_type(cell.topology, kind_of_phase, n_steps, drive, pin)
            got, peak = w.copy(), np.zeros(rows)
            probe = kernel(cell, cfg, star, got, dev.temperature_factor(params, temperature),
                           peak)
            return star, (got, peak, probe)

        if rng.integers(2):
            star, _ = run(ctl._step_arrays, params, 1, _FirstStep)
            v = star.block[0, 3:6]
            up, down = v[v >= 0.0], v[v <= 0.0]
            params = replace(params,
                             v_th_pos=float(rng.choice(up)) if up.size else params.v_th_pos,
                             v_th_neg=float(rng.choice(down)) if down.size else params.v_th_neg)
        _, floats = run(ctl._step_floats, params, n_steps)
        _, arrays = run(ctl._step_arrays, params, n_steps)
        for got, want in zip(floats, arrays):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class _FirstStep(net.Star):
    """A star that keeps a copy of the first block a kernel settles."""

    block = None

    def settle(self, block, peak, rows=slice(None)):
        if self.block is None:
            self.block = block.copy()
        super().settle(block, peak, rows)


class TestThresholdDrift:
    def test_read_level_never_disturbs(self):
        p = dev.MemristorParams()
        for w0 in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert step(w0, 0.05, 1.0, p, THRESHOLD) == w0

    @given(w0=st.floats(0, 1), v=st.floats(-1.99, 0.29),
           dt=st.floats(1e-9, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_identity_inside_threshold_band(self, w0, v, dt):
        p = dev.MemristorParams(v_th_pos=0.3, v_th_neg=-2.0)
        assert step(w0, v, dt, p, THRESHOLD) == w0

    def test_active_at_threshold_boundary(self):
        p = dev.MemristorParams(v_th_pos=0.3, v_th_neg=-2.0)
        assert step(0.5, 0.3, 1e-3, p, THRESHOLD) > 0.5
        assert step(0.5, -2.0, 1e-3, p, THRESHOLD) < 0.5


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"r_on": 0.0},
        {"r_on": 2000.0, "r_off": 1000.0},
        {"v_th_pos": -0.1},
        {"drift_rate": -1.0},
        {"window_p": 0},
        {"v_th_neg": 0.5},
    ])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            dev.MemristorParams(**kwargs)

    # the last, a kind's name and value from another enum, as a second
    # import of the package would give
    @pytest.mark.parametrize("kind", [
        "threshold_drift", None,
        enum.Enum("DeviceModelKind", {"THRESHOLD_DRIFT": "threshold_drift"}).THRESHOLD_DRIFT,
    ], ids=["string", "none", "foreign-enum"])
    def test_unknown_kind_rejected(self, kind):
        w, v, p = np.zeros(3), np.array([1.0, 0.0, -3.0]), dev.MemristorParams()
        with pytest.raises(ValueError, match=re.escape(repr(kind))):
            dev.step_array(w, v, 1e-6, p, kind)
        with pytest.raises(ValueError, match=re.escape(repr(kind))):
            dev.step_scratch(w.shape, p, 1e-6, kind)

    @pytest.mark.parametrize("field", [f.name for f in fields(dev.MemristorParams)])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_param_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dev.MemristorParams(**{field: value})
