"""Compact models for a single memristor.

The device is described by a normalized internal state w in [0, 1] that maps
linearly onto resistance between r_on (w=0) and r_off (w=1), with an optional
linear temperature factor. State evolves under an applied voltage with a
polynomial window that pins the endpoints:

    dw/dt = drift_rate * v * f(w),   f(w) = 1 - (2w - 1)^(2p)

Positive voltage (at the programming terminal) drives w up, i.e. toward high
resistance; negative voltage erases toward w = 0. The state is frozen
whenever v_th_neg < v < v_th_pos, which is what makes the small read
voltage non-destructive. Both model kinds are this one law, set up in one
place (`_law`) for both of the controller's kernels: linear drift is the
threshold law with an empty band, both thresholds 0.

The window is zero at both endpoints, so a state sitting exactly on a bound
would be stuck there for good. To keep the erased state programmable, the
window argument is nudged off the boundary (by W_BOUNDARY_ESCAPE) whenever
the drive points back into the interval; motion *outward* across a bound
stays forbidden, which preserves the clamp behaviour.
"""

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

# Escape band for inward drive at the state bounds; has no effect on
# trajectories that stay inside [W_BOUNDARY_ESCAPE, 1 - W_BOUNDARY_ESCAPE].
W_BOUNDARY_ESCAPE = 1e-3

# The array law's fixed constants as 0-d arrays: numpy converts a Python
# float argument again on every call, which at a few devices per row is a
# large part of the call.
_ZERO, _ONE, _LOW, _HIGH = (np.array(c) for c in (0.0, 1.0, W_BOUNDARY_ESCAPE,
                                                  1.0 - W_BOUNDARY_ESCAPE))


class DeviceModelKind(Enum):
    LINEAR_DRIFT = "linear_drift"
    THRESHOLD_DRIFT = "threshold_drift"


@dataclass(frozen=True)
class MemristorParams:
    """Constants mapping (state, temperature) to resistance and voltage to drift.

    r_on/r_off bound the resistance range, v_th_pos/v_th_neg gate the
    threshold model, drift_rate scales state velocity in 1/(V*s), window_p
    is the window exponent, and temp_coeff/t_ref define the linear
    temperature factor on resistance.
    """

    r_on: float = 1_000.0
    r_off: float = 100_000.0
    v_th_pos: float = 0.3
    v_th_neg: float = -2.0
    drift_rate: float = 2_000.0
    window_p: int = 1
    temp_coeff: float = 5e-5
    t_ref: float = 293.15

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.r_on <= 0:
            raise ValueError(f"r_on must be positive, got {self.r_on}")
        if self.r_off <= self.r_on:
            raise ValueError(f"r_off must exceed r_on, got {self.r_off} <= {self.r_on}")
        if self.v_th_pos < 0:
            raise ValueError(f"v_th_pos must be nonnegative, got {self.v_th_pos}")
        if self.v_th_neg > 0:
            raise ValueError(f"v_th_neg must be nonpositive, got {self.v_th_neg}")
        if self.drift_rate < 0:
            raise ValueError(f"drift_rate must be nonnegative, got {self.drift_rate}")
        if self.window_p < 1 or int(self.window_p) != self.window_p:
            raise ValueError(f"window_p must be a positive integer, got {self.window_p}")


def temperature_factor(params: MemristorParams, temperature):
    """The linear factor on resistance at the given temperature(s) in K."""
    return 1.0 + params.temp_coeff * (temperature - params.t_ref)


def resistance_array(w, params: MemristorParams, temperature: float):
    """Vectorized resistance for an array of states.

    temperature is a scalar or an array that broadcasts against w, such as
    one value per batch row.
    """
    base = params.r_on + np.asarray(w) * (params.r_off - params.r_on)
    return base * temperature_factor(params, temperature)


def _law(params: MemristorParams, dt, kind: DeviceModelKind):
    """The device law for these parameters, step and kind; both kernels use it.

    r_off - r_on, r_on, drift_rate, dt, v_th_pos and v_th_neg as Python
    floats, then the window exponent beyond the square as given, None for
    window_p 1. Linear drift is the threshold law with an empty band: both
    thresholds are 0, and no voltage lies strictly between them.
    """
    if not isinstance(kind, DeviceModelKind):
        raise ValueError(f"unknown device model kind {kind!r}")
    band = ((params.v_th_pos, params.v_th_neg) if kind is DeviceModelKind.THRESHOLD_DRIFT
            else (0.0, 0.0))
    p = params.window_p
    return (*map(float, (params.r_off - params.r_on, params.r_on, params.drift_rate, dt,
                         *band)), None if p == 1 else p)


def step_scratch(shape, params: MemristorParams, dt, kind: DeviceModelKind):
    """Work arrays for `step_array` over states of this shape, and the law.

    The law (`_law`) is prepared for params, dt and kind: its constants as
    0-d arrays, since numpy converts a Python float argument again on every
    call. `step_array` reads it from the scratch, so a caller must pass it
    the same params, dt and kind; the controller's numpy kernel reads its
    r_off - r_on and r_on there too.
    """
    *constants, power = _law(params, dt, kind)
    return (np.empty(shape), np.empty(shape), np.empty(shape, bool), np.empty(shape, bool),
            (*(np.array(c) for c in constants), None if power is None else np.array(power)))


def step_array(w, v, dt, params: MemristorParams, kind: DeviceModelKind,
               out=None, scratch=None):
    """One forward-Euler step of the states w under branch voltages v.

    dw = drift_rate * v * f(w) * dt outside the threshold band, then the
    state is clamped to [0, 1]. The new states go to out, which is w
    itself unless given (an in-place update), and are returned. scratch,
    from `step_scratch` for the shape of the states and these params, dt
    and kind, holds the temporaries and the prepared law, so a caller
    stepping many times makes them once.
    """
    if out is None:
        out = w
    f, dw, mask, band, law = scratch or step_scratch(np.broadcast_shapes(w.shape, v.shape),
                                                     params, dt, kind)
    _, _, rate, dt, th_pos, th_neg, power = law
    # window evaluated off the boundary when the drive points inward (a
    # masked copy costs less than a masked ufunc loop); numpy deprecates a
    # positional out for np.minimum and np.maximum only
    np.minimum(w, _HIGH, out=f)
    np.maximum(w, _LOW, out=dw)
    np.putmask(f, np.greater(v, _ZERO, mask), dw)
    np.add(f, f, f)  # 2 * arg, exactly
    np.subtract(f, _ONE, f)
    np.square(f, f)
    if power is not None:
        np.power(f, power, f)
    np.subtract(_ONE, f, f)
    np.multiply(rate, v, dw)
    np.multiply(dw, f, dw)
    np.multiply(dw, dt, dw)
    # inside the threshold band the state stays put
    np.less(v, th_pos, band)
    np.bitwise_and(band, np.greater(v, th_neg, mask), band)
    np.putmask(dw, band, _ZERO)
    np.add(w, dw, out)
    np.minimum(out, _ONE, out=out)
    np.maximum(out, _ZERO, out=out)
    return out
