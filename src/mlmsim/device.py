"""Compact models for a single memristor.

The device is described by a normalized internal state w in [0, 1] that maps
linearly onto resistance between r_on (w=0) and r_off (w=1), with an optional
linear temperature factor. State evolves under an applied voltage with a
polynomial window that pins the endpoints:

    dw/dt = drift_rate * v * f(w),   f(w) = 1 - (2w - 1)^(2p)

Positive voltage (at the programming terminal) drives w up, i.e. toward high
resistance; negative voltage erases toward w = 0. The threshold variant
freezes the state whenever v_th_neg < v < v_th_pos, which is what makes the
small read voltage non-destructive.

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


def step_array(w, v, dt, params: MemristorParams, kind: DeviceModelKind):
    """In-place one-step forward-Euler update of the states w under branch voltages v.

    dw = drift_rate * v * f(w) * dt where the device is above threshold,
    then w is clamped to [0, 1]. Temporaries are reused in place, because
    at a few devices per row the cost is the number of numpy calls.
    """
    # window evaluated off the boundary when the drive points inward
    f = np.minimum(w, 1.0 - W_BOUNDARY_ESCAPE)
    np.copyto(f, np.maximum(w, W_BOUNDARY_ESCAPE), where=v > 0.0)
    np.add(f, f, out=f)  # 2 * arg, exactly
    np.subtract(f, 1.0, out=f)
    np.square(f, out=f)
    if params.window_p != 1:
        f **= params.window_p
    np.subtract(1.0, f, out=f)
    dw = np.multiply(params.drift_rate, v)
    dw *= f
    dw *= dt
    if kind is DeviceModelKind.THRESHOLD_DRIFT:
        # inside the threshold band the state stays put
        np.copyto(dw, 0.0, where=(v < params.v_th_pos) & (v > params.v_th_neg))
    w += dw
    np.minimum(w, 1.0, out=w)
    np.maximum(w, 0.0, out=w)
    return w


def row_law(params: MemristorParams, kind: DeviceModelKind, dt, temperature):
    """The device law for one device in Python floats: (conductance, step).

    conductance(w_j) gives 1.0 / resistance_array(w_j, params, temperature)
    and step(w_j, v_j) the state step_array(w, v, dt, params, kind) would
    leave for that device, with the same bits, because each float operation
    is the one the array code applies elementwise. For a window_p above 2
    the window power stays a numpy call: numpy's power loop and Python's
    pow differ in the last bit.
    """
    # float() keeps the loop in Python floats when a field is a numpy scalar
    r_on, span = float(params.r_on), float(params.r_off - params.r_on)
    factor = float(temperature_factor(params, temperature))
    low, high = W_BOUNDARY_ESCAPE, 1.0 - W_BOUNDARY_ESCAPE
    rate, p, dt = float(params.drift_rate), params.window_p, float(dt)
    th_pos, th_neg = float(params.v_th_pos), float(params.v_th_neg)
    gated = kind is DeviceModelKind.THRESHOLD_DRIFT

    def conductance(wj):
        return 1.0 / ((r_on + wj * span) * factor)

    def step(wj, vj):
        if gated and th_neg < vj < th_pos:
            wj = wj + 0.0
        else:
            # each conditional picks what np.maximum / np.minimum would
            x = (low if wj < low else wj) if vj > 0.0 else (high if wj > high else wj)
            x = x + x - 1.0
            x = x * x
            if p == 2:
                x = x * x
            elif p != 1:
                x = np.power([x], p).tolist()[0]
            wj = wj + rate * vj * (1.0 - x) * dt
            wj = 1.0 if wj >= 1.0 else wj
        return 0.0 if wj <= 0.0 else wj

    return conductance, step
