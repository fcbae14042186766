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
    """In-place one-step forward-Euler update of the states w under branch voltages v."""
    active = np.ones_like(w, dtype=bool)
    if kind is DeviceModelKind.THRESHOLD_DRIFT:
        active = (v >= params.v_th_pos) | (v <= params.v_th_neg)

    # window evaluated off the boundary when the drive points inward
    arg = np.where(v > 0, np.maximum(w, W_BOUNDARY_ESCAPE),
                   np.minimum(w, 1.0 - W_BOUNDARY_ESCAPE))
    f = 1.0 - ((2.0 * arg - 1.0) ** 2) ** params.window_p
    dw = params.drift_rate * v * f * dt
    w += np.where(active, dw, 0.0)
    np.clip(w, 0.0, 1.0, out=w)
    return w
