"""The smooth cutoff of the divisor-sum transform.

The mollifier is the standard exp(-1/t) construction:

    f(t) = exp(-1/t) for t > 0, else 0;   sigma(t) = f(t) / (f(t) + f(1-t)),

so sigma is C-infinity, exactly 0 for t <= 0 and exactly 1 for t >= 1,
with max |sigma'| just under 2.

SmoothCutoff(X, Y) is the window used in the divisor-sum transform:
identically 1 on [2Y, X], identically 0 outside (Y, X+Y), transitions of
width Y on both sides, so |w'| <= C1/Y with C1 about 2 (measured; the
contract only needs C1 <= 4).  Its derivative, from
sigma' = sigma (1 - sigma) (1/t^2 + 1/(1-t)^2), vanishes off the two
transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRange


def smoothstep(t) -> np.ndarray | float:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    arr = np.asarray(t, dtype=np.float64)
    out, _ = _step_and_slope(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def _step_and_slope(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """smoothstep(t) and its derivative for a 1-d array t."""
    step = np.zeros_like(t)
    slope = np.zeros_like(t)
    step[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    s = a / (a + b)
    step[mid] = s
    slope[mid] = s * (1.0 - s) * (1.0 / (tm * tm) + 1.0 / ((1.0 - tm) * (1.0 - tm)))
    return step, slope


@dataclass(frozen=True)
class SmoothCutoff:
    """w(x): 1 on [2Y, X], 0 off (Y, X+Y), C-infinity throughout."""

    X: float
    Y: float

    def __post_init__(self):
        if not 1.0 <= self.Y <= self.X / 2.0:
            raise InvalidRange(f"need 1 <= Y <= X/2, got Y = {self.Y}, X = {self.X}")

    def __call__(self, x) -> np.ndarray | float:
        arr = np.asarray(x, dtype=np.float64)
        rising = smoothstep((arr - self.Y) / self.Y)
        falling = smoothstep((self.X + self.Y - arr) / self.Y)
        return rising * falling

    def derivative(self, x) -> np.ndarray:
        """w'(x) for an array x; zero off the transitions (Y, 2Y) and (X, X+Y)."""
        arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        rise, rise_slope = _step_and_slope((arr - self.Y) / self.Y)
        fall, fall_slope = _step_and_slope((self.X + self.Y - arr) / self.Y)
        return (rise_slope * fall - rise * fall_slope) / self.Y

    @property
    def support(self) -> tuple[float, float]:
        return (self.Y, self.X + self.Y)
