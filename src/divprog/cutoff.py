"""Smooth cutoffs and dyadic partitions of unity.

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

SmoothPartition(L) is the dyadic family Psi_l(x) = s(x/2^(l-1)) - s(x/2^l)
for l = 0..L, where s(t) = sigma(t - 1) rises from 0 at t = 1 to 1 at
t = 2.  Each Psi_l is supported in [2^(l-1), 2^(l+1)], the partial sums
telescope to s(2x) - s(x/2^L), and sum_l Psi_l(x) = 1 for 1 <= x <= 2^L.
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

    @property
    def plateau(self) -> tuple[float, float]:
        return (2.0 * self.Y, self.X)


@dataclass(frozen=True)
class SmoothPartition:
    """Psi_0..Psi_L with Psi_l supported in [2^(l-1), 2^(l+1)]."""

    L: int

    @staticmethod
    def step(t) -> np.ndarray | float:
        """0 below 1, 1 above 2, smooth between."""
        return smoothstep(np.asarray(t, dtype=np.float64) - 1.0)

    def psi(self, level: int, x) -> np.ndarray | float:
        if not 0 <= level <= self.L:
            raise InvalidRange(f"level must be in [0, {self.L}], got {level}")
        arr = np.asarray(x, dtype=np.float64)
        return self.step(arr / 2.0 ** (level - 1)) - self.step(arr / 2.0**level)

    def partial_sum(self, x) -> np.ndarray | float:
        """sum_{l=0}^{L} Psi_l(x); telescopes to step(2x) - step(x/2^L)."""
        arr = np.asarray(x, dtype=np.float64)
        total = np.zeros_like(np.atleast_1d(arr), dtype=np.float64)
        for level in range(self.L + 1):
            total = total + np.atleast_1d(self.psi(level, arr))
        return float(total[0]) if np.asarray(x).ndim == 0 else total


def smooth_partition(L: int) -> SmoothPartition:
    if L < 3:
        raise InvalidRange(f"need L >= 3, got {L}")
    return SmoothPartition(L=L)
