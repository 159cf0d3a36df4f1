import numpy as np
import pytest

from divprog.cutoff import SmoothCutoff, smoothstep
from divprog.errors import InvalidRange


def test_smoothstep_endpoints_and_symmetry():
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(5.0) == 1.0
    assert abs(smoothstep(0.5) - 0.5) < 1e-15
    ts = np.linspace(0.01, 0.99, 97)
    assert np.allclose(smoothstep(ts) + smoothstep(1 - ts), 1.0, atol=1e-14)
    # monotone nondecreasing
    vals = smoothstep(np.linspace(-0.5, 1.5, 400))
    assert np.all(np.diff(vals) >= -1e-15)


def test_cutoff_plateau_and_support_exact():
    w = SmoothCutoff(X=1000.0, Y=100.0)
    assert w.support == (100.0, 1100.0)
    xs = np.linspace(200.0, 1000.0, 50)
    assert np.all(w(xs) == 1.0)
    assert w(100.0) == 0.0
    assert w(1100.0) == 0.0
    assert w(50.0) == 0.0
    assert w(2000.0) == 0.0
    mid = w(np.linspace(0, 1300, 1317))
    assert np.all((mid >= 0.0) & (mid <= 1.0))


def test_cutoff_derivative_bound():
    Y = 64.0
    w = SmoothCutoff(X=600.0, Y=Y)
    xs = np.linspace(1.0, 700.0, 20001)
    vals = w(xs)
    deriv = np.abs(np.diff(vals) / np.diff(xs))
    assert deriv.max() <= 4.0 / Y


def test_cutoff_validation():
    with pytest.raises(InvalidRange):
        SmoothCutoff(X=100.0, Y=0.5)
    with pytest.raises(InvalidRange):
        SmoothCutoff(X=100.0, Y=51.0)
    SmoothCutoff(X=100.0, Y=50.0)  # boundary is allowed
