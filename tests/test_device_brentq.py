"""The in-repo ``brentq`` is pinned bit-for-bit to ``scipy.optimize.brentq``.

``ThresholdModel.doping_from_vt`` inverts the threshold equation with a
pure-Python port of SciPy's Brent solver, so the package imports no
``scipy.optimize``.  Every doping level (and every result derived from
one) depends on the port returning exactly the double SciPy returns.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from repro.device.physics import (
    DOPING_MAX,
    DOPING_MIN,
    PhysicsError,
    ThresholdModel,
    brentq,
)


def _vt_residual(model: ThresholdModel, vt: float):
    return lambda na: model.vt_from_doping(na) - vt


class TestAgainstScipy:
    def test_seeded_vt_values_bit_exact(self):
        model = ThresholdModel()
        lo, hi = model.vt_range()
        rng = np.random.default_rng(20090726)
        vts = [lo, hi, *(float(v) for v in rng.uniform(lo, hi, 10_000))]
        mismatches = []
        for vt in vts:
            f = _vt_residual(model, vt)
            ours = brentq(f, DOPING_MIN, DOPING_MAX)
            theirs = scipy_brentq(f, DOPING_MIN, DOPING_MAX)
            if ours != theirs:
                mismatches.append((vt, ours, theirs))
        assert not mismatches, mismatches[:5]

    def test_doping_from_vt_matches_scipy(self):
        model = ThresholdModel()
        for vt in (0.1, 0.3, 0.5, *model.vt_range()):
            expected = scipy_brentq(_vt_residual(model, vt), DOPING_MIN, DOPING_MAX)
            assert model.doping_from_vt(vt) == expected

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 2.0, 0.0, 5.0),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: math.exp(x) - 10.0, -3.0, 7.0),
            (lambda x: x - 1e-300, -1.0, 1.0),
            (lambda x: 1.0 - x, 0.0, 4.0),
        ],
    )
    def test_generic_functions_bit_exact(self, f, a, b):
        assert brentq(f, a, b) == scipy_brentq(f, a, b)

    def test_root_at_an_endpoint_is_returned(self):
        assert brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
        assert brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0


class TestErrors:
    def test_out_of_range_vt_raises_physics_error(self):
        model = ThresholdModel()
        lo, hi = model.vt_range()
        with pytest.raises(PhysicsError):
            model.doping_from_vt(lo - 0.01)
        with pytest.raises(PhysicsError):
            model.doping_from_vt(hi + 0.01)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan, -1.0, 1.0)

    def test_no_convergence_raises(self):
        with pytest.raises(RuntimeError, match="converge"):
            brentq(lambda x: x**3 - 2.0, 0.0, 5.0, maxiter=2)
