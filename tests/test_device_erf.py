"""The in-repo ``erf`` is pinned bit-for-bit to ``scipy.special.erf``.

Every yield in the package is a product of Gaussian window integrals,
``erf(halfwidth / (sqrt(2) * sigma_T * sqrt(nu)))``, evaluated by a
pure-Python port of the cephes ``erf``/``erfc`` that SciPy ships, so no
yield path imports SciPy.  The committed goldens and byte-identical CSV
outputs depend on the port returning exactly the double SciPy returns.
"""

import math

import numpy as np
import pytest
from scipy.special import erf as scipy_erf
from scipy.special import erfc as scipy_erfc

from repro.device.variability import (
    erf,
    erfc,
    region_pass_probability,
    window_pass_probability,
)

#: ``sqrt(MAXLOG)``: past it cephes ``erfc`` underflows to exactly 0.
UNDERFLOW = math.sqrt(7.09782712893383996843e2)


def _mismatches(ours_fn, theirs_fn, xs: np.ndarray) -> list:
    ours = np.array([ours_fn(x) for x in xs.tolist()])
    theirs = theirs_fn(xs)
    bad = np.flatnonzero(ours.view(np.int64) != theirs.view(np.int64))
    return [(xs[i], ours[i], theirs[i]) for i in bad[:5]]


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestAgainstScipy:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.uniform(-10.0, 10.0, 500_000),
            lambda rng: 2.0 - rng.uniform(0.0, 2.0, 400_000),  # (0, 2]
            lambda rng: rng.exponential(4.0, 200_000),
        ],
        ids=["uniform", "unit_range", "exp_tail"],
    )
    def test_seeded_values_bit_exact(self, draw):
        xs = draw(np.random.default_rng(20090726))
        assert not _mismatches(erf, scipy_erf, xs)

    def test_erfc_bit_exact_on_every_branch(self):
        """erfc's own tables: x < 1, [1, 8) (P/Q), [8, underflow) (R/S)."""
        rng = np.random.default_rng(7)
        xs = np.concatenate(
            [
                rng.uniform(-1.0, 1.0, 20_000),
                rng.uniform(1.0, 8.0, 50_000),
                rng.uniform(8.0, 27.0, 50_000),
                rng.uniform(-30.0, -1.0, 20_000),
            ]
        )
        assert not _mismatches(erfc, scipy_erfc, xs)

    @pytest.mark.parametrize(
        "x",
        [
            0.0,
            -0.0,
            1.0,
            -1.0,
            math.nextafter(1.0, 0.0),
            math.nextafter(1.0, 2.0),
            8.0,
            -8.0,
            math.nextafter(8.0, 0.0),
            math.nextafter(8.0, 9.0),
            5e-324,
            -5e-324,
            2.2250738585072014e-308,
            math.nextafter(2.2250738585072014e-308, 0.0),
            26.64,
            math.nextafter(UNDERFLOW, 0.0),
            UNDERFLOW,
            math.nextafter(UNDERFLOW, 30.0),
            1e300,
            math.inf,
            -math.inf,
        ],
    )
    def test_edges_bit_exact(self, x):
        assert _same_bits(erf(x), scipy_erf(x))
        assert _same_bits(erfc(x), scipy_erfc(x))

    def test_nan(self):
        assert math.isnan(erf(math.nan))
        assert math.isnan(erfc(math.nan))

    def test_math_erf_is_not_a_substitute(self):
        """Why the port exists: libm's erf differs in the last bits."""
        xs = np.random.default_rng(1).uniform(0.0, 4.0, 10_000)
        assert _mismatches(math.erf, scipy_erf, xs)


def _scipy_region_pass_probability(nu, halfwidth, sigma_t):
    """The elementwise SciPy formula the table lookup replaced."""
    std = sigma_t * np.sqrt(np.asarray(nu, dtype=float))
    out = np.ones_like(std)
    nz = std > 0
    out[nz] = scipy_erf(halfwidth / (math.sqrt(2.0) * std[nz]))
    return out


class TestRegionPassProbability:
    def test_table_lookup_matches_elementwise_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            shape = (int(rng.integers(1, 41)), int(rng.integers(1, 13)))
            nu = rng.integers(0, 30, size=shape)
            halfwidth = float(rng.uniform(0.005, 0.5))
            sigma_t = float(rng.uniform(0.001, 0.2))
            ours = region_pass_probability(nu, halfwidth, sigma_t)
            theirs = _scipy_region_pass_probability(nu, halfwidth, sigma_t)
            assert ours.tobytes() == theirs.tobytes(), (nu, halfwidth, sigma_t)

    def test_float_counts_and_zero_doses(self):
        nu = np.array([[0.0, 1.0, 4.0], [0.0, 0.0, 9.0]])
        ours = region_pass_probability(nu, 0.25, 0.05)
        theirs = _scipy_region_pass_probability(nu, 0.25, 0.05)
        assert ours.tobytes() == theirs.tobytes()
        assert (ours[nu == 0] == 1.0).all()

    def test_empty(self):
        empty = np.zeros((0, 4), dtype=int)
        assert region_pass_probability(empty, 0.25).shape == (0, 4)

    @pytest.mark.parametrize("nu", [[-1, 2], [0.5, 1.0]])
    def test_rejects_non_counts(self, nu):
        with pytest.raises(ValueError, match="non-negative integers"):
            region_pass_probability(np.array(nu), 0.25)

    def test_window_pass_probability_matches_elementwise_scipy(self):
        rng = np.random.default_rng(8)
        std = np.where(rng.random(5000) < 0.1, 0.0, rng.uniform(1e-4, 1.0, 5000))
        ours = window_pass_probability(std, 0.2)
        theirs = np.ones_like(std)
        theirs[std > 0] = scipy_erf(0.2 / (math.sqrt(2.0) * std[std > 0]))
        assert ours.tobytes() == theirs.tobytes()
