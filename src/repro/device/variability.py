"""Stochastic model of doping-induced threshold-voltage variability.

Each lithography/doping operation contributes an independent Gaussian
threshold-voltage error of standard deviation ``sigma_T`` (the paper uses
50 mV).  A doping region hit by ``nu`` operations therefore carries a
variance ``nu * sigma_T**2`` (Def. 5: independent errors add in
quadrature), and the probability that the region still reads as its
nominal level is a Gaussian integral over the addressability window.
That integral is ``erf``: :func:`erf` is a pure-Python port of the
cephes ``erf``/``erfc`` that SciPy ships, returning the same doubles
bit for bit, so no yield evaluation imports SciPy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: The paper's threshold-voltage variability per doping operation [V].
DEFAULT_SIGMA_T = 0.050

_SQRT2 = math.sqrt(2.0)

#: cephes ``MAXLOG``, ``log(DBL_MAX)``: ``erfc`` underflows to 0 past it.
_MAXLOG = 7.09782712893383996843e2

# cephes ndtr.c coefficient tables, highest power first.  erf on
# |x| <= 1 is x T(x^2) / U(x^2); erfc is exp(-x^2) P(x) / Q(x) on
# 1 <= x < 8 and exp(-x^2) R(x) / S(x) beyond.  U, Q and S have an
# implicit leading 1.0 (cephes ``p1evl``).  The Horner loops of
# ``polevl``/``p1evl`` are unrolled below, in the same order.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)


def erfc(a: float) -> float:
    """Complementary error function, a port of cephes ``erfc``."""
    if math.isnan(a):
        return math.nan
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    # libm exp, as cephes calls it; numpy's SIMD exp can differ in the last ulp
    z = math.exp(z)
    if x < 8.0:
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = _P
        q0, q1, q2, q3, q4, q5, q6, q7 = _Q
        p = (((((((p0 * x + p1) * x + p2) * x + p3) * x + p4) * x + p5) * x
              + p6) * x + p7) * x + p8
        q = (((((((x + q0) * x + q1) * x + q2) * x + q3) * x + q4) * x + q5) * x
             + q6) * x + q7
    else:
        r0, r1, r2, r3, r4, r5 = _R
        s0, s1, s2, s3, s4, s5 = _S
        p = ((((r0 * x + r1) * x + r2) * x + r3) * x + r4) * x + r5
        q = (((((x + s0) * x + s1) * x + s2) * x + s3) * x + s4) * x + s5
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0 else 0.0


def erf(x: float) -> float:
    """Error function, a port of cephes ``erf``.

    Returns the same double as ``scipy.special.erf`` bit for bit: the
    same coefficient tables, Horner order and branches, and libm
    ``exp`` through :func:`math.exp`.  ``math.erf`` differs from it in
    the last bits, so it cannot stand in.
    """
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -erf(-x)
    if abs(x) > 1.0:
        return 1.0 - erfc(x)
    z = x * x
    t0, t1, t2, t3, t4 = _T
    u0, u1, u2, u3, u4 = _U
    return (
        x
        * ((((t0 * z + t1) * z + t2) * z + t3) * z + t4)
        / (((((z + u0) * z + u1) * z + u2) * z + u3) * z + u4)
    )


def compose_std(sigmas: Sequence[float]) -> float:
    """Standard deviation of a sum of independent errors (RSS).

    The paper: "The addition of two independent stochastic variables with
    standard deviations sigma_1 and sigma_2 respectively yields a
    stochastic variable with the standard deviation
    sqrt(sigma_1^2 + sigma_2^2)".
    """
    return math.sqrt(sum(float(s) ** 2 for s in sigmas))


def region_std(nu: np.ndarray, sigma_t: float = DEFAULT_SIGMA_T) -> np.ndarray:
    """Per-region VT standard deviation from dose counts ``nu``.

    ``sqrt(Sigma)`` in the paper's notation: ``sigma_T * sqrt(nu)``.
    """
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0):
        raise ValueError("dose counts must be non-negative")
    return sigma_t * np.sqrt(nu)


def _window_integral(std: float, halfwidth: float) -> float:
    """``erf(halfwidth / (sqrt(2) std))``, or 1 unless ``std > 0``."""
    return erf(halfwidth / (_SQRT2 * std)) if std > 0 else 1.0


def window_pass_probability(
    std: np.ndarray,
    halfwidth: float,
) -> np.ndarray:
    """P(|VT - nominal| <= halfwidth) for zero-mean Gaussian error.

    Regions with zero standard deviation (never doped after definition —
    impossible in the MSPT model, but allowed for generality) pass with
    probability 1.
    """
    if halfwidth <= 0:
        raise ValueError(f"window halfwidth must be positive, got {halfwidth}")
    std = np.asarray(std, dtype=float)
    halfwidth = float(halfwidth)
    out = [_window_integral(s, halfwidth) for s in std.ravel().tolist()]
    return np.array(out, dtype=float).reshape(std.shape)


def region_pass_probability(
    nu: np.ndarray,
    halfwidth: float,
    sigma_t: float = DEFAULT_SIGMA_T,
) -> np.ndarray:
    """Addressability probability of each doping region.

    The per-region factor of the paper's yield estimate (Sec. 6.1):
    :func:`window_pass_probability` of :func:`region_std`.  It depends
    on the region only through its integer dose count, so ``erf`` runs
    once per distinct count (a design point has at most ~20 among its
    ~200 regions) and the regions index that table.  Each entry is the
    same IEEE operations as the elementwise form, so the same bits.
    """
    if halfwidth <= 0:
        raise ValueError(f"window halfwidth must be positive, got {halfwidth}")
    nu = np.asarray(nu)
    counts = nu.astype(np.intp, copy=False)
    whole = counts is nu or np.array_equal(counts, nu)
    if not whole or counts.min(initial=0) < 0:
        raise ValueError("dose counts must be non-negative integers")
    sigma_t, halfwidth = float(sigma_t), float(halfwidth)
    present = np.bincount(counts.ravel())
    table = np.ones(present.size)
    for k in np.flatnonzero(present).tolist():
        table[k] = _window_integral(sigma_t * math.sqrt(k), halfwidth)
    return table[counts]


def sample_region_vt(
    nominal: np.ndarray,
    nu: np.ndarray,
    rng: np.random.Generator,
    sigma_t: float = DEFAULT_SIGMA_T,
    trials: int | None = None,
) -> np.ndarray:
    """Draw Monte-Carlo realisations of every region's VT.

    Parameters
    ----------
    nominal:
        Nominal VT per region [V].
    nu:
        Dose count per region (same shape).
    rng:
        NumPy random generator (callers own the seed).
    sigma_t:
        Per-dose VT standard deviation [V].
    trials:
        ``None`` (legacy form) draws a single realisation with the
        regions' shape; an integer draws that many realisations on a
        leading batch axis ``(trials, *regions)``.  ``trials=1`` draws
        the same values as the legacy form from the same generator
        state — the batch-of-1 path used by the batched engine
        (:mod:`repro.sim.engine`).
    """
    nominal = np.asarray(nominal, dtype=float)
    std = region_std(nu, sigma_t)
    if nominal.shape != std.shape:
        raise ValueError(
            f"shape mismatch: nominal {nominal.shape} vs nu {np.shape(nu)}"
        )
    if trials is None:
        shape = nominal.shape
    else:
        if trials < 1:
            raise ValueError(f"need at least one trial, got {trials}")
        shape = (trials,) + nominal.shape
    return nominal + rng.standard_normal(shape) * std
