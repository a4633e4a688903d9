"""Decoder variability matrices nu and Sigma (paper Def. 5, Prop. 4).

Region ``(i, j)`` of the half cave receives one doping dose for every
step ``k >= i`` whose dose row has a non-zero entry at region ``j``:

    nu[i, j] = #{ k >= i : S[k, j] != 0 }

Independent doses add their variances, so the threshold-voltage variance
of the region is ``Sigma[i, j] = sigma_T^2 * nu[i, j]``.  The paper's
Fig. 6 plots ``sqrt(Sigma) / sigma_T = sqrt(nu)`` over the half cave.
"""

from __future__ import annotations

import math

import numpy as np

from repro.codes.base import CodeSpace
from repro.device.variability import DEFAULT_SIGMA_T
from repro.fabrication.complexity import DOSE_RTOL
from repro.fabrication.doping import DopingPlan


def nonzero_dose_mask(steps: np.ndarray, rtol: float = DOSE_RTOL) -> np.ndarray:
    """Boolean mask of dose entries considered non-zero (tolerance-based)."""
    s = np.asarray(steps, dtype=float)
    scale = float(np.max(np.abs(s))) if s.size else 0.0
    if scale == 0.0:
        return np.zeros_like(s, dtype=bool)
    return np.abs(s) > rtol * scale


def dose_count_matrix(steps: np.ndarray, rtol: float = DOSE_RTOL) -> np.ndarray:
    """The nu matrix: doses received by each region (Def. 5).

    Implemented as a suffix sum over the non-zero mask of S — the direct
    translation of ``nu[i,j] = sum_{k>=i} (1 - delta(S[k,j]))``.
    """
    mask = nonzero_dose_mask(steps, rtol).astype(int)
    return np.cumsum(mask[::-1], axis=0)[::-1]


def variability_matrix(nu: np.ndarray, sigma_t: float = DEFAULT_SIGMA_T) -> np.ndarray:
    """Sigma = sigma_T^2 * nu: per-region VT variance [V^2]."""
    if not 0 < sigma_t < math.inf:
        raise ValueError(f"sigma_T must be positive and finite, got {sigma_t}")
    return (sigma_t**2) * np.asarray(nu, dtype=float)


def sigma_norm1(sigma: np.ndarray) -> float:
    """Entrywise 1-norm ``||Sigma||_1`` — the reliability cost (Prop. 3)."""
    return float(np.abs(np.asarray(sigma, dtype=float)).sum())


def average_variability(sigma: np.ndarray) -> float:
    """``||Sigma||_1 / (N * M)`` — the paper's average variability metric."""
    s = np.asarray(sigma, dtype=float)
    if s.size == 0:
        raise ValueError("empty variability matrix")
    return sigma_norm1(s) / s.size


def plan_variability(
    plan: DopingPlan,
    sigma_t: float = DEFAULT_SIGMA_T,
    rtol: float = DOSE_RTOL,
) -> np.ndarray:
    """Sigma matrix of a doping plan."""
    return variability_matrix(dose_count_matrix(plan.steps, rtol), sigma_t)


def code_variability(
    space: CodeSpace,
    nanowires: int,
    sigma_t: float = DEFAULT_SIGMA_T,
) -> np.ndarray:
    """Sigma matrix of patterning ``nanowires`` wires with ``space``.

    This is the quantity mapped in Fig. 6 (as ``sqrt(Sigma)/sigma_T``)
    and the reliability cost minimised by Gray arrangements (Prop. 4).
    """
    plan = DopingPlan.from_code(space, nanowires)
    return plan_variability(plan, sigma_t)


def normalised_std_map(space: CodeSpace, nanowires: int) -> np.ndarray:
    """``sqrt(nu)`` — Fig. 6's plotted surface (sqrt(Sigma)/sigma_T)."""
    plan = DopingPlan.from_code(space, nanowires)
    return np.sqrt(dose_count_matrix(plan.steps).astype(float))
