"""Scalar sense-margin references: the O(N^2) per-pair Python loops.

:func:`select_margins`, :func:`block_margins`, :func:`margin_report`
and :func:`margin_yield` mirror :mod:`repro.decoder.margins`;
:func:`simulate_margin_yield` mirrors
:func:`repro.crossbar.montecarlo.simulate_margin_yield`.  The engine is
byte-identical to all of them.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import CodeSpace
from repro.crossbar.montecarlo import MonteCarloMarginYield
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import decoder_for
from repro.decoder.margins import MarginReport, applied_voltages
from repro.decoder.pattern import pattern_matrix
from repro.decoder.variability import dose_count_matrix
from repro.device.threshold import LevelScheme
from repro.device.variability import DEFAULT_SIGMA_T
from repro.fabrication.doping import DopingPlan
from repro.sim.accumulators import MomentSet
from repro.sim.batch import (
    DEFAULT_MAX_TRIALS_PER_CHUNK,
    DEFAULT_STREAM_BLOCK,
    block_sizes,
    plan_chunks,
    resolve_rng,
    spawn_block_streams,
    validate_chunk,
    validate_samples,
)


def select_margins(
    patterns: np.ndarray,
    nu: np.ndarray,
    scheme: LevelScheme,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> np.ndarray:
    """One wire per Python iteration (seed semantics)."""
    patterns = np.asarray(patterns)
    levels = np.asarray(scheme.levels)
    nominal = levels[patterns]
    std = sigma_t * np.sqrt(np.asarray(nu, dtype=float))
    out = np.empty(patterns.shape[0])
    for i in range(patterns.shape[0]):
        va = applied_voltages(patterns[i], scheme)
        out[i] = np.min(va - nominal[i] - k_sigma * std[i])
    return out


def block_margins(
    patterns: np.ndarray,
    nu: np.ndarray,
    scheme: LevelScheme,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> np.ndarray:
    """The original O(N^2) per-pair Python loop."""
    patterns = np.asarray(patterns)
    levels = np.asarray(scheme.levels)
    nominal = levels[patterns]
    std = sigma_t * np.sqrt(np.asarray(nu, dtype=float))
    n_wires = patterns.shape[0]
    out = np.full(n_wires, np.inf)
    for i in range(n_wires):
        va = applied_voltages(patterns[i], scheme)
        for u in range(n_wires):
            if u == i or (patterns[u] == patterns[i]).all():
                continue
            pair = np.max(nominal[u] - k_sigma * std[u] - va)
            out[i] = min(out[i], pair)
    return out


def _half_cave_margins(space, nanowires, scheme, sigma_t, k_sigma):
    scheme = scheme or LevelScheme(space.n)
    patterns = pattern_matrix(space, nanowires)
    nu = dose_count_matrix(DopingPlan.from_code(space, nanowires).steps)
    return (
        select_margins(patterns, nu, scheme, sigma_t, k_sigma),
        block_margins(patterns, nu, scheme, sigma_t, k_sigma),
    )


def margin_report(
    space: CodeSpace,
    nanowires: int,
    scheme: LevelScheme | None = None,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> MarginReport:
    """Worst-case sense margins of a half cave, through the scalar loops."""
    select, block = _half_cave_margins(space, nanowires, scheme, sigma_t, k_sigma)
    return MarginReport(
        select_margin_v=float(select.min()),
        block_margin_v=float(block.min()),
        k_sigma=k_sigma,
    )


def margin_yield(
    space: CodeSpace,
    nanowires: int,
    scheme: LevelScheme | None = None,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> float:
    """Fraction of wires with positive select and block margins (scalar)."""
    select, block = _half_cave_margins(space, nanowires, scheme, sigma_t, k_sigma)
    return float(((select > 0) & (block > 0)).mean())


def margin_trial(
    vt: np.ndarray,
    va: np.ndarray,
    patterns: np.ndarray,
    guard_v: float,
) -> tuple[float, float, float]:
    """One margin-yield trial: the original O(N^2) pairwise loop.

    Returns ``(margin_yield, worst_select, worst_block)`` for one
    realised VT matrix.
    """
    n_wires = patterns.shape[0]
    passing = 0
    worst_select = np.inf
    worst_block = np.inf
    for i in range(n_wires):
        select = np.min(va[i] - vt[i])
        block = np.inf
        has_conflict = False
        for u in range(n_wires):
            if u == i or (patterns[u] == patterns[i]).all():
                continue
            has_conflict = True
            block = min(block, np.max(vt[u] - va[i]))
        if min(select, block) > guard_v:
            passing += 1
        worst_select = min(worst_select, select)
        if has_conflict:
            worst_block = min(worst_block, block)
    return passing / n_wires, worst_select, worst_block


def simulate_margin_yield(
    spec: CrossbarSpec,
    space: CodeSpace,
    samples: int = 200,
    seed: int = 0,
    *,
    k_sigma: float = 3.0,
    max_trials_per_chunk: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
    stream_block: int = DEFAULT_STREAM_BLOCK,
) -> MonteCarloMarginYield:
    """Margin-yield Monte-Carlo, one trial and one wire pair at a time.

    Draws from the spawned per-block streams of :mod:`repro.sim.batch`
    in the engine's order, so the sampled yields equal the engine's.
    """
    from repro.sim.margins import MarginYieldKernel

    validate_samples(samples)
    validate_chunk(max_trials_per_chunk)
    kernel = MarginYieldKernel(decoder_for(spec, space), k_sigma)
    root = resolve_rng(seed)
    acc = MomentSet(kernel.metrics)
    for chunk in plan_chunks(samples, max_trials_per_chunk, stream_block):
        widths = block_sizes(chunk, stream_block)
        streams = spawn_block_streams(root, len(widths))
        for stream, width in zip(streams, widths):
            myield = np.empty(width)
            select = np.empty(width)
            block = np.empty(width)
            for t in range(width):
                z = stream.standard_normal(kernel.nominal.shape)
                vt = kernel.nominal + kernel.std * z
                myield[t], select[t], block[t] = margin_trial(
                    vt, kernel.va, kernel.patterns, kernel.guard_v
                )
            acc.update(
                {"margin_yield": myield, "select_margin": select, "block_margin": block}
            )
    return MonteCarloMarginYield(
        samples=int(samples),
        k_sigma=kernel.k_sigma,
        guard_v=kernel.guard_v,
        mean_margin_yield=acc["margin_yield"].mean,
        std_margin_yield=acc["margin_yield"].std,
        mean_select_margin=acc["select_margin"].mean,
        mean_block_margin=acc["block_margin"].mean,
    )
