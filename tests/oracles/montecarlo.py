"""Scalar Monte-Carlo references: one trial per Python iteration.

* :func:`simulate_cave_yield` — the seed version of the Sec. 6.1
  cave-yield simulator, drawing every trial from one
  ``default_rng(seed)`` stream.  The engine uses spawned per-block
  streams instead, so the two agree within Monte-Carlo error, not
  trial for trial; ``tests/test_sim_golden.py`` pins this one's
  numbers.
* :func:`simulate_random_codes` / :func:`simulate_random_contacts` —
  the DeHon [6] / Hogg [8] baselines; the engine consumes the caller's
  generator in the same order, so per-trial fractions are identical.
* :func:`estimate_position_sigma` — one spacer geometry per iteration,
  drawn from ``rng`` directly (statistical agreement only).
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import CodeSpace
from repro.crossbar.montecarlo import MonteCarloYield
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import decoder_for
from repro.fabrication.mspt import SpacerRecipe
from repro.fabrication.variation import ProcessVariation, sample_spacer_geometry
from repro.sim.batch import validate_samples


def simulate_cave_yield(
    spec: CrossbarSpec,
    space: CodeSpace,
    samples: int = 200,
    seed: int = 0,
) -> MonteCarloYield:
    """Per-trial cave-yield loop on one shared ``default_rng(seed)``."""
    validate_samples(samples)
    kernel = decoder_for(spec, space).montecarlo_kernel
    rng = np.random.default_rng(seed)
    cave = np.empty(samples)
    electrical = np.empty(samples)
    geometric = np.empty(samples)
    for s in range(samples):
        e_mask = kernel.electrical_masks(rng, 1)[0]
        g_mask = kernel.geometric_masks(rng, 1)[0]
        electrical[s] = e_mask.mean()
        geometric[s] = g_mask.mean()
        cave[s] = (e_mask & g_mask).mean()
    return MonteCarloYield(
        samples=samples,
        mean_cave_yield=float(cave.mean()),
        std_cave_yield=float(cave.std(ddof=1)) if samples > 1 else 0.0,
        mean_electrical_yield=float(electrical.mean()),
        mean_geometric_yield=float(geometric.mean()),
    )


def simulate_random_codes(
    group_size: int, code_space: int, samples: int, rng: np.random.Generator
) -> float:
    """Group-unique fraction of i.i.d. random codes, one trial at a time."""
    total = 0.0
    for _ in range(samples):
        codes = rng.integers(0, code_space, size=group_size)
        _, counts = np.unique(codes, return_counts=True)
        total += counts[counts == 1].sum() / group_size
    return total / samples


def simulate_random_contacts(
    group_size: int,
    mesowires: int,
    samples: int,
    rng: np.random.Generator,
    connection_probability: float = 0.5,
) -> float:
    """Unique-signature fraction of random contacts, one trial at a time."""
    total = 0.0
    for _ in range(samples):
        sig = rng.random((group_size, mesowires)) < connection_probability
        # count wires whose signature row is unique
        _, inverse, counts = np.unique(
            sig, axis=0, return_inverse=True, return_counts=True
        )
        total += (counts[inverse] == 1).sum() / group_size
    return total / samples


def estimate_position_sigma(
    recipe: SpacerRecipe,
    variation: ProcessVariation,
    nanowires: int,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-spacer position sigma [nm], one sampled geometry per iteration."""
    centres = np.empty((samples, nanowires))
    for s in range(samples):
        centres[s] = sample_spacer_geometry(recipe, variation, nanowires, rng)[
            "centre_nm"
        ]
    return centres.std(axis=0, ddof=1)
