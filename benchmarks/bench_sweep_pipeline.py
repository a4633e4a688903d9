"""SWEEP — design-space pipeline vs pre-refactor per-point loop.

Evaluates one representative design-space grid (all five families x the
paper's lengths x a sigma_T x window-margin cross, yield + area metrics)
two ways:

* **baseline** — a verbatim frozen copy of the pre-refactor path: an
  ad-hoc Python loop that rebuilds the spec, the code space and every
  ``HalfCaveDecoder`` from scratch at each point, exactly like the old
  ``family_yield_sweep`` / ``family_area_sweep`` / ``fig7`` / ``fig8``
  list comprehensions did (the area metric alone rebuilt the decoder
  twice more per point via its internal yield report);
* **pipeline** — :func:`repro.exp.pipeline.run_sweep` with cold caches,
  serial and with a worker pool.

The baseline is frozen (direct class constructors, no lru caches) so
the measured speedup stays pinned to the seed behaviour and does not
shrink as the library improves.  Records are asserted identical before
any timing is trusted, and the headline gate requires the pipeline's
best configuration to beat the loop by ``SWEEP_BENCH_MIN_SPEEDUP``.

Environment knobs (see ``run_checks.sh``):

* ``SWEEP_BENCH_SIGMAS``      — sigma_T axis size        (default 3)
* ``SWEEP_BENCH_MARGINS``     — window-margin axis size   (default 3)
* ``SWEEP_BENCH_JOBS``        — pool size, 0 = auto       (default 0)
* ``SWEEP_BENCH_MIN_SPEEDUP`` — asserted headline floor   (default 3.0)
"""

import os
import time
from dataclasses import replace

from repro.analysis.report import render_table
from repro.codes.arranged import ArrangedHotCode
from repro.codes.balanced import BalancedGrayCode
from repro.codes.gray import GrayCode
from repro.codes.hot import HotCode
from repro.codes.tree import TreeCode
from repro.crossbar.geometry import CrossbarFloorplan
from repro.decoder.addressing import wire_addressability
from repro.decoder.contact_groups import plan_contact_groups
from repro.decoder.pattern import pattern_matrix
from repro.decoder.variability import dose_count_matrix
from repro.device.threshold import LevelScheme
from repro.exp.cache import cache_stats, clear_caches
from repro.exp.designpoint import design_grid
from repro.exp.pipeline import default_jobs, run_sweep
from repro.fabrication.doping import DopingPlan, default_digit_map

SIGMAS = int(os.environ.get("SWEEP_BENCH_SIGMAS", 3))
MARGINS = int(os.environ.get("SWEEP_BENCH_MARGINS", 3))
JOBS = int(os.environ.get("SWEEP_BENCH_JOBS", 0)) or default_jobs()
MIN_SPEEDUP = float(os.environ.get("SWEEP_BENCH_MIN_SPEEDUP", 3.0))
REPEATS = 3

METRICS = ("yield", "area")

#: Spec-perturbation axes of the benchmark grid, sized by the env knobs.
AXES = {
    "sigma_t": tuple(0.04 + 0.01 * i for i in range(SIGMAS)),
    "window_margin": tuple(1.0 - 0.1 * i for i in range(MARGINS)),
}


# -- frozen pre-refactor implementation (do not "optimise" this) --------------

_SEED_BUILDERS = {
    "TC": TreeCode.from_total_length,
    "GC": GrayCode.from_total_length,
    "BGC": BalancedGrayCode.from_total_length,
    "HC": HotCode.from_total_length,
    "AHC": ArrangedHotCode.from_total_length,
}


def _seed_spec_with(base, window_margin=None, sigma_t=None):
    # the seed helper only rebuilt rules for contact-geometry overrides,
    # which this grid does not sweep
    return replace(
        base,
        rules=base.rules,
        window_margin=(
            base.window_margin if window_margin is None else window_margin
        ),
        sigma_t=base.sigma_t if sigma_t is None else sigma_t,
    )


class _SeedDecoder:
    """Verbatim seed-commit decoder math: every matrix rebuilt per call."""

    def __init__(self, spec, space):
        self.space = space
        self.nanowires = spec.nanowires_per_half_cave
        self.scheme = LevelScheme(space.n, window_margin=spec.window_margin)
        self.sigma_t = spec.sigma_t
        self.rules = spec.rules
        self.patterns = pattern_matrix(space, self.nanowires)
        digit_map = default_digit_map(space.n, self.scheme)
        self.plan = DopingPlan.from_pattern(self.patterns, digit_map)
        self.nu = dose_count_matrix(self.plan.steps)
        self.group_plan = plan_contact_groups(self.nanowires, space.size, self.rules)
        self.electrical_yield = float(
            wire_addressability(self.nu, self.scheme, self.sigma_t).mean()
        )
        self.geometric_yield = self.group_plan.survival_fraction
        self.cave_yield = self.electrical_yield * self.geometric_yield


def _seed_decoder_for(spec, space):
    return _SeedDecoder(spec, space)


def _seed_yield_metrics(spec, space):
    decoder = _seed_decoder_for(spec, space)
    y = decoder.cave_yield
    return {
        "code_name": space.name,
        "code_space": space.size,
        "groups": decoder.group_plan.group_count,
        "electrical_yield": decoder.electrical_yield,
        "geometric_yield": decoder.geometric_yield,
        "cave_yield": y,
        "raw_bits": spec.raw_bits,
        "effective_bits": spec.raw_bits * y * y,
    }


def _seed_area_metrics(spec, space):
    decoder = _seed_decoder_for(spec, space)
    floor = CrossbarFloorplan(
        spec=spec,
        code_length=space.total_length,
        groups_per_half_cave=decoder.group_plan.group_count,
    )
    report = _seed_yield_metrics(spec, space)  # seed rebuilt the decoder here
    return {
        "code_name": space.name,
        "total_area_nm2": floor.total_area_nm2,
        "raw_bit_area_nm2": floor.raw_bit_area_nm2,
        "effective_bit_area_nm2": floor.total_area_nm2
        / report["effective_bits"],
        "cave_yield": report["cave_yield"],
    }


def _seed_point_loop(base, points):
    """The pre-refactor sweep: everything rebuilt at every point."""
    records = []
    for point in points:
        spec = _seed_spec_with(base, **dict(point.overrides))
        space = _SEED_BUILDERS[point.family](point.n, point.total_length)
        record = point.axes()
        record.update(_seed_yield_metrics(spec, space))
        record.update(_seed_area_metrics(spec, space))
        records.append(record)
    return records


# -- measurement --------------------------------------------------------------


def _best_time(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_sweep_pipeline_speedup(benchmark, emit, emit_json, spec):
    grid = design_grid(axes=AXES)
    n_points = len(grid)
    assert n_points >= 60, f"benchmark grid too small ({n_points} points)"

    def run_serial():
        clear_caches()
        return run_sweep(grid, METRICS, spec=spec, jobs=1)

    def run_parallel():
        clear_caches()
        return run_sweep(grid, METRICS, spec=spec, jobs=JOBS)

    # correctness first: the pipeline must reproduce the seed loop exactly
    result = run_serial()
    # taken before the parallel run, whose workers keep their own caches
    stats = cache_stats()
    assert result.to_records() == _seed_point_loop(spec, grid)
    assert run_parallel() == result

    def run_all():
        return {
            "baseline_s": _best_time(lambda: _seed_point_loop(spec, grid)),
            "serial_s": _best_time(run_serial),
            "parallel_s": _best_time(run_parallel),
        }

    times = benchmark.pedantic(run_all, rounds=1, iterations=1)
    serial_speedup = times["baseline_s"] / times["serial_s"]
    parallel_speedup = times["baseline_s"] / times["parallel_s"]
    headline = max(serial_speedup, parallel_speedup)
    # absolute cost next to the ratios: wall-clock microseconds per point
    us_per_point = {
        name: 1e6 * times[f"{name}_s"] / n_points
        for name in ("baseline", "serial", "parallel")
    }

    rows = [
        [label, f"{1000 * times[f'{name}_s']:.0f} ms",
         f"{us_per_point[name]:.0f} us", speedup]
        for label, name, speedup in (
            ("seed per-point loop", "baseline", "1.0x"),
            ("pipeline (serial, cached)", "serial", f"{serial_speedup:.1f}x"),
            (f"pipeline (jobs={JOBS}, cached)", "parallel",
             f"{parallel_speedup:.1f}x"),
        )
    ]
    emit(
        "sweep_pipeline_speedup",
        f"Design-space pipeline vs pre-refactor loop "
        f"({n_points} points x {METRICS})\n"
        + render_table(["evaluator", "wall clock", "per point", "speedup"], rows),
    )
    emit_json(
        "sweep_pipeline",
        {
            "points": n_points,
            "metrics": list(METRICS),
            "jobs": JOBS,
            "min_speedup": MIN_SPEEDUP,
            "baseline_s": times["baseline_s"],
            "serial_s": times["serial_s"],
            "parallel_s": times["parallel_s"],
            "baseline_us_per_point": us_per_point["baseline"],
            "serial_us_per_point": us_per_point["serial"],
            "parallel_us_per_point": us_per_point["parallel"],
            "serial_speedup": serial_speedup,
            "parallel_speedup": parallel_speedup,
            "headline_speedup": headline,
            "cache_stats": stats,
        },
    )

    assert headline >= MIN_SPEEDUP, (
        f"pipeline only {headline:.1f}x faster than the seed per-point loop "
        f"on {n_points} points (floor {MIN_SPEEDUP}x)"
    )
