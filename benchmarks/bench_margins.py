"""MARG — vectorized margin engine vs the frozen scalar pairwise loop.

Two jobs in one bench:

1. regenerate the sense-margin view of the code comparison (after ref
   [2]) and confirm the paper's ordering (BGC > GC > TC at fixed
   length) is criterion-independent;
2. gate the PR-4 margin engine: the batched margin-yield Monte-Carlo
   (:func:`repro.crossbar.montecarlo.simulate_margin_yield`) must run
   a full family sweep >= 10x faster than the frozen scalar oracle
   ``oracles.margins.simulate_margin_yield`` — one ``(N, M)`` VT draw
   per trial followed by the O(N^2) per-pair Python loop — while
   producing byte-identical analytic ``MarginReport``s and sampled
   yields, invariant to the chunk size.

The scalar baseline lives in ``tests/oracles/`` (outside the package),
so the measured speedup does not shrink as the library evolves.  The
two sides are timed in interleaved segments per family and aggregated
by total time, for the same noisy-shared-runner reasons as
``bench_sim_engine.py``.

Environment knobs for smoke runs (see ``run_checks.sh``):

* ``MARGINS_BENCH_TRIALS``      — batched trial budget per family
  (default 20000)
* ``MARGINS_BENCH_LOOP_TRIALS`` — scalar trial budget per family
  (default 1000)
* ``MARGINS_BENCH_MIN_SPEEDUP`` — asserted floor (default 10.0)
"""

import os
import time

from oracles import margins as oracle
from repro.analysis.report import render_table
from repro.codes import make_code
from repro.crossbar.montecarlo import simulate_margin_yield
from repro.decoder.margins import margin_report, margin_yield

TRIALS = int(os.environ.get("MARGINS_BENCH_TRIALS", 20_000))
LOOP_TRIALS = max(1, int(os.environ.get("MARGINS_BENCH_LOOP_TRIALS", 1_000)))
MIN_SPEEDUP = float(os.environ.get("MARGINS_BENCH_MIN_SPEEDUP", 10.0))
REPEATS = 3

FAMILIES = ("TC", "GC", "BGC")
LENGTH = 8
NANOWIRES = 20
K_SIGMA = 2.0


# -- measurement ---------------------------------------------------------------


def _interleaved_family_sweep(spec, codes):
    """Both sides sweep every family, interleaved segment by segment."""
    loop_time = 0.0
    loop_done = 0
    batched_time = 0.0
    batched_done = 0
    loop_seg = -(-LOOP_TRIALS // REPEATS)
    for code in codes.values():
        done = 0
        for _ in range(REPEATS):
            seg = min(loop_seg, LOOP_TRIALS - done)
            if seg > 0:
                start = time.perf_counter()
                oracle.simulate_margin_yield(spec, code, seg, k_sigma=K_SIGMA)
                loop_time += time.perf_counter() - start
                loop_done += seg
                done += seg
            start = time.perf_counter()
            simulate_margin_yield(spec, code, samples=TRIALS, seed=0, k_sigma=K_SIGMA)
            batched_time += time.perf_counter() - start
            batched_done += TRIALS
    return loop_done / loop_time, batched_done / batched_time


def run_margins(spec, codes):
    out = {}
    for family, code in codes.items():
        out[family] = (
            margin_report(code, NANOWIRES, k_sigma=3.0),
            margin_yield(code, NANOWIRES, k_sigma=K_SIGMA),
            simulate_margin_yield(
                spec, code, samples=TRIALS, seed=0, k_sigma=K_SIGMA
            ),
        )
    return out


def test_sense_margins(benchmark, emit, emit_json, spec):
    codes = {f: make_code(f, 2, LENGTH) for f in FAMILIES}
    # warm-up (imports, fabrication caches) before any timing
    for code in codes.values():
        simulate_margin_yield(spec, code, samples=256, seed=0)
        oracle.simulate_margin_yield(spec, code, 10, k_sigma=K_SIGMA)

    results = benchmark(run_margins, spec, codes)
    loop_rate, batched_rate = _interleaved_family_sweep(spec, codes)
    speedup = batched_rate / loop_rate

    rows = [
        [
            family,
            f"{1000 * report.select_margin_v:.0f} mV",
            f"{1000 * report.block_margin_v:.0f} mV",
            f"{1000 * report.worst_margin_v:.0f} mV",
            f"{100 * myield:.1f}%",
            f"{100 * mc.mean_margin_yield:.2f}%",
        ]
        for family, (report, myield, mc) in results.items()
    ]
    emit(
        "margins",
        f"Sense margins at M = {LENGTH}, N = {NANOWIRES} "
        "(3-sigma margins, 2-sigma yields)\n"
        + render_table(
            ["family", "select", "block", "worst", "margin yield", "mc yield"],
            rows,
        )
        + f"\n\nmargin-yield sweep: scalar loop {loop_rate:,.0f} trials/s, "
        f"batched {batched_rate:,.0f} trials/s ({speedup:.1f}x)",
    )
    emit_json(
        "margins",
        {
            "families": list(FAMILIES),
            "length": LENGTH,
            "nanowires": NANOWIRES,
            "k_sigma": K_SIGMA,
            "batched_trials": TRIALS,
            "loop_trials": LOOP_TRIALS,
            "min_speedup": MIN_SPEEDUP,
            "loop_trials_per_s": loop_rate,
            "batched_trials_per_s": batched_rate,
            "speedup_vs_scalar_loop": speedup,
            "mc_margin_yield": {
                family: mc.mean_margin_yield
                for family, (_, _, mc) in results.items()
            },
        },
    )

    # -- correctness gates (full strictness at any budget) --------------------

    # byte-identical MarginReports: batched vs the scalar pairwise loop
    for family, (report, _, _) in results.items():
        assert report == oracle.margin_report(codes[family], NANOWIRES), family

    # chunk-size-invariant sampled yields
    for family, (_, _, mc) in results.items():
        for chunk in (1_000, 1 << 20):
            again = simulate_margin_yield(
                spec,
                codes[family],
                samples=TRIALS,
                seed=0,
                k_sigma=K_SIGMA,
                max_trials_per_chunk=chunk,
            )
            assert again == mc, (family, chunk)

    # the sampled yield equals the scalar sampler's (same streams, same order)
    samples = max(LOOP_TRIALS, 500)
    assert oracle.simulate_margin_yield(
        spec, codes["BGC"], samples, k_sigma=K_SIGMA
    ) == simulate_margin_yield(spec, codes["BGC"], samples, k_sigma=K_SIGMA)

    # the paper's ordering is criterion-independent
    worst = {fam: rep.worst_margin_v for fam, (rep, _, _) in results.items()}
    yields = {fam: y for fam, (_, y, _) in results.items()}
    assert worst["BGC"] >= worst["GC"] > worst["TC"]
    assert yields["BGC"] >= yields["TC"]
    mc_yields = {fam: mc.mean_margin_yield for fam, (_, _, mc) in results.items()}
    assert mc_yields["BGC"] >= mc_yields["TC"]

    # -- the perf gate ---------------------------------------------------------
    assert speedup >= MIN_SPEEDUP, (
        f"batched margin engine only {speedup:.1f}x faster than the scalar "
        f"pairwise oracle (floor {MIN_SPEEDUP}x)"
    )
