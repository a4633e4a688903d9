"""Frozen scalar reference implementations (test oracles).

Every engine in :mod:`repro` has exactly one implementation: the
batched (vectorised, factorized, chunked) path.  The original
one-trial / one-pair / one-cell / one-access Python loops those engines
replaced live here, outside the package, so the equivalence tests, the
golden tests and the ``benchmarks/bench_*`` speedup gates can keep
checking the engines against them:

* :mod:`oracles.margins` — per-pair sense margins and the k-sigma
  margin-yield Monte-Carlo (byte-identical to the engine);
* :mod:`oracles.montecarlo` — the shared-stream cave-yield loop of the
  seed version, the stochastic-decoder baselines (per-trial identical)
  and the spacer position-sigma loop (statistical agreement);
* :mod:`oracles.process_flow` — the event-by-event MSPT replay;
* :mod:`oracles.readout` — the per-cell stamping readout solvers, as
  drop-in :class:`~repro.crossbar.readout.ReadoutModel` /
  :class:`~repro.crossbar.readout_distributed.DistributedReadout`
  subclasses;
* :mod:`oracles.workload` — the per-access fleet executor, ideal and
  electrical (byte-identical to :meth:`MemoryFleet.run`).

Nothing under ``src/`` may import this package (ruff ``TID251``).
"""
