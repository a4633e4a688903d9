"""repro — reproduction of *Decoding Nanowire Arrays Fabricated with the
Multi-Spacer Patterning Technique* (Ben Jamaa, Leblebici, De Micheli,
DAC 2009).

The library models the full MSPT decoder stack:

* ``repro.codes`` — the five addressing-code families (TC, GC, BGC, HC,
  AHC) with their transition metrics;
* ``repro.device`` — threshold-voltage physics, level schemes and dose
  variability;
* ``repro.fabrication`` — the MSPT spacer process, doping matrices,
  fabrication complexity;
* ``repro.decoder`` — pattern, variability and addressing models of a
  half cave, plus contact-group geometry;
* ``repro.crossbar`` — the 16 kB crossbar platform: yield, area,
  Monte-Carlo validation and a defect-aware memory;
* ``repro.sim`` — the batched Monte-Carlo engine: chunked,
  stream-reproducible evaluation of all stochastic models on a
  leading trial axis;
* ``repro.exp`` — the design-space evaluation pipeline: parallel,
  cached, columnar sweeps of analytic design points (the engine under
  every figure generator, family sweep and the optimizer);
* ``repro.workload`` — the trace-driven memory workload engine:
  synthetic traffic (uniform/sequential/zipfian/bursty) replayed over
  fleets of sampled defective crossbar instances with vectorised
  defect-aware remapping and optional SECDED repair;
* ``repro.analysis`` — figure data generators and headline statistics;
* ``repro.core`` — the high-level :class:`DecoderDesign` API, design
  optimisation and executable theorem checks.

Quickstart
----------
>>> from repro import DecoderDesign
>>> design = DecoderDesign.build("BGC", total_length=10)
>>> round(design.cave_yield, 2) > 0.5
True
"""

#: Public name -> the subpackage that defines it.  Resolved on first
#: access (PEP 562), so ``import repro`` loads no subpackage and pays
#: nothing for numpy, scipy or the engines until a name is used.
_EXPORTS = {
    "ArrangedHotCode": "repro.codes",
    "BalancedGrayCode": "repro.codes",
    "CodeSpace": "repro.codes",
    "GrayCode": "repro.codes",
    "HotCode": "repro.codes",
    "TreeCode": "repro.codes",
    "make_code": "repro.codes",
    "DecoderDesign": "repro.core",
    "explore_designs": "repro.core",
    "optimize_design": "repro.core",
    "CrossbarMemory": "repro.crossbar",
    "CrossbarSpec": "repro.crossbar",
    "crossbar_yield": "repro.crossbar",
    "effective_bit_area": "repro.crossbar",
    "sample_defect_map": "repro.crossbar",
    "simulate_cave_yield": "repro.crossbar",
    "HalfCaveDecoder": "repro.decoder",
    "DesignPoint": "repro.exp",
    "SweepResult": "repro.exp",
    "design_grid": "repro.exp",
    "run_sweep": "repro.exp",
    "DopingPlan": "repro.fabrication",
    "ProcessFlow": "repro.fabrication",
    "fabrication_complexity": "repro.fabrication",
    "MonteCarloEngine": "repro.sim",
    "StreamingMoments": "repro.sim",
    "simulate_cave_yield_batched": "repro.sim",
    "MemoryFleet": "repro.workload",
    "Trace": "repro.workload",
    "make_trace": "repro.workload",
}

#: Subpackages reachable as ``repro.<name>`` after a bare ``import repro``
#: (the eager re-exports used to load them as a side effect).
_SUBPACKAGES = (
    "codes",
    "core",
    "crossbar",
    "decoder",
    "device",
    "exp",
    "fabrication",
    "obs",
    "sim",
    "workload",
)

__version__ = "1.0.0"

__all__ = [
    "ArrangedHotCode",
    "BalancedGrayCode",
    "CodeSpace",
    "CrossbarMemory",
    "CrossbarSpec",
    "DecoderDesign",
    "DesignPoint",
    "DopingPlan",
    "GrayCode",
    "HalfCaveDecoder",
    "HotCode",
    "MemoryFleet",
    "MonteCarloEngine",
    "ProcessFlow",
    "StreamingMoments",
    "Trace",
    "TreeCode",
    "__version__",
    "crossbar_yield",
    "effective_bit_area",
    "SweepResult",
    "design_grid",
    "explore_designs",
    "fabrication_complexity",
    "make_code",
    "make_trace",
    "optimize_design",
    "run_sweep",
    "sample_defect_map",
    "simulate_cave_yield",
    "simulate_cave_yield_batched",
]


def __getattr__(name: str):
    """Import a re-exported name or subpackage on first access (PEP 562)."""
    import importlib

    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
    elif name in _SUBPACKAGES:
        value = importlib.import_module(f"repro.{name}")
    else:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """What eager re-exports listed: public names, subpackages, dunders."""
    names = {*globals(), *__all__, *_SUBPACKAGES}
    return sorted(names - {"_EXPORTS", "_SUBPACKAGES", "__getattr__", "__dir__"})
