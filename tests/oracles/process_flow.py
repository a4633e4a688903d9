"""Event-by-event MSPT process replay (the pre-fold reference).

Mirrors :meth:`repro.fabrication.process_flow.ProcessFlow.replay` and
:meth:`~repro.fabrication.process_flow.ProcessFlow.dose_counts`: every
doping event adds its dose to each exposed region of every nanowire
defined so far.  Counts agree exactly with the folded engine; doses to
floating-point rounding (the summation order differs).
"""

from __future__ import annotations

import numpy as np

from repro.fabrication.process_flow import ProcessFlow, SpacerEvent


def _accumulate(flow: ProcessFlow, amount, dtype) -> np.ndarray:
    out = np.zeros((flow.plan.nanowires, flow.plan.regions), dtype=dtype)
    defined = 0
    for event in flow.events:
        if isinstance(event, SpacerEvent):
            defined = max(defined, event.wire + 1)
        else:
            for j in event.regions:
                out[:defined, j] += amount(event)
    return out


def replay(flow: ProcessFlow) -> np.ndarray:
    """Final doping matrix of ``flow``, one event at a time."""
    return _accumulate(flow, lambda event: event.dose, float)


def dose_counts(flow: ProcessFlow) -> np.ndarray:
    """Doses received per (nanowire, region), one event at a time."""
    return _accumulate(flow, lambda event: 1, int)
