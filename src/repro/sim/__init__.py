"""Deterministic simulation substrate: virtual time, cost accounting, stats.

The paper's headline results are latency measurements of kernel code paths.
A Python reproduction cannot observe those nanoseconds directly, so every
algorithmic primitive (hash a component, probe a bucket, check a
permission, read a disk block, ...) charges virtual nanoseconds to a
:class:`~repro.sim.costs.CostModel`.  The *counts* of primitives are exact
reproductions of the algorithms; the per-primitive charges are calibrated
once against the paper's baseline numbers (see ``costs.CALIBRATED``).
"""

from repro.sim.clock import Clock
from repro.sim.costs import CostModel, CALIBRATED, UNIT
from repro.sim.stats import Stats

__all__ = ["Clock", "CostModel", "CALIBRATED", "UNIT", "Stats"]
