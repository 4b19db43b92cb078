"""Test support: fault injection for the chaos suite and the static-split reference.

Unranked in the layer DAG — importable from anywhere, but only imported
by tests, the chaos CI step and the benchmarks (``bench_worksteal.py``
runs :func:`~repro.testing.static_split.static_split` as its ablation),
never by solver or service code paths.
"""

from repro.testing.faults import FaultInjector, SimulatedFault
from repro.testing.static_split import static_split

__all__ = ["FaultInjector", "SimulatedFault", "static_split"]
