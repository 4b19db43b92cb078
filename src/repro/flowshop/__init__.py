"""Permutation Flow-Shop Scheduling Problem (FSP) substrate.

This package provides everything the Branch-and-Bound engines need to reason
about the permutation flow-shop problem studied by the paper:

* :class:`~repro.flowshop.instance.FlowShopInstance` — problem data (the
  ``n x m`` processing-time matrix) plus validation helpers.
* :mod:`~repro.flowshop.taillard` — Taillard's benchmark instance generator
  (the 1993 linear-congruential scheme) and a registry of named instances.
* :mod:`~repro.flowshop.schedule` — partial / complete schedules and
  makespan evaluation.
* :mod:`~repro.flowshop.johnson` — Johnson's optimal two-machine algorithm
  and its "with lags" variant used by the lower bound.
* :mod:`~repro.flowshop.bounds` — the Lenstra / Lageweg / Rinnooy Kan lower
  bound, including the six data structures (``PTM``, ``LM``, ``JM``, ``RM``,
  ``QM``, ``MM``) whose sizes and access frequencies drive the paper's
  data-placement analysis (Table I).
* :mod:`~repro.flowshop.neh` — the NEH constructive heuristic used to seed
  the upper bound.
* :mod:`~repro.flowshop.generators` — random / structured instance families
  for tests and benchmarks.
"""

from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.schedule import (
    Schedule,
    PartialSchedule,
    makespan,
    completion_times,
    partial_completion_times,
)
from repro.flowshop.johnson import (
    johnson_order,
    johnson_makespan,
    johnson_order_with_lags,
    two_machine_makespan,
    two_machine_makespan_with_lags,
)
from repro.flowshop.bounds import (
    LowerBoundData,
    DataStructureComplexity,
    get_batch_kernel,
    lower_bound,
    lower_bound_batch,
    lower_bound_batch_v2,
    one_machine_bound,
)
from repro.flowshop.taillard import (
    TaillardGenerator,
    taillard_instance,
    TAILLARD_CLASSES,
)
from repro.flowshop.neh import neh_heuristic, neh_order
from repro.flowshop.generators import (
    random_instance,
    correlated_instance,
    structured_instance,
)
from repro.flowshop.io import (
    read_taillard_file,
    write_taillard_file,
    read_json_file,
    write_json_file,
    loads_taillard,
    dumps_taillard,
)

__all__ = [
    "FlowShopInstance",
    "Schedule",
    "PartialSchedule",
    "makespan",
    "completion_times",
    "partial_completion_times",
    "johnson_order",
    "johnson_makespan",
    "johnson_order_with_lags",
    "two_machine_makespan",
    "two_machine_makespan_with_lags",
    "LowerBoundData",
    "DataStructureComplexity",
    "get_batch_kernel",
    "lower_bound",
    "lower_bound_batch",
    "lower_bound_batch_v2",
    "one_machine_bound",
    "TaillardGenerator",
    "taillard_instance",
    "TAILLARD_CLASSES",
    "neh_heuristic",
    "neh_order",
    "random_instance",
    "correlated_instance",
    "structured_instance",
    "read_taillard_file",
    "write_taillard_file",
    "read_json_file",
    "write_json_file",
    "loads_taillard",
    "dumps_taillard",
]
