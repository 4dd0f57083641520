"""Query planning: exact batch deduplication and opt-in structural rewrites.

The planner sits between the parsed event and the engine call.  It has
three modes, chosen by ``SpplModel(plan=...)``:

* ``"off"`` — no planner; every query runs as written.
* ``"validated"`` (the serve default) — only passes that are exact by
  construction apply: :meth:`QueryPlanner.dedup_batch` evaluates
  repeated events of one batch once.  Answers are bit-identical to
  ``"off"`` however requests are spelled or ordered.
* ``"all"`` — additionally applies every structural rewrite of
  :mod:`repro.plan.passes` (normalize, fuse_union, disjoint_factor,
  condition_pushdown, chain_order).  Answers are exact-math equal to the
  unplanned path but may differ from it in the last ulp.
"""

from .passes import chain_order
from .passes import condition_pushdown
from .passes import disjoint_factor
from .passes import fuse_union
from .passes import normalize_pass
from .planner import PLAN_MODES
from .planner import QueryPlanner
from .planner import execute_condition_chain
from .planner import execute_logprob_plan

__all__ = [
    "PLAN_MODES",
    "QueryPlanner",
    "chain_order",
    "condition_pushdown",
    "disjoint_factor",
    "execute_condition_chain",
    "execute_logprob_plan",
    "fuse_union",
    "normalize_pass",
]
