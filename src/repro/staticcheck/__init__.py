"""Whole-program static checker: locking discipline, determinism, lock order.

``repro check`` (see :mod:`repro.staticcheck.driver`) parses the
``repro`` source tree — never imports it — builds a call graph with
per-function effect summaries propagated to fixpoint, and verifies
three contracts the runtime silently depends on:

* **syscall discipline** (SAN101–SAN104): the concurrent models write
  guarded cells only under the owning lock, use ``GuardedWrite`` on
  lease-guarded cells, acquire lock arrays in provably ascending order
  and never mutate declared cells outside a syscall, per each class's
  ``@shared_state`` declaration;
* **cell purity** (DET101–DET106): every orchestrator sweep cell and
  core/vector entry point is a deterministic function of
  ``(params, seed)`` — no unseeded entropy, no wall-clock in cached
  payloads, no environment reads, no hash-salted values or set-order
  dependence, no module-global mutation from worker code;
* **lock ordering** (SAN105–SAN106): blocking lock acquisitions stay
  deadlock-free even when they hide behind helper calls, via an
  interprocedural lockset check and a static lock-acquisition graph
  with cycle detection.

See ``docs/staticcheck.md`` for the rule table and baseline workflow.
"""

from repro.staticcheck.callgraph import Project
from repro.staticcheck.driver import load_project, run_check
from repro.staticcheck.report import (
    CheckReport,
    Finding,
    RULES,
    SuppressedFinding,
    load_baseline,
    write_baseline,
)

__all__ = [
    "CheckReport",
    "Finding",
    "Project",
    "RULES",
    "SuppressedFinding",
    "load_baseline",
    "load_project",
    "run_check",
    "write_baseline",
]
