"""Static and dynamic invariant enforcement for the repository.

The hot path of this reproduction is vectorized and (since the batch
engine landed) concurrent: packed ``>u8`` bucket keys, ``int64`` code
arrays, per-group thread-pooled dispatch, and a runtime's shard threads
over the executor's shard loop.  Its correctness rests on invariants
that ordinary tests cannot see drifting — dtype discipline, centralized
RNG plumbing, lock discipline around shared index state, and lock
ordering.  This package machine-checks
them with an AST lint pass built on a module-resolved interprocedural
call graph (:mod:`repro.analysis.callgraph`: renamed imports, callable
aliases, ``self.method`` through base classes, callables shipped to
executors):

- **R1** ``rng-centralized`` — no direct ``np.random.*`` / ``random``
  usage outside :mod:`repro.utils.rng`.
- **R2** ``explicit-dtype`` — array constructions in hot-path packages
  (``lsh``, ``lattice``, ``core``) must name an explicit ``dtype``.
- **R3** ``locked-mutation`` — no mutation of shared index state from
  functions reachable by a worker-thread path (``n_jobs`` groups, shard
  threads) without holding a declared lock.
- **R4** ``typed-api`` — public API functions carry complete type
  annotations, and ``= None`` defaults require ``Optional``-compatible
  annotations.
- **R5** ``no-silent-failure`` — no bare/silent ``except`` and no
  mutable (or shared-instance) default arguments.
- **R6** ``obs-centralized`` — pipeline modules emit telemetry only
  through :mod:`repro.obs`; no raw ``time.perf_counter()`` reads or
  ``print`` instrumentation outside the observability package.
- **R7** ``recorded-failures`` — pipeline ``except`` handlers re-raise
  or record the failure (directly, or via a helper the call graph
  resolves).
- **R8** ``exec-centralized`` — query execution plumbing lives only in
  :mod:`repro.exec`; front-end ``query_batch`` delegates to
  ``run_plan``.
- **R9** ``native-dispatch`` — compiled kernel backends are imported
  only by the native registry.
- **R10** ``lock-order`` — the static lock-acquisition graph is
  acyclic and no blocking call runs while a lock is held
  (:mod:`repro.analysis.concurrency`).

The static rules have a runtime complement in
:mod:`repro.analysis.sanitizer`: env-gated (``REPRO_SANITIZE_LOCKS``)
instrumented lock wrappers that record the dynamic acquisition-order
graph at test time, plus a deterministic seeded
:class:`~repro.analysis.sanitizer.InterleavingDriver` for replaying
cross-thread schedules.

Run via ``python tools/check_invariants.py src/`` (``--json``,
``--changed-only``, ``--require-pragma-justification``) or through
:func:`analyze_paths`.
"""

from repro.analysis.checker import AnalysisConfig, analyze_paths, format_violations
from repro.analysis.core import ModuleInfo, Violation, load_module

__all__ = [
    "AnalysisConfig",
    "ModuleInfo",
    "Violation",
    "analyze_paths",
    "format_violations",
    "load_module",
]
