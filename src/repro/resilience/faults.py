"""Deterministic fault injection at named pipeline sites.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries, each
targeting one *fault site* — a named checkpoint the pipeline consults
before doing risky work.  Installed plans are read through the same
module-gate pattern as :mod:`repro.obs`: hot paths call
:func:`faults_active` **once per batch** and skip every per-site check
when it returns ``None``, so production queries pay one module-global
read and nothing else (bounded by ``benchmarks/bench_obs_overhead.py``).

Fault kinds:

- ``exception`` — raise :class:`~repro.resilience.errors.InjectedFault`
  at the site (models a crashing worker);
- ``delay`` — sleep ``delay_ms`` at the site (models a stalled worker,
  used to exercise timeouts and deadlines);
- ``corruption`` — the check returns ``True`` and the *site* applies a
  domain-appropriate corruption (e.g. ``persistence.load`` flips bytes
  in a loaded array so checksum verification must catch it).

Determinism: each spec draws from its own spawned RNG stream under a
lock, so a plan with ``rate=1.0`` (optionally bounded by ``max_hits``,
optionally pinned to one group/table via ``match``) fires identically
across runs regardless of thread interleaving.  Sub-unit rates are
deterministic per spec *draw sequence*; with shards on several threads
the assignment of draws to shards follows arrival order.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.resilience.errors import InjectedFault
from repro.utils.rng import SeedLike, spawn_rngs

#: The named checkpoints the pipeline exposes.  Specs must target one of
#: these — a typo'd site name is a configuration bug, not a silent no-op.
KNOWN_SITES: Tuple[str, ...] = (
    "bilevel.dispatch",   # per-group supervised check in BiLevelLSH
    "lsh.gather",         # per-table candidate gathering in StandardLSH
    "maintenance.append",  # WAL record append in WriteAheadLog
    "maintenance.compact",  # per-task execution in Compactor
    "persistence.load",   # archive read in load_index / verify_index
    "persistence.save",   # commit step (pre-rename) in save_index
)

FAULT_KINDS: Tuple[str, ...] = ("exception", "delay", "corruption")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: where, what kind, how often, how many times.

    ``match`` restricts the spec to sites whose labels contain the given
    items (e.g. ``{"group": 0}`` hits only group 0's dispatch), which is
    how the chaos tests pin a fault to a known victim deterministically.
    """

    site: str
    kind: str = "exception"
    rate: float = 1.0
    max_hits: Optional[int] = None
    delay_ms: float = 0.0
    match: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(KNOWN_SITES)}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.max_hits is not None and self.max_hits <= 0:
            raise ValueError(
                f"max_hits must be positive or None, got {self.max_hits}")
        if self.delay_ms < 0:
            raise ValueError(
                f"delay_ms must be non-negative, got {self.delay_ms}")


@dataclass
class _SpecState:
    """Mutable per-spec bookkeeping (guarded by the plan lock)."""

    spec: FaultSpec
    rng: np.random.Generator
    hits: int = 0
    draws: int = 0


class FaultPlan:
    """A seeded set of fault specs plus hit accounting.

    Thread-safe: concurrent workers hitting the same site serialize on
    one lock around the RNG draw and hit counters, so ``max_hits``
    bounds hold exactly under a runtime's shard threads.
    """

    def __init__(self, specs: Sequence[FaultSpec],
                 seed: SeedLike = 0) -> None:
        specs = tuple(specs)
        rngs = spawn_rngs(seed, max(1, len(specs)))
        self._lock = threading.Lock()
        self._states: List[_SpecState] = [
            _SpecState(spec=spec, rng=rngs[i])
            for i, spec in enumerate(specs)
        ]
        self._by_site: Dict[str, List[_SpecState]] = {}
        for state in self._states:
            self._by_site.setdefault(state.spec.site, []).append(state)

    @property
    def specs(self) -> Tuple[FaultSpec, ...]:
        return tuple(state.spec for state in self._states)

    def hits(self) -> Dict[str, int]:
        """Total fault activations per site so far."""
        with self._lock:
            out: Dict[str, int] = {}
            for state in self._states:
                out[state.spec.site] = out.get(state.spec.site, 0) + state.hits
            return out

    def _matches(self, spec: FaultSpec, labels: Dict[str, object]) -> bool:
        if spec.match is None:
            return True
        return all(labels.get(key) == value
                   for key, value in spec.match.items())

    def check(self, site: str, **labels: object) -> bool:
        """Consult the plan at ``site``; returns True for a corruption hit.

        ``exception`` hits raise :class:`InjectedFault`; ``delay`` hits
        sleep then continue; ``corruption`` hits return ``True`` so the
        caller applies its site-specific corruption.  Sites without a
        matching spec return ``False`` after one dict lookup.
        """
        states = self._by_site.get(site)
        if not states:
            return False
        corrupt = False
        fire_exception: Optional[FaultSpec] = None
        delay_s = 0.0
        n_fired = 0
        with self._lock:
            for state in states:
                spec = state.spec
                if not self._matches(spec, dict(labels)):
                    continue
                if spec.max_hits is not None and state.hits >= spec.max_hits:
                    continue
                state.draws += 1
                if spec.rate < 1.0:
                    if float(state.rng.random()) >= spec.rate:
                        continue
                state.hits += 1
                n_fired += 1
                if spec.kind == "exception":
                    fire_exception = spec
                elif spec.kind == "delay":
                    delay_s += spec.delay_ms / 1000.0
                else:
                    corrupt = True
        if n_fired:
            ob = obs.active()
            if ob is not None:
                for _ in range(n_fired):
                    ob.record_fault(site)
        if delay_s > 0.0:
            time.sleep(delay_s)
        if fire_exception is not None:
            label_text = ", ".join(
                f"{key}={value}" for key, value in sorted(labels.items()))
            raise InjectedFault(site, label_text)
        return corrupt


# ---------------------------------------------------------------------------
# Module-level gate (same shape as the repro.obs observer gate).
# ---------------------------------------------------------------------------
_state_lock = threading.Lock()
_plan: Optional[FaultPlan] = None


def faults_active() -> Optional[FaultPlan]:
    """The hot-path gate: the installed plan, else ``None``.

    One module-global read; call once per batch, not per site.
    """
    return _plan


def install_faults(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (replaces any prior plan)."""
    global _plan
    with _state_lock:
        _plan = plan
    return plan


def clear_faults() -> None:
    """Remove the installed plan; fault sites become free again."""
    global _plan
    with _state_lock:
        _plan = None


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped installation for tests: install on entry, clear on exit."""
    install_faults(plan)
    try:
        yield plan
    finally:
        clear_faults()


# Re-exported for discoverability next to the gate functions.
__all__ = [
    "KNOWN_SITES", "FAULT_KINDS", "FaultSpec", "FaultPlan",
    "faults_active", "install_faults", "clear_faults", "injected_faults",
]
