"""The three in-process workloads and the timed loop they share.

One client thread.  A *pass* is a pinned amount of work (the same rows
for every pass and every seed; ``--seed`` only permutes which row lands
in which call); the timed window is as many whole passes as fit in
``--seconds``.  Every timing is taken per pass; the reported figure is
the median over passes.  A pass's answers are checked as soon as its
clock has stopped and then dropped, so the process never holds more than
one pass of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.e2e import workloads as W
from benchmarks.e2e.measure import CpuWindow, peak_rss_mib
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.verify import PointStore, check_answers


@dataclass
class PassRecord:
    wall: float
    latencies: List[float]
    rows: List[np.ndarray]            # query-row indices of each operation
    ok: List[np.ndarray] = field(default_factory=list)   # per-row verdicts

    @property
    def correct_rows(self) -> int:
        return int(sum(int(v.sum()) for v in self.ok))

    @property
    def failed_ops(self) -> int:
        return sum(1 for v in self.ok if not bool(v.all()))


@dataclass
class Quality:
    recall: float
    error_ratio: float
    candidates_per_row: float
    selectivity: float
    parts: Dict[str, Dict[str, float]] = field(default_factory=dict)


def quality_of(ids: np.ndarray, dists: np.ndarray, n_candidates: np.ndarray,
               escalated: np.ndarray, gt_ids: np.ndarray,
               gt_dists: np.ndarray, n_points: int) -> Dict[str, float]:
    """Recall (Eq. 3), error ratio (Eq. 4), selectivity (Eq. 5) of one
    deterministic pass over the quality rows."""
    from repro.evaluation.metrics import (error_ratio, recall_ratio,
                                          selectivity)

    return {
        "recall": float(recall_ratio(gt_ids, ids).mean()),
        "error_ratio": float(error_ratio(gt_dists, dists).mean()),
        "candidates_per_row": float(np.mean(n_candidates)),
        "selectivity": float(selectivity(n_candidates, n_points).mean()),
        "escalated_share": float(np.mean(escalated)),
    }


def _quality_of_batch(answer: Any, gt_ids: np.ndarray, gt_dists: np.ndarray,
                      n_points: int) -> Dict[str, float]:
    ids, dists, stats = answer
    return quality_of(ids, dists, stats.n_candidates, stats.escalated,
                      gt_ids, gt_dists, n_points)


class InProcessWorkload:
    """What the timed loop needs from a workload."""

    name = ""
    #: Set for the traced leg only; ``run_op`` then brackets its calls.
    tracer: Optional[Tracer] = None

    def __init__(self, inputs: W.Inputs) -> None:
        self.inputs = inputs
        self.sizes = inputs.sizes
        self.train = inputs.load("train")
        self.queries = inputs.load("queries")
        self.store = PointStore(self.train)

    # -- each workload defines -------------------------------------------
    def release(self) -> None:
        """Drop what the last ``setup`` built (untimed), so a repeated
        set-up never runs beside its predecessor and ``peak_rss_mb`` is one
        index plus what building it needs, not two."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def ops_of_pass(self, seed: int, index: int) -> List[np.ndarray]:
        raise NotImplementedError

    def run_op(self, queries: np.ndarray) -> Any:
        raise NotImplementedError

    def check_op(self, rows: np.ndarray, answer: Any) -> np.ndarray:
        raise NotImplementedError

    def check_ops(self, rows: Sequence[np.ndarray],
                  answers: Sequence[Any]) -> List[np.ndarray]:
        """Per-row verdicts of every operation of one pass."""
        return [self.check_op(r, a) for r, a in zip(rows, answers)]

    def quality(self) -> Quality:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- shared ------------------------------------------------------------
    def _quality_rows(self) -> np.ndarray:
        return self.queries[:self.sizes.quality_rows]

    def _chunks(self, seed: int, index: int, pool: np.ndarray,
                rows_per_op: int) -> List[np.ndarray]:
        order = pool[W.pass_order(seed, index, pool.size)]
        return [order[i:i + rows_per_op]
                for i in range(0, order.size, rows_per_op)]


class BatchPlain(InProcessWorkload):
    """``BiLevelLSH`` Z^M over the whole corpus, 2000-row calls."""

    name = "batch_plain"
    index: Any = None

    def release(self) -> None:
        self.index = None

    def setup(self) -> None:
        from repro import BiLevelLSH

        self.index = BiLevelLSH(W.plain_config(self.inputs)).fit(self.train)

    def ops_of_pass(self, seed: int, index: int) -> List[np.ndarray]:
        assert self.sizes.batch_rows * self.sizes.batch_calls \
            == self.sizes.n_queries
        return self._chunks(seed, index, np.arange(self.sizes.n_queries),
                            self.sizes.batch_rows)

    def run_op(self, queries: np.ndarray) -> Any:
        tracer = self.tracer
        if tracer is None:
            return self.index.query_batch(queries, W.K, engine=W.ENGINE)
        with tracer.span("core.query_batch"):
            return self.index.query_batch(queries, W.K, engine=W.ENGINE)

    def check_op(self, rows: np.ndarray, answer: Any) -> np.ndarray:
        ids, dists, _stats = answer
        return check_answers(self.queries[rows], ids, dists, self.store, W.K)

    def quality(self) -> Quality:
        answer = self.index.query_batch(self._quality_rows(), W.K,
                                        engine=W.ENGINE)
        q = _quality_of_batch(answer, self.inputs.load("gt_ids"),
                              self.inputs.load("gt_dists"),
                              self.sizes.n_train)
        return Quality(q["recall"], q["error_ratio"],
                       q["candidates_per_row"], q["selectivity"],
                       {"plain": q})


class BatchAdaptive(InProcessWorkload):
    """One operation = the same 50 rows on the multi-probe index, then on
    the E8 hierarchy index (integer threshold, first ``hier_n`` rows)."""

    name = "batch_adaptive"
    probe: Any = None
    hier: Any = None

    def release(self) -> None:
        self.probe = self.hier = None

    def setup(self) -> None:
        from repro import BiLevelLSH

        self.probe = BiLevelLSH(W.probe_config(self.inputs)).fit(self.train)
        self.hier = BiLevelLSH(W.hier_config(self.inputs)).fit(
            self.train[:self.sizes.hier_n])

    def ops_of_pass(self, seed: int, index: int) -> List[np.ndarray]:
        lo = self.sizes.quality_rows
        pool = np.arange(lo, lo + self.sizes.adaptive_rows
                         * self.sizes.adaptive_ops)
        return self._chunks(seed, index, pool, self.sizes.adaptive_rows)

    def _probe(self, queries: np.ndarray) -> Any:
        return self.probe.query_batch(queries, W.K, engine=W.ENGINE)

    def _hier(self, queries: np.ndarray) -> Any:
        return self.hier.query_batch(queries, W.K, engine=W.ENGINE,
                                     hierarchy_threshold=W.HIER_THRESHOLD)

    def run_op(self, queries: np.ndarray) -> Any:
        tracer = self.tracer
        if tracer is None:
            return self._probe(queries), self._hier(queries)
        with tracer.span("core.query_batch"):
            first = self._probe(queries)
        with tracer.span("core.query_batch"):
            second = self._hier(queries)
        return first, second

    def check_op(self, rows: np.ndarray, answer: Any) -> np.ndarray:
        (p_ids, p_dists, _), (h_ids, h_dists, _) = answer
        queries = self.queries[rows]
        return (check_answers(queries, p_ids, p_dists, self.store, W.K)
                & check_answers(queries, h_ids, h_dists, self.store, W.K,
                                id_limit=self.sizes.hier_n))

    def quality(self) -> Quality:
        rows = self._quality_rows()
        probe = _quality_of_batch(
            self._probe(rows), self.inputs.load("gt_ids"),
            self.inputs.load("gt_dists"), self.sizes.n_train)
        hier = _quality_of_batch(
            self._hier(rows), self.inputs.load("gt_hier_ids"),
            self.inputs.load("gt_hier_dists"), self.sizes.hier_n)

        def mean(key: str) -> float:
            return 0.5 * (probe[key] + hier[key])

        return Quality(mean("recall"), mean("error_ratio"),
                       mean("candidates_per_row"), mean("selectivity"),
                       {"probe": probe, "hier": hier})


class SoloInProcess(InProcessWorkload):
    """1-row ``QueryRequest``s through ``IndexRuntime.submit`` on the
    ``batch_plain`` snapshot; set-up is ``open`` (load + CRC verify)."""

    name = "solo_inprocess"
    runtime: Any = None
    index: Any = None

    def release(self) -> None:
        self.close()

    def setup(self) -> None:
        from repro.runtime import IndexRuntime, RuntimeConfig

        self.runtime = IndexRuntime.open(self.inputs.path("plain.npz"),
                                         RuntimeConfig(engine=W.ENGINE))
        self.index = self.runtime.index

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = self.index = None

    def ops_of_pass(self, seed: int, index: int) -> List[np.ndarray]:
        lo = self.sizes.quality_rows
        return self._chunks(seed, index,
                            np.arange(lo, lo + self.sizes.solo_ops), 1)

    def run_op(self, queries: np.ndarray) -> Any:
        from repro.runtime import QueryRequest

        request = QueryRequest(queries=queries, k=W.K)
        tracer = self.tracer
        if tracer is None:
            return self.runtime.submit(request)
        with tracer.span("runtime.submit"):
            return self.runtime.submit(request)

    def check_ops(self, rows: Sequence[np.ndarray],
                  answers: Sequence[Any]) -> List[np.ndarray]:
        # One vectorised check for the pass: 1600 one-row calls would
        # spend longer in numpy set-up than in checking.
        ok = check_answers(
            self.queries[np.concatenate(rows)],
            np.concatenate([a.ids for a in answers]),
            np.concatenate([a.distances for a in answers]), self.store, W.K)
        ok &= ~np.array([a.shed for a in answers])
        return [ok[i:i + 1] for i in range(ok.size)]

    def quality(self) -> Quality:
        from repro.runtime import QueryRequest

        rows = self._quality_rows()
        answers = [self.runtime.submit(QueryRequest(queries=rows[i:i + 1],
                                                    k=W.K))
                   for i in range(rows.shape[0])]
        q = quality_of(
            np.concatenate([a.ids for a in answers]),
            np.concatenate([a.distances for a in answers]),
            np.concatenate([a.stats.n_candidates for a in answers]),
            np.concatenate([a.stats.escalated for a in answers]),
            self.inputs.load("gt_ids"), self.inputs.load("gt_dists"),
            self.sizes.n_train)
        return Quality(q["recall"], q["error_ratio"],
                       q["candidates_per_row"], q["selectivity"],
                       {"plain": q})


IN_PROCESS = {cls.name: cls for cls in (BatchPlain, BatchAdaptive,
                                        SoloInProcess)}


# -------------------------------------------------------------- timed loop

def time_setups(workload: InProcessWorkload, total: int) -> List[float]:
    """Set the workload up ``total`` times.  All are kept: the first pays
    lazy imports and a cold page cache, and the lower quartile that is
    reported leaves the slowest out without being told which it is."""
    times = []
    for _ in range(total):
        workload.release()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def run_passes(workload: InProcessWorkload, seed: int, seconds: float,
               min_passes: int, max_passes: Optional[int] = None,
               ) -> List[PassRecord]:
    """Timed window: whole passes until ``seconds`` of pass time is spent.
    Each pass's answers are checked once its clock has stopped."""
    passes: List[PassRecord] = []
    spent = 0.0
    while (spent < seconds or len(passes) < min_passes) \
            and (max_passes is None or len(passes) < max_passes):
        rows = workload.ops_of_pass(seed, len(passes))
        batches = [np.ascontiguousarray(workload.queries[r]) for r in rows]
        latencies: List[float] = []
        answers: List[Any] = []
        run_op = workload.run_op
        tracer = workload.tracer
        clock = time.perf_counter
        begin = clock()
        for op, batch in enumerate(batches):
            if tracer is not None:
                tracer.op_id = len(passes) * len(batches) + op
            start = clock()
            answer = run_op(batch)
            latencies.append(clock() - start)
            answers.append(answer)
        wall = clock() - begin
        passes.append(PassRecord(wall, latencies, rows,
                                 workload.check_ops(rows, answers)))
        spent += wall
    return passes


def tally(passes: Sequence[PassRecord]) -> Tuple[int, int]:
    """(attempted, failed) operations over ``passes``."""
    return (sum(len(record.ok) for record in passes),
            sum(record.failed_ops for record in passes))


def run_leg(workload: InProcessWorkload, seed: int, seconds: float,
            n_setups: int, min_passes: int) -> Dict[str, Any]:
    """Set-ups, the quality pass (which also warms up), then the timed
    window."""
    setups = time_setups(workload, n_setups)
    quality = workload.quality()
    warm = workload.ops_of_pass(seed, 0)[0]
    workload.run_op(np.ascontiguousarray(workload.queries[warm]))
    cpu = CpuWindow()
    passes = run_passes(workload, seed, seconds, min_passes)
    cpu_report = cpu.close()
    rss = peak_rss_mib()
    attempted, failed = tally(passes)
    return {"setups": setups, "quality": quality, "passes": passes,
            "peak_rss_mb": rss, "attempted": attempted, "failed": failed,
            "cpu": cpu_report}
