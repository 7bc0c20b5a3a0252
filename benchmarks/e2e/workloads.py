"""Pinned inputs of the end-to-end benchmark.

Every constant that decides how much work a run does lives here, written
as a literal, so two runs of the benchmark — on this commit or a later
one — do the same work.  ``--seed`` never changes *what* is computed, only
the order rows are handed to calls (see :func:`pass_order`).

Bucket widths are multiples of the workload's ``reference_width`` (median
exact 10-NN distance of a training sample).  They were tuned once, on the
full-scale corpus, so each workload's ``recall_at_10`` lands in
[0.85, 0.92]; the sweep that chose them is recorded in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Everything the benchmark writes (input cache, compiled kernels, traces,
#: result files) goes under this one git-ignored directory.
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("batch_plain", "batch_adaptive", "solo_inprocess", "serve_mixed")

#: name, unit, better — the same six on every workload; BENCHMARK.json's
#: ``end_to_end`` list adds the bound of each.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("recall_at_10", "ratio", "higher"),
    ("error_ratio_at_10", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: The issue's bounds: how far a metric's median over a set of runs may
#: worsen before it is a regression (the two ratios as absolute
#: differences).  ``aa.py`` holds set medians to these.  BENCHMARK.json's
#: ``bound`` is a different figure: its harness also refuses a benchmark
#: whose single-run spread exceeds it (README.md, "Two bounds").
ISSUE_BOUND = {"setup_s": 0.10, "throughput_per_s": 0.08,
               "latency_ms_p50": 0.08, "recall_at_10": 0.002,
               "error_ratio_at_10": 0.002, "peak_rss_mb": 0.05}
SERVE_TIMING_BOUND = 0.10     # throughput and latency of serve_mixed


def issue_bound(workload: str, metric: str) -> float:
    if workload == "serve_mixed" and metric in ("throughput_per_s",
                                                "latency_ms_p50"):
        return SERVE_TIMING_BOUND
    return ISSUE_BOUND[metric]

# ------------------------------------------------------------------ constants

K = 10
ENGINE = "native"
INDEX_SEED = 7
N_GROUPS, N_HASHES, N_TABLES = 16, 8, 10        # paper: g = 16, M = 8, L = 10

WIDTH_PLAIN = 8.0        # Bi-level Z^M                   -> recall 0.8585
WIDTH_PROBE = 4.0        # Bi-level Z^M + 32 probes       -> recall 0.8654
N_PROBES = 32
WIDTH_HIER = 8.0         # Bi-level E8 + hierarchy (20 k) -> recall 0.8427
HIER_THRESHOLD = 100
WIDTH_SERVE = 4.5        # StandardLSH Z^M                -> recall 0.8899

WAL_TAIL_INSERTS = 48    # 2-row inserts in the pinned WAL tail ...
WAL_TAIL_DELETES = 16    # ... and deletes of the first pairs: 64 records
TAIL_ID_BASE = 900_000
WINDOW_ID_BASE = 1_000_000
WRITE_EVERY = 5          # every 5th operation of connection 0 is a write
N_CONNECTIONS = 2


@dataclass(frozen=True)
class Sizes:
    """Row counts of one scale.  ``full`` is the benchmark; ``smoke`` only
    proves the plumbing (test_e2e_smoke.py) and its numbers mean nothing."""

    name: str
    n_train: int
    n_queries: int
    dim: int
    corpus_seed: int
    quality_rows: int      # fixed query set behind recall / error ratio
    hier_n: int            # the E8-hierarchy index covers the first rows
    batch_rows: int        # rows per batch_plain call
    batch_calls: int       # calls per batch_plain pass (one pass = all queries)
    adaptive_rows: int     # rows per batch_adaptive operation
    adaptive_ops: int      # operations per batch_adaptive pass
    solo_ops: int          # 1-row requests per solo_inprocess pass
    quiesced_rows: int     # rows per request of serve_mixed's quality pass
    setups: Dict[str, int]  # timed set-ups per workload


FULL = Sizes(
    name="full", n_train=100_000, n_queries=8000, dim=64, corpus_seed=2012,
    quality_rows=1000, hier_n=20_000,
    # Sized on the 2-CPU reference box so a pass takes 1-2 s and a 20 s
    # window holds at least ten passes (README.md, "Time budget").
    batch_rows=2000, batch_calls=4, adaptive_rows=50, adaptive_ops=8,
    solo_ops=800, quiesced_rows=50,
    setups={"batch_plain": 6, "batch_adaptive": 3, "solo_inprocess": 6,
            "serve_mixed": 3})

SMOKE = Sizes(
    name="smoke", n_train=2000, n_queries=400, dim=64, corpus_seed=2012,
    quality_rows=100, hier_n=1000,
    batch_rows=100, batch_calls=4, adaptive_rows=20, adaptive_ops=3,
    solo_ops=100, quiesced_rows=50,
    setups={name: 1 for name in WORKLOADS})


def sizes_for(smoke: bool) -> Sizes:
    return SMOKE if smoke else FULL


# -------------------------------------------------------------- seeded order

def pass_order(seed: int, pass_index: int, n: int) -> np.ndarray:
    """The row order of one pass: a permutation of ``range(n)``.

    The same rows are used by every pass of every seed; only which row
    lands in which call changes, so quality is one number, not a draw.
    """
    rng = np.random.default_rng([int(seed), int(pass_index)])
    return rng.permutation(n)


# ------------------------------------------------------------ input cache

@dataclass(frozen=True)
class Inputs:
    """Paths and scalars of the prepared inputs (arrays load lazily)."""

    root: str
    sizes: Sizes
    reference_width: float

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def load(self, name: str) -> np.ndarray:
        return np.load(self.path(name + ".npy"))

    def width(self, multiple: float) -> float:
        return float(multiple) * self.reference_width


def _cache_key(sizes: Sizes) -> str:
    # Only what decides the cached files; pass sizes and set-up counts
    # change how they are used, not what they hold.
    rows = {name: getattr(sizes, name) for name in (
        "n_train", "n_queries", "dim", "corpus_seed", "quality_rows",
        "hier_n")}
    pinned = {
        "sizes": rows, "k": K, "seed": INDEX_SEED,
        "glm": [N_GROUPS, N_HASHES, N_TABLES],
        "widths": [WIDTH_PLAIN, WIDTH_PROBE, WIDTH_HIER, WIDTH_SERVE],
        "tail": [WAL_TAIL_INSERTS, WAL_TAIL_DELETES, TAIL_ID_BASE],
        "format": 3,
    }
    blob = json.dumps(pinned, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def plain_config(inputs: Inputs):
    from repro import BiLevelConfig

    return BiLevelConfig(n_groups=N_GROUPS, n_hashes=N_HASHES,
                         n_tables=N_TABLES, seed=INDEX_SEED,
                         bucket_width=inputs.width(WIDTH_PLAIN))


def probe_config(inputs: Inputs):
    return plain_config(inputs).with_(bucket_width=inputs.width(WIDTH_PROBE),
                                      n_probes=N_PROBES)


def hier_config(inputs: Inputs):
    return plain_config(inputs).with_(bucket_width=inputs.width(WIDTH_HIER),
                                      lattice="e8", hierarchy=True)


def serve_index(inputs: Inputs):
    from repro.lsh.index import StandardLSH

    return StandardLSH(n_hashes=N_HASHES, n_tables=N_TABLES, seed=INDEX_SEED,
                       bucket_width=inputs.width(WIDTH_SERVE))


def tail_records(sizes: Sizes, queries: np.ndarray):
    """The pinned WAL tail: (kind, ids, points) per record, in LSN order.

    Payload points come from the back of the query matrix so no timed
    read ever asks for a point that is also being inserted.
    """
    records = []
    for j in range(WAL_TAIL_INSERTS):
        ids = np.array([TAIL_ID_BASE + 2 * j, TAIL_ID_BASE + 2 * j + 1],
                       dtype=np.int64)
        lo = sizes.n_queries - 2 * (j + 1)
        records.append(("insert", ids, queries[lo:lo + 2]))
    for j in range(WAL_TAIL_DELETES):
        ids = np.array([TAIL_ID_BASE + 2 * j, TAIL_ID_BASE + 2 * j + 1],
                       dtype=np.int64)
        records.append(("delete", ids, None))
    return records


def insert_pool(sizes: Sizes, queries: np.ndarray) -> np.ndarray:
    """Rows the timed window inserts (cycled): the middle of the query
    matrix, disjoint from the quality set, the read pool and the tail."""
    lo = sizes.n_queries // 2
    hi = sizes.n_queries - 2 * WAL_TAIL_INSERTS
    return queries[lo:hi]


def read_pool_rows(sizes: Sizes) -> np.ndarray:
    """Query rows the served reads draw from (first half of the matrix)."""
    return np.arange(sizes.n_queries // 2)


def child_env() -> Dict[str, str]:
    """Environment of a child process that imports the library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cache_root(sizes: Sizes) -> str:
    return os.path.join(OUT_DIR, f"cache-{sizes.name}-{_cache_key(sizes)}")


def cached(smoke: bool = False) -> Optional[Inputs]:
    """The prepared inputs, or None when this checkout has none yet."""
    sizes = sizes_for(smoke)
    root = _cache_root(sizes)
    meta_path = os.path.join(root, "meta.json")
    if not os.path.exists(meta_path):
        return None
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    return Inputs(root, sizes, float(meta["reference_width"]))


def prepare(smoke: bool = False) -> Inputs:
    """Return the cached inputs, building them first (once per checkout)
    in a child process: brute-force ground truth peaks far above anything
    a workload allocates, and ``peak_rss_mb`` is the leg process's own.

    Untimed.  The cache holds the corpus, the query matrix, exact ground
    truth for the quality rows (against the whole corpus and against the
    first ``hier_n`` rows), the two snapshots the served workloads open,
    and the pinned WAL tail.
    """
    inputs = cached(smoke)
    if inputs is None:
        subprocess.run([sys.executable, os.path.abspath(__file__)]
                       + (["--smoke"] if smoke else []),
                       check=True, env=child_env(), stdout=sys.stderr)
        inputs = cached(smoke)
        if inputs is None:
            raise RuntimeError("the input cache was not built")
    return inputs


def _build_cache(smoke: bool) -> None:
    """Write the cache directory (atomically: built aside, then renamed)."""
    sizes = sizes_for(smoke)
    root = _cache_root(sizes)
    from repro import BiLevelLSH
    from repro.evaluation.groundtruth import brute_force_knn
    from repro.experiments.workloads import Scale, make_workload
    from repro.maintenance import WriteAheadLog
    from repro.persistence import save_index

    tmp = root + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    workload = make_workload("labelme", Scale(
        n_train=sizes.n_train, n_queries=sizes.n_queries, dim=sizes.dim,
        k=K, seed=sizes.corpus_seed))
    train, queries = workload.train, workload.queries
    inputs = Inputs(tmp, sizes, float(workload.reference_width))
    quality = queries[:sizes.quality_rows]
    np.save(inputs.path("train.npy"), train)
    np.save(inputs.path("queries.npy"), queries)
    for name, data in (("gt", train), ("gt_hier", train[:sizes.hier_n])):
        ids, dists = brute_force_knn(data, quality, K)
        np.save(inputs.path(name + "_ids.npy"), ids)
        np.save(inputs.path(name + "_dists.npy"), dists)
    save_index(BiLevelLSH(plain_config(inputs)).fit(train),
               inputs.path("plain.npz"))
    save_index(serve_index(inputs).fit(train), inputs.path("serve.npz"))
    with WriteAheadLog(inputs.path("tail.wal")) as wal:
        for kind, ids, points in tail_records(sizes, queries):
            if kind == "insert":
                wal.append_insert(points, ids)
            else:
                wal.append_delete(ids)
    with open(inputs.path("meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"reference_width": inputs.reference_width,
                   "sizes": asdict(sizes)}, fh)
    shutil.rmtree(root, ignore_errors=True)
    os.replace(tmp, root)


if __name__ == "__main__":
    _build_cache("--smoke" in sys.argv[1:])
