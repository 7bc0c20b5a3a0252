"""Index persistence: save fitted indexes to a single ``.npz`` file.

Building an index costs RP-tree construction, ``L`` hash passes and table
sorts; persisting it makes query-only deployments cheap.  Supported:
:class:`~repro.lsh.index.StandardLSH`,
:class:`~repro.core.bilevel.BiLevelLSH` and
:class:`~repro.lsh.forest.LSHForest`.

Format: one compressed ``.npz`` archive holding every array under a
path-like key (``group3/family2/directions``) plus a ``__meta__`` JSON
blob with the scalars, so no pickle is involved and files are portable
across Python versions.  Which arrays and scalars a
:class:`StandardLSH` is made of is not decided here: the archive holds
the *source* half of :meth:`StandardLSH.state`, and hash tables and
bucket hierarchies are *rebuilt* on load by :meth:`StandardLSH.from_state`
— reconstruction is deterministic and cheaper than serializing the
derived structures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zlib
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.cluster.kmeans import KMeansPartitioner
from repro.lsh.forest import LSHForest
from repro.lsh.index import StandardLSH, prefixed, sub_arrays
from repro.resilience.errors import CorruptIndexError, InjectedFault
from repro.resilience.faults import faults_active
from repro.rptree.rules import SplitResult
from repro.rptree.tree import RPTree, RPTreeNode

#: Version 2 adds per-array CRC-32 checksums to ``__meta__``; version-1
#: files (no checksums) still load, they just skip verification.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)


# ------------------------------------------------------------- standard LSH

def _standard_arrays(prefix: str, index: StandardLSH,
                     arrays: Dict[str, np.ndarray],
                     include_data: bool = True) -> dict:
    """Store ``index.state()``'s source arrays under ``prefix/``; the
    derived ones are rebuilt on load, so they are not stored."""
    scalars, source, _ = index.state()
    if not include_data:
        del source["data"]
    arrays.update(prefixed(f"{prefix}/", source))
    # Readers before the state description take each family's width
    # from here; it has only ever been the index's.
    return dict(scalars, families=[{"bucket_width": index.bucket_width}]
                * index.n_tables)


def _standard_restore(prefix: str, meta: dict, arrays,
                      data: Optional[np.ndarray] = None) -> StandardLSH:
    scalars = {key: value for key, value in meta.items()
               if key != "families"}
    source = sub_arrays(arrays, f"{prefix}/")
    if data is not None:
        source["data"] = data
    return StandardLSH.from_state(scalars, source)


# ------------------------------------------------------------------ RP-tree

def _tree_arrays(prefix: str, tree: RPTree,
                 arrays: Dict[str, np.ndarray]) -> dict:
    """Flatten the tree in preorder: per-node split data + child links."""
    nodes = []
    vectors = []
    leaf_blocks = []

    def visit(node: RPTreeNode) -> int:
        my_id = len(nodes)
        nodes.append(None)  # reserve slot
        if node.is_leaf:
            leaf_blocks.append(node.indices)
            nodes[my_id] = {
                "leaf": True,
                "leaf_index": node.leaf_index,
                "block": len(leaf_blocks) - 1,
                "depth": node.depth,
            }
        else:
            split = node.split
            vectors.append(split.direction if split.kind == "projection"
                           else split.center)
            vec_id = len(vectors) - 1
            left_id = visit(node.left)
            right_id = visit(node.right)
            nodes[my_id] = {
                "leaf": False,
                "kind": split.kind,
                "threshold": split.threshold,
                "vector": vec_id,
                "left": left_id,
                "right": right_id,
                "depth": node.depth,
            }
        return my_id

    visit(tree.root)
    arrays[f"{prefix}/vectors"] = (np.vstack(vectors) if vectors
                                   else np.zeros((0, 1)))
    sizes = [blk.size for blk in leaf_blocks]
    arrays[f"{prefix}/leaf_concat"] = (np.concatenate(leaf_blocks)
                                       if leaf_blocks
                                       else np.zeros(0, dtype=np.int64))
    arrays[f"{prefix}/leaf_sizes"] = np.asarray(sizes, dtype=np.int64)
    return {
        "partitioner": "rptree",
        "n_groups": tree.n_groups,
        "rule": tree.rule,
        "diameter_sweeps": tree.diameter_sweeps,
        "nodes": nodes,
        "dim": tree._dim,
    }


def _tree_restore(prefix: str, meta: dict, arrays) -> RPTree:
    tree = RPTree(n_groups=int(meta["n_groups"]), rule=str(meta["rule"]),
                  diameter_sweeps=int(meta["diameter_sweeps"]))
    vectors = np.asarray(arrays[f"{prefix}/vectors"])
    leaf_concat = np.asarray(arrays[f"{prefix}/leaf_concat"])
    leaf_sizes = np.asarray(arrays[f"{prefix}/leaf_sizes"])
    offsets = np.concatenate(([0], np.cumsum(leaf_sizes)))
    nodes_meta = meta["nodes"]

    def build(node_id: int) -> RPTreeNode:
        info = nodes_meta[node_id]
        if info["leaf"]:
            block = int(info["block"])
            indices = leaf_concat[offsets[block]:offsets[block + 1]]
            return RPTreeNode(indices=np.asarray(indices, dtype=np.int64),
                              leaf_index=int(info["leaf_index"]),
                              depth=int(info["depth"]))
        vec = vectors[int(info["vector"])]
        kind = str(info["kind"])
        # The stored mask is irrelevant for routing; reconstruct the split
        # with an empty placeholder mask.
        split = SplitResult(kind=kind,
                            left_mask=np.zeros(0, dtype=bool),
                            threshold=float(info["threshold"]),
                            direction=vec if kind == "projection" else None,
                            center=vec if kind == "distance" else None)
        node = RPTreeNode(split=split, depth=int(info["depth"]))
        node.left = build(int(info["left"]))
        node.right = build(int(info["right"]))
        return node

    tree.root = build(0)
    tree._dim = int(meta["dim"])
    tree.leaves = []
    tree._collect_leaves(tree.root)
    tree.leaves.sort(key=lambda leaf: leaf.leaf_index)
    return tree


def _kmeans_arrays(prefix: str, part: KMeansPartitioner,
                   arrays: Dict[str, np.ndarray]) -> dict:
    part._check_fitted()
    arrays[f"{prefix}/centers"] = part._center_subset
    blocks = part.leaf_indices()
    arrays[f"{prefix}/leaf_concat"] = np.concatenate(blocks)
    arrays[f"{prefix}/leaf_sizes"] = np.asarray([b.size for b in blocks],
                                                dtype=np.int64)
    return {"partitioner": "kmeans", "n_groups": part.n_groups}


def _kmeans_restore(prefix: str, meta: dict, arrays) -> KMeansPartitioner:
    part = KMeansPartitioner(n_groups=int(meta["n_groups"]))
    part._center_subset = np.asarray(arrays[f"{prefix}/centers"])
    leaf_concat = np.asarray(arrays[f"{prefix}/leaf_concat"])
    leaf_sizes = np.asarray(arrays[f"{prefix}/leaf_sizes"])
    offsets = np.concatenate(([0], np.cumsum(leaf_sizes)))
    part._leaf_indices = [
        np.asarray(leaf_concat[offsets[i]:offsets[i + 1]], dtype=np.int64)
        for i in range(leaf_sizes.size)
    ]
    return part


# ------------------------------------------------------------------ bilevel

def _bilevel_arrays(index: BiLevelLSH, arrays: Dict[str, np.ndarray]) -> dict:
    index._check_fitted()
    meta = {
        "config": dataclasses.asdict(index.config),
        "group_widths": list(index.group_widths),
    }
    arrays["data"] = index._data
    if isinstance(index.partitioner, RPTree):
        meta["tree"] = _tree_arrays("tree", index.partitioner, arrays)
    else:
        meta["tree"] = _kmeans_arrays("tree", index.partitioner, arrays)
    meta["groups"] = [
        _standard_arrays(f"group{g}", sub, arrays, include_data=False)
        for g, sub in enumerate(index.group_indexes)
    ]
    return meta


def _bilevel_restore(meta: dict, arrays) -> BiLevelLSH:
    cfg = BiLevelConfig(**meta["config"])
    index = BiLevelLSH(cfg)
    index._data = np.asarray(arrays["data"])
    if meta["tree"]["partitioner"] == "rptree":
        index.partitioner = _tree_restore("tree", meta["tree"], arrays)
    else:
        index.partitioner = _kmeans_restore("tree", meta["tree"], arrays)
    index.group_widths = [float(w) for w in meta["group_widths"]]
    index.group_indexes = []
    for g, group_meta in enumerate(meta["groups"]):
        index.group_indexes.append(_standard_restore(
            f"group{g}", group_meta, arrays,
            data=index._data[arrays[f"group{g}/ids"]]))
    return index


# ------------------------------------------------------------------- forest

def _forest_arrays(index: LSHForest, arrays: Dict[str, np.ndarray]) -> dict:
    index._check_fitted()
    arrays["data"] = index._data
    arrays["ids"] = index._ids
    arrays["center"] = index._center
    for t, directions in enumerate(index._directions):
        arrays[f"tree{t}/directions"] = directions
    return {
        "n_trees": index.n_trees,
        "max_depth": index.max_depth,
        "candidate_target": index.candidate_target,
    }


def _forest_restore(meta: dict, arrays) -> LSHForest:
    forest = LSHForest(n_trees=int(meta["n_trees"]),
                       max_depth=int(meta["max_depth"]),
                       candidate_target=int(meta["candidate_target"]))
    forest._data = np.asarray(arrays["data"])
    forest._ids = np.asarray(arrays["ids"])
    forest._center = np.asarray(arrays["center"])
    forest._directions = []
    forest._sorted_codes = []
    forest._sorted_rows = []
    for t in range(forest.n_trees):
        directions = np.asarray(arrays[f"tree{t}/directions"])
        codes = forest._encode(forest._data, directions)
        order = np.argsort(codes, kind="stable")
        forest._directions.append(directions)
        forest._sorted_codes.append(codes[order])
        forest._sorted_rows.append(order.astype(np.int64))
    return forest


# ----------------------------------------------------------- integrity layer

def _crc32(arr: np.ndarray) -> int:
    """CRC-32 of a C-contiguous array's bytes, read in place.

    ``tobytes()`` would copy the array first — for the point matrix that
    is a transient the size of the corpus on every save and load."""
    return int(zlib.crc32(arr.reshape(-1).view(np.uint8)))


def _array_checksums(arrays: Dict[str, np.ndarray],
                     ) -> Dict[str, Dict[str, object]]:
    """CRC-32 + dtype + shape per archive entry (stored in ``__meta__``)."""
    out: Dict[str, Dict[str, object]] = {}
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        out[key] = {
            "crc32": _crc32(arr),
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
        }
    return out


def _verify_arrays(path: str, meta: dict,
                   arrays: Dict[str, np.ndarray]) -> int:
    """Check every stored array against its recorded checksum.

    Raises :class:`CorruptIndexError` naming the first bad entry (keys
    are checked in sorted order, so the error is deterministic); returns
    the number of entries verified.  Version-1 files carry no checksums
    and verify vacuously (returns 0).
    """
    checks = meta.get("checksums")
    if not checks:
        return 0
    for key in sorted(checks):
        info = checks[key]
        if key not in arrays:
            raise CorruptIndexError(path, key, "is missing from the archive")
        arr = np.ascontiguousarray(arrays[key])
        if str(arr.dtype) != str(info["dtype"]):
            raise CorruptIndexError(
                path, key,
                f"has dtype {arr.dtype}, expected {info['dtype']}")
        if list(arr.shape) != [int(s) for s in info["shape"]]:
            raise CorruptIndexError(
                path, key,
                f"has shape {list(arr.shape)}, expected "
                f"{list(info['shape'])}")
        crc = _crc32(arr)
        if crc != int(info["crc32"]):
            raise CorruptIndexError(
                path, key,
                f"failed its checksum (crc32 {crc:#010x}, expected "
                f"{int(info['crc32']):#010x})")
    return len(checks)


def _inject_load_corruption(meta: dict,
                            arrays: Dict[str, np.ndarray]) -> None:
    """Flip one byte of the first checksummed array (fault injection).

    Models a bad sector / torn read discovered *after* the OS handed us
    bytes; :func:`_verify_arrays` must catch it and name the entry.
    """
    checks = meta.get("checksums") or {}
    for key in sorted(checks):
        arr = arrays.get(key)
        if arr is None or arr.size == 0:
            continue
        raw = bytearray(np.ascontiguousarray(arr).tobytes())
        raw[0] ^= 0xFF
        # Buffer ownership: frombuffer over an immutable ``bytes`` object
        # is safe to return — the view's ``.base`` keeps those bytes
        # alive for the view's whole lifetime (unlike a buffer closed
        # from outside, e.g. shared memory, whose views must die first).
        arrays[key] = np.frombuffer(bytes(raw),
                                    dtype=arr.dtype).reshape(arr.shape)
        return


def _read_archive(path: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read ``__meta__`` + arrays, enforce version, apply load faults."""
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["__meta__"].tobytes()).decode("utf-8"))
        if meta.get("version") not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported index file version {meta.get('version')!r}")
        # Buffer ownership: npz entries decompress into fresh arrays
        # that own their data, so they may outlive the closed archive.
        # (A mmap-backed load would NOT survive this block — regression
        # test: test_persistence.py::test_loaded_arrays_own_their_data.)
        arrays = {key: archive[key] for key in archive.files
                  if key != "__meta__"}
    plan = faults_active()
    if plan is not None and plan.check("persistence.load", path=str(path)):
        _inject_load_corruption(meta, arrays)
    return meta, arrays


# --------------------------------------------------------------- public API

def save_index(index: Union[StandardLSH, BiLevelLSH, LSHForest],
               path: str) -> int:
    """Persist a fitted index to ``path`` (a ``.npz`` archive).

    The write is crash-safe: the archive is assembled in a ``.tmp``
    sibling (flushed and fsynced) and moved over ``path`` with
    :func:`os.replace`, so a crash mid-save leaves the previous good
    index untouched instead of a truncated file.  Every array's CRC-32
    checksum is recorded in ``__meta__`` for load-time verification.

    Assembly runs under the index's writer lock (when it has one), so a
    save racing live inserts/deletes — or a background compaction —
    captures a consistent ``(snapshot, wal_lsn)`` pair: the recorded LSN
    covers exactly the mutations visible in the captured arrays, which
    is what makes WAL-tail replay after recovery idempotent.  Mutations
    publish fresh arrays (or a longer prefix, leaving the captured rows
    untouched) instead of writing in place, so the captured
    references stay frozen while compression runs off-lock.

    Returns the ``wal_lsn`` recorded in ``__meta__`` (0 for indexes
    without a WAL position).  Checkpoints must truncate the WAL against
    *this* value — re-reading ``index._applied_lsn`` after the save
    returns races concurrent mutations that landed while compression
    ran off-lock, and truncating against the newer LSN would drop their
    WAL records from a snapshot that does not contain them.
    """
    arrays: Dict[str, np.ndarray] = {}
    lock = getattr(index, "_update_lock", None)
    with lock if lock is not None else contextlib.nullcontext():
        if isinstance(index, BiLevelLSH):
            meta = {"type": "bilevel", "body": _bilevel_arrays(index, arrays)}
        elif isinstance(index, StandardLSH):
            meta = {"type": "standard",
                    "body": _standard_arrays("index", index, arrays)}
        elif isinstance(index, LSHForest):
            meta = {"type": "forest", "body": _forest_arrays(index, arrays)}
        else:
            raise TypeError(f"cannot persist index of type {type(index)!r}")
        meta["wal_lsn"] = int(getattr(index, "_applied_lsn", 0))
    meta["version"] = FORMAT_VERSION
    meta["checksums"] = _array_checksums(arrays)
    # ``np.savez_compressed`` appends ``.npz`` to string paths but not to
    # file objects; normalize first so the atomic rename targets the same
    # name the old direct-write path produced.
    final = str(path)
    if not final.endswith(".npz"):
        final += ".npz"
    tmp = final + ".tmp"
    plan = faults_active()
    try:
        with open(tmp, "wb") as fh:
            # Buffer ownership: the uint8 view over the encoded-JSON
            # ``bytes`` holds its buffer via ``.base`` and is consumed
            # (copied into the archive) before this statement returns —
            # no view escapes the owning object's lifetime.
            np.savez_compressed(fh, __meta__=np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        if plan is not None and plan.check("persistence.save", path=final):
            # The site models a crash between write and publish; the
            # corruption kind has no checked reader here, so both kinds
            # surface as the injected crash.
            raise InjectedFault("persistence.save",
                                "crash before rename")
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return int(meta["wal_lsn"])


def load_index(path: str) -> Union[StandardLSH, BiLevelLSH, LSHForest]:
    """Load an index previously written by :func:`save_index`.

    Version-2 archives are verified entry-by-entry against the stored
    checksums before any structure is rebuilt; a mismatch raises
    :class:`~repro.resilience.errors.CorruptIndexError` naming the bad
    key instead of silently rebuilding from garbage.
    """
    meta, arrays = _read_archive(str(path))
    _verify_arrays(str(path), meta, arrays)
    kind = meta["type"]
    if kind == "bilevel":
        index = _bilevel_restore(meta["body"], arrays)
    elif kind == "standard":
        index = _standard_restore("index", meta["body"], arrays)
    elif kind == "forest":
        index = _forest_restore(meta["body"], arrays)
    else:
        raise ValueError(f"unknown index type {kind!r} in {path}")
    # The snapshot's WAL position (0 for pre-maintenance archives): the
    # recovery path replays only records beyond it.
    if hasattr(index, "_applied_lsn"):
        index._applied_lsn = int(meta.get("wal_lsn", 0))
    return index


def verify_index(path: str) -> Dict[str, object]:
    """Verify ``path``'s integrity without rebuilding the index.

    Returns a report dict (version, index type, entries verified);
    raises :class:`~repro.resilience.errors.CorruptIndexError` on the
    first bad entry and ``ValueError`` for unsupported versions.
    """
    meta, arrays = _read_archive(str(path))
    n_verified = _verify_arrays(str(path), meta, arrays)
    return {
        "path": str(path),
        "version": int(meta["version"]),
        "type": str(meta.get("type", "unknown")),
        "n_arrays": len(arrays),
        "n_verified": n_verified,
        "checksummed": bool(meta.get("checksums")),
    }
