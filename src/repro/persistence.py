"""Index persistence: one ``.npz`` archive per fitted index.

Supported: :class:`~repro.lsh.index.StandardLSH` and
:class:`~repro.core.bilevel.BiLevelLSH`.  The archive holds every array
under a path-like key (``group3/family2/directions``), written
uncompressed, plus a ``__meta__`` JSON blob with the scalars and a
CRC-32 / dtype / shape entry per array, so no pickle is involved.  It
holds :meth:`StandardLSH.state` whole: the source arrays and, under
``.../derived/``, every table's sorted layout — the paper's "linear
array along with an indexing table" (Section V-A) — which load adopts
after O(buckets) checks instead of sorting again (version 3's, in
lexicographic order, re-sorted first); ``E8`` hierarchies are rebuilt.
Versions 1 and 2 hold no layouts: their tables are rebuilt.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.bilevel import BiLevelLSH, grouped_store
from repro.core.config import BiLevelConfig
from repro.cluster.kmeans import KMeansPartitioner
from repro.lsh.index import (RowStore, StandardLSH, drop_retired_options,
                             prefixed, sub_arrays)
from repro.lsh.table import SortedLayout, sort_runs
from repro.resilience.errors import CorruptIndexError, InjectedFault
from repro.resilience.faults import faults_active
from repro.rptree.rules import SplitResult
from repro.rptree.tree import RPTree, RPTreeNode

#: Version 2 adds per-array CRC-32 checksums to ``__meta__`` (version-1
#: files skip verification); version 3 stores the table layouts and
#: Bi-level's row store as it stands, uncompressed; version 4 stores the
#: layouts in Morton order.
FORMAT_VERSION = 4
SUPPORTED_VERSIONS = (1, 2, 3, 4)


# ------------------------------------------------------------- standard LSH

def _standard_arrays(prefix: str, index: StandardLSH,
                     arrays: Dict[str, np.ndarray]) -> dict:
    """Store ``index.state()`` under ``prefix/``, its derived half under
    ``prefix/derived/``."""
    scalars, source, derived = index.state()
    arrays.update(prefixed(f"{prefix}/", source))
    arrays.update(prefixed(f"{prefix}/derived/", derived))
    # Readers before the state description take each family's width
    # from here; it has only ever been the index's.
    return dict(scalars, families=[{"bucket_width": index.bucket_width}]
                * index.n_tables)


def _standard_restore(path: str, prefix: str, meta: dict, arrays,
                      store: Optional[RowStore] = None,
                      rows: Optional[np.ndarray] = None) -> StandardLSH:
    """The index under ``prefix/`` (a Bi-level group's ``rows`` given
    when a version-1/2 archive was regrouped).  A stored table layout is
    adopted only if :meth:`SortedLayout.flaw` finds nothing a rebuild
    would have guaranteed broken: checksums catch damage, not a layout
    written wrong."""
    scalars = {key: value for key, value in meta.items()
               if key != "families"}
    source = sub_arrays(arrays, f"{prefix}/")
    derived = sub_arrays(source, "derived/")
    if rows is not None:
        source["rows"] = rows
    n_rows = source["data"].shape[0] if store is None else store.n_rows
    for t in range(int(scalars["n_tables"])):
        layout = sub_arrays(derived, f"table{t}/")
        try:
            flaw = layout and SortedLayout.flaw(n_rows, **layout)
        except (TypeError, ValueError) as error:
            flaw = ("", str(error))
        if flaw:
            raise CorruptIndexError(path, f"{prefix}/derived/table{t}/"
                                    + flaw[0], flaw[1])
    return StandardLSH.from_state(scalars, source, derived, store=store)


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
    # The store as it stands: a group's layouts name its rows.
    arrays["data"], arrays["ids"] = index._store.data, index._store.ids
    if isinstance(index.partitioner, RPTree):
        meta["tree"] = _tree_arrays("tree", index.partitioner, arrays)
    else:
        meta["tree"] = _kmeans_arrays("tree", index.partitioner, arrays)
    meta["groups"] = [
        _standard_arrays(f"group{g}", sub, arrays)
        for g, sub in enumerate(index.group_indexes)
    ]
    return meta


def _bilevel_restore(path: str, meta: dict, arrays) -> BiLevelLSH:
    known = {field.name for field in dataclasses.fields(BiLevelConfig)}
    config = drop_retired_options(meta["config"])
    index = BiLevelLSH(BiLevelConfig(**{  # an inert retired key is ignored
        key: value for key, value in config.items() if key in known}))
    if meta["tree"]["partitioner"] == "rptree":
        index.partitioner = _tree_restore("tree", meta["tree"], arrays)
    else:
        index.partitioner = _kmeans_restore("tree", meta["tree"], arrays)
    index.group_widths = [float(w) for w in meta["group_widths"]]
    rows = [None] * len(meta["groups"])
    if "ids" in arrays:  # the store as it stood: adopted, not regrouped
        index._store = RowStore(arrays["data"], arrays["ids"])
    else:  # versions 1-2: rows in id order, each group's ids
        index._store, rows = grouped_store(np.asarray(arrays["data"]), [
            arrays[f"group{g}/ids"] for g in range(len(rows))])
    index.group_indexes = [
        _standard_restore(path, f"group{g}", group_meta, arrays,
                          store=index._store, rows=rows[g])
        for g, group_meta in enumerate(meta["groups"])]
    return index


# ----------------------------------------------------------- integrity layer

def _crc32(arr: np.ndarray) -> int:
    """CRC-32 of a C-contiguous array's bytes, read in place
    (``tobytes()`` would copy the corpus on every save and load)."""
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
    """Flip one byte of the first checksummed array (fault injection): a
    bad sector :func:`_verify_arrays` must catch and name."""
    checks = meta.get("checksums") or {}
    for key in sorted(checks):
        arr = arrays.get(key)
        if arr is None or arr.size == 0:
            continue
        raw = bytearray(np.ascontiguousarray(arr).tobytes())
        raw[0] ^= 0xFF
        # Buffer ownership: the view's ``.base`` keeps the immutable
        # ``bytes`` alive for as long as the view lives.
        arrays[key] = np.frombuffer(bytes(raw),
                                    dtype=arr.dtype).reshape(arr.shape)
        return


def _resort_layouts(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """Re-sort each lexicographic table layout of a version-3 archive along
    the Morton curve from its own row codes; :meth:`SortedLayout.flaw` checks it."""
    names = ("bucket_codes", "starts", "ends", "sorted_ids")
    for key in [key for key in arrays if key.endswith("/bucket_codes")]:
        prefix = key[:-len(names[0])]
        codes, starts, ends, ids = (arrays[prefix + name] for name in names)
        rows = np.repeat(codes, ends - starts, axis=0)
        if rows.shape[0] != ids.shape[0]:
            raise CorruptIndexError(path, prefix + "ends", "does not tile "
                                    f"the {ids.shape[0]} sorted ids")
        arrays.update(zip([prefix + n for n in names], sort_runs(rows, ids)))


def _read_archive(path: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read ``__meta__`` + arrays, enforce version, apply load faults."""
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["__meta__"].tobytes()).decode("utf-8"))
        if meta.get("version") not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported index file version {meta.get('version')!r}")
        # Buffer ownership: npz entries are read into fresh arrays
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

def save_index(index: Union[StandardLSH, BiLevelLSH], path: str) -> int:
    """Persist a fitted index to ``path`` (a ``.npz`` archive).

    The write is crash-safe: the archive is assembled in a ``.tmp``
    sibling (flushed and fsynced) and moved over ``path`` with
    :func:`os.replace`, so a crash mid-save leaves the previous good
    index untouched instead of a truncated file.  Every array's CRC-32
    checksum is recorded in ``__meta__`` for load-time verification.

    Assembly runs under the index's writer lock, so the archive holds
    a consistent ``(snapshot, wal_lsn)`` pair; writers never rewrite
    what a captured array covers, so the write itself runs off-lock.
    Returns that ``wal_lsn`` (0 for an index that never logged a
    mutation): a checkpoint truncates the WAL against it, not against
    ``index._applied_lsn``, which a mutation may have moved meanwhile.
    """
    if not isinstance(index, (StandardLSH, BiLevelLSH)):
        raise TypeError(f"cannot persist index of type {type(index)!r}")
    arrays: Dict[str, np.ndarray] = {}
    with index._update_lock:
        if isinstance(index, BiLevelLSH):
            meta = {"type": "bilevel", "body": _bilevel_arrays(index, arrays)}
        else:
            meta = {"type": "standard",
                    "body": _standard_arrays("index", index, arrays)}
        meta["wal_lsn"] = int(index._applied_lsn)
    meta["version"] = FORMAT_VERSION
    meta["checksums"] = _array_checksums(arrays)
    # ``np.savez`` appends ``.npz`` to string paths but not to file
    # objects; normalize first so the rename targets that name.
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
            np.savez(fh, __meta__=np.frombuffer(
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


def load_index(path: str) -> Union[StandardLSH, BiLevelLSH]:
    """Load an index previously written by :func:`save_index`.

    Entries are verified against their stored checksums (version 2 on)
    and stored table layouts checked before they are adopted; either
    failure raises :class:`~repro.resilience.errors.CorruptIndexError`
    naming the bad key instead of answering from garbage.
    """
    meta, arrays = _read_archive(str(path))
    _verify_arrays(str(path), meta, arrays)
    if meta["version"] == 3:
        _resort_layouts(str(path), arrays)
    kind = meta["type"]
    if kind == "bilevel":
        index = _bilevel_restore(str(path), meta["body"], arrays)
    elif kind == "standard":
        index = _standard_restore(str(path), "index", meta["body"], arrays)
    else:
        raise ValueError(f"unknown index type {kind!r} in {path}")
    # The snapshot's WAL position (0 for pre-maintenance archives): the
    # recovery path replays only records beyond it.
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
