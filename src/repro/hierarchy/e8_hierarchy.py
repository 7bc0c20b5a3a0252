"""Scaled-lattice hierarchy over ``E8`` LSH buckets.

Morton curves need an orthogonal lattice, so the paper instead exploits the
*scaling* property of ``E8`` (an integer scaling of ``E8`` is still an
``E8`` lattice): the ``k``-th ancestor of a code is obtained by ``k``
applications of ``c -> 2 * DECODE(c / 2)`` (Eq. (10)).  The structure is
"a linear array along with an index hierarchy" (Section IV-B.2b):

1. start from the distinct level-0 bucket codes;
2. repeatedly map every bucket to its next ancestor, grouping buckets whose
   ancestor codes coincide, until a level where all buckets share one code
   (or a configured cap is reached);
3. ancestors nest (``code_{k+1}`` is a function of ``code_k``), so ordering
   the buckets by (coarsest group, ..., finest group) makes every node of
   every level one contiguous run of a single point-id array; a level is
   its sorted distinct ancestor codes plus ``(start, end)`` bounds into it.

A query walks up from level 0 through the nodes matching its ancestor code,
comparing node sizes (``end - start``), and gathers ids once, as a slice.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.lattice.base import Lattice
from repro.lsh.table import LSHTable
from repro.native.registry import NUMPY_KERNELS


class E8Hierarchy:
    """Ancestor hierarchy over the buckets of one ``E8`` :class:`LSHTable`.

    ``table`` is the table whose buckets to organize, ``lattice`` the
    :class:`~repro.lattice.e8.E8Lattice` that produced its codes (it
    provides the ancestor map) and ``max_levels`` a cap on the number of
    ancestor applications: the paper's construction stops when all buckets
    merge, but codes that reach a fixed point of Eq. (10) never do.

    ``ids`` holds the table's point ids in tree order; per level,
    ``level_codes`` are the sorted distinct ancestor codes and
    ``level_starts`` / ``level_ends`` each node's run inside ``ids``.
    """

    def __init__(self, table: LSHTable, lattice: Lattice, max_levels: int = 24):
        if max_levels <= 0:
            raise ValueError(f"max_levels must be positive, got {max_levels}")
        self.table = table
        self.lattice = lattice
        codes = table.bucket_codes
        # Level 0 is the table's own (sorted, distinct) bucket codes.
        self.level_codes: List[np.ndarray] = [codes]
        groups = [np.arange(codes.shape[0], dtype=np.int64)]  # bucket -> node
        chain = lattice.ancestor_chain(codes, max_levels)
        next(chain)
        # First level whose nodes all sit at fixed points of Eq. (10): from
        # there on codes only double (no decode needed), nodes never merge.
        self._settled = max_levels
        while len(groups) < max_levels and self.level_codes[-1].shape[0] > 1:
            uniq, group = 2 * self.level_codes[-1], groups[-1]
            if self._settled == max_levels:
                # Nesting: a node's ancestor is its first bucket's ancestor.
                first = np.unique(group, return_index=True)[1]
                uniq, inverse = np.unique(next(chain)[1][first], axis=0,
                                          return_inverse=True)
                group = inverse.ravel()[group]
                if np.array_equal(uniq, 2 * self.level_codes[-1]):
                    self._settled = len(groups) - 1
            self.level_codes.append(uniq)
            groups.append(group)
        self.n_levels = len(groups)
        # Tree order: coarsest node first, bucket index last — every node
        # of every level is then one run of consecutive buckets.
        order = np.lexsort(groups)
        sizes = table.bucket_sizes()[order]
        self.ids = LSHTable._gather_segments(table.sorted_ids,
                                             table._starts[order], sizes)
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        runs = [np.unique(group[order], return_index=True, return_counts=True)
                for group in groups]
        self.level_starts = [offsets[head] for _, head, _ in runs]
        self.level_ends = [offsets[head + length] for _, head, length in runs]

    def ids_at_level(self, code: np.ndarray, level: int) -> Optional[np.ndarray]:
        """Point ids under the node matching ``code``'s ancestor at ``level``.

        Returns ``None`` when no bucket shares that ancestor.
        """
        if not 0 <= level < self.n_levels:
            raise ValueError(f"level must be in [0, {self.n_levels}), got {level}")
        node = int(NUMPY_KERNELS.lookup_codes(
            self.level_codes[level], self.lattice.ancestor(code, level))[0])
        if node < 0:
            return None
        return self.ids[self.level_starts[level][node]:
                        self.level_ends[level][node]]

    def candidates_batch(self, codes: np.ndarray, min_count: int,
                         kernels: object = NUMPY_KERNELS,
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ids for every code row, flattened: ``(ids, counts)``.

        All rows climb one level per decode pass and batched node lookup.
        A row settles on the first matching ancestor node holding at least
        ``min_count`` points, else on the first largest matching node
        (none, ``counts == 0``, when its ancestors never meet a populated
        branch).  Decode and node lookup go through ``kernels`` — the
        query plan passes the table that loaded, the one-row methods and
        the build keep the numpy one — with identical results.
        """
        codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
        size = np.zeros(codes.shape[0], dtype=np.int64)
        start = np.zeros_like(size)
        depth = np.zeros_like(size)
        todo = np.arange(codes.shape[0], dtype=np.int64)
        for level, anc in self.lattice.ancestor_chain(codes, self.n_levels,
                                                      kernels):
            # Node index per ancestor-code row, -1 where absent.
            node = kernels.lookup_codes(self.level_codes[level], anc[todo])
            hit = node >= 0
            rows, node = todo[hit], node[hit]
            found = self.level_ends[level][node] - self.level_starts[level][node]
            grew = found > size[rows]
            rows, node = rows[grew], node[grew]
            size[rows] = found[grew]
            start[rows] = self.level_starts[level][node]
            depth[rows] = level
            climbing = size[todo] < min_count
            if level >= self._settled:
                # Nodes only double from here: a row that has matched keeps
                # its node, one whose own code only doubles never will.
                climbing &= ~hit
                if level:
                    climbing &= (anc[todo] != 2 * below[todo]).any(axis=1)
            todo, below = todo[climbing], anc
            if not todo.size:
                break
        ob = obs.active()
        if ob is not None:
            ob.record_escalation_depth("e8", depth)
        return LSHTable._gather_segments(self.ids, start, size), size

    def candidates(self, code: np.ndarray, min_count: int) -> np.ndarray:
        """One row of :meth:`candidates_batch`, ids ascending."""
        return np.sort(self.candidates_batch(code, min_count)[0])

    def deepest_match(self, code: np.ndarray) -> Optional[int]:
        """The smallest level at which ``code``'s ancestor is populated.

        This mirrors the paper's recursive traversal: descend while a child
        with the query's code exists; the returned level is where the
        descent stops (``None`` if even the coarsest built level misses).
        """
        matches = [NUMPY_KERNELS.lookup_codes(self.level_codes[level],
                                              anc)[0] >= 0 for level, anc
                   in self.lattice.ancestor_chain(code, self.n_levels)]
        found = None
        for level in reversed(range(self.n_levels)):
            if not matches[level]:
                break
            found = level
        return found
