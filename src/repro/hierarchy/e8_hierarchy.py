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
comparing node sizes (``end - start``) — the ``hierarchy_walk`` kernel —
and settles on one node: one span of the id array.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.lattice.e8 import E8Lattice
from repro.lsh.table import LSHTable, SortedLayout
from repro.native.registry import NUMPY_KERNELS, load_kernels


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
    ``words`` is what the compiled walk reads, built once here: the int64
    words ``(code width, n_levels, settled, ids address, len(ids))``, then
    per level ``(codes address, n_nodes, starts address, ends address)``.
    """

    #: ``repro_escalation_depth`` label of the levels its walk climbs.
    depth_label = "e8"

    def __init__(self, table: LSHTable, lattice: E8Lattice,
                 max_levels: int = 24):
        if max_levels <= 0:
            raise ValueError(f"max_levels must be positive, got {max_levels}")
        if not isinstance(lattice, E8Lattice):
            raise ValueError(f"needs an E8 lattice, got {lattice!r}")
        self.table = table
        self.lattice = lattice
        kernels = load_kernels()
        codes = table.bucket_codes
        # Level 0 is the table's own (sorted, distinct) bucket codes.
        self.level_codes: List[np.ndarray] = [codes]
        groups = [np.arange(codes.shape[0], dtype=np.int64)]  # bucket -> node
        # First level whose nodes all sit at fixed points of Eq. (10): from
        # there on codes only double (no decode needed), nodes never merge.
        self.settled = max_levels
        while len(groups) < max_levels and self.level_codes[-1].shape[0] > 1:
            nodes, group = self.level_codes[-1], groups[-1]
            uniq = 2 * nodes
            if self.settled == max_levels:
                # Nesting: level k + 1 is a function of level k's node
                # codes alone — E8Lattice.ancestor_chain's step, per node.
                k = len(groups) - 1
                parents = kernels.e8_decode(nodes / float(2 ** (k + 2))) * 2 ** (k + 1)
                # The distinct parents, sorted as a table sorts its codes.
                by_parent = SortedLayout.sort(parents, np.arange(len(nodes)))
                uniq = by_parent.bucket_codes
                inverse = np.empty_like(by_parent.sorted_ids)
                inverse[by_parent.sorted_ids] = np.repeat(np.arange(
                    len(uniq)), by_parent.ends - by_parent.starts)
                group = inverse[group]
                if np.array_equal(uniq, 2 * nodes):
                    self.settled = len(groups) - 1
            self.level_codes.append(uniq)
            groups.append(group)
        self.n_levels = len(groups)
        # Tree order: coarsest node first, bucket index last — every node
        # of every level is then one run of consecutive buckets.  Levels
        # from the settled one on group buckets alike: one sort key and one
        # pair of run arrays serve them all.
        groups = groups[:self.settled + 1]
        order = np.lexsort(groups)
        sizes = table.bucket_sizes()[order]
        self.ids = LSHTable._gather_segments(table.sorted_ids,
                                             table._starts[order], sizes)
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        runs = [np.unique(group[order], return_index=True, return_counts=True)
                for group in groups]
        self.level_starts = [offsets[head] for _, head, _ in runs]
        self.level_ends = [offsets[head + length] for _, head, length in runs]
        for bounds in (self.level_starts, self.level_ends):
            bounds += bounds[-1:] * (self.n_levels - len(runs))
        levels = [[codes.ctypes.data, codes.shape[0], starts.ctypes.data,
                   ends.ctypes.data] for codes, starts, ends in zip(
                       self.level_codes, self.level_starts, self.level_ends)]
        self.words = np.array(
            [lattice.code_dim, self.n_levels, self.settled,
             self.ids.ctypes.data, self.ids.shape[0]]
            + [word for level in levels for word in level], dtype=np.int64)

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

    @staticmethod
    def walk(hierarchies: Sequence["E8Hierarchy"], codes: np.ndarray,
             min_count: int, kernels: object = NUMPY_KERNELS,
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(start, size, depth)``, each ``(L, n)``: the node of ``ids``
        each row of the ``(L, n, code_dim)`` ``codes`` escalates to in its
        table's hierarchy — one ``kernels.hierarchy_walk`` for all ``L``
        (spec: :func:`repro.native.ref.hierarchy_walk_ref`)."""
        return kernels.hierarchy_walk(hierarchies, codes, min_count)

    def candidates(self, code: np.ndarray, min_count: int) -> np.ndarray:
        """The ids :meth:`walk` escalates ``code`` to, ascending."""
        start, size, _ = self.walk([self], np.atleast_2d(code)[None],
                                   min_count)
        return np.sort(LSHTable._gather_segments(self.ids, start[0], size[0]))

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
