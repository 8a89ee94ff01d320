"""numpy's float64 sum of an array that arrives in chunks, to np.sum's bits.

hodge's adjointness check forms its two pairings one slab of planes at a
time and never holds either whole, and `hodge.integral` expands its
broadcast integrand one slab at a time; `PairwiseSum` adds up the slabs
as they come.  It is a module of its own because each start compiles the
modules it imports where no bytecode is cached, and a hodge module that
grew by this class raised the peak resident size of a hodge-check
process by about 0.4 MB.
"""
import numpy as np


# Most elements numpy's pairwise float64 sum adds in one leaf of its tree.
_LEAF = 128


class PairwiseSum:
    """np.sum of a float64 array of n elements, fed to `add` in consecutive
    chunks.

    np.sum of a contiguous array is 0.0 plus a fixed tree over it: a run
    of more than `_LEAF` elements splits at n2 = n//2 - (n//2) % 8 into
    two runs summed apart and then added, and a leaf, a run of at most
    `_LEAF`, is summed with 8 accumulators.  A run's tree depends only on
    its length, so np.add.reduce of a run of the tree gives that run's
    value, up to the sign of a zero, on which neither a nonzero sum nor
    the final 0.0 + tree depends.  `add` so walks the tree from its root
    into the runs a chunk cuts, reduces every run the chunk holds whole in
    one call, keeps a finished run's value until its sibling is finished,
    and gathers a leaf a chunk end cuts in a carry buffer until it is
    whole: a few dozen calls per chunk, and no copy of the array.
    """

    def __init__(self, n: int):
        self._n = n
        self._pos = 0  # elements added
        # the values of finished runs, by (start, length), whose sibling is
        # not finished yet
        self._done = {}
        self._carry = np.empty(_LEAF)

    def add(self, chunk: np.ndarray) -> None:
        """Take the next len(chunk) elements, a 1-d chunk."""
        pos = self._pos
        self._pos += len(chunk)
        root = self._visit(0, self._n, chunk, pos)
        if root is not None:
            self._done[0, self._n] = root

    def total(self) -> float:
        """The sum, once all n elements have been added."""
        return 0.0 + self._done.pop((0, self._n))

    def _visit(self, start: int, size: int, chunk: np.ndarray, pos: int):
        """The value of the run of `size` elements from `start`, which the
        chunk from element pos on reaches, if the chunk finishes it; else
        None, with the values of its finished parts kept."""
        end = pos + len(chunk)
        if pos <= start and start + size <= end:
            return float(np.add.reduce(chunk[start - pos:start - pos + size]))
        if size <= _LEAF:
            lo, hi = max(start, pos), min(start + size, end)
            self._carry[lo - start:hi - start] = chunk[lo - pos:hi - pos]
            return float(np.add.reduce(self._carry[:size])) if hi == start + size else None
        n2 = size // 2 - size // 2 % 8
        head = self._done.pop((start, n2), None)  # finished by an earlier chunk
        if head is None:
            head = self._visit(start, n2, chunk, pos)
        tail = None
        if start + n2 < end:
            tail = self._visit(start + n2, size - n2, chunk, pos)
        if head is not None and tail is not None:
            return head + tail
        if head is not None:
            self._done[start, n2] = head
        return None
