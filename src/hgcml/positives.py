"""Pre-processing positive sampler.

Topology positives come from Personalized PageRank diffusion aggregated
over metapath views; semantic positives from negative euclidean feature
distance; the per-anchor positive set is their union plus the anchor
itself. Sets are computed once, before training, and serialized to
positives.tsv so training runs never resample them. From the selection
to the node-node loss they are held as CSR arrays; no mask is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .hin import ID, IDS, MalformedRecord, MetapathView, _read_rows
from .io import atomic_open
from .numerics import ShapeMismatch

if TYPE_CHECKING:
    import scipy.sparse as sp


class KTooLarge(ValueError):
    """Requested top-k does not fit the number of candidate nodes."""


class NonConvergenceWarning(RuntimeWarning):
    """PPR series hit max_iter before the term dropped below tol."""


# The series multiplies by the sparse transition while its nonzeros number
# at most n*n/16 (6.25% density) and by a dense array of it above that. On a
# 2-vCPU x86 machine with one BLAS thread, at n = 600, 900 and 1800, one
# sparse product took 0.65-0.73x the time of the dense one at 4.9% density,
# 0.94-1.00x at 6.2%, 0.94-1.24x at 7.8% and 1.41-1.74x at 11%.
DENSE_ABOVE = 16
# On the sparse path the series runs on column blocks this wide, so each
# product's dense operand stays in cache. One view of the n = 5000 synth
# graph (0.58% density), one BLAS thread: 3.2-3.3 s with 64 or 128 columns,
# 3.6 s with 256 and 6.1 s unblocked. The dense path keeps one block of
# width n, since narrow blocks slowed BLAS down there.
BLOCK_COLUMNS = 128
# The semantic channel and the top-k work on n x n arrays a block of rows
# at a time, each block about this many bytes of float64, so the rows at
# work stay in cache and no second n x n temporary is made. At n = 900,
# 1800 and 5000 this took 0.35-0.6x the time of whole-array passes.
ROW_BLOCK_BYTES = 1 << 19


@dataclass
class DiffusionMatrix:
    """Truncated PPR series S = sum_k alpha(1-alpha)^k (A D^-1)^k, as a
    dense (n,n) array."""

    values: np.ndarray
    iterations: int      # K, index of the last added term
    error_bound: float   # entrywise bound (1-alpha)^(K+1)
    converged: bool


def _transition(view: MetapathView) -> np.ndarray | sp.csr_matrix:
    """Column-stochastic A D^-1: a dense array when its nonzeros number more
    than n*n/DENSE_ABOVE, else a CSR. A zero-degree node gets an implicit
    self-loop: its column is the indicator of the node itself. Only the
    sparse side imports scipy."""
    n = view.n_nodes
    degrees = np.bincount(view.edges.ravel(), minlength=n)
    # an isolated node's loop gets 1 / max(0, 1) = 1; a view's edges are
    # unique, so no (row, col) repeats and the COO length is the nonzeros
    rows, cols = view.coo(np.flatnonzero(degrees == 0))
    values = (1.0 / np.maximum(degrees, 1))[cols]
    if rows.size * DENSE_ABOVE > n * n:
        dense = np.zeros((n, n))
        dense[rows, cols] = values
        return dense
    import scipy.sparse as sp

    return sp.csr_matrix((values, (rows, cols)), shape=(n, n))


def ppr_matrix(view: MetapathView, alpha: float, tol: float = 1e-6,
               max_iter: int = 100) -> DiffusionMatrix:
    """Truncated PPR diffusion of one metapath view, as a dense matrix.

    Each term is the transition times the dense previous term. The
    transition is sparse unless its density exceeds 1/DENSE_ABOVE, in
    which case it is built dense and the series runs on BLAS. On the
    sparse path the term is held as column blocks BLOCK_COLUMNS wide, all
    advanced in lockstep; each output entry is the same sum over one row
    of the transition either way, so the bits do not depend on the width.
    The series stops when the largest entry of a term, over all blocks,
    drops below `tol`, or after `max_iter` terms. Every term is
    nonnegative, so its largest entry is also its largest magnitude.
    """
    transition = _transition(view)
    n = transition.shape[0]
    width = n if isinstance(transition, np.ndarray) else BLOCK_COLUMNS
    total = alpha * np.eye(n)
    starts = range(0, n, width)
    blocks = [total[:, start:start + width].copy() for start in starts]
    largest = alpha
    k = 0
    while largest >= tol and k < max_iter:
        k += 1
        largest = 0.0
        for i, start in enumerate(starts):
            term = transition @ blocks[i]
            term *= 1.0 - alpha
            total[:, start:start + term.shape[1]] += term
            largest = max(largest, term.max())
            blocks[i] = term
    converged = bool(largest < tol)
    bound = (1.0 - alpha) ** (k + 1)
    if not converged:
        warnings.warn(
            f"PPR for {view.metapath.name!r} stopped at max_iter={max_iter} "
            f"with term {largest:.3e} > tol; error bound {bound:.3e}",
            NonConvergenceWarning, stacklevel=2)
    return DiffusionMatrix(values=total, iterations=k, error_bound=bound,
                           converged=converged)


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an (n,n) float64 array, ROW_BLOCK_BYTES or so each."""
    rows = max(1, ROW_BLOCK_BYTES // (8 * n)) if n else 1
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def topology_similarity(diffusions) -> np.ndarray:
    """Elementwise sum of PPR matrices across views, from zeros in the
    given order. `diffusions` may be a generator: each view is added as it
    arrives and let go, so at most one view's matrix is alive beside the
    sum."""
    out = None
    for d in diffusions:
        if out is None:
            out = np.zeros(d.values.shape)
        elif d.values.shape != out.shape:
            raise ShapeMismatch(f"PPR shapes differ: {out.shape} vs {d.values.shape}")
        out += d.values
        del d  # before the generator builds the next view
    if out is None:
        raise ValueError("topology_similarity needs at least one view")
    return out


def semantic_similarity(features: np.ndarray) -> np.ndarray:
    """Negative pairwise euclidean distance; -0.0 on the diagonal.

    The squared differences are added one feature column at a time, in
    column order, as scipy's `cdist` does, so the bits equal
    `-cdist(features, features)`, overflow to -inf included.
    """
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    columns = x.T.copy()
    out = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for rows in _row_blocks(n):
            block = out[rows]
            diff = np.empty_like(block)
            for column in columns:
                np.subtract(column[rows, None], column, out=diff)
                np.multiply(diff, diff, out=diff)
                block += diff
    np.sqrt(out, out=out)
    return np.negative(out, out=out)


@dataclass
class PositiveSets:
    """Per-anchor positive ids in CSR form: anchor u's set is
    indices[indptr[u]:indptr[u+1]], sorted, unique and holding u."""

    indptr: np.ndarray   # (n+1,) int64
    indices: np.ndarray  # int64

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def sets(self) -> list[np.ndarray]:
        """Anchor u's ids as the u-th array, a view into `indices`."""
        bounds = self.indptr.tolist()
        return [self.indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def mask(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the CSR rows of mask[u,v] = v in P_u."""
        return self.indptr, self.indices

    @cached_property
    def _layouts(self) -> dict[int, list]:
        return {}

    def blocks(self, height: int) -> list:
        """(lo, hi, strip, full) per block of `height` anchors: the flat
        offsets of P's and P^T's entries in rows lo:hi against columns lo:n
        and 0:n, rows, then columns ascending. Built once per height and
        kept as the sets are, each kind one read-only array blocks view."""
        if height not in self._layouts:
            self._layouts[height] = self._layout(height)
        return self._layouts[height]

    def _layout(self, height: int) -> list:
        n = self.n
        anchors = np.repeat(np.arange(n), np.diff(self.indptr))
        order = np.argsort(self.indices, kind="stable")
        kinds = []  # (offsets, each row's start in them): strip, full; P, P^T
        # P's entries, then P^T's: row v holds the anchors u with v in P_u
        for rows, cols in ((anchors, self.indices),
                           (self.indices[order], anchors[order])):
            local = rows % height
            first = rows - local
            keep = cols >= first
            starts = np.searchsorted(rows, np.arange(n + 1))
            kinds += [((local * (n - first) + cols - first)[keep],
                       np.concatenate(([0], np.cumsum(keep)))[starts]),
                      (local * n + cols, starts)]
        for offsets, _ in kinds:
            offsets.setflags(write=False)
        layout = []
        for lo in range(0, n, height):
            hi = min(lo + height, n)
            cut = [offsets[at[lo]:at[hi]] for offsets, at in kinds]
            layout.append((lo, hi, tuple(cut[0::2]), tuple(cut[1::2])))
        return layout


def _top_k(sim: np.ndarray, k: int) -> np.ndarray:
    """(n,k) ids of each row's k best other nodes: score descending, then
    id ascending. The anchor is left out of its row, not masked with a
    sentinel score, so any finite or infinite score ranks the same way,
    and -0.0 ties with 0.0.

    Each row's k-th best score comes from a partition; only the candidates
    scoring at least that much are then sorted, by (score, id). NaN cannot
    reach here: features are checked finite at load and the PPR series of
    a finite transition is finite.
    """
    n = sim.shape[0]
    ids = np.empty((n, k), dtype=np.int64)
    for rows in _row_blocks(n):
        anchors = np.arange(rows.start, rows.stop)
        m = anchors.size
        keep = np.ones((m, n), dtype=bool)
        keep[np.arange(m), anchors] = False
        others = -sim[rows][keep].reshape(m, n - 1)  # ascending: best first
        kth = np.partition(others, k - 1, axis=1)[:, k - 1, None]
        row, col = np.nonzero(others <= kth)  # row-major: ids ascend per row
        order = np.lexsort((col, others[row, col], row))
        best = col[order[np.searchsorted(row, np.arange(m))[:, None]
                         + np.arange(k)]]
        ids[rows] = best + (best >= anchors[:, None])
    return ids


def select_positives(sim_t: np.ndarray, sim_s: np.ndarray,
                     k_t: int, k_s: int) -> PositiveSets:
    """Union the top-k_t topology and top-k_s semantic neighbors per anchor:
    its row of 1 + k_t + k_s ids, itself included, sorted and deduplicated."""
    if sim_t.shape != sim_s.shape:
        raise ShapeMismatch(f"similarity shapes differ: {sim_t.shape} vs {sim_s.shape}")
    n = sim_t.shape[0]
    if k_t >= n or k_s >= n:
        raise KTooLarge(f"top-k of {max(k_t, k_s)} needs more than {n} nodes")
    columns = [np.arange(n, dtype=np.int64)[:, None]]
    for sim, k in ((sim_t, k_t), (sim_s, k_s)):
        if k:
            columns.append(_top_k(sim, k))
    ids = np.sort(np.hstack(columns), axis=1)
    # a row's first id and every id that differs from the one before it
    new = np.ones(ids.shape, dtype=bool)
    np.not_equal(ids[:, 1:], ids[:, :-1], out=new[:, 1:])
    indptr = np.concatenate(([0], np.cumsum(new.sum(axis=1))))
    return PositiveSets(indptr=indptr, indices=ids[new])


def save_positives(path, positives: PositiveSets) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for u, ids in enumerate(positives.sets):
            fh.write(f"{u}\t{','.join(str(int(v)) for v in ids)}\n")


def load_positives(path, n: int) -> PositiveSets:
    """Read positives.tsv, one sorted set per anchor; ids are `hin.ID`s."""
    sets: list[np.ndarray | None] = [None] * n
    for lineno, (anchor, members) in _read_rows(path, 2):
        if not (ID.fullmatch(anchor) and IDS.fullmatch(members)):
            bad = next(t for t in (anchor, *members.split(",")) if not ID.fullmatch(t))
            raise MalformedRecord(f"{path}:{lineno}: id {bad!r} is not ASCII digits")
        try:
            u = int(anchor)
            ids = np.array(sorted(map(int, members.split(","))), dtype=np.int64)
        except (ValueError, OverflowError) as exc:  # int() takes <= 4300 digits
            raise MalformedRecord(f"{path}:{lineno}: id outside int64") from exc
        if u >= n:
            raise MalformedRecord(f"{path}:{lineno}: anchor {u} out of range")
        if ids[-1] >= n or u not in ids:
            raise MalformedRecord(f"{path}:{lineno}: invalid positive set")
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise MalformedRecord(f"{path}:{lineno}: id {repeated[0]} repeated")
        if sets[u] is not None:
            raise MalformedRecord(f"{path}:{lineno}: anchor {u} repeated")
        sets[u] = ids
    missing = [u for u, ids in enumerate(sets) if ids is None]
    if missing:
        raise MalformedRecord(f"{path}: no positives for anchor {missing[0]}")
    sizes = [ids.size for ids in sets]  # none when n = 0
    indptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    return PositiveSets(indptr, np.concatenate([np.empty(0, np.int64), *sets]))
