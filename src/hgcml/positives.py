"""Pre-processing positive sampler.

Topology positives come from Personalized PageRank diffusion aggregated
over metapath views; semantic positives from negative euclidean feature
distance; the per-anchor positive set is their union plus the anchor
itself. Sets are computed once, before training, and serialized to
positives.tsv so training runs never resample them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .hin import MalformedRecord, MetapathView
from .numerics import ShapeMismatch


class KTooLarge(ValueError):
    """Requested top-k does not fit the number of candidate nodes."""


class NonConvergenceWarning(RuntimeWarning):
    """PPR series hit max_iter before the term dropped below tol."""


@dataclass
class DiffusionMatrix:
    """Truncated PPR series S = sum_k alpha(1-alpha)^k (A D^-1)^k."""

    values: np.ndarray
    alpha: float
    metapath: str
    iterations: int      # K, index of the last added term
    error_bound: float   # entrywise bound (1-alpha)^(K+1)
    converged: bool


def ppr_matrix(view: MetapathView, alpha: float, tol: float = 1e-6,
               max_iter: int = 100) -> DiffusionMatrix:
    """Dense truncated PPR diffusion of one metapath view.

    Zero-degree nodes get an implicit self-loop: their column of the
    transition matrix is the indicator of the node itself, which keeps
    every column stochastic.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0,1], got {alpha}")
    dense = view.adjacency.toarray()
    n = dense.shape[0]
    degrees = dense.sum(axis=0)
    transition = np.divide(dense, np.where(degrees > 0, degrees, 1.0))
    for j in np.flatnonzero(degrees == 0):
        transition[j, j] = 1.0
    term = alpha * np.eye(n)
    total = term.copy()
    k = 0
    while np.abs(term).max() >= tol and k < max_iter:
        k += 1
        term = (1.0 - alpha) * (transition @ term)
        total += term
    converged = bool(np.abs(term).max() < tol)
    bound = (1.0 - alpha) ** (k + 1)
    if not converged:
        warnings.warn(
            f"PPR for {view.metapath.name!r} stopped at max_iter={max_iter} "
            f"with term {np.abs(term).max():.3e} > tol; error bound {bound:.3e}",
            NonConvergenceWarning, stacklevel=2)
    return DiffusionMatrix(values=total, alpha=alpha, metapath=view.metapath.name,
                           iterations=k, error_bound=bound, converged=converged)


def topology_similarity(diffusions) -> np.ndarray:
    """Elementwise sum of PPR matrices across views."""
    diffusions = list(diffusions)
    shape = diffusions[0].values.shape
    for d in diffusions[1:]:
        if d.values.shape != shape:
            raise ShapeMismatch(f"PPR shapes differ: {shape} vs {d.values.shape}")
    out = np.zeros(shape)
    for d in diffusions:
        out += d.values
    return out


def semantic_similarity(features: np.ndarray) -> np.ndarray:
    """Negative pairwise euclidean distance; 0 on the diagonal."""
    return -cdist(features, features, metric="euclidean")


@dataclass
class PositiveSets:
    """Per-anchor positive ids. P_u always contains u; ids are sorted."""

    sets: list[np.ndarray]
    _mask: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def n(self) -> int:
        return len(self.sets)

    def mask(self) -> np.ndarray:
        """Boolean (n,n) matrix, mask[u,v] = v in P_u.

        Built on the first call and returned read-only on every later
        one, so `sets` must not change after the first call.
        """
        if self._mask is None:
            sizes = [len(ids) for ids in self.sets]
            rows = np.repeat(np.arange(self.n), sizes)
            cols = (np.concatenate(self.sets) if self.sets
                    else np.empty(0, dtype=np.int64))
            out = np.zeros((self.n, self.n), dtype=bool)
            out[rows, cols] = True
            out.flags.writeable = False
            self._mask = out
        return self._mask

    @classmethod
    def anchor_only(cls, n: int) -> "PositiveSets":
        return cls(sets=[np.array([u], dtype=np.int64) for u in range(n)])


def _top_k(row: np.ndarray, anchor: int, k: int) -> np.ndarray:
    if k == 0:
        return np.empty(0, dtype=np.int64)
    candidates = np.delete(np.arange(row.size, dtype=np.int64), anchor)
    scores = row[candidates]
    # primary key: score descending; tie-break: node id ascending
    order = np.lexsort((candidates, -scores))
    return candidates[order[:k]]


def select_positives(sim_t: np.ndarray, sim_s: np.ndarray,
                     k_t: int, k_s: int) -> PositiveSets:
    """Union the top-k_t topology and top-k_s semantic neighbors per anchor."""
    if sim_t.shape != sim_s.shape:
        raise ShapeMismatch(f"similarity shapes differ: {sim_t.shape} vs {sim_s.shape}")
    n = sim_t.shape[0]
    if k_t < 0 or k_s < 0:
        raise KTooLarge("k_t and k_s must be non-negative")
    if k_t >= n or k_s >= n:
        raise KTooLarge(f"top-k of {max(k_t, k_s)} needs more than {n} nodes")
    sets = []
    for u in range(n):
        p_t = _top_k(sim_t[u], u, k_t)
        p_s = _top_k(sim_s[u], u, k_s)
        merged = np.union1d(np.union1d(p_t, p_s), np.array([u], dtype=np.int64))
        sets.append(merged.astype(np.int64))
    return PositiveSets(sets=sets)


def save_positives(path, positives: PositiveSets) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, ids in enumerate(positives.sets):
            fh.write(f"{u}\t{','.join(str(int(v)) for v in ids)}\n")


def load_positives(path, n: int) -> PositiveSets:
    """Read positives.tsv, one sorted set per anchor."""
    sets: list[np.ndarray | None] = [None] * n
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise MalformedRecord(f"{path}:{lineno}: expected 2 fields")
            try:
                u = int(fields[0])
                ids = np.array(sorted(int(v) for v in fields[1].split(",")),
                               dtype=np.int64)
            except ValueError as exc:
                raise MalformedRecord(f"{path}:{lineno}: {exc}") from exc
            if not 0 <= u < n:
                raise MalformedRecord(f"{path}:{lineno}: anchor {u} out of range")
            if ids.size == 0 or ids[0] < 0 or ids[-1] >= n or u not in ids:
                raise MalformedRecord(f"{path}:{lineno}: invalid positive set")
            if sets[u] is not None:
                raise MalformedRecord(f"{path}:{lineno}: anchor {u} repeated")
            sets[u] = ids
    missing = [u for u, ids in enumerate(sets) if ids is None]
    if missing:
        raise MalformedRecord(f"{path}: no positives for anchor {missing[0]}")
    return PositiveSets(sets=sets)
