"""Contrastive losses and their aggregation over metapath pairs.

Node-node: per anchor u the positive mass is the cross-view similarity
to its positive set P_u; negatives are the same-view and cross-view
similarities to everything outside P_u (u itself sits in P_u, so the
anchor's self-similarity never appears as a negative). It is one tape
node whose one pass over blocks of CHUNK anchor rows forms the loss and
both input gradients; backward only scales them. Positives are gathered
from the CSR arrays `PositiveSets` holds. Memory is O(CHUNK*n) floats,
with no n x n array of any dtype alive at any time.

Node-graph: a bilinear discriminator scores projected rows against the
projected mean summary, positive branch vs a negative branch, in one tape
node over both branches that keeps only their logits.

The total objective, one tape node over the pair losses, sums both
losses with their weights over all ordered view pairs (m,n):
the intra pair (m,m) contrasts two corruptions of view m, the inter pair
(m,n) contrasts the first corruptions of views m and n. The projector runs
once per corrupted view and once per view summary, 3V passes for V views,
and every pair reads those projections. Per-anchor losses are averaged so
the scale is independent of the node count; the result is minimized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .model import DISC_B, encoder, gcn_forward, project, readout
from .numerics import LOG_EPS, ShapeMismatch, Tensor
from .positives import PositiveSets

# Anchor rows per block of the node-node loss. Of 64, 128, 256 and 600,
# 128 was fastest or tied at n=600 and n=1800 (d=64, 2 cores).
CHUNK = 128


def _unit_rows(x: np.ndarray, out: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), LOG_EPS)
    return np.divide(x, norms, out=out), norms


def _logits(anchors: np.ndarray, keys: np.ndarray, inv_tau: float,
            out: np.ndarray | None = None) -> np.ndarray:
    out = np.matmul(anchors, keys.T, out=out)
    out *= inv_tau
    return out


def node_node_loss(z_m: Tensor, z_n: Tensor, positives: PositiveSets,
                   tau: float) -> Tensor:
    """Mean InfoNCE-style loss over anchors, on projected rows.

    Rows are L2-normalized (norms clamped at LOG_EPS), so with unit rows
    u of z_m and w of z_n the logits are S_mn = u w^T / tau and
    S_mm = u u^T / tau. Per anchor i, after a detached row shift,
    P_i = sum_{j in P_i} exp S_mn[i,j] and D_i = P_i plus the exp mass of
    both logit rows outside P_i; the loss is mean_i log D_i - log P_i with
    both logs clamped at LOG_EPS.

    Anchors stream through in blocks of CHUNK rows, one logits matmul and
    one exp per block. P_i is gathered from the CSR rows `positives.mask()`
    returns, and D_i is P_i plus the row sum left once the positives of
    both halves are zeroed: never a full row sum minus the positives,
    which would cancel against the anchor's dominant self term.
    As the output is a scalar, the same pass turns each block into dL/dS
    for g = 1 and adds its share to both input gradients; backward only
    scales them by g.
    Peak memory is O(CHUNK*n) floats, with no n x n array of any dtype.
    A NaN or inf in a row makes the loss NaN, which the trainer reports.
    """
    n = z_m.shape[0]
    if z_n.shape != z_m.shape:
        raise ShapeMismatch(f"projected views differ: {z_m.shape} vs {z_n.shape}")
    if positives.n != n:
        raise ShapeMismatch(f"positives cover {positives.n} nodes, views have {n}")
    indptr, indices = positives.mask()
    needs_grad = z_m.requires_grad or z_n.requires_grad
    inv_tau = 1.0 / tau
    g0 = 1.0 / n
    # key rows: columns [0,n) of a logit block are S_mn, [n,2n) are S_mm;
    # the unit rows are normalized straight into their halves
    keys = np.empty((2 * n, z_m.shape[1]))
    unit_n, norms_n = _unit_rows(z_n.data, out=keys[:n])
    unit_m, norms_m = _unit_rows(z_m.data, out=keys[n:])
    grad_unit_m = np.empty_like(unit_m) if needs_grad else None
    grad_keys = np.zeros_like(keys) if needs_grad else None

    pos_mass = np.empty((n, 1))
    denominator = np.empty((n, 1))
    # one logits buffer for every block, so no two blocks are ever alive
    block = np.empty((min(CHUNK, n), 2 * n))
    for lo in range(0, n, CHUNK):
        rows = slice(lo, min(lo + CHUNK, n))
        exps = _logits(unit_m[rows], keys, inv_tau, out=block[:rows.stop - lo])
        # log-sum-exp shift, detached: the true gradient is unchanged by it
        exps -= exps.max(axis=1, keepdims=True)
        np.exp(exps, out=exps)
        # flat offsets of the block's positives in its S_mn half
        local = np.repeat(np.arange(rows.stop - lo),
                          np.diff(indptr[lo:rows.stop + 1]))
        at_mn = local * (2 * n) + indices[indptr[lo]:indptr[rows.stop]]
        flat = exps.reshape(-1)
        pos_exps = flat[at_mn]
        pos = np.bincount(local, weights=pos_exps,
                          minlength=rows.stop - lo)[:, None]
        # what is left once both halves' positives are zeroed is the
        # negative mass; P_i + that is exactly P_i when nothing is left
        flat[at_mn] = 0.0
        flat[at_mn + n] = 0.0
        den = pos + exps.sum(axis=1, keepdims=True)
        pos_mass[rows], denominator[rows] = pos, den
        if not needs_grad:
            continue
        # d/dD and d/dP of the mean; zero where a LOG_EPS clamp is active
        g_den = np.where(den > LOG_EPS, g0 / np.maximum(den, LOG_EPS), 0.0)
        g_pos = g_den - np.where(pos > LOG_EPS, g0 / np.maximum(pos, LOG_EPS), 0.0)
        # dL/dS = exp * dL/dexp / tau, in place over the block
        exps *= g_den
        flat[at_mn] = pos_exps * g_pos[local, 0]
        exps *= inv_tau
        grad_unit_m[rows] = exps @ keys
        grad_keys += exps.T @ unit_m[rows]
    per_anchor = (np.log(np.maximum(denominator, LOG_EPS))
                  - np.log(np.maximum(pos_mass, LOG_EPS)))

    grads = []
    if needs_grad:
        # each half of grad_keys becomes its input's gradient, in place
        grad_keys[n:] += grad_unit_m
        for z, unit, norms, grad in ((z_m, unit_m, norms_m, grad_keys[n:]),
                                     (z_n, unit_n, norms_n, grad_keys[:n])):
            if z.requires_grad:
                inner = (grad * unit).sum(axis=1, keepdims=True)
                grad -= inner * unit
                grad /= norms
                grads.append((z, grad))

    def grad_fn(g):
        for z, grad in grads:
            z._accumulate(g[0, 0] * grad)

    return nm._make(np.array([[per_anchor.mean()]]), (z_m, z_n), grad_fn)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def node_graph_loss(z_m: Tensor, z_neg: Tensor, s_m: Tensor, params,
                    rows=None) -> Tensor:
    """Mean two-term BCE of projected rows against the projected summary.

    -log D(z_u, s) - log(1 - D(z'_u, s)) with D = sigmoid(z B s^T),
    written as softplus of the bilinear logits, which is exact and stable.
    The negative branch z' is z_neg, or z_neg's rows shuffled by the
    permutation `rows` (z'_u = z_neg[rows[u]]), gathered in forward and
    again in backward, whose gradient goes back through the inverse.
    One tape node that keeps only its two logit vectors: backward forms
    each branch's z B again from the same inputs, so it gets the same bits.
    """
    if z_neg.shape != z_m.shape:
        raise ShapeMismatch(f"branch shapes differ: {z_m.shape} vs {z_neg.shape}")
    disc_b = params[DISC_B]
    if s_m.shape[0] != 1 or disc_b.shape != (z_m.shape[1], s_m.shape[1]):
        raise ShapeMismatch(f"bilinear {z_m.shape}, {disc_b.shape}, {s_m.shape}")
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape != (z_neg.shape[0],):
            raise ShapeMismatch("permutation length must match row count")

    def negatives():
        return z_neg.data if rows is None else z_neg.data[rows]

    # the positive branch scores -logit
    x_pos = -(z_m.data @ disc_b.data @ s_m.data.T)
    x_neg = negatives() @ disc_b.data @ s_m.data.T
    per_node = _softplus(x_pos) + _softplus(x_neg)

    def grad_fn(g):
        g = np.full(x_pos.shape, g[0, 0] / x_pos.size)
        # the negative branch first, then the positive one, as the
        # bilinear chain accumulates them
        for z, z_rows, order, g_logit in (
                (z_neg, negatives(), None if rows is None else np.argsort(rows),
                 g * _stable_sigmoid(x_neg)),
                (z_m, z_m.data, None, -(g * _stable_sigmoid(x_pos)))):
            g_zb = g_logit @ s_m.data
            if s_m.requires_grad:
                s_m._accumulate(((z_rows @ disc_b.data).T @ g_logit).T)
            if z.requires_grad:
                g_z = g_zb @ disc_b.data.T
                z._accumulate(g_z if order is None else g_z[order])
            if disc_b.requires_grad:
                disc_b._accumulate(z_rows.T @ g_zb)

    # parents in the order the bilinear chain reached them: backward then
    # walks the other nodes in the per-op tape's order
    return nm._make(np.array([[per_node.mean()]]), (z_m, disc_b, s_m, z_neg),
                    grad_fn)


@dataclass
class ContrastTerm:
    """One ordered view pair's losses; kind is intra iff m == n."""

    m: int
    n: int
    kind: str
    local_loss: Tensor
    global_loss: Tensor


def pair_terms(corrupted, params, positives: PositiveSets,
               tau: float, neg_perms) -> list[ContrastTerm]:
    """Losses for every ordered view pair under the corruption pairing.

    `corrupted` is one (first, second) corruption pair per metapath view,
    each encoded by its metapath's encoder. Each corruption and each view's
    summary, the mean of its first corruption's encoder rows, is projected
    once. The intra negative branch is the second corruption's projection
    with its rows shuffled by neg_perms[m]; the inter (m,n) negative branch
    is the projection of view n's first corruption. Both are the pair's
    node-node keys.
    """
    corrupted = list(corrupted)
    z: dict[tuple[int, int], Tensor] = {}
    summaries: dict[int, Tensor] = {}
    for i, (first, second) in enumerate(corrupted):
        weight = encoder(params, first)
        h_first = gcn_forward(first, weight)
        z[i, 1] = project(h_first, params)
        z[i, 2] = project(gcn_forward(second, weight), params)
        summaries[i] = project(readout(h_first), params)

    terms: list[ContrastTerm] = []
    for m in range(len(corrupted)):
        for n in range(len(corrupted)):
            if m == n:
                kind, other, rows = "intra", z[m, 2], neg_perms[m]
            else:
                kind, other, rows = "inter", z[n, 1], None
            terms.append(ContrastTerm(
                m=m, n=n, kind=kind,
                local_loss=node_node_loss(z[m, 1], other, positives, tau),
                global_loss=node_graph_loss(z[m, 1], other, summaries[m],
                                            params, rows)))
    return terms


def total_objective(corrupted, params, positives: PositiveSets,
                    tau: float, neg_perms, w_local: float = 1.0,
                    w_global: float = 1.0) -> Tensor:
    """Weighted sum of both losses over all ordered view pairs, minimized:
    one tape node whose parents are the pair losses."""
    losses = []
    total = None
    for term in pair_terms(corrupted, params, positives, tau, neg_perms):
        losses += [(term.local_loss, w_local), (term.global_loss, w_global)]
        weighted = w_local * term.local_loss.data + w_global * term.global_loss.data
        total = weighted if total is None else total + weighted

    def grad_fn(g):
        for loss, weight in losses:
            if loss.requires_grad:
                loss._accumulate(weight * g)

    return nm._make(total, tuple(loss for loss, _ in losses), grad_fn)
