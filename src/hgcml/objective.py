"""Contrastive losses and their aggregation over metapath pairs.

Node-node: per anchor u the positive mass is the cross-view similarity
to its positive set P_u; negatives are the same-view and cross-view
similarities to everything outside P_u (u itself sits in P_u, so the
anchor's self-similarity never appears as a negative). Each logit is
shifted by the constant 1/tau, which no logit of unit rows exceeds, so
exp never overflows. One tape node per epoch, `view_masses`, forms the
masses of the V first-corruption views: each view's same-view negative
mass over the upper triangle of the symmetric u u^T, and, for views
m < k, the cross-view block u_m u_k^T once, whose row sums serve pair
(m,k) and whose column sums serve (k,m). An inter pair's loss is a small
node over its columns. Each intra pair is one node whose one pass over
blocks of CHUNK anchor rows of the n cross-view columns forms the loss
and both input gradients; backward only scales them. In n x n x d
matmul units an epoch over V views costs 2V^2 + 3V. Both kernels walk
`PositiveSets.blocks(CHUNK)`, each block's flat offsets of P's and P^T's
entries, built once per run, to gather the positives. Memory is
O(CHUNK*n) floats, with no n x n array of any dtype alive at any time.

Node-graph: a bilinear discriminator scores projected rows against the
projected mean summary, positive branch vs a negative branch, in one tape
node over both branches that keeps only their logits. B s^T is formed
first, so a branch costs O(n d).

The total objective, one tape node over the pair losses, sums both
losses with their weights over all ordered view pairs (m,n):
the intra pair (m,m) contrasts two corruptions of view m, the inter pair
(m,n) contrasts the first corruptions of views m and n. The projector runs
once per corrupted view and once per view summary, 3V passes for V views,
and every pair reads those projections. Per-anchor losses are averaged so
the scale is independent of the node count; the result is minimized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .model import DISC_B, encoder, gcn_forward, project
from .numerics import LOG_EPS, ShapeMismatch, Tensor
from .positives import PositiveSets

# Anchor rows per block of the node-node loss. Of 64, 128, 256 and 600,
# 128 was fastest or tied at n=600 and n=1800 (d=64, 2 cores).
CHUNK = 128


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), LOG_EPS)
    return x / norms, norms


def _shifted_exps(anchors: np.ndarray, keys: np.ndarray, inv_tau: float,
                  out: np.ndarray) -> np.ndarray:
    """exp(S - 1/tau) for S = anchors keys^T / tau, in `out`. Unit rows
    bound every logit by 1/tau, so the constant shift keeps exp <= 1."""
    exps = np.matmul(anchors, keys.T, out=out)
    exps *= inv_tau
    exps -= inv_tau
    return np.exp(exps, out=exps)


def _log_ratio(den: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Per-anchor log D - log P, both logs clamped at LOG_EPS."""
    return (np.log(np.maximum(den, LOG_EPS))
            - np.log(np.maximum(pos, LOG_EPS)))


def _inverse(mass: np.ndarray, g: float) -> np.ndarray:
    """d(g log mass)/d mass, zero where the LOG_EPS clamp is active."""
    return np.where(mass > LOG_EPS, g / np.maximum(mass, LOG_EPS), 0.0)


def _to_rows(grad_unit: np.ndarray, unit: np.ndarray,
             norms: np.ndarray) -> np.ndarray:
    """A unit-row gradient taken back through the row normalization,
    in place."""
    inner = (grad_unit * unit).sum(axis=1, keepdims=True)
    grad_unit -= inner * unit
    grad_unit /= norms
    return grad_unit


def view_masses(zs, positives: PositiveSets, tau: float) -> Tensor:
    """Every view pair's negative and positive masses, one (n, 2V^2) tape
    node over the V projected views `zs`.

    With unit rows u_m of zs[m], E_mk = exp(u_m u_k^T/tau - 1/tau). Per
    anchor i, column 2(mV + k) holds the mass of row i of E_mk on P_i and
    column 2(mV + k) + 1 the mass outside P_i; for k = m that is the
    same-view negative mass N_m, and the mass on P_i, which no loss
    reads, stays 0. For each anchor view m and block of CHUNK rows, the
    blocks (m,k), k >= m, are formed one at a time in one buffer. E_mm is
    symmetric, so its block is the strip from the block's first row on:
    its row sums go to the block's rows and its column sums right of the
    diagonal tile to the later rows. For k > m, E_km = E_mk^T, so the
    block against all n columns serves both pairs: its row sums, split by
    P, go to (m,k) and its column sums, split by P^T, to (k,m). No sum is
    formed by subtraction. Each block's offsets of P and P^T, for the
    strip and the full width, come from `positives.blocks(CHUNK)`, built
    once per run; the tape keeps only the masses, no n x d array.
    Backward forms each block again and scales it by E o (a_ij + b_ij)/tau:
    a_ij is row anchor i's dL/d(its mass on P_i) if j is in P_i, else
    dL/d(its mass outside), and b_ij column anchor j's the same under P^T;
    an entry in both takes both. It adds W u_k to the rows of u_m and
    W^T u_m to those of u_k (for the strip, the part right of the
    diagonal tile to the later rows), then takes each view's gradient
    back through its row normalization once.
    """
    zs = list(zs)
    views, n = len(zs), zs[0].shape[0]
    if any(z.shape != zs[0].shape for z in zs):
        raise ShapeMismatch(f"projected views differ: {[z.shape for z in zs]}")
    if positives.n != n:
        raise ShapeMismatch(f"positives cover {positives.n} nodes, views have {n}")
    inv_tau = 1.0 / tau
    layout = positives.blocks(CHUNK)

    def pairs(units, buffer):
        """(m, k, lo, hi, first, exps, offsets) per block of E_mk, k >= m,
        against the columns first:n, each formed in `buffer`."""
        for m in range(views):
            for lo, hi, strip, full in layout:
                for k in range(m, views):
                    first = lo if k == m else 0
                    exps = buffer[:(hi - lo) * (n - first)].reshape(
                        hi - lo, n - first)
                    yield (m, k, lo, hi, first, _shifted_exps(
                        units[m][lo:hi], units[k][first:], inv_tau, out=exps),
                        strip if k == m else full)

    mass = np.zeros((n, views, views, 2))
    units = [_unit_rows(z.data)[0] for z in zs]
    for m, k, lo, hi, first, exps, (at_p, at_t) in pairs(
            units, np.empty(min(CHUNK, n) * n)):
        flat = exps.reshape(-1)
        kept = flat[at_p]
        if k > m:
            mass[lo:hi, m, k, 0] = np.bincount(at_p // n, kept, hi - lo)
            mass[:, k, m, 0] += np.bincount(at_t % n, flat[at_t], n)
        flat[at_p] = 0.0
        mass[lo:hi, m, k, 1] += exps.sum(axis=1)
        flat[at_p] = kept
        # the strip's diagonal tile gives no column sums, so its entries
        # of P^T may be zeroed with the rest
        flat[at_t] = 0.0
        tail = hi - lo if k == m else 0
        mass[first + tail:, k, m, 1] += exps[:, tail:].sum(axis=0)

    def grad_fn(g):
        g = g.reshape(n, views, views, 2) * inv_tau
        units, norms = zip(*(_unit_rows(z.data) for z in zs))
        grads = [np.zeros_like(unit) for unit in units]
        unread = np.zeros(n)
        buffer, weights = np.empty((2, min(CHUNK, n) * n))
        for m, k, lo, hi, first, exps, (at_p, at_t) in pairs(units, buffer):
            # (on P, outside P) per row anchor, and per column anchor under
            # P^T; no loss reads a view's mass on its own P
            (a_on, a_out), (b_on, b_out) = (
                (g[:, m, k].T, g[:, k, m].T) if k > m
                else ((unread, g[:, m, m, 1]),) * 2)
            width = n - first
            w = weights[:exps.size].reshape(exps.shape)
            np.copyto(w, b_out[None, first:])
            flat = w.reshape(-1)
            flat[at_t] = b_on[first + at_t % width]
            kept = flat[at_p]
            w += a_out[lo:hi, None]
            flat[at_p] = kept + a_on[lo + at_p // width]
            exps *= w
            grads[m][lo:hi] += exps @ units[k][first:]
            tail = hi - lo if k == m else 0
            grads[k][first + tail:] += exps[:, tail:].T @ units[m][lo:hi]
        for z, grad, unit, norm in zip(zs, grads, units, norms):
            z._accumulate(_to_rows(grad, unit, norm))

    return nm._make(mass.reshape(n, -1), tuple(zs), grad_fn)


def _pair_ratio(masses: Tensor, columns: list[int]) -> Tensor:
    """Mean log D - log P of a pair whose masses P, C (outside P_i) and N
    are `columns` of `masses`, with D = P + C + N: one tape node."""
    n = masses.shape[0]
    pos, cross, neg = masses.data[:, columns].T
    den = pos + cross + neg

    def grad_fn(g):
        g_den = _inverse(den, g[0, 0] / n)
        grad = np.zeros(masses.shape)
        grad[:, columns] = np.stack(
            [g_den - _inverse(pos, g[0, 0] / n), g_den, g_den], axis=1)
        masses._accumulate(grad)

    return nm._make(np.array([[_log_ratio(den, pos).mean()]]), (masses,),
                    grad_fn)


def node_node_loss(z_m: Tensor, z_n: Tensor, positives: PositiveSets,
                   tau: float, shared: tuple[Tensor, int, int] | None = None
                   ) -> Tensor:
    """Mean InfoNCE-style loss over anchors, on projected rows.

    Rows are L2-normalized (norms clamped at LOG_EPS), so with unit rows
    u of z_m and w of z_n the logits are S_mn = u w^T / tau and
    S_mm = u u^T / tau, none above 1/tau. Per anchor i, shifted by the
    constant 1/tau, P_i = sum_{j in P_i} exp(S_mn[i,j] - 1/tau) and
    D_i = P_i plus the exp mass of both logit rows outside P_i; the loss
    is mean_i log D_i - log P_i with both logs clamped at LOG_EPS.

    `shared` is (masses, m, k): the epoch's `view_masses` node, which all
    pairs share, and this pair's anchor view m and key view k in it. A
    call without it reads a `view_masses` node of z_m alone, as pair
    (0, 0). For k != m the node already holds P_i and the cross-view mass
    outside P_i, and the call is a small node over those two columns and
    N_m's. For k = m it reads N_m, the S_mm half of D_i, and streams the
    n columns of z_n, in the blocks of `positives.blocks(CHUNK)`, one
    logits matmul and one exp per block. P_i is gathered at the block's
    full-width offsets of P, and the cross-view negative mass is the row
    sum left once the positives are zeroed, never a row sum minus the
    positives. As the output is a scalar, the same pass turns each block
    into dL/dS for g = 1 and adds its share to both input gradients;
    backward only scales them, and hands g dL/dD to N_m's column.
    Peak memory is O(CHUNK*n) floats, with no n x n array of any dtype.
    A NaN or inf in a row makes the loss NaN, which the trainer reports.
    """
    n = z_m.shape[0]
    if z_n.shape != z_m.shape:
        raise ShapeMismatch(f"projected views differ: {z_m.shape} vs {z_n.shape}")
    if positives.n != n:
        raise ShapeMismatch(f"positives cover {positives.n} nodes, views have {n}")
    positives.mask()  # counted by the benchmark; ROADMAP item 3 removes it
    masses, m, k = ((view_masses([z_m], positives, tau), 0, 0)
                    if shared is None else shared)
    if masses.shape[0] != n:
        raise ShapeMismatch(f"negative masses {masses.shape}, views have {n} rows")
    views = math.isqrt(masses.shape[1] // 2)
    at, column = 2 * (m * views + k), 2 * (m * views + m) + 1
    if k != m:
        return _pair_ratio(masses, [at, at + 1, column])
    negatives = masses.data[:, column:column + 1]
    needs_grad = (z_m.requires_grad or z_n.requires_grad
                  or masses.requires_grad)
    inv_tau = 1.0 / tau
    g0 = 1.0 / n
    unit_n, norms_n = _unit_rows(z_n.data)
    unit_m, norms_m = _unit_rows(z_m.data)
    grad_m = np.empty_like(unit_m) if needs_grad else None
    grad_n = np.zeros_like(unit_n) if needs_grad else None
    grad_neg = np.empty((n, 1)) if needs_grad else None

    pos_mass, denominator = np.empty((2, n, 1))
    block = np.empty((min(CHUNK, n), n))
    for lo, hi, _, (at_pos, _) in positives.blocks(CHUNK):
        exps = _shifted_exps(unit_m[lo:hi], unit_n, inv_tau, block[:hi - lo])
        local = at_pos // n
        flat = exps.reshape(-1)
        pos_exps = flat[at_pos]
        pos = np.bincount(local, pos_exps, hi - lo)[:, None]
        # what is left once the positives are zeroed is the cross-view
        # negative mass; P_i + that + N_i is exactly P_i when both are 0
        flat[at_pos] = 0.0
        den = pos + exps.sum(axis=1, keepdims=True) + negatives[lo:hi]
        pos_mass[lo:hi], denominator[lo:hi] = pos, den
        if not needs_grad:
            continue
        # d/dD and d/dP of the mean; zero where a LOG_EPS clamp is active
        g_den = _inverse(den, g0)
        g_pos = g_den - _inverse(pos, g0)
        grad_neg[lo:hi] = g_den
        # dL/dS = exp * dL/dexp / tau, in place over the block
        exps *= g_den * inv_tau
        flat[at_pos] = pos_exps * (g_pos[local, 0] * inv_tau)
        grad_m[lo:hi] = exps @ unit_n
        grad_n += exps.T @ unit_m[lo:hi]
    per_anchor = _log_ratio(denominator, pos_mass)
    if needs_grad:
        _to_rows(grad_m, unit_m, norms_m)
        _to_rows(grad_n, unit_n, norms_n)

    def grad_fn(g):
        z_m._accumulate(g[0, 0] * grad_m)
        z_n._accumulate(g[0, 0] * grad_n)
        grad = np.zeros(masses.shape)
        grad[:, column:column + 1] = g[0, 0] * grad_neg
        masses._accumulate(grad)

    return nm._make(np.array([[per_anchor.mean()]]), (z_m, z_n, masses),
                    grad_fn)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def node_graph_loss(z_m: Tensor, z_neg: Tensor, s_m: Tensor, params) -> Tensor:
    """Mean two-term BCE of projected rows against the projected summary.

    -log D(z_u, s) - log(1 - D(z'_u, s)) with D = sigmoid(z B s^T),
    written as softplus of the bilinear logits, which is exact and stable.
    The negative branch z' is z_neg as it is. Each row's two terms depend
    on that row alone, so shuffling z_neg's rows could not change the mean
    or any gradient beyond the order of the float sums.
    The logits are z (B s^T), with the d x 1 column B s^T formed first, so
    neither direction makes an n x d x d product: per branch with logit
    gradient g, z gets g (s B^T), B gets (z^T g) s and s gets
    (z^T g)^T B. One tape node that keeps only its two logit vectors and
    B s^T.
    """
    if z_neg.shape != z_m.shape:
        raise ShapeMismatch(f"branch shapes differ: {z_m.shape} vs {z_neg.shape}")
    disc_b = params[DISC_B]
    if s_m.shape[0] != 1 or disc_b.shape != (z_m.shape[1], s_m.shape[1]):
        raise ShapeMismatch(f"bilinear {z_m.shape}, {disc_b.shape}, {s_m.shape}")
    b_s = disc_b.data @ s_m.data.T
    # the positive branch scores -logit
    x_pos = -(z_m.data @ b_s)
    x_neg = z_neg.data @ b_s
    per_node = _softplus(x_pos) + _softplus(x_neg)

    def grad_fn(g):
        g = np.full(x_pos.shape, g[0, 0] / x_pos.size)
        # the negative branch first, then the positive one, as the
        # bilinear chain accumulates them
        for z, g_logit in ((z_neg, g * _stable_sigmoid(x_neg)),
                           (z_m, -(g * _stable_sigmoid(x_pos)))):
            z_g = z.data.T @ g_logit
            z._accumulate(g_logit @ b_s.T)
            disc_b._accumulate(z_g @ s_m.data)
            s_m._accumulate((disc_b.data.T @ z_g).T)

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
               tau: float) -> list[ContrastTerm]:
    """Losses for every ordered view pair under the corruption pairing.

    `corrupted` is one (first, second) corruption pair per metapath view,
    each encoded by its metapath's encoder. Each corruption and each view's
    summary, the mean of its first corruption's encoder rows, is projected
    once. The intra (m,m) negative branch is the projection of view m's
    second corruption, the inter (m,n) one that of view n's first; either
    is also the pair's node-node keys. One `view_masses` node over the
    first corruptions' projections, made before any pair, holds every
    pair's same-view negative mass and every inter pair's cross-view
    masses; each pair's node-node loss reads its columns.
    """
    corrupted = list(corrupted)
    z: dict[tuple[int, int], Tensor] = {}
    summaries: dict[int, Tensor] = {}
    for i, (first, second) in enumerate(corrupted):
        weight = encoder(params, first)
        h_first = gcn_forward(first, weight)
        z[i, 1] = project(h_first, params)
        z[i, 2] = project(gcn_forward(second, weight), params)
        summaries[i] = project(nm.mean_rows(h_first), params)

    views = range(len(corrupted))
    masses = view_masses([z[m, 1] for m in views], positives, tau)
    terms: list[ContrastTerm] = []
    for m in views:
        for n in views:
            kind, other = ("intra", z[m, 2]) if m == n else ("inter", z[n, 1])
            terms.append(ContrastTerm(
                m=m, n=n, kind=kind,
                local_loss=node_node_loss(z[m, 1], other, positives, tau,
                                          (masses, m, n)),
                global_loss=node_graph_loss(z[m, 1], other, summaries[m],
                                            params)))
    return terms


def total_objective(corrupted, params, positives: PositiveSets,
                    tau: float, w_local: float = 1.0,
                    w_global: float = 1.0) -> Tensor:
    """Weighted sum of both losses over all ordered view pairs, minimized:
    one tape node whose parents are the pair losses."""
    losses = []
    total = None
    for term in pair_terms(corrupted, params, positives, tau):
        losses += [(term.local_loss, w_local), (term.global_loss, w_global)]
        weighted = w_local * term.local_loss.data + w_global * term.global_loss.data
        total = weighted if total is None else total + weighted

    def grad_fn(g):
        for loss, weight in losses:
            loss._accumulate(weight * g)

    return nm._make(total, tuple(loss for loss, _ in losses), grad_fn)
