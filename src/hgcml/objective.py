"""Contrastive losses and their aggregation over metapath pairs.

Node-node: per anchor u the positive mass is the cross-view similarity
to its positive set P_u; negatives are the same-view and cross-view
similarities to everything outside P_u (u itself sits in P_u, so the
anchor's self-similarity never appears as a negative). Each logit is
shifted by the constant 1/tau, which no logit of unit rows exceeds, so
exp never overflows. The same-view negative mass depends only on the
anchor view, so it is one tape node per view, formed over the upper
triangle of the symmetric u u^T. Under that shift the cross-view block
of pair (n,m) is the transpose of pair (m,n)'s, so each inter pair
{m,n} is one two-pass node: forward forms each block of CHUNK rows of
pair (m,n)'s once, its row sums masked by P serve (m,n) and its column
sums masked by P^T serve (n,m), and backward forms it again. Each intra
pair is one node whose one pass over blocks of CHUNK anchor rows of the
n cross-view columns forms the loss and both input gradients; backward
only scales them. In n x n x d matmul units an epoch over V views costs
2V^2 + 3V. Positives are gathered from the CSR arrays of P and P^T that
`PositiveSets` holds. Memory is O(CHUNK*n) floats, with no n x n array
of any dtype alive at any time.

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


def _logits(anchors: np.ndarray, keys: np.ndarray, inv_tau: float,
            out: np.ndarray | None = None) -> np.ndarray:
    out = np.matmul(anchors, keys.T, out=out)
    out *= inv_tau
    return out


def _shifted_exps(anchors: np.ndarray, keys: np.ndarray, inv_tau: float,
                  out: np.ndarray) -> np.ndarray:
    """exp(S - 1/tau) for S = anchors keys^T / tau, in `out`. Unit rows
    bound every logit by 1/tau, so the constant shift keeps exp <= 1."""
    exps = _logits(anchors, keys, inv_tau, out=out)
    exps -= inv_tau
    return np.exp(exps, out=exps)


def _blocks(unit_m: np.ndarray, unit_n: np.ndarray, inv_tau: float,
            buffer: np.ndarray):
    """(lo, hi, exps) per block of CHUNK rows of exp(u w^T/tau - 1/tau),
    with u and w the unit rows; every block is formed in `buffer`, so no
    two blocks are ever alive."""
    n = unit_m.shape[0]
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        yield lo, hi, _shifted_exps(unit_m[lo:hi], unit_n, inv_tau,
                                    out=buffer[:hi - lo])


def _offsets(indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int,
             first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of CSR rows lo:hi whose column is at or right of
    `first`: their rows within the block, and their flat offsets in the
    block of those rows against columns first:n, rows ascending."""
    rows = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
    cols = indices[indptr[lo]:indptr[hi]]
    if first:
        keep = cols >= first
        rows, cols = rows[keep], cols[keep]
    return rows, rows * (n - first) + (cols - first)


def _gather(flat: np.ndarray, rows: np.ndarray, at: np.ndarray,
            size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sums of a block's entries at the flat offsets `at`, whose
    rows are `rows`, and those entries."""
    values = flat[at]
    return np.bincount(rows, weights=values, minlength=size), values


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


def anchor_negatives(z: Tensor, positives: PositiveSets, tau: float) -> Tensor:
    """Each anchor's same-view negative mass, an (n,1) tape node.

    With unit rows u of z, N_i = sum_{j not in P_i} exp(u_i.u_j/tau - 1/tau).
    That term of the InfoNCE denominator is the same for every pair with z
    as the anchor view, so it is formed once per view. E = exp(u u^T/tau -
    1/tau) is symmetric, and only its upper triangle is formed: strip I is
    row block I against the columns from I's first row on. The strip's
    row sums, with the entries of P zeroed, go to rows I; its column sums
    right of the diagonal tile, with the entries of P^T zeroed, go to the
    later rows. No sum is formed by subtraction.
    Backward forms each strip again and scales it by W_ij = E_ij
    (g_i [j not in P_i] + g_j [i not in P_j]) / tau, W symmetric, then
    adds W u_J to rows I and the off-diagonal W^T u_I to the later rows.
    P and P^T are `positives`' CSR arrays and its `transposed` ones. The
    tape keeps N and each strip's offsets of P and P^T, no n x d array.
    """
    n = z.shape[0]
    if positives.n != n:
        raise ShapeMismatch(f"positives cover {positives.n} nodes, views have {n}")
    chunk, inv_tau = CHUNK, 1.0 / tau
    csrs = ((positives.indptr, positives.indices), positives.transposed)
    strips = [(lo, *(_offsets(*csr, lo, min(lo + chunk, n), lo, n)[1]
                     for csr in csrs)) for lo in range(0, n, chunk)]
    # the first strip is the largest: one buffer serves every strip, so no
    # two strips are ever alive
    size = min(chunk, n) * n

    def strip(unit, lo, buffer):
        hi, width = min(lo + chunk, n), n - lo
        exps = buffer[:(hi - lo) * width].reshape(hi - lo, width)
        return hi, _shifted_exps(unit[lo:hi], unit[lo:], inv_tau, out=exps)

    unit, _ = _unit_rows(z.data)
    mass = np.zeros((n, 1))
    buffer = np.empty(size)
    for lo, at_p, at_t in strips:
        hi, exps = strip(unit, lo, buffer)
        flat = exps.reshape(-1)
        kept = flat[at_p]
        flat[at_p] = 0.0
        mass[lo:hi, 0] += exps.sum(axis=1)
        flat[at_p] = kept
        # the diagonal tile's column sums are not taken, so its entries
        # of P^T may be zeroed with the rest
        flat[at_t] = 0.0
        mass[hi:, 0] += exps[:, hi - lo:].sum(axis=0)

    def grad_fn(g):
        unit, norms = _unit_rows(z.data)
        gamma = g[:, 0] * inv_tau
        grad = np.zeros_like(unit)
        buffer, weights = np.empty((2, size))
        for lo, at_p, at_t in strips:
            hi, exps = strip(unit, lo, buffer)
            w = weights[:exps.size].reshape(exps.shape)
            np.add(gamma[lo:hi, None], gamma[None, lo:], out=w)
            # g_i leaves the entries of P, g_j those of P^T, and both
            # leave the entries of both
            flat = w.reshape(-1)
            flat[at_p] = gamma[lo + at_p % (n - lo)]
            flat[at_t] = gamma[lo + at_t // (n - lo)]
            flat[np.intersect1d(at_p, at_t, assume_unique=True)] = 0.0
            exps *= w
            grad[lo:hi] += exps @ unit[lo:]
            grad[hi:] += exps[:, hi - lo:].T @ unit[lo:hi]
        z._accumulate(_to_rows(grad, unit, norms))

    return nm._make(mass, (z,), grad_fn)


def _inter_losses(z_m: Tensor, z_n: Tensor, csr, transposed, tau: float,
                  negatives: tuple[Tensor, Tensor]) -> Tensor:
    """Both ordered node-node losses of views m != n, one (1,2) tape node.

    With unit rows u of z_m and w of z_n, E = exp(u w^T/tau - 1/tau) is
    pair (m,n)'s cross-view block, and E^T is pair (n,m)'s. Forward forms
    each block of CHUNK rows of E once. Its row sums, masked by P (the CSR
    `csr`), give the (m,n) anchors' positive and cross-view negative
    masses; its column sums, masked by P^T (`transposed`), give the (n,m)
    anchors'. Each anchor's own `anchor_negatives` mass, N_m or N_n
    (`negatives`), joins its denominator. The tape keeps the four n x 1
    masses. Backward forms each block again and scales it by
    W_ij = E_ij (a_ij + b_ij) / tau, where a_ij is row anchor i's dL/dE_ij
    under P and b_ij column anchor j's under P^T; it adds W w to the rows
    of u and W^T u to those of w, and hands each anchor's dL/dD to N_m or
    N_n. That is four n x n x d matmul units, where two one-pass nodes
    cost six.
    """
    n = z_m.shape[0]
    inv_tau = 1.0 / tau
    neg_m, neg_n = negatives
    block = np.empty((min(CHUNK, n), n))
    pos_m, den_m = np.empty(n), np.empty(n)
    pos_n, cross_n = np.zeros(n), np.zeros(n)
    for lo, hi, exps in _blocks(_unit_rows(z_m.data)[0],
                                _unit_rows(z_n.data)[0], inv_tau, block):
        flat = exps.reshape(-1)
        local, at_p = _offsets(*csr, lo, hi, 0, n)
        _, at_t = _offsets(*transposed, lo, hi, 0, n)
        pos, kept = _gather(flat, local, at_p, hi - lo)
        pos_n += _gather(flat, at_t % n, at_t, n)[0]
        # what is left once the positives are zeroed is the cross-view
        # negative mass, of the rows for P and of the columns for P^T
        flat[at_p] = 0.0
        pos_m[lo:hi] = pos
        den_m[lo:hi] = pos + exps.sum(axis=1) + neg_m.data[lo:hi, 0]
        flat[at_p] = kept
        flat[at_t] = 0.0
        cross_n += exps.sum(axis=0)
    den_n = pos_n + cross_n + neg_n.data[:, 0]

    def grad_fn(g):
        unit_m, norms_m = _unit_rows(z_m.data)
        unit_n, norms_n = _unit_rows(z_n.data)
        # per direction, dL/dD and, for an entry of P or P^T, dL/dD + dL/dP,
        # over tau; zero where a LOG_EPS clamp is active
        g_den_m = _inverse(den_m, g[0, 0] / n)
        g_den_n = _inverse(den_n, g[0, 1] / n)
        a, b = g_den_m * inv_tau, g_den_n * inv_tau
        a_pos = (g_den_m - _inverse(pos_m, g[0, 0] / n)) * inv_tau
        b_pos = (g_den_n - _inverse(pos_n, g[0, 1] / n)) * inv_tau
        grad_m, grad_n = np.empty_like(unit_m), np.zeros_like(unit_n)
        buffer, weights = np.empty((2, min(CHUNK, n), n))
        for lo, hi, exps in _blocks(unit_m, unit_n, inv_tau, buffer):
            local, at_p = _offsets(*csr, lo, hi, 0, n)
            _, at_t = _offsets(*transposed, lo, hi, 0, n)
            flat = exps.reshape(-1)
            # E o B, the column anchors' share, beside E o A, the row
            # anchors': each holds one mask, so no entry needs both
            by_cols = np.multiply(exps, b, out=weights[:hi - lo])
            by_cols.reshape(-1)[at_t] = flat[at_t] * b_pos[at_t % n]
            kept = flat[at_p]
            exps *= a[lo:hi, None]
            flat[at_p] = kept * a_pos[lo + local]
            exps += by_cols
            grad_m[lo:hi] = exps @ unit_n
            grad_n += exps.T @ unit_m[lo:hi]
        for z, grad in ((z_m, _to_rows(grad_m, unit_m, norms_m)),
                        (z_n, _to_rows(grad_n, unit_n, norms_n)),
                        (neg_m, g_den_m[:, None]), (neg_n, g_den_n[:, None])):
            if z.requires_grad:
                z._accumulate(grad)

    losses = [[_log_ratio(den_m, pos_m).mean(), _log_ratio(den_n, pos_n).mean()]]
    return nm._make(np.array(losses), (z_m, z_n, neg_m, neg_n), grad_fn)


class InterPair:
    """Views m != n as one inter pair: `node_node_loss` reads pair (m,n)'s
    loss and pair (n,m)'s from it. The first read makes the pair's one
    `_inter_losses` node, with the anchor nodes `negatives` of z_m and
    z_n; each read is a node over one of its two columns."""

    def __init__(self, z_m: Tensor, z_n: Tensor,
                 negatives: tuple[Tensor, Tensor]):
        self.views = (z_m, z_n)
        self.negatives = negatives
        self.losses: Tensor | None = None

    def read(self, z_m: Tensor, z_n: Tensor, csr, transposed,
             tau: float) -> Tensor:
        if (z_m, z_n) not in (self.views, self.views[::-1]):
            raise ShapeMismatch("the views are not those of this inter pair")
        column = int(z_m is not self.views[0])
        if self.losses is None:
            self.losses = _inter_losses(*self.views, csr, transposed, tau,
                                        self.negatives)
        losses = self.losses

        def grad_fn(g):
            grad = np.zeros((1, 2))
            grad[0, column] = g[0, 0]
            losses._accumulate(grad)

        return nm._make(losses.data[:, column:column + 1].copy(), (losses,),
                        grad_fn)


def node_node_loss(z_m: Tensor, z_n: Tensor, positives: PositiveSets,
                   tau: float, shared: Tensor | InterPair | None = None) -> Tensor:
    """Mean InfoNCE-style loss over anchors, on projected rows.

    Rows are L2-normalized (norms clamped at LOG_EPS), so with unit rows
    u of z_m and w of z_n the logits are S_mn = u w^T / tau and
    S_mm = u u^T / tau, none above 1/tau. Per anchor i, shifted by the
    constant 1/tau, P_i = sum_{j in P_i} exp(S_mn[i,j] - 1/tau) and
    D_i = P_i plus the exp mass of both logit rows outside P_i; the loss
    is mean_i log D_i - log P_i with both logs clamped at LOG_EPS.

    `shared` is what the pair reads from nodes other pairs share. For an
    intra pair it is the anchor view's `anchor_negatives` node, the S_mm
    half of D_i, which every pair with z_m as its anchor view shares; a
    call without it builds its own. This node streams only the n
    cross-view key columns, in blocks of CHUNK anchors, one logits matmul
    and one exp per block. P_i is gathered from the CSR rows
    `positives.mask()` returns, and the cross-view negative mass is the
    row sum left once the positives are zeroed, never a row sum minus the
    positives. As the output is a scalar, the same pass turns each block
    into dL/dS for g = 1 and adds its share to both input gradients;
    backward only scales them, and hands g dL/dD to the anchor node.
    For an inter pair `shared` is the `InterPair` of z_m and z_n, whose
    one node forms this loss and that of the swapped pair; the call reads
    its column. Every call reads the CSR rows once.
    Peak memory is O(CHUNK*n) floats, with no n x n array of any dtype.
    A NaN or inf in a row makes the loss NaN, which the trainer reports.
    """
    n = z_m.shape[0]
    if z_n.shape != z_m.shape:
        raise ShapeMismatch(f"projected views differ: {z_m.shape} vs {z_n.shape}")
    if positives.n != n:
        raise ShapeMismatch(f"positives cover {positives.n} nodes, views have {n}")
    csr = positives.mask()
    if isinstance(shared, InterPair):
        return shared.read(z_m, z_n, csr, positives.transposed, tau)
    negatives = anchor_negatives(z_m, positives, tau) if shared is None else shared
    if negatives.shape != (n, 1):
        raise ShapeMismatch(f"negative masses {negatives.shape}, views have {n} rows")
    needs_grad = (z_m.requires_grad or z_n.requires_grad
                  or negatives.requires_grad)
    inv_tau = 1.0 / tau
    g0 = 1.0 / n
    unit_n, norms_n = _unit_rows(z_n.data)
    unit_m, norms_m = _unit_rows(z_m.data)
    grad_m = np.empty_like(unit_m) if needs_grad else None
    grad_n = np.zeros_like(unit_n) if needs_grad else None
    grad_neg = np.empty((n, 1)) if needs_grad else None

    pos_mass = np.empty((n, 1))
    denominator = np.empty((n, 1))
    block = np.empty((min(CHUNK, n), n))
    for lo, hi, exps in _blocks(unit_m, unit_n, inv_tau, block):
        local, at_pos = _offsets(*csr, lo, hi, 0, n)
        flat = exps.reshape(-1)
        pos, pos_exps = _gather(flat, local, at_pos, hi - lo)
        pos = pos[:, None]
        # what is left once the positives are zeroed is the cross-view
        # negative mass; P_i + that + N_i is exactly P_i when both are 0
        flat[at_pos] = 0.0
        den = pos + exps.sum(axis=1, keepdims=True) + negatives.data[lo:hi]
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

    grads = [(z, _to_rows(grad, unit, norms))
             for z, unit, norms, grad in ((z_m, unit_m, norms_m, grad_m),
                                          (z_n, unit_n, norms_n, grad_n))
             if z.requires_grad]
    if negatives.requires_grad:
        grads.append((negatives, grad_neg))

    def grad_fn(g):
        for z, grad in grads:
            z._accumulate(g[0, 0] * grad)

    return nm._make(np.array([[per_anchor.mean()]]), (z_m, z_n, negatives),
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
            if z.requires_grad:
                z._accumulate(g_logit @ b_s.T)
            if disc_b.requires_grad:
                disc_b._accumulate(z_g @ s_m.data)
            if s_m.requires_grad:
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
    is also the pair's node-node keys. Each anchor view's same-view
    negative mass is one `anchor_negatives` node, made before any pair.
    An intra pair reads its view's; the pairs (m,n) and (n,m) read one
    `InterPair`, which reads both.
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
    negatives = [anchor_negatives(z[m, 1], positives, tau) for m in views]
    inter = {(m, n): InterPair(z[m, 1], z[n, 1], (negatives[m], negatives[n]))
             for m in views for n in views if m < n}
    terms: list[ContrastTerm] = []
    for m in views:
        for n in views:
            if m == n:
                kind, other, shared = "intra", z[m, 2], negatives[m]
            else:
                kind, other, shared = "inter", z[n, 1], inter[min(m, n), max(m, n)]
            terms.append(ContrastTerm(
                m=m, n=n, kind=kind,
                local_loss=node_node_loss(z[m, 1], other, positives, tau,
                                          shared),
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
            if loss.requires_grad:
                loss._accumulate(weight * g)

    return nm._make(total, tuple(loss for loss, _ in losses), grad_fn)
