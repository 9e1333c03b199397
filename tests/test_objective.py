"""Contrastive losses: InfoNCE over positive sets and the global
discriminator objective, summed over ordered view pairs."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import hgcml.model
import hgcml.objective
from conftest import (APA, APCPA, APSPA, TOY_SCHEMA, add, anchor_only,
                      dense_mask, grad_check, layer_bits, matmul, mean_all,
                      mul, mul_const, permute_rows, positive_sets, scale,
                      tape_anchor_negatives, tape_node_graph_loss,
                      tape_node_node_loss, tape_total_objective,
                      tape_weighted_total, two_pass_node_node_loss,
                      view_from_adjacency)
from hgcml.augment import corrupt
from hgcml.config import AugmentSettings, TrainSettings
from hgcml.hin import MetapathSpec, load_hin
from hgcml.model import gcn_forward, init_params, project
from hgcml.numerics import LOG_EPS, AdamState, ShapeMismatch, Tensor, mean_rows
from hgcml.objective import (CHUNK, ContrastTerm, node_graph_loss,
                             node_node_loss, pair_terms, total_objective,
                             view_masses)
from hgcml.positives import PositiveSets, select_positives
from hgcml.rng import substream
from hgcml.trainer import train


def identity_params(d, names=("m",)):
    eye = np.eye(d)
    params = {f"enc.{n}.W": Tensor(eye.copy(), requires_grad=True) for n in names}
    params.update({"proj.W1": Tensor(eye.copy(), requires_grad=True),
                   "proj.b1": Tensor(np.zeros((1, d)), requires_grad=True),
                   "proj.W2": Tensor(eye.copy(), requires_grad=True),
                   "proj.b2": Tensor(np.zeros((1, d)), requires_grad=True),
                   "disc.B": Tensor(np.zeros((d, d)), requires_grad=True)})
    return params


def rand_z(n, d, label, positive=False):
    rng = substream(17, "obj", label)
    data = rng.uniform(0.2, 1.0, (n, d)) if positive else rng.standard_normal((n, d))
    return Tensor(data, requires_grad=True)


def make_views(n_nodes, n_views, d_in, seed):
    rng = substream(seed, "objviews")
    views = []
    for v in range(n_views):
        upper = np.triu(rng.random((n_nodes, n_nodes)) < 0.5, k=1)
        dense = (upper | upper.T).astype(np.float64)
        views.append(view_from_adjacency(
            dense, rng.standard_normal((n_nodes, d_in)), f"v{v}"))
    return views


def corruption_pairs(views, seed):
    pairs = []
    for i, view in enumerate(views):
        one = corrupt(view, 0.3, 0.3, seed + 2 * i)
        two = corrupt(view, 0.3, 0.3, seed + 2 * i + 1)
        pairs.append((one, two))
    return pairs


def test_identical_embeddings_two_nodes_give_log3():
    z = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]))
    ps = anchor_only(2)
    loss = node_node_loss(z, z, ps, tau=0.5)
    assert loss.item() == pytest.approx(math.log(3.0), abs=1e-10)
    # temperature cancels when every similarity ties
    loss2 = node_node_loss(z, z, ps, tau=0.07)
    assert loss2.item() == pytest.approx(math.log(3.0), abs=1e-10)


def test_identical_embeddings_n_nodes_give_log_2n_minus_1():
    n = 5
    z = Tensor(np.tile([[0.3, -0.7, 0.2]], (n, 1)))
    loss = node_node_loss(z, z, anchor_only(n), tau=0.4)
    assert loss.item() == pytest.approx(math.log(2 * n - 1), abs=1e-10)


def test_single_node_loss_is_zero():
    z = rand_z(1, 4, "single")
    loss = node_node_loss(z, z, anchor_only(1), tau=0.5)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_all_positive_universe_loss_is_zero():
    n = 4
    z = rand_z(n, 3, "allpos")
    everything = [np.arange(n, dtype=np.int64) for _ in range(n)]
    ps = positive_sets(everything)
    loss = node_node_loss(z, rand_z(n, 3, "allpos2"), ps, tau=0.5)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_loss_positive_when_negatives_exist():
    z = rand_z(6, 4, "pos")
    loss = node_node_loss(z, rand_z(6, 4, "pos2"),
                          anchor_only(6), tau=0.5)
    assert loss.item() > 0.0


def test_node_node_loss_brute_force_oracle():
    n, d, tau = 5, 3, 0.7
    z_m, z_n = rand_z(n, d, "bf1"), rand_z(n, d, "bf2")
    sim_t = substream(18, "bf").random((n, n))
    sim_s = substream(19, "bf").random((n, n))
    ps = select_positives(sim_t, sim_s, 1, 1)
    loss = node_node_loss(z_m, z_n, ps, tau).item()

    def unit(x):
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    um, un = unit(z_m.data), unit(z_n.data)
    theta_mn = np.exp(um @ un.T / tau)
    theta_mm = np.exp(um @ um.T / tau)
    per_anchor = []
    for u in range(n):
        pos = set(ps.sets[u].tolist())
        num = sum(theta_mn[u, v] for v in pos)
        neg = sum(theta_mm[u, v] + theta_mn[u, v]
                  for v in range(n) if v not in pos)
        per_anchor.append(-math.log(num / (num + neg)))
    assert loss == pytest.approx(np.mean(per_anchor), abs=1e-10)


def test_node_node_loss_permutation_equivariance():
    n, d = 6, 4
    z_m, z_n = rand_z(n, d, "perm1"), rand_z(n, d, "perm2")
    ps = select_positives(substream(20, "perm").random((n, n)),
                          substream(21, "perm").random((n, n)), 2, 1)
    base = node_node_loss(z_m, z_n, ps, tau=0.5).item()
    perm = substream(22, "perm").permutation(n)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    permuted_sets = [np.sort(inv[ps.sets[orig]]) for orig in perm]
    ps_p = positive_sets(permuted_sets)
    shuffled = node_node_loss(Tensor(z_m.data[perm]), Tensor(z_n.data[perm]),
                              ps_p, tau=0.5).item()
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_node_node_loss_cosine_scale_invariance():
    n, d = 5, 4
    z_m, z_n = rand_z(n, d, "scale1"), rand_z(n, d, "scale2")
    ps = anchor_only(n)
    base = node_node_loss(z_m, z_n, ps, tau=0.5).item()
    row_scales = substream(23, "scale").uniform(0.1, 10.0, (n, 1))
    scaled = node_node_loss(Tensor(z_m.data * row_scales),
                            Tensor(z_n.data * 3.7), ps, tau=0.5).item()
    assert abs(scaled - base) <= 1e-10


def sampled_positives(n, label):
    if n == 1:
        return anchor_only(1)
    k = min(3, n - 1)
    return select_positives(substream(25, "sets", label).random((n, n)),
                            substream(26, "sets", label).random((n, n)), k, k)


def positive_mass(z_m, z_n, positives, tau):
    """Shifted positive mass per anchor, straight from the definition."""
    def unit(x):
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    um, un = unit(z_m), unit(z_n)
    s_mn, s_mm = um @ un.T / tau, um @ um.T / tau
    shift = np.maximum(s_mn.max(axis=1), s_mm.max(axis=1))[:, None]
    return (np.exp(s_mn - shift) * dense_mask(positives)).sum(axis=1)


AGREEMENT_CASES = (
    [pytest.param("sampled", n, tau, id=f"sampled-n{n}-tau{tau}")
     for n in (1, 2, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)
     for tau in (0.07, 0.5)]
    + [pytest.param("same_tensor", CHUNK + 1, 0.5, id="same-tensor"),
       pytest.param("anchor_only", CHUNK + 1, 0.5, id="anchor-only"),
       pytest.param("all_positive", CHUNK + 1, 0.5, id="all-positive"),
       pytest.param("clamped", CHUNK + 1, 1 / 15, id="positive-mass-clamped")])


def agreement_inputs(kind, n, tau):
    """Rows of both views and the positive sets of one agreement case."""
    d = 5
    a = rand_z(n, d, f"agree-m-{n}").data
    b = rand_z(n, d, f"agree-n-{n}").data
    if kind == "anchor_only":
        positives = anchor_only(n)
    elif kind == "all_positive":
        everything = [np.arange(n, dtype=np.int64) for _ in range(n)]
        positives = positive_sets(everything)
    elif kind == "clamped":
        # anchor i's only positive z_n[i] points nearly opposite z_m[i], so
        # its shifted positive mass is about exp(-2/tau) = exp(-30): below
        # LOG_EPS, yet large enough that an unclamped gradient through it
        # would show. The tilt keeps that gradient off the direction the
        # row normalization projects out.
        b = -a + 0.2 * b
        positives = anchor_only(n)
        assert np.mean(positive_mass(a, b, positives, tau) < LOG_EPS) > 0.9
    else:
        positives = sampled_positives(n, f"agree-{n}")
    return a, b, positives


def loss_and_grads(loss_fn, a, b, positives, tau, same_tensor=False, w=1.0):
    z_m = Tensor(a.copy(), requires_grad=True)
    z_n = z_m if same_tensor else Tensor(b.copy(), requires_grad=True)
    loss = scale(loss_fn(z_m, z_n, positives, tau), w)
    loss.backward()
    return loss.item(), z_m.grad, z_n.grad


@pytest.mark.parametrize("kind,n,tau", AGREEMENT_CASES)
def test_fused_loss_matches_tape_oracle(kind, n, tau):
    a, b, positives = agreement_inputs(kind, n, tau)
    results = [loss_and_grads(loss_fn, a, b, positives, tau,
                              same_tensor=kind == "same_tensor")
               for loss_fn in (tape_node_node_loss, node_node_loss)]
    (want, want_m, want_n), (got, got_m, got_n) = results
    assert abs(got - want) <= 1e-10
    assert np.abs(got_m - want_m).max() <= 1e-10
    assert np.abs(got_n - want_n).max() <= 1e-10


def relative_error(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def assert_matches_two_pass(inputs, tau, w, same_tensor=False):
    a, b, positives = inputs
    want = loss_and_grads(two_pass_node_node_loss, a, b, positives, tau,
                          same_tensor, w)
    got = loss_and_grads(node_node_loss, a, b, positives, tau, same_tensor, w)
    for got_part, want_part in zip(got, want):
        assert relative_error(got_part, want_part) <= 1e-12


@pytest.mark.parametrize("w", [1.0, 0.3, 2.5])
@pytest.mark.parametrize("kind,n,tau", AGREEMENT_CASES)
def test_one_pass_kernel_matches_two_pass_oracle(kind, n, tau, w):
    assert_matches_two_pass(agreement_inputs(kind, n, tau), tau, w,
                            same_tensor=kind == "same_tensor")


def test_one_pass_kernel_computes_logits_once_per_block(monkeypatch):
    """A standalone call forms the pair's cross-view logits once per block
    of CHUNK anchors; the one-view mass node it builds forms each
    upper-triangle strip once in forward and once more in backward."""
    n = 2 * CHUNK + 3
    calls = []
    shifted_exps = hgcml.objective._shifted_exps

    def counting(*args, **kwargs):
        calls.append(1)
        return shifted_exps(*args, **kwargs)

    monkeypatch.setattr(hgcml.objective, "_shifted_exps", counting)
    z_m, z_n = rand_z(n, 4, "once-m"), rand_z(n, 4, "once-n")
    node_node_loss(z_m, z_n, sampled_positives(n, "once"), 0.5).backward()
    assert len(calls) == 3 * math.ceil(n / CHUNK)


ANCHOR_CASES = (
    [pytest.param("sampled", n, id=f"asymmetric-n{n}")
     for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)]
    + [pytest.param("anchor_only", CHUNK + 1, id="anchor-only"),
       pytest.param("all_positive", CHUNK + 1, id="all-positive")])


def anchor_inputs(kind, n, d=3):
    """Rows of three views, per-anchor weights on N and the positive sets
    of one mass-node case; the sampled sets are asymmetric once n > 1, so
    the P^T mask differs from the P mask."""
    zs = [rand_z(n, d, f"anchor-{v}-{n}") for v in "mnk"]
    if kind == "anchor_only":
        positives = anchor_only(n)
    elif kind == "all_positive":
        positives = positive_sets([np.arange(n) for _ in range(n)])
    else:
        positives = sampled_positives(n, f"anchor-{n}")
        mask = dense_mask(positives)
        assert n == 1 or (mask != mask.T).any()
    weights = substream(27, "anchor-w", n).uniform(0.5, 1.5, (n, 1))
    return zs, weights, positives


def columns(masses, views, cells):
    """The columns of a `view_masses` node at the cells (m, k, outside),
    as a tape node: a product with a 0/1 selector, exact."""
    pick = np.zeros((masses.shape[1], len(cells)))
    for c, (m, k, outside) in enumerate(cells):
        pick[2 * (m * views + k) + outside, c] = 1.0
    return matmul(masses, Tensor(pick))


def weighted_masses(zs, positives, tau, label):
    """A scalar over every column of the mass node of `zs`, each column
    and anchor weighted apart, so each one's gradient shows."""
    masses = view_masses(zs, positives, tau)
    weights = substream(28, "masses-w", label).uniform(0.5, 1.5, masses.shape)
    return mean_all(mul_const(masses, weights))


@pytest.mark.parametrize("tau", [0.07, 0.5])
@pytest.mark.parametrize("kind,n", ANCHOR_CASES)
def test_anchor_node_matches_the_dense_oracle(kind, n, tau):
    """Every view's N column of the mass node, at one, two and three
    views, and the gradients of their weighted mean agree with dense tape
    ops over each view's full n x n similarity."""
    zs, weights, positives = anchor_inputs(kind, n)
    for views in (1, 2, 3):
        results = []
        for negatives_of in (
                lambda zs: [tape_anchor_negatives(z, positives, tau)
                            for z in zs],
                lambda zs: [columns(view_masses(zs, positives, tau), views,
                                    [(m, m, 1)]) for m in range(views)]):
            leaves = [Tensor(z.data.copy(), requires_grad=True)
                      for z in zs[:views]]
            negatives = negatives_of(leaves)
            total = mean_all(mul_const(negatives[0], weights))
            for m, column in enumerate(negatives[1:], 1):
                total = add(total, scale(mean_all(column), m + 0.5))
            total.backward()
            results.append(([t.data for t in negatives],
                             [t.grad for t in leaves]))
        (want, want_grads), (got, got_grads) = results
        for got_part, want_part in zip(got + got_grads, want + want_grads):
            assert relative_error(got_part, want_part) <= 1e-12


# the finite-difference checks run the same block layout at a small CHUNK
FD_CHUNK = 8
FD_CASES = (
    [pytest.param("sampled", n, id=f"asymmetric-n{n}")
     for n in (1, FD_CHUNK - 1, FD_CHUNK, FD_CHUNK + 1, 2 * FD_CHUNK + 3)]
    + [pytest.param("anchor_only", FD_CHUNK + 1, id="anchor-only"),
       pytest.param("all_positive", FD_CHUNK + 1, id="all-positive")])


@pytest.mark.parametrize("kind,n", FD_CASES)
def test_anchor_node_passes_the_finite_difference_check(monkeypatch, kind, n):
    """The mass node of one view, the same-view strips alone."""
    monkeypatch.setattr(hgcml.objective, "CHUNK", FD_CHUNK)
    zs, _, positives = anchor_inputs(kind, n)
    assert grad_check(lambda: weighted_masses(zs[:1], positives, 0.5, n),
                      zs[:1]) < 1e-6


@pytest.mark.parametrize("kind,n", FD_CASES)
def test_pair_node_passes_the_finite_difference_check(monkeypatch, kind, n):
    """The intra pair node on its own, with the masses as a leaf, and fed
    by the mass node as pair_terms feeds it."""
    monkeypatch.setattr(hgcml.objective, "CHUNK", FD_CHUNK)
    (a, b, _), _, positives = anchor_inputs(kind, n)
    masses = Tensor(view_masses([a], positives, 0.5).data, requires_grad=True)
    assert grad_check(lambda: node_node_loss(a, b, positives, 0.5,
                                             (masses, 0, 0)),
                      [a, b, masses]) < 1e-6
    assert grad_check(lambda: node_node_loss(
        a, b, positives, 0.5, (view_masses([a], positives, 0.5), 0, 0)),
        [a, b]) < 1e-6


def inter_pair_losses(z_m, z_n, positives, tau, masses=None):
    """Pair (m,n)'s and pair (n,m)'s losses, read from one mass node over
    both views as pair_terms reads them."""
    if masses is None:
        masses = view_masses([z_m, z_n], positives, tau)
    return (node_node_loss(z_m, z_n, positives, tau, (masses, 0, 1)),
            node_node_loss(z_n, z_m, positives, tau, (masses, 1, 0)))


def one_pass_losses(z_m, z_n, positives, tau):
    """The same two losses from two standalone one-pass nodes."""
    return (node_node_loss(z_m, z_n, positives, tau),
            node_node_loss(z_n, z_m, positives, tau))


def weighted_pair(losses):
    """A scalar over both ordered losses, weighted apart so each
    direction's gradient shows."""
    return add(scale(losses[0], 0.7), scale(losses[1], 1.3))


@pytest.mark.parametrize("kind,n", FD_CASES)
def test_inter_pair_passes_the_finite_difference_check(monkeypatch, kind, n):
    """The mass node of two and of three views, every column weighted
    apart, and both ordered inter losses read from it, with the masses
    as a leaf and fed by the node as pair_terms feeds them: asymmetric P
    once n > 1, blocks that straddle the CHUNK edges."""
    monkeypatch.setattr(hgcml.objective, "CHUNK", FD_CHUNK)
    zs, _, positives = anchor_inputs(kind, n)
    for views in (2, 3):
        assert grad_check(lambda: weighted_masses(
            zs[:views], positives, 0.5, (n, views)), zs[:views]) < 1e-6
    a, b, _ = zs
    masses = Tensor(view_masses([a, b], positives, 0.5).data,
                    requires_grad=True)
    assert grad_check(lambda: weighted_pair(inter_pair_losses(
        a, b, positives, 0.5, masses)), [masses]) < 1e-6
    assert grad_check(lambda: weighted_pair(inter_pair_losses(
        a, b, positives, 0.5)), [a, b]) < 1e-6


@pytest.mark.parametrize("kind,n,tau", [case for case in AGREEMENT_CASES
                                        if case.values[0] != "same_tensor"])
def test_inter_pair_matches_two_one_pass_nodes(kind, n, tau):
    """Both ordered losses read from the mass node, and the gradients of
    both views through them and through each view's N, agree with two
    standalone one-pass nodes."""
    a, b, positives = agreement_inputs(kind, n, tau)
    results = []
    for pair_fn in (one_pass_losses, inter_pair_losses):
        leaves = [Tensor(x.copy(), requires_grad=True) for x in (a, b)]
        losses = pair_fn(*leaves, positives, tau)
        weighted_pair(losses).backward()
        results.append(([loss.item() for loss in losses],
                        [t.grad for t in leaves]))
    (want, want_grads), (got, got_grads) = results
    assert relative_error(got, want) <= 1e-12
    for got_grad, want_grad in zip(got_grads, want_grads):
        assert relative_error(got_grad, want_grad) <= 1e-12


def test_inter_pair_forms_each_block_once_per_pass(monkeypatch):
    """The mass node of V views forms each block of CHUNK rows of every
    view pair (m,k), k >= m, once in forward and once more in backward:
    V(V+1)/2 logits matmuls per block and pass, where one pass per
    ordered pair would make V^2."""
    n = 2 * CHUNK + 3
    calls = []
    shifted_exps = hgcml.objective._shifted_exps

    def counting(*args, **kwargs):
        calls.append(1)
        return shifted_exps(*args, **kwargs)

    zs = [rand_z(n, 4, f"interonce-{v}") for v in range(3)]
    positives = sampled_positives(n, "interonce")
    monkeypatch.setattr(hgcml.objective, "_shifted_exps", counting)
    for views in (1, 2, 3):
        calls.clear()
        blocks = views * (views + 1) // 2 * math.ceil(n / CHUNK)
        total = weighted_masses(zs[:views], positives, 0.5, views)
        assert len(calls) == blocks
        total.backward()
        assert len(calls) == 2 * blocks


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["anchor", "key"])
@pytest.mark.parametrize("grad", [True, False])
def test_inter_pair_non_finite_row_gives_two_nan_losses(value, side, grad):
    """A NaN or inf in a row of the second block of either view makes
    both ordered losses NaN, with or without gradients."""
    z_m, z_n = rand_z(CHUNK + 5, 4, "internan1"), rand_z(CHUNK + 5, 4,
                                                          "internan2")
    (z_m if side == "anchor" else z_n).data[CHUNK + 2, 1] = value
    if not grad:
        z_m, z_n = Tensor(z_m.data), Tensor(z_n.data)
    positives = sampled_positives(CHUNK + 5, "internan")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        losses = inter_pair_losses(z_m, z_n, positives, 0.5)
    assert all(np.isnan(loss.item()) for loss in losses)
    assert all(loss.requires_grad == grad for loss in losses)


def test_inter_pair_without_gradients_gives_the_same_bits():
    """A forward over constants, as in the untaped last epoch, gives the
    loss bits of one whose inputs take gradients."""
    n = 2 * CHUNK + 3
    a, b, positives = agreement_inputs("sampled", n, 0.5)

    def losses(requires_grad):
        z = [Tensor(x.copy(), requires_grad=requires_grad) for x in (a, b)]
        return [loss.data.tobytes()
                for loss in inter_pair_losses(*z, positives, 0.5)]

    assert losses(False) == losses(True)


def test_inter_pair_reads_only_its_own_views():
    """Pair (m,k)'s call hands gradients only to the mass node's columns
    of its own views: its masses on and outside P_i, and N_m."""
    views, n = 3, 9
    zs = [rand_z(n, 3, f"interown{v}") for v in range(views)]
    positives = sampled_positives(n, "interown")
    for m, k in ((0, 2), (2, 1)):
        masses = Tensor(view_masses(zs, positives, 0.5).data,
                        requires_grad=True)
        node_node_loss(zs[m], zs[k], positives, 0.5,
                       (masses, m, k)).backward()
        read = {2 * (m * views + k), 2 * (m * views + k) + 1,
                2 * (m * views + m) + 1}
        assert set(np.flatnonzero(masses.grad.any(axis=0))) == read


def test_anchor_node_keeps_no_n_by_d_array():
    """What the mass node of one view leaves on the tape after its
    forward, with the run's block layout already built, is its n x 2
    masses and little else: under half of one n x d array, and under
    twice the masses, so no block's index arrays."""
    n, d = 600, 64
    z = rand_z(n, d, "anchorheld")
    positives = sampled_positives(n, "anchorheld")
    positives.blocks(CHUNK)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        masses = view_masses([z], positives, 0.5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert masses.requires_grad
    assert held < n * d * 8 / 2, held
    assert held < 2 * masses.data.nbytes, held


def test_one_pass_kernel_without_grad_inputs_matches():
    n = CHUNK + 1
    a, b, positives = agreement_inputs("sampled", n, 0.5)
    frozen = node_node_loss(Tensor(a), Tensor(b), positives, 0.5)
    assert not frozen.requires_grad
    assert frozen.item() == loss_and_grads(node_node_loss, a, b, positives, 0.5)[0]


def test_one_pass_kernel_peak_memory_is_below_a_dense_mask(monkeypatch):
    # a logits block of 32 x 2n floats is n^2 / 4 bytes at n = 2048, so the
    # bound leaves room for the block but not for an n x n boolean mask
    monkeypatch.setattr(hgcml.objective, "CHUNK", 32)
    n, d = 2048, 8
    rng = substream(17, "obj", "sparse-mem")
    a, b = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    positives = positive_sets([np.union1d(rng.integers(0, n, 5), [u])
                               for u in range(n)])
    z_m, z_n = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    tracemalloc.start()
    try:
        node_node_loss(z_m, z_n, positives, 0.5).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n, peak


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["anchor", "key"])
@pytest.mark.parametrize("grad", [True, False])
def test_fused_loss_non_finite_row_gives_a_nan_loss(value, side, grad):
    """A NaN or inf in a row of the second block makes the loss NaN, with or
    without gradients, whether the call builds its mass node or is handed
    one; the trainer's finiteness check is what reports it."""
    z_m, z_n = rand_z(CHUNK + 5, 4, "nan1"), rand_z(CHUNK + 5, 4, "nan2")
    (z_m if side == "anchor" else z_n).data[CHUNK + 2, 1] = value
    if not grad:
        z_m, z_n = Tensor(z_m.data), Tensor(z_n.data)
    positives = sampled_positives(CHUNK + 5, "nan")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        loss = node_node_loss(z_m, z_n, positives, tau=0.5)
        # as pair_terms calls it, with the mass node passed in
        masses = view_masses([z_m], positives, 0.5)
        shared = node_node_loss(z_m, z_n, positives, 0.5, (masses, 0, 0))
    assert np.isnan(loss.item()) and np.isnan(shared.item())
    if side == "anchor":
        assert np.isnan(masses.data[CHUNK + 2, 1])


def test_fused_loss_peak_memory_is_a_tenth_of_the_oracle():
    n, d = 1024, 64
    a, b = rand_z(n, d, "mem1").data, rand_z(n, d, "mem2").data
    positives = sampled_positives(n, "mem")

    def peak_bytes(loss_fn):
        z_m, z_n = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        tracemalloc.start()
        try:
            loss_fn(z_m, z_n, positives, 0.5).backward()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fused, oracle = peak_bytes(node_node_loss), peak_bytes(tape_node_node_loss)
    assert fused * 10 <= oracle, (fused, oracle)


def test_negative_masses_of_another_shape_are_rejected():
    z = rand_z(4, 3, "negshape")
    with pytest.raises(ShapeMismatch, match="negative masses"):
        node_node_loss(z, z, anchor_only(4), 0.5,
                       (Tensor(np.ones((3, 2))), 0, 0))


def test_zero_discriminator_gives_two_log_two():
    params = identity_params(3)
    h = rand_z(4, 3, "disc1", positive=True)
    h_neg = rand_z(4, 3, "disc2", positive=True)
    s = mean_rows(h)
    loss = node_graph_loss(h, h_neg, s, params)
    assert loss.item() == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_node_graph_loss_numpy_oracle():
    d = 3
    params = identity_params(d)
    b = substream(24, "ng").standard_normal((d, d))
    params["disc.B"] = Tensor(b.copy(), requires_grad=True)
    h = rand_z(5, d, "ng1", positive=True)
    h_neg = rand_z(5, d, "ng2", positive=True)
    s = mean_rows(h)
    loss = node_graph_loss(h, h_neg, s, params).item()
    # identity projector keeps positive activations unchanged
    summary = h.data.mean(axis=0, keepdims=True)
    pos = h.data @ b @ summary.T
    neg = h_neg.data @ b @ summary.T
    softplus = lambda x: np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
    expected = float(np.mean(softplus(-pos) + softplus(neg)))
    assert loss == pytest.approx(expected, abs=1e-12)


def test_node_graph_node_is_bit_equal_to_its_op_chain():
    """Loss and the gradients of z_m, disc.B, the summary and z_neg, bit
    for bit."""
    n, d = 11, 5
    rng = substream(43, "ngbits")
    arrays = [rng.standard_normal(shape)
              for shape in ((n, d), (d, d), (1, d), (n, d))]

    def bits(loss):
        z_m, disc_b, s_m, z_neg = (Tensor(a.copy(), requires_grad=True)
                                   for a in arrays)
        return layer_bits(loss, (z_m, z_neg, s_m, {"disc.B": disc_b}),
                          [z_m, disc_b, s_m, z_neg], 1.7)

    assert bits(node_graph_loss) == bits(tape_node_graph_loss)


def test_node_graph_loss_ignores_the_order_of_the_negative_rows():
    """Each row's two softplus terms depend on that row alone, so permuting
    z_neg's rows leaves the loss and the gradients of z_m, disc.B and the
    summary unchanged up to the order of the float sums, and permutes
    z_neg's gradient with the rows: a row shuffle of the negative branch
    would add nothing."""
    n, d = 37, 6
    rng = substream(45, "ngperm")
    arrays = [rng.standard_normal(shape)
              for shape in ((n, d), (d, d), (1, d), (n, d))]

    def run(rows):
        z_m, disc_b, s_m, z_neg = (Tensor(a.copy(), requires_grad=True)
                                   for a in arrays[:3] + [arrays[3][rows]])
        loss = node_graph_loss(z_m, z_neg, s_m, {"disc.B": disc_b})
        loss.backward()
        return loss.data, [t.grad for t in (z_m, disc_b, s_m, z_neg)]

    def close(a, b):
        return np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    loss, grads = run(np.arange(n))
    for _ in range(5):
        rows = rng.permutation(n)
        shuffled, (g_m, g_b, g_s, g_neg) = run(rows)
        assert close(shuffled, loss)
        assert close(g_m, grads[0]) and close(g_b, grads[1])
        assert close(g_s, grads[2]) and close(g_neg, grads[3][rows])


@pytest.mark.parametrize("order", ["none", "identity", "random"])
def test_node_graph_rows_are_bit_equal_to_a_permute_node(order):
    """The node fed a negative branch whose rows a `permute_rows` node
    shuffled gives the bits of the op chain that shuffles them itself: the
    loss and the gradients of z_m, disc.B, the summary and the unshuffled
    z_neg. At the identity permutation these are also the unshuffled
    node's bits, so an identity shuffle of the negative rows changes none."""
    n, d = 13, 4
    rng = substream(45, "ngrows")
    arrays = [rng.standard_normal(shape)
              for shape in ((n, d), (d, d), (1, d), (n, d))]
    rows = {"none": None, "identity": np.arange(n),
            "random": rng.permutation(n)}[order]

    def shuffled_node(z_m, z_neg, s_m, params, rows):
        if rows is not None:
            z_neg = permute_rows(z_neg, rows)
        return node_graph_loss(z_m, z_neg, s_m, params)

    def bits(loss, rows):
        z_m, disc_b, s_m, z_neg = (Tensor(a.copy(), requires_grad=True)
                                   for a in arrays)
        return layer_bits(loss, (z_m, z_neg, s_m, {"disc.B": disc_b}, rows),
                          [z_m, disc_b, s_m, z_neg], 0.6)

    fused = bits(shuffled_node, rows)
    assert fused == bits(tape_node_graph_loss, rows)
    if order == "identity":
        assert fused == bits(shuffled_node, None)


def test_node_graph_loss_rejects_a_summary_of_another_shape():
    z = rand_z(4, 3, "ngshape")
    with pytest.raises(ShapeMismatch, match="bilinear"):
        node_graph_loss(z, z, Tensor(np.zeros((2, 3))), identity_params(3))


def test_total_node_is_bit_equal_to_its_add_scale_chain(monkeypatch):
    """The weighted total over pair losses, and each pair loss's gradient,
    bit for bit: the pair losses are leaves here, so they keep `.grad`."""
    values = substream(44, "totalbits").standard_normal((4, 2))

    def bits(total_of):
        terms = [ContrastTerm(m=i // 2, n=i % 2, kind="", local_loss=Tensor(
                     local, requires_grad=True), global_loss=Tensor(
                     glob, requires_grad=True))
                 for i, (local, glob) in enumerate(values)]
        monkeypatch.setattr(hgcml.objective, "pair_terms", lambda *_: terms)
        total = total_of(terms)
        data = total.data.tobytes()
        total.backward()
        return data, [t.grad.tobytes() for term in terms
                      for t in (term.local_loss, term.global_loss)]

    fused = bits(lambda _: total_objective(None, None, None, 0.5,
                                           w_local=0.3, w_global=1.7))
    assert fused == bits(lambda terms: tape_weighted_total(terms, 0.3, 1.7))


EPOCH_VARIANTS = {"default": {}, "share_encoder": {"share": True},
                  "literal_eq2": {"identity_rows": True},
                  "loss_weights": {"weights": (0.5, 2.0)}}


@pytest.mark.parametrize("variant", sorted(EPOCH_VARIANTS))
@pytest.mark.parametrize("n_views", [1, 2, 3, 6])
def test_epoch_gradients_are_bit_equal_to_the_op_tape(n_views, variant):
    """Two epochs of total_objective, backward and an Adam step leave every
    parameter's loss, gradient and value bit-equal to the per-op tape's,
    so the layer nodes keep the tape's order of gradient sums. In the
    literal_eq2 variant each negative branch of the tape passes through an
    identity `permute_rows` node, the path of the former literal Eq. 2
    switch, and the bits still match: dropping the shuffle kept that
    path's results."""
    options = EPOCH_VARIANTS[variant]
    n = 9
    views = make_views(n, n_views, 4, seed=130 + n_views)
    corrupted = corruption_pairs(views, seed=131)
    positives = sampled_positives(n, f"epoch-{n_views}")
    w_local, w_global = options.get("weights", (1.0, 1.0))

    def bits(objective):
        params = init_params([v.metapath.name for v in views], d_in=4, d=5,
                             seed=8, share_encoder=options.get("share", False))
        unique = list({id(t): t for t in params.values()}.values())
        optimizer = AdamState([t.data for t in unique], lr=0.05)
        out = []
        for _ in range(2):
            loss = objective(corrupted, params, positives, 0.5, w_local,
                             w_global)
            out.append(loss.data.tobytes())
            loss.backward()
            out += [t.grad.tobytes() for t in params.values()]
            optimizer.step([t.grad for t in unique])
            for t in unique:
                t.grad = None
        return out + [t.data.tobytes() for t in params.values()]

    rows = np.arange(n) if options.get("identity_rows") else None
    assert bits(total_objective) == bits(
        lambda *args: tape_total_objective(*args, rows=rows))


def tape_memory(objective):
    """(held, peak) of one forward of `objective` at n=600, d=64 and two
    views, in n x d float64 arrays: what the tape holds once the forward
    returns, and the most the forward held at once (`tracemalloc`)."""
    n, d = 600, 64
    rng = substream(140, "tapemem")
    views = []
    for v in range(2):
        upper = np.triu(rng.random((n, n)) < 10 / n, k=1)
        views.append(view_from_adjacency(upper | upper.T,
                                         rng.standard_normal((n, d)), f"v{v}"))
    corrupted = corruption_pairs(views, seed=141)
    positives = sampled_positives(n, "tapemem")
    params = init_params(["v0", "v1"], d_in=d, d=d, seed=9)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = objective(corrupted, params, positives, 0.5)
        held, peak = tracemalloc.get_traced_memory()
        return (held - before) / (n * d * 8), (peak - before) / (n * d * 8)
    finally:
        tracemalloc.stop()


def test_tape_holds_at_most_18_arrays_after_the_forward():
    """A node-graph pair keeps its logits and B s^T, the mass node its
    n x 2V^2 masses and index arrays, and an inter pair's node-node call
    two n x 1 vectors, so the tape holds at most 18 n x d arrays (17.8
    measured; 17.5 with an anchor node per view and a two-pass node per
    inter pair, 21.4 when each ordered inter pair kept its two n x d
    input gradients, 31 when each pair also kept its z B and a
    row-shuffled copy of its negative branch); the per-op tape holds more
    than 38 (39.2 measured, 50.8 when its bilinear chain kept each
    branch's z B)."""
    fused, oracle = tape_memory(total_objective)[0], tape_memory(
        tape_total_objective)[0]
    assert fused <= 18 < 38 < oracle, (fused, oracle)


def test_forward_peaks_at_most_32_arrays():
    """total_objective's forward never holds more than 32 n x d arrays at
    once (23.1 measured; 22.9 with an anchor node per view and a two-pass
    node per inter pair, 26.7 when each ordered inter pair formed its own
    input gradients, 30.1 with each pair's 2n-key logits block, 41.4 with
    each pair's z B, row-shuffled copies of the negative branches and the
    node-node kernel's separate unit rows)."""
    peak = tape_memory(total_objective)[1]
    assert peak <= 32, peak


def test_node_node_call_with_gradients_peaks_at_most_12_arrays():
    """One node-node call that forms both input gradients, with the mass
    node it builds, peaks at 12 n x d arrays at n=600, d=64 (9.7 measured;
    9.6 with an anchor node, 9.5 before the P^T arrays it builds on first
    use; 11.2 with each pair's 2n-key logits block, 14.4 with the unit
    rows beside the keys and out-of-place gradient temporaries)."""
    n, d = 600, 64
    z_m, z_n = rand_z(n, d, "nnpeak1"), rand_z(n, d, "nnpeak2")
    positives = sampled_positives(n, "nnpeak")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = node_node_loss(z_m, z_n, positives, 0.5)
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z_m.grad is not None and z_n.grad is not None
    assert (peak - before) / (n * d * 8) <= 12, peak


def test_pair_term_count_and_kinds():
    for n_views, expected in ((1, 1), (2, 4), (3, 9)):
        views = make_views(5, n_views, 3, seed=30 + n_views)
        params = init_params([v.metapath.name for v in views],
                             d_in=3, d=4, seed=1)
        terms = pair_terms(corruption_pairs(views, seed=40), params,
                           anchor_only(5), tau=0.5)
        assert len(terms) == expected
        kinds = {(t.m, t.n): t.kind for t in terms}
        assert all(kinds[(m, n)] == ("intra" if m == n else "inter")
                   for m, n in kinds)
        intra = sum(t.kind == "intra" for t in terms)
        assert intra == n_views


def test_pair_terms_take_each_views_encoder_by_name():
    """Views passed in the reverse of the parameters' order give every
    (anchor view, key view) pair the in-order losses, bit for bit; a view
    whose metapath has no encoder is a ShapeMismatch naming the view."""
    views = make_views(6, 3, 3, seed=120)
    params = init_params([v.metapath.name for v in views], d_in=3, d=4, seed=7)
    corrupted = corruption_pairs(views, seed=122)
    positives = sampled_positives(6, "byname")

    def losses(order):
        terms = pair_terms([corrupted[i] for i in order], params, positives,
                           tau=0.5)
        return {(order[t.m], order[t.n]): (t.local_loss.item(),
                                           t.global_loss.item())
                for t in terms}

    in_order = losses([0, 1, 2])
    assert len(in_order) == 9
    assert losses([2, 1, 0]) == in_order
    with pytest.raises(ShapeMismatch, match="view 'v2'"):
        pair_terms(corrupted, init_params(["v0", "v1"], d_in=3, d=4, seed=7),
                   positives, tau=0.5)


def constant_rule_cases():
    """(layer, arrays) per layer node: `layer` maps named input tensors to
    the node's output, and `arrays` holds those inputs' values."""
    n, d = 9, 3
    rng = substream(31, "constant-rule")
    positives = sampled_positives(n, "constant-rule")
    views = make_views(n, 2, d, seed=31)
    corrupted = corruption_pairs(views, seed=32)
    z = {f"z{v}": rng.standard_normal((n, d)) for v in range(3)}
    params = {name: t.data for name, t in init_params(
        [view.metapath.name for view in views], d_in=d, d=4, seed=33).items()}
    projector = {name: rng.standard_normal(params[name].shape)
                 for name in ("proj.W1", "proj.b1", "proj.W2", "proj.b2")}

    def masses(count):
        return view_masses([Tensor(z[f"z{v}"]) for v in range(count)],
                           positives, 0.5).data

    return {
        "gcn_forward": (lambda t: gcn_forward(views[0], t["W"]),
                        {"W": rng.standard_normal((d, 4))}),
        "project": (lambda t: project(t["h"], t),
                    {"h": rng.standard_normal((n, 4)), **projector}),
        "mean_rows": (lambda t: mean_rows(t["a"]),
                      {"a": rng.standard_normal((n, d))}),
        "view_masses": (lambda t: view_masses([t[k] for k in sorted(z)],
                                              positives, 0.5), z),
        "node_node_loss-intra": (
            lambda t: node_node_loss(t["z0"], t["z1"], positives, 0.5,
                                     (t["masses"], 0, 0)),
            {"z0": z["z0"], "z1": z["z1"], "masses": masses(1)}),
        "node_node_loss-inter": (
            lambda t: node_node_loss(Tensor(z["z0"]), Tensor(z["z1"]),
                                     positives, 0.5, (t["masses"], 0, 1)),
            {"masses": masses(2)}),
        "node_graph_loss": (
            lambda t: node_graph_loss(t["z_m"], t["z_neg"], t["s_m"], t),
            {"z_m": z["z0"], "z_neg": z["z1"],
             "s_m": rng.standard_normal((1, d)),
             "disc.B": rng.standard_normal((d, d))}),
        "total_objective": (
            lambda t: total_objective(corrupted, t, positives, 0.5), params),
    }


CONSTANT_RULE_CASES = constant_rule_cases()


@pytest.mark.parametrize("layer", sorted(CONSTANT_RULE_CASES))
def test_a_constant_input_takes_no_gradient_and_moves_no_other(layer):
    """Each layer's backward hands every parent its gradient, and the tape
    alone keeps a constant's out: made constant, an input's .grad stays
    None, and every other input, with the trainable weight the output is
    scored by, gets the bits it gets when all inputs are trainable."""
    build, arrays = CONSTANT_RULE_CASES[layer]

    def grads(constant):
        inputs = {name: Tensor(a.copy(), requires_grad=name != constant)
                  for name, a in arrays.items()}
        out = build(inputs)
        weight = Tensor(substream(34, "constant-rule", layer).standard_normal(
            out.shape), requires_grad=True)
        mean_all(mul(out, weight)).backward()
        return {name: t.grad for name, t in [*inputs.items(),
                                             ("weight", weight)]}

    def bits(grads):
        return {name: g.tobytes() for name, g in grads.items()}

    trainable = bits(grads(None))
    for name in arrays:
        got = grads(name)
        assert got.pop(name) is None, name
        assert bits(got) == {k: v for k, v in trainable.items() if k != name}


def test_total_objective_equals_sum_of_terms():
    views = make_views(6, 2, 3, seed=50)
    names = [v.metapath.name for v in views]
    params = init_params(names, d_in=3, d=4, seed=2)
    ps = anchor_only(6)
    corrupted = corruption_pairs(views, seed=60)
    terms = pair_terms(corrupted, params, ps, tau=0.5)
    total = total_objective(corrupted, params, ps, tau=0.5)
    by_hand = sum(t.local_loss.item() + t.global_loss.item() for t in terms)
    assert total.item() == pytest.approx(by_hand, abs=1e-10)
    weighted = total_objective(corrupted, params, ps, tau=0.5, w_local=0.3,
                               w_global=1.7)
    by_hand_w = sum(0.3 * t.local_loss.item() + 1.7 * t.global_loss.item()
                    for t in terms)
    assert weighted.item() == pytest.approx(by_hand_w, abs=1e-10)


@pytest.mark.parametrize("name", ["enc.v0.W", "proj.W1"])
def test_a_nan_weight_gives_a_nan_total_objective(name):
    """ReLU carries a NaN pre-activation through, so a NaN weight in an
    encoder or in the projector reaches the loss that training checks."""
    views = make_views(6, 2, 3, seed=50)
    params = init_params([v.metapath.name for v in views], d_in=3, d=4, seed=2)
    params[name].data[0, 0] = np.nan
    loss = total_objective(corruption_pairs(views, seed=60), params,
                           anchor_only(6), tau=0.5)
    assert np.isnan(loss.item())


@pytest.mark.parametrize("n_views", [1, 2, 3])
def test_projector_runs_once_per_corrupted_view_and_summary(monkeypatch,
                                                            n_views):
    calls = []
    for module in (hgcml.model, hgcml.objective):
        def counted(h, params, original=module.project):
            calls.append(h.shape)
            return original(h, params)
        monkeypatch.setattr(module, "project", counted)
    views = make_views(5, n_views, 3, seed=100 + n_views)
    params = init_params([v.metapath.name for v in views], d_in=3, d=4, seed=5)
    total_objective(corruption_pairs(views, seed=102), params,
                    anchor_only(5), tau=0.5)
    # two corruptions and one summary per view
    assert len(calls) == 3 * n_views
    assert sorted(calls) == sorted([(5, 4)] * 2 * n_views + [(1, 4)] * n_views)


@pytest.mark.parametrize("n_views", [1, 2, 3])
def test_one_mass_node_and_one_node_node_call_per_pair(monkeypatch, n_views):
    """One total_objective makes one mass node and V^2 node-node calls,
    and PositiveSets.mask runs once per call: the mass node reads the CSR
    arrays itself. These are the counts the benchmark's tracer sees."""
    calls = {"masses": 0, "pair": 0, "mask": 0}
    for name, owner, attr in (("masses", hgcml.objective, "view_masses"),
                              ("pair", hgcml.objective, "node_node_loss"),
                              ("mask", PositiveSets, "mask")):
        def counted(*args, name=name, original=getattr(owner, attr)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, attr, counted)
    views = make_views(5, n_views, 3, seed=103 + n_views)
    params = init_params([v.metapath.name for v in views], d_in=3, d=4, seed=5)
    total_objective(corruption_pairs(views, seed=105), params,
                    sampled_positives(5, "counts"), tau=0.5)
    assert calls == {"masses": 1, "pair": n_views ** 2, "mask": n_views ** 2}


@pytest.mark.parametrize("n_views", [1, 2, 3, 6])
def test_train_builds_the_layout_once_per_height(monkeypatch, toy_paths,
                                                 n_views):
    """A 3-epoch train, two taped epochs and an untaped last one, builds
    the positive sets' block layout once, at CHUNK, and forms no offsets
    after that: both node-node kernels of every epoch walk that one."""
    monkeypatch.setattr(hgcml.objective, "CHUNK", 3)
    heights = []
    layout = PositiveSets._layout

    def counting(positives, height):
        heights.append(height)
        return layout(positives, height)

    monkeypatch.setattr(PositiveSets, "_layout", counting)
    relations = [APA.relations, APCPA.relations, APSPA.relations]
    metapaths = [MetapathSpec(f"m{v}", relations[v % 3])
                 for v in range(n_views)]
    hin = load_hin(toy_paths["nodes"], toy_paths["edges"],
                   toy_paths["features"], None, TOY_SCHEMA, metapaths)
    positives = sampled_positives(hin.n_target, "layout")
    result = train(hin, metapaths, positives,
                   TrainSettings(dim=4, max_epochs=3, patience=3),
                   AugmentSettings(), seed=0)
    assert len(result.trace) == 3
    assert heights == [3]


def test_pair_global_losses_match_projected_numpy_oracle():
    views = make_views(6, 2, 3, seed=110)
    params = init_params([v.metapath.name for v in views], d_in=3, d=4, seed=6)
    corrupted = corruption_pairs(views, seed=113)
    h = {(i, copy): gcn_forward(pair[copy - 1], params[f"enc.v{i}.W"]).data
         for i, pair in enumerate(corrupted) for copy in (1, 2)}
    # centre each hidden unit on the median row, so the ReLU cuts through
    # the rows and the projection of the mean is not the mean of projections
    rows = np.vstack([h[0, 1], h[1, 1]])
    params["proj.b1"].data[:] = -np.median(rows @ params["proj.W1"].data, axis=0)
    rng = substream(111, "ngoracle")
    params["proj.b2"].data[:] = rng.standard_normal(params["proj.b2"].shape)
    params["disc.B"].data[:] = rng.standard_normal(params["disc.B"].shape)
    terms = pair_terms(corrupted, params, anchor_only(6),
                       tau=0.5)

    def rho(h):
        hidden = np.maximum(h @ params["proj.W1"].data + params["proj.b1"].data, 0.0)
        return hidden @ params["proj.W2"].data + params["proj.b2"].data

    def softplus(x):
        return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))

    b = params["disc.B"].data
    assert len(terms) == 4
    for term in terms:
        m, n = term.m, term.n
        neg = h[m, 2] if m == n else h[n, 1]
        summary = rho(h[m, 1].mean(axis=0, keepdims=True))
        expected = np.mean(softplus(-rho(h[m, 1]) @ b @ summary.T)
                           + softplus(rho(neg) @ b @ summary.T))
        assert abs(term.global_loss.item() - expected) <= 1e-12 * abs(expected)
        mean_of_rho = rho(h[m, 1]).mean(axis=0, keepdims=True)
        wrong = np.mean(softplus(-rho(h[m, 1]) @ b @ mean_of_rho.T)
                        + softplus(rho(neg) @ b @ mean_of_rho.T))
        assert abs(wrong - expected) > 1e-6


def test_objective_gradients_flow_to_all_parameters():
    views = make_views(5, 2, 3, seed=90)
    names = [v.metapath.name for v in views]
    params = init_params(names, d_in=3, d=4, seed=4)
    corrupted = corruption_pairs(views, seed=92)
    loss = total_objective(corrupted, params, anchor_only(5),
                           tau=0.5)
    loss.backward()
    for name, tensor in params.items():
        assert tensor.grad is not None, name
        assert np.isfinite(tensor.grad).all(), name
