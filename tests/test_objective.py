"""Contrastive losses: InfoNCE over positive sets and the global
discriminator objective, summed over ordered view pairs."""

import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

import hgcml.model
import hgcml.numerics as nm
import hgcml.objective
from conftest import (anchor_only, dense_mask, positive_sets,
                      tape_node_node_loss, two_pass_node_node_loss,
                      view_from_adjacency)
from hgcml.augment import corrupt
from hgcml.model import ModelParams, gcn_forward, init_params, readout
from hgcml.numerics import LOG_EPS, NonFiniteResult, Tensor
from hgcml.objective import (CHUNK, ContrastTerm, node_graph_loss,
                             node_node_loss, pair_terms, total_objective)
from hgcml.positives import select_positives
from hgcml.rng import substream


def identity_params(d, names=("m",)):
    eye = np.eye(d)
    enc = OrderedDict((n, Tensor(eye.copy(), requires_grad=True)) for n in names)
    return ModelParams(
        encoders=enc,
        proj_w1=Tensor(eye.copy(), requires_grad=True),
        proj_b1=Tensor(np.zeros((1, d)), requires_grad=True),
        proj_w2=Tensor(eye.copy(), requires_grad=True),
        proj_b2=Tensor(np.zeros((1, d)), requires_grad=True),
        disc_b=Tensor(np.zeros((d, d)), requires_grad=True))


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
    loss = nm.scale(loss_fn(z_m, z_n, positives, tau), w)
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
    n = 2 * CHUNK + 3
    calls = []
    logits = hgcml.objective._logits

    def counting(*args, **kwargs):
        calls.append(1)
        return logits(*args, **kwargs)

    monkeypatch.setattr(hgcml.objective, "_logits", counting)
    z_m, z_n = rand_z(n, 4, "once-m"), rand_z(n, 4, "once-n")
    node_node_loss(z_m, z_n, sampled_positives(n, "once"), 0.5).backward()
    assert len(calls) == math.ceil(n / CHUNK)


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


def test_fused_loss_nan_row_raises_non_finite():
    z_m, z_n = rand_z(CHUNK + 5, 4, "nan1"), rand_z(CHUNK + 5, 4, "nan2")
    z_n.data[CHUNK + 2, 1] = np.nan
    with pytest.raises(NonFiniteResult):
        node_node_loss(z_m, z_n, sampled_positives(CHUNK + 5, "nan"), tau=0.5)


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


def test_zero_discriminator_gives_two_log_two():
    params = identity_params(3)
    h = rand_z(4, 3, "disc1", positive=True)
    h_neg = rand_z(4, 3, "disc2", positive=True)
    s = readout(h)
    loss = node_graph_loss(h, h_neg, s, params.disc_b)
    assert loss.item() == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_node_graph_loss_numpy_oracle():
    d = 3
    params = identity_params(d)
    b = substream(24, "ng").standard_normal((d, d))
    params.disc_b = Tensor(b.copy(), requires_grad=True)
    h = rand_z(5, d, "ng1", positive=True)
    h_neg = rand_z(5, d, "ng2", positive=True)
    s = readout(h)
    loss = node_graph_loss(h, h_neg, s, params.disc_b).item()
    # identity projector keeps positive activations unchanged
    summary = h.data.mean(axis=0, keepdims=True)
    pos = h.data @ b @ summary.T
    neg = h_neg.data @ b @ summary.T
    softplus = lambda x: np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
    expected = float(np.mean(softplus(-pos) + softplus(neg)))
    assert loss == pytest.approx(expected, abs=1e-12)


def test_pair_term_count_and_kinds():
    for n_views, expected in ((1, 1), (2, 4), (3, 9)):
        views = make_views(5, n_views, 3, seed=30 + n_views)
        params = init_params([v.metapath.name for v in views],
                             d_in=3, d=4, seed=1)
        perms = [substream(31, "p", i).permutation(5)
                 for i in range(n_views)]
        terms = pair_terms(corruption_pairs(views, seed=40), params,
                           anchor_only(5), tau=0.5,
                           neg_perms=perms)
        assert len(terms) == expected
        kinds = {(t.m, t.n): t.kind for t in terms}
        assert all(kinds[(m, n)] == ("intra" if m == n else "inter")
                   for m, n in kinds)
        intra = sum(t.kind == "intra" for t in terms)
        assert intra == n_views


def test_total_objective_equals_sum_of_terms():
    views = make_views(6, 2, 3, seed=50)
    names = [v.metapath.name for v in views]
    params = init_params(names, d_in=3, d=4, seed=2)
    ps = anchor_only(6)
    perms = [substream(51, "p", i).permutation(6) for i in range(len(names))]
    corrupted = corruption_pairs(views, seed=60)
    terms = pair_terms(corrupted, params, ps, tau=0.5, neg_perms=perms)
    total = total_objective(corrupted, params, ps, tau=0.5, neg_perms=perms)
    by_hand = sum(t.local_loss.item() + t.global_loss.item() for t in terms)
    assert total.item() == pytest.approx(by_hand, abs=1e-10)
    weighted = total_objective(corrupted, params, ps, tau=0.5, neg_perms=perms,
                               w_local=0.3, w_global=1.7)
    by_hand_w = sum(0.3 * t.local_loss.item() + 1.7 * t.global_loss.item()
                    for t in terms)
    assert weighted.item() == pytest.approx(by_hand_w, abs=1e-10)


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
    perms = [substream(101, "p", i).permutation(5) for i in range(n_views)]
    total_objective(corruption_pairs(views, seed=102), params,
                    anchor_only(5), tau=0.5, neg_perms=perms)
    # two corruptions and one summary per view
    assert len(calls) == 3 * n_views
    assert sorted(calls) == sorted([(5, 4)] * 2 * n_views + [(1, 4)] * n_views)


def test_pair_global_losses_match_projected_numpy_oracle():
    views = make_views(6, 2, 3, seed=110)
    params = init_params([v.metapath.name for v in views], d_in=3, d=4, seed=6)
    perms = [substream(112, "p", i).permutation(6) for i in range(2)]
    corrupted = corruption_pairs(views, seed=113)
    h = {(i, copy): gcn_forward(pair[copy - 1], params.encoders[f"v{i}"]).data
         for i, pair in enumerate(corrupted) for copy in (1, 2)}
    # centre each hidden unit on the median row, so the ReLU cuts through
    # the rows and the projection of the mean is not the mean of projections
    rows = np.vstack([h[0, 1], h[1, 1]])
    params.proj_b1.data[:] = -np.median(rows @ params.proj_w1.data, axis=0)
    rng = substream(111, "ngoracle")
    params.proj_b2.data[:] = rng.standard_normal(params.proj_b2.shape)
    params.disc_b.data[:] = rng.standard_normal(params.disc_b.shape)
    terms = pair_terms(corrupted, params, anchor_only(6),
                       tau=0.5, neg_perms=perms)

    def rho(h):
        hidden = np.maximum(h @ params.proj_w1.data + params.proj_b1.data, 0.0)
        return hidden @ params.proj_w2.data + params.proj_b2.data

    def softplus(x):
        return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))

    b = params.disc_b.data
    assert len(terms) == 4
    for term in terms:
        m, n = term.m, term.n
        neg = h[m, 2][perms[m]] if m == n else h[n, 1]
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
    perms = [substream(91, "p", i).permutation(5) for i in range(len(names))]
    corrupted = corruption_pairs(views, seed=92)
    loss = total_objective(corrupted, params, anchor_only(5),
                           tau=0.5, neg_perms=perms)
    loss.backward()
    for name, tensor in params.named_tensors():
        assert tensor.grad is not None, name
        assert np.isfinite(tensor.grad).all(), name
