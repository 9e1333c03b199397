"""Diffusion-based and feature-based positive sampling."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import cdist

import hgcml.positives as positives
from conftest import (adjacency_of, anchor_only, assert_same_transition,
                      csr_ppr_values, dense_ppr_series,
                      oracle_graphs, oracle_mask, per_anchor_positives,
                      per_anchor_top_k, view_from_adjacency)
from hgcml.numerics import ShapeMismatch
from hgcml.positives import (DENSE_ABOVE, DiffusionMatrix, KTooLarge,
                             NonConvergenceWarning, _top_k, _transition,
                             load_positives, ppr_matrix,
                             save_positives, select_positives,
                             semantic_similarity, topology_similarity)
from hgcml.rng import substream

ALPHA = 0.85


def view_from_dense(dense, d=2):
    dense = np.asarray(dense, dtype=np.float64)
    return view_from_adjacency(dense, np.zeros((dense.shape[0], d)))


def random_connected_view(rng, n):
    """Random symmetric graph with a ring so no node has degree 0."""
    upper = np.triu(rng.random((n, n)) < 0.25, k=1)
    dense = (upper | upper.T).astype(np.float64)
    for i in range(n):
        j = (i + 1) % n
        if i != j:
            dense[i, j] = dense[j, i] = 1.0
    return view_from_dense(dense)


def closed_form_ppr(dense, alpha):
    deg = dense.sum(axis=0)
    transition = dense / np.where(deg > 0, deg, 1.0)
    transition[np.arange(len(deg)), np.arange(len(deg))] = np.where(
        deg > 0, transition.diagonal(), 1.0)
    n = dense.shape[0]
    return alpha * np.linalg.inv(np.eye(n) - (1 - alpha) * transition)


def test_two_node_diffusion_matches_hand_inverse():
    diff = ppr_matrix(view_from_dense([[0, 1], [1, 0]]), ALPHA)
    expected = np.array([[0.86957, 0.13043], [0.13043, 0.86957]])
    assert np.abs(diff.values - expected).max() < 1e-4


def test_full_teleport_returns_identity():
    view = view_from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    diff = ppr_matrix(view, 1.0)
    assert np.array_equal(diff.values, np.eye(3))


def test_isolated_node_is_its_own_sink():
    view = view_from_dense(np.zeros((1, 1)))
    diff = ppr_matrix(view, ALPHA)
    assert diff.values[0, 0] == pytest.approx(1.0, abs=1e-7)
    three = ppr_matrix(view_from_dense(
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]]), ALPHA)
    assert three.values[:, 2] == pytest.approx([0.0, 0.0, 1.0], abs=1e-7)


def test_series_matches_closed_form_on_random_graphs():
    for trial in range(12):
        rng = substream(trial, "pprcase")
        n = int(rng.integers(2, 25))
        view = random_connected_view(rng, n)
        diff = ppr_matrix(view, ALPHA)
        oracle = closed_form_ppr(adjacency_of(view).toarray(), ALPHA)
        bound = 1e-6 + (1 - ALPHA) ** (diff.iterations + 1)
        assert np.abs(diff.values - oracle).max() <= bound, f"trial {trial}"


def test_columns_remain_stochastic():
    rng = substream(99, "pprsum")
    view = random_connected_view(rng, 15)
    diff = ppr_matrix(view, ALPHA)
    assert np.allclose(diff.values.sum(axis=0), 1.0, atol=1e-5)


def test_nonconvergence_warns():
    rng = substream(5, "pprslow")
    view = random_connected_view(rng, 10)
    with pytest.warns(NonConvergenceWarning):
        diff = ppr_matrix(view, 0.05, tol=1e-12, max_iter=3)
    assert not diff.converged
    assert diff.iterations == 3
    assert diff.error_bound == pytest.approx(0.95 ** 4)


def random_view(rng, n, density, isolated=0):
    """Random symmetric graph; its last `isolated` nodes have no edges."""
    upper = np.triu(rng.random((n, n)) < density, k=1)
    dense = (upper | upper.T).astype(np.float64)
    if isolated:
        dense[-isolated:, :] = dense[:, -isolated:] = 0.0
    return view_from_dense(dense)


def ring_view(n):
    ring = sp.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1], format="lil")
    ring[0, n - 1] = ring[n - 1, 0] = 1.0
    return view_from_adjacency(ring, np.zeros((n, 1)), "ring")


# (n, edge density, isolated nodes, alpha, max_iter); the dense-side cases
# hold more than n*n/DENSE_ABOVE transition entries, the sparse ones fewer.
SERIES_CASES = {
    "sparse": [(300, 0.02, 0, 0.15, 100), (120, 0.03, 0, 0.85, 100),
               (200, 0.02, 7, 0.15, 100), (150, 0.02, 0, 0.05, 3),
               (90, 0.01, 30, 0.5, 100)],
    "dense": [(60, 0.3, 0, 0.15, 100), (40, 0.5, 0, 0.85, 100),
              (50, 0.3, 5, 0.15, 100), (45, 0.3, 0, 0.05, 3),
              (2, 1.0, 0, 0.85, 100)],
}


@pytest.mark.parametrize("side", ["sparse", "dense"])
def test_series_matches_dense_oracle(side):
    for trial, (n, density, isolated, alpha, max_iter) in enumerate(SERIES_CASES[side]):
        view = random_view(substream(trial, "pproracle", side), n, density, isolated)
        is_dense = assert_same_transition(_transition(view), adjacency_of(view),
                                          f"case {trial}")
        assert is_dense == (side == "dense"), f"case {trial} on the wrong side"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            got = ppr_matrix(view, alpha, max_iter=max_iter)
        want = dense_ppr_series(view, alpha, max_iter=max_iter)
        assert (got.iterations, got.converged, got.error_bound) == (
            want.iterations, want.converged, want.error_bound), f"case {trial}"
        assert got.converged == (max_iter > 3), f"case {trial}"
        if side == "dense":
            assert np.array_equal(got.values, want.values), f"case {trial}"
        else:
            assert np.abs(got.values - want.values).max() <= 1e-15, f"case {trial}"


def test_transition_and_series_match_csr_oracle():
    """The transition (a dense array or a CSR) and the series' bits equal
    those built on the symmetric CSR, on the dense and the sparse branch."""
    sides = set()
    for label, dense in oracle_graphs():
        n = dense.shape[0]
        view = view_from_adjacency(dense, np.zeros((n, 1)))
        sides.add(assert_same_transition(_transition(view),
                                         sp.csr_matrix(dense), label))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            got = ppr_matrix(view, 0.15, max_iter=20).values
        want = csr_ppr_values(sp.csr_matrix(dense), 0.15, max_iter=20)
        assert got.tobytes() == want.tobytes(), label
    assert sides == {False, True}


def test_series_peak_memory_on_a_sparse_view():
    n = 1500
    view = ring_view(n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        diff = ppr_matrix(view, ALPHA)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert diff.converged
    arrays = peak / (n * n * 8)
    assert arrays <= 2.5, f"peak {arrays:.2f} n x n float64 arrays"


def series(view, alpha, width, max_iter=100):
    """`ppr_matrix` with the sparse path's blocks `width` columns wide."""
    saved = positives.BLOCK_COLUMNS
    positives.BLOCK_COLUMNS = width
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            return ppr_matrix(view, alpha, max_iter=max_iter)
    finally:
        positives.BLOCK_COLUMNS = saved


@pytest.mark.parametrize("trial", range(len(SERIES_CASES["sparse"])))
def test_blocked_series_equals_one_block(trial):
    """Narrow blocks, the last one ragged, give the bits of one block of
    width n and the oracle's stopping point."""
    n, density, isolated, alpha, max_iter = SERIES_CASES["sparse"][trial]
    view = random_view(substream(trial, "pproracle", "sparse"), n, density, isolated)
    assert n % 7, "the last block should be ragged"
    blocked = series(view, alpha, 7, max_iter)
    whole = series(view, alpha, n, max_iter)
    want = dense_ppr_series(view, alpha, max_iter=max_iter)
    assert blocked.values.tobytes() == whole.values.tobytes()
    assert (blocked.iterations, blocked.converged, blocked.error_bound) == (
        want.iterations, want.converged, want.error_bound)


def pair_and_ring_view(ring):
    """Nodes 0-1 form a 2-node component; nodes 2.. form a ring."""
    n = ring + 2
    links = [(0, 1)] + [(2 + i, 2 + (i + 1) % ring) for i in range(ring)]
    rows, cols = np.array(links).T
    adjacency = sp.csr_matrix((np.ones(2 * len(links)),
                               (np.r_[rows, cols], np.r_[cols, rows])),
                              shape=(n, n))
    return view_from_adjacency(adjacency, np.zeros((n, 1)), "pair+ring")


def test_blocks_that_would_stop_at_different_terms_run_in_lockstep():
    """A pair's term decays as alpha(1-alpha)^k, a long ring's faster, so
    a block of ring columns alone would stop earlier than the block that
    holds the pair. The series must run every block to the same term."""
    alpha, ring = 0.15, 200
    view = pair_and_ring_view(ring)
    assert _transition(view).nnz * DENSE_ABOVE <= (ring + 2) ** 2
    ring_alone = series(ring_view(ring), alpha, 7)
    blocked = series(view, alpha, 7)
    want = dense_ppr_series(view, alpha)
    assert ring_alone.iterations < want.iterations
    assert (blocked.iterations, blocked.converged, blocked.error_bound) == (
        want.iterations, want.converged, want.error_bound)
    assert blocked.values.tobytes() == series(view, alpha, ring + 2).values.tobytes()
    assert np.abs(blocked.values - want.values).max() <= 1e-15


def test_blocked_series_warns_on_nonconvergence(monkeypatch):
    view = ring_view(50)
    assert _transition(view).nnz * DENSE_ABOVE <= 50 * 50
    monkeypatch.setattr(positives, "BLOCK_COLUMNS", 7)
    with pytest.warns(NonConvergenceWarning, match="max_iter=3"):
        diff = ppr_matrix(view, 0.05, tol=1e-12, max_iter=3)
    assert not diff.converged
    assert diff.iterations == 3
    assert diff.error_bound == pytest.approx(0.95 ** 4)


def test_diffusion_metadata():
    diff = ppr_matrix(view_from_dense([[0, 1], [1, 0]]), ALPHA)
    assert diff.converged
    assert diff.iterations >= 1
    assert diff.error_bound == (1.0 - ALPHA) ** (diff.iterations + 1)


def test_topology_similarity_sums_views():
    a = DiffusionMatrix(values=np.eye(2), iterations=1, error_bound=0.0,
                        converged=True)
    b = DiffusionMatrix(values=np.ones((2, 2)), iterations=1, error_bound=0.0,
                        converged=True)
    assert np.array_equal(topology_similarity([a, b]),
                          np.array([[2.0, 1.0], [1.0, 2.0]]))
    c = DiffusionMatrix(values=np.eye(3), iterations=1, error_bound=0.0,
                        converged=True)
    with pytest.raises(ShapeMismatch):
        topology_similarity([a, c])
    with pytest.raises(ValueError):
        topology_similarity(iter([]))


def test_semantic_similarity_is_negative_distance():
    sims = semantic_similarity(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert sims[0, 1] == pytest.approx(-5.0, abs=1e-12)
    assert sims[1, 0] == pytest.approx(-5.0, abs=1e-12)
    assert sims[0, 0] == 0.0


def semantic_cases():
    rng = substream(0, "semantic")
    duplicates = rng.standard_normal((6, 4))
    duplicates[3] = duplicates[1]
    cases = {"n=1": rng.standard_normal((1, 3)),
             "d=1": rng.standard_normal((7, 1)),
             "duplicate-rows": duplicates,
             "large": rng.standard_normal((9, 5)) * 1e150,
             "overflow": rng.standard_normal((5, 3)) * 1e200,
             "tiny": rng.standard_normal((5, 3)) * 1e-170,
             "mixed-scales": rng.standard_normal((8, 6))
             * 10.0 ** rng.integers(-8, 9, size=(8, 6))}
    for trial in range(5):
        n, d = (int(v) for v in rng.integers(1, 60, size=2))
        cases[f"random-{n}x{d}"] = rng.standard_normal((n, d)) * rng.random() * 100
    return cases


SEMANTIC_CASES = semantic_cases()


@pytest.mark.parametrize("block_rows", [None, 1, 3])
@pytest.mark.parametrize("name", list(SEMANTIC_CASES))
def test_semantic_similarity_equals_negative_cdist_bits(name, block_rows,
                                                        monkeypatch):
    features = SEMANTIC_CASES[name]
    if block_rows:  # blocks of this many rows, the last one ragged
        monkeypatch.setattr(positives, "ROW_BLOCK_BYTES",
                            8 * features.shape[0] * block_rows)
    got = semantic_similarity(features)
    assert got.tobytes() == (-cdist(features, features, "euclidean")).tobytes()
    assert np.signbit(np.diagonal(got)).all()  # -0.0 on the diagonal


def test_select_positives_takes_top_k_union():
    sim_t = np.array([[9.0, 0.9, 0.1, 0.5],
                      [0.9, 9.0, 0.2, 0.1],
                      [0.1, 0.2, 9.0, 0.3],
                      [0.5, 0.1, 0.3, 9.0]])
    sim_s = np.full((4, 4), -1.0)
    np.fill_diagonal(sim_s, 0.0)
    chosen = select_positives(sim_t, sim_s, 2, 0)
    # anchor 0 keeps itself plus its two best rows (1 and 3)
    assert chosen.sets[0].tolist() == [0, 1, 3]
    assert all(u in s for u, s in enumerate(chosen.sets))


def test_select_positives_union_of_both_channels():
    n = 5
    sim_t = np.zeros((n, n))
    sim_s = np.zeros((n, n))
    sim_t[0, 1] = 5.0  # best topological partner of 0
    sim_s[0, 3] = 5.0  # best semantic partner of 0
    chosen = select_positives(sim_t, sim_s, 1, 1)
    assert chosen.sets[0].tolist() == [0, 1, 3]


def test_select_positives_tie_break_prefers_lower_id():
    sim = np.zeros((4, 4))  # all candidates tie
    chosen = select_positives(sim, sim, 2, 0)
    assert chosen.sets[0].tolist() == [0, 1, 2]
    assert chosen.sets[3].tolist() == [0, 1, 3]


def test_select_positives_k_zero_is_anchor_only():
    sim = np.zeros((3, 3))
    chosen = select_positives(sim, sim, 0, 0)
    assert [s.tolist() for s in chosen.sets] == [[0], [1], [2]]


def test_select_positives_k_too_large():
    sim = np.zeros((3, 3))
    with pytest.raises(KTooLarge):
        select_positives(sim, sim, 3, 0)  # k >= n
    with pytest.raises(ShapeMismatch):
        select_positives(np.zeros((3, 3)), np.zeros((2, 2)), 1, 1)


def test_anchor_never_selected_as_candidate():
    sim = np.zeros((3, 3))
    np.fill_diagonal(sim, 100.0)  # self-similarity must be ignored
    chosen = select_positives(sim, sim, 1, 0)
    assert chosen.sets[0].tolist() == [0, 1]


def assert_same_csr_as_oracle_mask(positives, sets):
    """The CSR arrays of `positives` equal, value for value, those of the
    boolean csr_array built from `sets` with `sum_duplicates`."""
    want = oracle_mask(sets)
    indptr, indices = positives.mask()
    assert indptr is positives.indptr and indices is positives.indices
    for part in ("indptr", "indices"):
        mine = getattr(positives, part)
        assert mine.dtype == np.int64, part
        assert mine.tolist() == getattr(want, part).tolist(), part


def assert_same_sets(sim_t, sim_s, k_t, k_s):
    chosen = select_positives(sim_t, sim_s, k_t, k_s)
    got = chosen.sets
    want = per_anchor_positives(sim_t, sim_s, k_t, k_s).sets
    assert len(got) == len(want)
    for u, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == np.int64 and a.tolist() == b.tolist(), (
            f"anchor {u}: {a.tolist()} != {b.tolist()} at k_t={k_t}, k_s={k_s}")
    assert_same_csr_as_oracle_mask(chosen, want)


def tie_heavy_matrices(n):
    rng = substream(n, "topkties")
    integers = rng.integers(0, 3, size=(n, n)).astype(np.float64)
    constant_rows = np.repeat(rng.integers(-2, 2, size=(n, 1)), n, axis=1) * 1.0
    infinite = rng.integers(0, 2, size=(n, n)).astype(np.float64)
    infinite[rng.random((n, n)) < 0.3] = np.inf
    infinite[rng.random((n, n)) < 0.3] = -np.inf
    infinite[0] = np.inf
    infinite[1] = -np.inf
    return {"integers": integers, "constant-rows": constant_rows,
            "zeros": np.zeros((n, n)), "infinite": infinite,
            "negative-zero": np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)}


@pytest.mark.parametrize("n", [2, 3, 9])
def test_select_positives_matches_per_anchor_loop_on_ties(n):
    matrices = tie_heavy_matrices(n)
    for name_t, sim_t in matrices.items():
        for name_s, sim_s in matrices.items():
            for k_t, k_s in ((0, 0), (1, 1), (n - 1, n - 1), (1, n - 1),
                             (n - 1, 0), (0, 1)):
                assert_same_sets(sim_t, sim_s, k_t, k_s)


def test_select_positives_matches_per_anchor_loop_on_random_matrices():
    for trial in range(20):
        rng = substream(trial, "topkrandom")
        n = int(rng.integers(2, 40))
        sim_t = rng.standard_normal((n, n))
        sim_s = -rng.random((n, n))
        k_t, k_s = (int(k) for k in rng.integers(0, n, size=2))
        assert_same_sets(sim_t, sim_s, k_t, k_s)


def top_k_cases(n):
    """Rows that stress a partition top-k: ties at the k-th score, the
    anchor scoring the k-th, and rows of infinities and signed zeros."""
    rng = substream(n, "topkpartition")
    tied = np.ones((n, n))  # three distinct leaders, then one long tie
    tied[:, :3] = [5.0, 4.0, 3.0]
    few_values = rng.integers(0, 4, size=(n, n)).astype(np.float64)
    anchor_at_kth = rng.standard_normal((n, n)).round(1)
    for u in range(n):  # the anchor scores exactly its row's 5th best
        anchor_at_kth[u, u] = np.sort(np.delete(anchor_at_kth[u], u))[-5]
    infinite = rng.choice([-np.inf, np.inf, 0.0, -0.0, 1.0], size=(n, n))
    infinite[0], infinite[1] = np.inf, -np.inf
    infinite[2] = np.where(rng.random(n) < 0.5, np.inf, -np.inf)
    zeros = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
    zeros[3] = -0.0
    return {"tied-at-kth": tied, "few-values": few_values,
            "anchor-at-kth": anchor_at_kth, "infinite": infinite,
            "signed-zeros": zeros, "random": rng.standard_normal((n, n))}


@pytest.mark.parametrize("block_rows", [None, 1, 7])
@pytest.mark.parametrize("n", [40, 57])
@pytest.mark.parametrize("case", ["tied-at-kth", "few-values", "anchor-at-kth",
                                  "infinite", "signed-zeros", "random"])
def test_top_k_matches_per_anchor_oracle(n, case, block_rows, monkeypatch):
    sim = top_k_cases(n)[case]
    if block_rows:  # blocks of this many rows, the last one ragged
        monkeypatch.setattr(positives, "ROW_BLOCK_BYTES", 8 * n * block_rows)
    for k in (1, 2, 5, 6, n // 2, n - 2, n - 1):
        got = _top_k(sim, k)
        assert got.shape == (n, k)
        for u in range(n):
            want = per_anchor_top_k(sim[u], u, k)
            assert got[u].tolist() == want.tolist(), f"anchor {u}, k={k}"


def test_every_csr_row_holds_its_anchor(tmp_path):
    sim_t = substream(3, "csrrows").random((9, 9))
    sim_s = substream(4, "csrrows").random((9, 9))
    chosen = select_positives(sim_t, sim_s, 3, 2)
    save_positives(tmp_path / "positives.tsv", chosen)
    for positives in (chosen, load_positives(tmp_path / "positives.tsv", 9),
                      select_positives(sim_t, sim_s, 0, 0)):
        indptr, indices = positives.mask()
        assert indptr.shape == (10,) and indptr[0] == 0
        assert indptr[-1] == indices.size
        for u in range(9):
            row = indices[indptr[u]:indptr[u + 1]]
            assert u in row
            assert np.all(row[1:] > row[:-1])  # sorted and unique


def test_load_positives_csr_equals_oracle_mask(tmp_path):
    path = tmp_path / "positives.tsv"
    # anchors out of order, ids unsorted within a line
    path.write_text("2\t4,2\n0\t3,0,1\n1\t1\n4\t4\n3\t3,0\n")
    sets = [[0, 1, 3], [1], [2, 4], [0, 3], [4]]
    assert_same_csr_as_oracle_mask(load_positives(path, 5),
                                   [np.array(ids) for ids in sets])
    for trial in range(5):
        rng = substream(trial, "loadcsr")
        n = int(rng.integers(2, 30))
        chosen = select_positives(rng.random((n, n)), rng.random((n, n)),
                                  int(rng.integers(0, n)), int(rng.integers(0, n)))
        save_positives(path, chosen)
        assert_same_csr_as_oracle_mask(load_positives(path, n), chosen.sets)


def oracle_layout(sets, height):
    """(lo, hi, strip, full) per block of `height` anchors, from the dense
    oracle mask: the flat positions of the block's entries of P and of
    P^T against columns lo:n and 0:n, row-major."""
    n = len(sets)
    mask = oracle_mask(sets).toarray()
    masks = mask, mask.T
    return [(lo, min(lo + height, n),
             tuple(np.flatnonzero(m[lo:lo + height, lo:]) for m in masks),
             tuple(np.flatnonzero(m[lo:lo + height]) for m in masks))
            for lo in range(0, n, height)]


def assert_layout_is_the_oracles(positives, height):
    """`blocks(height)` equals the oracle layout offset for offset, in
    read-only int64 arrays, and is built once: a second call returns the
    same object."""
    got = positives.blocks(height)
    assert positives.blocks(height) is got
    want = oracle_layout(positives.sets, height)
    assert [block[:2] for block in got] == [block[:2] for block in want]
    for (*_, strip, full), (*_, want_strip, want_full) in zip(got, want):
        for offsets, expected in zip(strip + full, want_strip + want_full):
            assert offsets.dtype == np.int64 and not offsets.flags.writeable
            assert offsets.tolist() == expected.tolist()


LAYOUT_CASES = (
    [pytest.param("sampled", h, n, id=f"h{h}-n{n}")
     for h in (1, 4, 128)
     for n in sorted({1, max(h - 1, 1), h, h + 1, 2 * h + 3})]
    + [pytest.param(kind, h, 2 * h + 3, id=f"{kind}-h{h}")
       for kind in ("anchor_only", "all_positive") for h in (1, 4, 128)])


@pytest.mark.parametrize("kind,height,n", LAYOUT_CASES)
def test_layout_equals_the_oracle_masks(kind, height, n):
    """At n below, at and past a multiple of the height, n = 1, and for
    anchor-only and all-positive sets; the sampled sets are asymmetric
    once n > 4, so P^T's offsets differ from P's."""
    if kind == "anchor_only":
        chosen = anchor_only(n)
    elif kind == "all_positive":
        chosen = select_positives(np.zeros((n, n)), np.zeros((n, n)),
                                  n - 1, 0)
        assert chosen.indices.size == n * n
    else:
        k = min(1, n - 1)
        rng = substream(n, "layout", height)
        chosen = select_positives(rng.random((n, n)), rng.random((n, n)), k, k)
        mask = oracle_mask(chosen.sets).toarray()
        assert n <= 4 or (mask != mask.T).any()
    assert_layout_is_the_oracles(chosen, height)


def test_layout_of_random_sets_equals_the_transposed_oracle_mask():
    """On random sets, at every height from 1 to past n, P^T's offsets
    are those of the transposed oracle mask, each row's anchors ascending,
    and each height's layout is built once."""
    for trial in range(5):
        rng = substream(trial, "transposedcsr")
        n = int(rng.integers(1, 30))
        chosen = select_positives(rng.random((n, n)), rng.random((n, n)),
                                  int(rng.integers(0, n)), int(rng.integers(0, n)))
        for height in range(1, n + 2):
            assert_layout_is_the_oracles(chosen, height)


def test_select_positives_peak_memory_is_below_half_a_dense_boolean():
    n = 3000
    sim_t = substream(5, "selectmem").random((n, n))
    sim_s = substream(6, "selectmem").random((n, n))
    tracemalloc.start()
    try:
        select_positives(sim_t, sim_s, 8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n / 2, peak


def test_anchor_only_constructor():
    alone = anchor_only(4)
    assert [s.tolist() for s in alone.sets] == [[0], [1], [2], [3]]
    chosen = select_positives(np.zeros((4, 4)), np.zeros((4, 4)), 0, 0)
    assert alone.indptr.tolist() == chosen.indptr.tolist() == [0, 1, 2, 3, 4]
    assert alone.indices.tolist() == chosen.indices.tolist() == [0, 1, 2, 3]
    assert np.array_equal(oracle_mask(alone.sets).toarray(),
                          np.eye(4, dtype=bool))


def test_save_load_round_trip(tmp_path):
    sim_t = substream(1, "savetrip").random((6, 6))
    sim_s = substream(2, "savetrip").random((6, 6))
    chosen = select_positives(sim_t, sim_s, 2, 2)
    path = tmp_path / "positives.tsv"
    save_positives(path, chosen)
    loaded = load_positives(path, 6)
    assert all(np.array_equal(a, b)
               for a, b in zip(chosen.sets, loaded.sets))
    save_positives(path, loaded)
    again = load_positives(path, 6)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.sets, again.sets))


def test_load_positives_validation(tmp_path):
    from hgcml.hin import MalformedRecord
    path = tmp_path / "positives.tsv"
    path.write_text("0\t0,1\n1\t5\n")
    with pytest.raises(MalformedRecord):
        load_positives(path, 2)  # id 5 out of range
    path.write_text("0\t0,1\n1\t0\n")
    with pytest.raises(MalformedRecord):
        load_positives(path, 2)  # anchor 1 missing from its own set
    path.write_text("0\t0\n")
    with pytest.raises(MalformedRecord):
        load_positives(path, 2)  # anchor 1 has no line
    path.write_text("0\tx\n1\t1\n")
    with pytest.raises(MalformedRecord):
        load_positives(path, 2)
    path.write_text("0\t0\t1\n1\t1\n")
    with pytest.raises(MalformedRecord, match="expected 2 tab-separated fields"):
        load_positives(path, 2)
    path.write_text("0\t0,1\n1\t1\n0\t0\n")
    with pytest.raises(MalformedRecord, match="anchor 0 repeated"):
        load_positives(path, 2)  # a later line must not replace the first
    path.write_text("0\t0,1\n1\t0,1,1\n")
    with pytest.raises(MalformedRecord, match=":2: id 1 repeated"):
        load_positives(path, 2)  # a gather would count id 1 twice
    for member in (2 ** 63, 10 ** 20, "1" * 5000):  # 5000: past int()'s limit
        path.write_text(f"0\t0,1\n1\t1,{member}\n")
        with pytest.raises(MalformedRecord, match=":2: id outside int64$"):
            load_positives(path, 2)
    # anchors and ids are ASCII digits; int() takes the first six of these
    for line, bad in (("1\t1,1_0", "1_0"), ("1\t1, \u0663 ", " \u0663 "),
                      ("\u0663\t1", "\u0663"), ("+1\t1", "+1"),
                      ("1\t-1,1", "-1"), (f"1\t1,{-2 ** 63 - 1}", str(-2 ** 63 - 1)),
                      ("1\t1,", ""), ("1\t", ""), ("1\t1,x", "x"),
                      ("1.0\t1", "1.0")):
        path.write_text(f"0\t0,1\n{line}\n", encoding="utf-8")
        with pytest.raises(MalformedRecord, match=(
                f":2: id {re.escape(repr(bad))} is not ASCII digits$")):
            load_positives(path, 2)
