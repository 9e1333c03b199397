"""Diffusion-based and feature-based positive sampling."""

import numpy as np
import pytest
import scipy.sparse as sp

from hgcml.hin import MetapathSpec, MetapathView
from hgcml.numerics import ShapeMismatch
from hgcml.positives import (DiffusionMatrix, KTooLarge, NonConvergenceWarning,
                             PositiveSets, load_positives, ppr_matrix,
                             save_positives, select_positives,
                             semantic_similarity, topology_similarity)
from hgcml.rng import substream

ALPHA = 0.85


def view_from_dense(dense, d=2):
    dense = np.asarray(dense, dtype=np.float64)
    return MetapathView(adjacency=sp.csr_matrix(dense),
                        features=np.zeros((dense.shape[0], d)),
                        metapath=MetapathSpec("m", ("R", "R")))


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
        oracle = closed_form_ppr(view.adjacency.toarray(), ALPHA)
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


def test_diffusion_metadata():
    diff = ppr_matrix(view_from_dense([[0, 1], [1, 0]]), ALPHA)
    assert diff.alpha == ALPHA
    assert diff.converged
    assert diff.metapath == "m"


def test_topology_similarity_sums_views():
    a = DiffusionMatrix(values=np.eye(2), alpha=ALPHA, metapath="a",
                        iterations=1, error_bound=0.0, converged=True)
    b = DiffusionMatrix(values=np.ones((2, 2)), alpha=ALPHA, metapath="b",
                        iterations=1, error_bound=0.0, converged=True)
    assert np.array_equal(topology_similarity([a, b]),
                          np.array([[2.0, 1.0], [1.0, 2.0]]))
    c = DiffusionMatrix(values=np.eye(3), alpha=ALPHA, metapath="c",
                        iterations=1, error_bound=0.0, converged=True)
    with pytest.raises(ShapeMismatch):
        topology_similarity([a, c])


def test_semantic_similarity_is_negative_distance():
    sims = semantic_similarity(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert sims[0, 1] == pytest.approx(-5.0, abs=1e-12)
    assert sims[1, 0] == pytest.approx(-5.0, abs=1e-12)
    assert sims[0, 0] == 0.0


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
    with pytest.raises(KTooLarge):
        select_positives(sim, sim, 0, -1)
    with pytest.raises(ShapeMismatch):
        select_positives(np.zeros((3, 3)), np.zeros((2, 2)), 1, 1)


def test_anchor_never_selected_as_candidate():
    sim = np.zeros((3, 3))
    np.fill_diagonal(sim, 100.0)  # self-similarity must be ignored
    chosen = select_positives(sim, sim, 1, 0)
    assert chosen.sets[0].tolist() == [0, 1]


def test_mask_shape_and_diagonal():
    chosen = select_positives(np.zeros((3, 3)), np.zeros((3, 3)), 1, 0)
    mask = chosen.mask()
    assert mask.shape == (3, 3)
    assert mask.dtype == bool
    assert mask.diagonal().all()


def test_mask_is_memoized_read_only_and_matches_sets():
    sim_t = substream(3, "maskmemo").random((9, 9))
    sim_s = substream(4, "maskmemo").random((9, 9))
    chosen = select_positives(sim_t, sim_s, 3, 2)
    first = chosen.mask()
    assert chosen.mask() is first
    assert not first.flags.writeable
    brute = np.zeros((9, 9), dtype=bool)
    for u, ids in enumerate(chosen.sets):
        for v in ids:
            brute[u, v] = True
    assert np.array_equal(first, brute)


def test_anchor_only_constructor():
    ps = PositiveSets.anchor_only(4)
    assert [s.tolist() for s in ps.sets] == [[0], [1], [2], [3]]
    assert np.array_equal(ps.mask(), np.eye(4, dtype=bool))


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
