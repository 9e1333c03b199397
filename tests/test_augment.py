"""View corruption: edge dropping and feature masking."""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (adjacency_of, assert_same_csr, csr_drop_edges,
                      oracle_graphs, view_from_adjacency)
from hgcml.augment import corrupt, drop_edges, mask_features
from hgcml.config import AugmentSettings, ConfigError
from hgcml.rng import substream


def make_view(n=20, p=0.3, seed=0, d=8):
    rng = substream(seed, "mkview")
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(np.float64)
    return view_from_adjacency(dense, rng.standard_normal((n, d)))


def complete_view(n, d=4):
    dense = np.ones((n, n)) - np.eye(n)
    return view_from_adjacency(dense, np.ones((n, d)))


def test_drop_edges_identity_and_annihilation():
    view = make_view()
    kept = drop_edges(view, 0.0, substream(1, "t"))
    assert (adjacency_of(kept) != adjacency_of(view)).nnz == 0
    assert np.array_equal(kept.features, view.features)
    none_left = drop_edges(view, 1.0, substream(1, "t"))
    assert adjacency_of(none_left).nnz == 0


def test_drop_edges_preserves_symmetry_and_diagonal():
    view = make_view(n=40, p=0.4)
    out = drop_edges(view, 0.5, substream(2, "t"))
    adjacency = adjacency_of(out)
    assert (adjacency != adjacency.T).nnz == 0
    assert not adjacency.diagonal().any()
    # surviving edges are a subset of the originals
    assert (adjacency - adjacency_of(view)).max() <= 0


def test_drop_edges_retention_rate():
    # 10,000 undirected edges; mean retained fraction 0.70 +/- 0.02
    n = 200
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)][:10000]
    rows = [p[0] for p in pairs] + [p[1] for p in pairs]
    cols = [p[1] for p in pairs] + [p[0] for p in pairs]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    view = view_from_adjacency(adj, np.zeros((n, 2)))
    fractions = [drop_edges(view, 0.3, substream(seed, "mc")).n_edges / 10000
                 for seed in range(100)]
    assert abs(np.mean(fractions) - 0.70) < 0.02


def test_mask_features_identity_and_annihilation():
    view = make_view()
    same = mask_features(view, 0.0, substream(3, "t"))
    assert np.array_equal(same.features, view.features)
    zeroed = mask_features(view, 1.0, substream(3, "t"))
    assert not zeroed.features.any()
    assert (adjacency_of(zeroed) != adjacency_of(view)).nnz == 0


def test_mask_features_zeroes_whole_columns():
    view = make_view(n=30, d=64)
    out = mask_features(view, 0.5, substream(4, "t"))
    col_zero = ~out.features.any(axis=0)
    col_same = np.array([np.array_equal(out.features[:, j], view.features[:, j])
                         for j in range(64)])
    assert np.all(col_zero | col_same)
    assert col_zero.any()


def test_mask_features_column_rate():
    # Bernoulli(0.3) over 64 dimensions: mean zeroed count 19.2 +/- 2
    view = make_view(n=10, d=64)
    counts = [(~mask_features(view, 0.3, substream(s, "mcmask")).features.any(axis=0)).sum()
              for s in range(100)]
    assert abs(np.mean(counts) - 19.2) < 2.0


def test_mask_entries_mode():
    view = make_view(n=50, d=40)
    out = mask_features(view, 0.3, substream(5, "t"), mask_mode="entries")
    changed = out.features != view.features
    assert not out.features[changed].any()  # masking only zeroes
    rate = changed.mean()
    assert 0.2 < rate < 0.4


def test_corrupt_is_deterministic_per_config():
    view = make_view(n=25, d=16)
    one = corrupt(view, 0.4, 0.4, 123)
    two = corrupt(view, 0.4, 0.4, 123)
    assert (adjacency_of(one) != adjacency_of(two)).nnz == 0
    assert np.array_equal(one.features, two.features)
    other = corrupt(view, 0.4, 0.4, 124)
    assert ((adjacency_of(one) != adjacency_of(other)).nnz > 0
            or not np.array_equal(one.features, other.features))


def test_corrupt_leaves_input_untouched():
    view = make_view(n=15)
    before = (adjacency_of(view), view.features.copy())
    corrupt(view, 0.9, 0.9, 7)
    assert (adjacency_of(view) != before[0]).nnz == 0
    assert np.array_equal(view.features, before[1])


@pytest.mark.parametrize("p_e", [0.0, 0.3, 1.0])
def test_drop_edges_matches_csr_oracle(p_e):
    """The same CSR, bit for bit, as dropping on the symmetric CSR."""
    for label, dense in oracle_graphs():
        view = view_from_adjacency(dense, np.zeros((dense.shape[0], 1)))
        got = drop_edges(view, p_e, substream(3, "drop", label))
        want = csr_drop_edges(sp.csr_matrix(dense), p_e,
                              substream(3, "drop", label))
        assert_same_csr(adjacency_of(got), want, f"{label}, p_e {p_e}")


def test_drop_edges_draws_one_uniform_per_edge_in_row_major_order():
    view = make_view(n=30, p=0.3, seed=4)
    rng, twin = substream(9, "draws"), substream(9, "draws")
    out = drop_edges(view, 0.3, rng)
    draws = twin.random(view.n_edges)
    assert np.array_equal(out.edges, view.edges[:, draws >= 0.3])
    assert rng.random() == twin.random()  # no draw more, none fewer


def test_corruption_config_validation():
    with pytest.raises(ConfigError, match="p_e"):
        AugmentSettings(p_e=-0.1, p_f=0.0)
    with pytest.raises(ConfigError, match="p_f"):
        AugmentSettings(p_e=0.0, p_f=1.5)
    with pytest.raises(ConfigError, match="mask_mode"):
        AugmentSettings(mask_mode="rows")
    with pytest.raises(ConfigError, match="resample_every_epoch"):
        AugmentSettings(resample_every_epoch=0)
