"""Per-view GCN encoder, shared projector, readout, discriminator, fusion.

The discriminator is nm.bilinear over projected rows and a projected
summary, as the objective calls it."""

import math
from collections import OrderedDict

import numpy as np
import pytest
import scipy.sparse as sp

import hgcml.numerics as nm
from conftest import (assert_same_csr, csr_gcn_normalize, oracle_graphs,
                      sigmoid, view_from_adjacency)
from hgcml.config import FUSION_MODES
from hgcml.io import FormatError
from hgcml.model import (ModelParams, fuse, gcn_forward, gcn_normalize,
                         init_params, params_from_checkpoint, project, readout)
from hgcml.numerics import ShapeMismatch, Tensor
from hgcml.rng import substream


def identity_projector_params(d):
    eye = np.eye(d)
    return ModelParams(
        encoders=OrderedDict(m=Tensor(eye.copy(), requires_grad=True)),
        proj_w1=Tensor(eye.copy(), requires_grad=True),
        proj_b1=Tensor(np.zeros((1, d)), requires_grad=True),
        proj_w2=Tensor(eye.copy(), requires_grad=True),
        proj_b2=Tensor(np.zeros((1, d)), requires_grad=True),
        disc_b=Tensor(eye.copy(), requires_grad=True))


def test_gcn_normalize_two_node_path():
    norm = gcn_normalize(view_from_adjacency(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 1))))
    assert np.allclose(norm.toarray(), np.full((2, 2), 0.5), atol=1e-15)


def test_gcn_normalize_matches_dense_formula():
    rng = substream(21, "gcnnorm")
    upper = np.triu(rng.random((7, 7)) < 0.4, k=1)
    dense = (upper | upper.T).astype(np.float64)
    a_tilde = dense + np.eye(7)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
    expected = d_inv_sqrt @ a_tilde @ d_inv_sqrt
    norm = gcn_normalize(view_from_adjacency(dense, np.zeros((7, 1))))
    assert np.allclose(norm.toarray(), expected, atol=1e-12)
    assert norm.format == "csr" and norm.has_sorted_indices


def test_gcn_normalize_matches_csr_oracle():
    """The same CSR, bit for bit, as the sparse products on A + I."""
    for label, dense in oracle_graphs():
        view = view_from_adjacency(dense, np.zeros((dense.shape[0], 1)))
        assert_same_csr(gcn_normalize(view),
                        csr_gcn_normalize(sp.csr_matrix(dense)), label)


def test_gcn_forward_matches_dense_oracle():
    rng = substream(22, "gcnfwd")
    upper = np.triu(rng.random((6, 6)) < 0.5, k=1)
    dense = (upper | upper.T).astype(np.float64)
    x = rng.standard_normal((6, 3))
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    out = gcn_forward(view_from_adjacency(dense, x), w)
    a_tilde = dense + np.eye(6)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
    expected = np.maximum(d_inv_sqrt @ a_tilde @ d_inv_sqrt @ x @ w.data, 0.0)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_gcn_input_dim_mismatch():
    w = Tensor(np.zeros((5, 4)), requires_grad=True)  # features have dim 3
    with pytest.raises(ShapeMismatch):
        gcn_forward(view_from_adjacency(np.zeros((2, 2)), np.zeros((2, 3))), w)


def test_disconnected_components_do_not_mix():
    # two 2-node components; change the second component's features
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = 1.0
    dense[2, 3] = dense[3, 2] = 1.0
    rng = substream(23, "comp")
    x1 = rng.standard_normal((4, 3))
    x2 = x1.copy()
    x2[2:] += rng.standard_normal((2, 3))
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    h1 = gcn_forward(view_from_adjacency(dense, x1), w)
    h2 = gcn_forward(view_from_adjacency(dense, x2), w)
    assert np.array_equal(h1.data[:2], h2.data[:2])
    assert not np.array_equal(h1.data[2:], h2.data[2:])


def test_projector_row_oracle():
    params = identity_projector_params(2)
    params.proj_w1 = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]), requires_grad=True)
    params.proj_b1 = Tensor(np.array([[0.5, -2.0]]), requires_grad=True)
    params.proj_w2 = Tensor(np.array([[2.0, 0.0], [0.0, 3.0]]), requires_grad=True)
    params.proj_b2 = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
    h = Tensor(np.array([[1.0, 1.0]]))
    # hidden = relu([1+1+0.5, 1-2]) = [2.5, 0]; out = [5.0, 0+1]
    assert np.allclose(project(h, params).data, [[5.0, 1.0]], atol=1e-15)


def test_readout_is_column_mean():
    h = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert np.allclose(readout(h).data, [[3.0, 4.0]], atol=1e-15)


def test_discriminator_zero_bilinear_gives_half():
    params = identity_projector_params(3)
    params.disc_b = Tensor(np.zeros((3, 3)), requires_grad=True)
    rng = substream(24, "disc")
    h = Tensor(rng.standard_normal((5, 3)))
    s = Tensor(rng.standard_normal((1, 3)))
    logits = nm.bilinear(project(h, params), params.disc_b, project(s, params))
    assert np.allclose(sigmoid(logits).data, 0.5, atol=1e-15)


def test_discriminator_logit_log3_gives_three_quarters():
    params = identity_projector_params(1)
    h = Tensor(np.array([[math.log(3.0)]]))
    s = Tensor(np.array([[1.0]]))
    logits = nm.bilinear(project(h, params), params.disc_b, project(s, params))
    assert logits.item() == pytest.approx(math.log(3.0), abs=1e-15)
    assert sigmoid(logits).item() == pytest.approx(0.75, abs=1e-12)


def test_discriminator_transpose_symmetry():
    d = 4
    rng = substream(25, "discsym")
    params = identity_projector_params(d)
    b = rng.standard_normal((d, d))
    h = Tensor(rng.uniform(0.1, 1.0, (1, d)))
    s = Tensor(rng.uniform(0.1, 1.0, (1, d)))
    z_h, z_s = project(h, params), project(s, params)
    forward = nm.bilinear(z_h, Tensor(b.copy()), z_s).item()
    backward = nm.bilinear(z_s, Tensor(b.T.copy()), z_h).item()
    assert forward == pytest.approx(backward, abs=1e-12)


def test_fuse_modes():
    h = [np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])]
    assert np.array_equal(fuse(h, "sum"), [[4.0, 6.0]])
    assert np.array_equal(fuse(h, "concat"), [[1.0, 2.0, 3.0, 4.0]])
    assert set(FUSION_MODES) == {"sum", "concat"}
    with pytest.raises(ShapeMismatch):
        fuse([np.ones((1, 2)), np.ones((1, 3))], "sum")


def test_init_params_shapes_and_determinism():
    params = init_params(["a", "b"], d_in=5, d=3, seed=42)
    names = [name for name, _ in params.named_tensors()]
    assert names == ["enc.a.W", "enc.b.W", "proj.W1", "proj.b1",
                     "proj.W2", "proj.b2", "disc.B"]
    assert params.encoders["a"].shape == (5, 3)
    assert params.proj_w1.shape == (3, 3)
    assert params.proj_b1.shape == (1, 3)
    assert not params.proj_b1.data.any()
    again = init_params(["a", "b"], d_in=5, d=3, seed=42)
    for (_, t1), (_, t2) in zip(params.named_tensors(), again.named_tensors()):
        assert np.array_equal(t1.data, t2.data)
    other = init_params(["a", "b"], d_in=5, d=3, seed=43)
    assert not np.array_equal(params.encoders["a"].data,
                              other.encoders["a"].data)


def test_shared_encoder_single_trainable_weight():
    params = init_params(["a", "b"], d_in=4, d=3, seed=0, share_encoder=True)
    assert params.encoders["a"] is params.encoders["b"]
    # both names appear in the checkpoint, but training updates one tensor
    assert len(params.named_tensors()) == 7
    assert len(params.trainable()) == 6


def test_checkpoint_round_trip():
    params = init_params(["a", "b"], d_in=4, d=3, seed=7)
    snap = params.snapshot()
    rebuilt = params_from_checkpoint(snap, ["a", "b"])
    for (n1, t1), (n2, t2) in zip(params.named_tensors(),
                                  rebuilt.named_tensors()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)
    with pytest.raises(FormatError, match="enc.zz.W"):
        params_from_checkpoint(snap, ["a", "zz"])
