"""Per-view GCN encoder, shared projector, readout, discriminator, fusion.

The discriminator is the bilinear chain of `tests/conftest.py` over
projected rows and a projected summary: the oracle of the one the
node-graph loss fuses."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (assert_same_csr, bilinear, csr_gcn_normalize,
                      layer_bits, oracle_graphs, sigmoid, tape_gcn_forward,
                      tape_project, view_from_adjacency)
from hgcml.config import FUSION_MODES
from hgcml.io import FormatError
from hgcml.model import (fuse, gcn_forward, gcn_normalize, init_params,
                         params_from_checkpoint, project)
from hgcml.numerics import ShapeMismatch, Tensor, mean_rows
from hgcml.rng import substream


def identity_projector_params(d):
    eye = np.eye(d)
    return {"enc.m.W": Tensor(eye.copy(), requires_grad=True),
            "proj.W1": Tensor(eye.copy(), requires_grad=True),
            "proj.b1": Tensor(np.zeros((1, d)), requires_grad=True),
            "proj.W2": Tensor(eye.copy(), requires_grad=True),
            "proj.b2": Tensor(np.zeros((1, d)), requires_grad=True),
            "disc.B": Tensor(eye.copy(), requires_grad=True)}


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


@pytest.mark.parametrize("n,d_in,d", [(7, 5, 4), (40, 12, 8)])
def test_gcn_node_is_bit_equal_to_its_op_chain(n, d_in, d):
    """Output and weight gradient, bit for bit; node 0 is isolated with
    zero features, so its row sits exactly at the ReLU's kink."""
    rng = substream(41, "gcnbits", n)
    upper = np.triu(rng.random((n, n)) < 0.3, k=1)
    upper[0] = False
    x = rng.standard_normal((n, d_in))
    x[0] = 0.0
    view = view_from_adjacency(upper | upper.T, x)
    w0 = rng.standard_normal((d_in, d))
    k = rng.standard_normal((n, d))

    def bits(layer):
        w = Tensor(w0.copy(), requires_grad=True)
        return layer_bits(layer, (view, w), [w], k)

    assert bits(gcn_forward) == bits(tape_gcn_forward)


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
    params["proj.W1"] = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]), requires_grad=True)
    params["proj.b1"] = Tensor(np.array([[0.5, -2.0]]), requires_grad=True)
    params["proj.W2"] = Tensor(np.array([[2.0, 0.0], [0.0, 3.0]]), requires_grad=True)
    params["proj.b2"] = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
    h = Tensor(np.array([[1.0, 1.0]]))
    # hidden = relu([1+1+0.5, 1-2]) = [2.5, 0]; out = [5.0, 0+1]
    assert np.allclose(project(h, params).data, [[5.0, 1.0]], atol=1e-15)


@pytest.mark.parametrize("rows", [1, 9])
def test_projector_node_is_bit_equal_to_its_op_chain(rows):
    """Output and the gradients of h, W1, b1, W2 and b2, bit for bit, on
    rows (9) and on a summary (1)."""
    d = 6
    rng = substream(42, "projbits", rows)
    shapes = {"proj.W1": (d, d), "proj.b1": (1, d), "proj.W2": (d, d),
              "proj.b2": (1, d)}
    arrays = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    h0 = rng.standard_normal((rows, d))
    k = rng.standard_normal((rows, d))

    def bits(layer):
        params = {name: Tensor(a.copy(), requires_grad=True)
                  for name, a in arrays.items()}
        h = Tensor(h0.copy(), requires_grad=True)
        return layer_bits(layer, (h, params), [h, *params.values()], k)

    assert bits(project) == bits(tape_project)


def test_readout_is_column_mean():
    h = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert np.allclose(mean_rows(h).data, [[3.0, 4.0]], atol=1e-15)


def test_discriminator_zero_bilinear_gives_half():
    params = identity_projector_params(3)
    params["disc.B"] = Tensor(np.zeros((3, 3)), requires_grad=True)
    rng = substream(24, "disc")
    h = Tensor(rng.standard_normal((5, 3)))
    s = Tensor(rng.standard_normal((1, 3)))
    logits = bilinear(project(h, params), params["disc.B"], project(s, params))
    assert np.allclose(sigmoid(logits).data, 0.5, atol=1e-15)


def test_discriminator_logit_log3_gives_three_quarters():
    params = identity_projector_params(1)
    h = Tensor(np.array([[math.log(3.0)]]))
    s = Tensor(np.array([[1.0]]))
    logits = bilinear(project(h, params), params["disc.B"], project(s, params))
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
    forward = bilinear(z_h, Tensor(b.copy()), z_s).item()
    backward = bilinear(z_s, Tensor(b.T.copy()), z_h).item()
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
    assert list(params) == ["enc.a.W", "enc.b.W", "proj.W1", "proj.b1",
                            "proj.W2", "proj.b2", "disc.B"]
    assert params["enc.a.W"].shape == (5, 3)
    assert params["proj.W1"].shape == (3, 3)
    assert params["proj.b1"].shape == (1, 3)
    assert not params["proj.b1"].data.any()
    again = init_params(["a", "b"], d_in=5, d=3, seed=42)
    assert list(again) == list(params)
    for name, tensor in params.items():
        assert np.array_equal(tensor.data, again[name].data)
    other = init_params(["a", "b"], d_in=5, d=3, seed=43)
    assert not np.array_equal(params["enc.a.W"].data, other["enc.a.W"].data)


def test_shared_encoder_single_trainable_weight():
    params = init_params(["a", "b"], d_in=4, d=3, seed=0, share_encoder=True)
    assert params["enc.a.W"] is params["enc.b.W"]
    # both names appear in the checkpoint, but training updates one tensor
    assert len(params) == 7
    assert len({id(tensor) for tensor in params.values()}) == 6


def test_checkpoint_round_trip():
    params = init_params(["a", "b"], d_in=4, d=3, seed=7)
    snap = {name: tensor.data.copy() for name, tensor in params.items()}
    rebuilt = params_from_checkpoint(snap, ["a", "b"])
    assert list(rebuilt) == list(params)
    for name, tensor in params.items():
        assert np.array_equal(tensor.data, rebuilt[name].data)
    with pytest.raises(FormatError, match="enc.zz.W"):
        params_from_checkpoint(snap, ["a", "zz"])
