"""Autodiff engine: per-op gradients, optimizer algebra, init bounds."""

import dis
import importlib
import inspect
import math
import pkgutil
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import hgcml
import hgcml.numerics as nm
from hgcml.rng import substream

from conftest import (code_objects, exp, grad_check, log, mul, mul_const,
                      numerics_grad_cases, row_sum, sigmoid)

GRAD_CASES = dict(numerics_grad_cases())


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_op_gradient(name):
    f, params = GRAD_CASES[name]()
    assert grad_check(f, params) < 1e-6


def numerics_lookups(module):
    """(owner, name) per lookup of a `hgcml.numerics` function by the code
    of `module`: a global bound to the function, or an attribute of a
    global bound to the module; `owner` is as `code_objects` names it."""
    bound = vars(module)
    for owner, code in code_objects(module):
        previous = None
        for ins in dis.get_instructions(code):
            value = bound.get(ins.argval) if ins.opname == "LOAD_GLOBAL" else None
            if inspect.isfunction(value) and value.__module__ == nm.__name__:
                yield owner, value.__name__
            elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and previous is nm:
                yield owner, ins.argval
            previous = value


def test_every_public_function_has_a_library_caller():
    """The op suite keeps only what the library calls: each public function
    of `hgcml.numerics` is looked up by code in `hgcml` other than its own
    body."""
    public = {name for name, value in vars(nm).items()
              if inspect.isfunction(value) and value.__module__ == nm.__name__
              and not name.startswith("_")}
    called = set()
    for info in pkgutil.iter_modules(hgcml.__path__):
        module = importlib.import_module(f"hgcml.{info.name}")
        called.update(name for owner, name in numerics_lookups(module)
                      if not (module is nm and owner == name))
    assert sorted(public - called) == []


def test_tensor_shape_coercion():
    assert nm.Tensor(3.0).shape == (1, 1)
    assert nm.Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    assert nm.Tensor(np.zeros((2, 5))).shape == (2, 5)
    assert nm.Tensor(2.5).item() == 2.5


def test_spmm_matches_dense():
    rng = substream(3, "spmm")
    dense = (rng.random((6, 6)) < 0.4) * rng.uniform(0.5, 2.0, (6, 6))
    x = nm.Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    out = nm.spmm(sp.csr_matrix(dense), x)
    assert np.allclose(out.data, dense @ x.data, atol=1e-12)
    w = rng.standard_normal((6, 4))
    nm.mean_all(mul_const(out, w)).backward()
    assert np.allclose(x.grad, dense.T @ (w / w.size), atol=1e-12)


def test_log_clamps_and_masks_gradient():
    x = nm.Tensor(np.array([[0.0, 2.0]]), requires_grad=True)
    y = log(x)
    assert y.data[0, 0] == math.log(nm.LOG_EPS)
    assert y.data[0, 1] == pytest.approx(math.log(2.0), abs=1e-15)
    row_sum(y).backward()
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_exp_overflow_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(nm.NonFiniteResult):
            exp(nm.Tensor(1000.0))


def test_relu_subgradient_at_zero_is_zero():
    x = nm.Tensor(np.array([[0.0, -1.0, 3.0]]), requires_grad=True)
    row_sum(nm.relu(x)).backward()
    assert x.grad.tolist() == [[0.0, 0.0, 1.0]]


def test_sigmoid_gradient_at_zero():
    x = nm.Tensor(0.0, requires_grad=True)
    sigmoid(x).backward()
    assert x.grad[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_gradient_accumulates_through_shared_input():
    a = nm.Tensor(3.0, requires_grad=True)
    nm.add(mul(a, a), a).backward()  # d/da (a^2 + a) = 2a + 1
    assert a.grad[0, 0] == pytest.approx(7.0, abs=1e-12)


def test_no_gradient_into_constants():
    a = nm.Tensor(np.ones((2, 2)), requires_grad=True)
    b = nm.Tensor(np.ones((2, 2)))
    nm.mean_all(mul(a, b)).backward()
    assert b.grad is None
    assert a.grad is not None


def test_shape_mismatch_errors():
    with pytest.raises(nm.ShapeMismatch):
        nm.add(nm.Tensor(np.zeros((2, 2))), nm.Tensor(np.zeros((3, 2))))
    with pytest.raises(nm.ShapeMismatch):
        nm.matmul(nm.Tensor(np.zeros((2, 3))), nm.Tensor(np.zeros((2, 3))))
    with pytest.raises(nm.ShapeMismatch):
        nm.permute_rows(nm.Tensor(np.zeros((3, 2))), [0, 1])
    with pytest.raises(nm.ShapeMismatch):
        nm.bilinear(nm.Tensor(np.zeros((2, 3))), nm.Tensor(np.zeros((3, 3))),
                    nm.Tensor(np.zeros((2, 3))))


def test_xavier_bounds_and_determinism():
    bound = math.sqrt(6.0 / 130)
    w1 = nm.xavier_init((50, 80), substream(5, "init", "w"))
    w2 = nm.xavier_init((50, 80), substream(5, "init", "w"))
    assert np.abs(w1.data).max() <= bound
    assert np.array_equal(w1.data, w2.data)
    assert w1.requires_grad
    tiny = nm.xavier_init((1, 1), substream(5, "init", "tiny"))
    assert abs(tiny.data[0, 0]) <= math.sqrt(3.0)


def test_adam_first_step_magnitude():
    p = nm.Tensor(1.0, requires_grad=True)
    state = nm.AdamState([p], lr=1e-3)
    p.grad = np.array([[1.0]])
    state.step()
    expected = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))
    assert p.data[0, 0] == pytest.approx(expected, abs=1e-15)


def test_adam_skips_missing_gradients():
    p = nm.Tensor(2.0, requires_grad=True)
    state = nm.AdamState([p], lr=0.1)
    state.zero_grad()
    state.step()
    assert p.data[0, 0] == 2.0


def test_adam_two_steps_match_hand_recurrence():
    rng = substream(9, "adam")
    value = rng.standard_normal((3, 2))
    g1 = rng.standard_normal((3, 2))
    g2 = rng.standard_normal((3, 2))
    p = nm.Tensor(value.copy(), requires_grad=True)
    state = nm.AdamState([p], lr=0.01)
    p.grad = g1.copy()
    state.step()
    p.grad = g2.copy()
    state.step()

    ref, m, v = value.copy(), np.zeros((3, 2)), np.zeros((3, 2))
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert np.allclose(p.data, ref, atol=1e-12)


def test_repeated_forward_backward_bit_identical():
    def run():
        rng = substream(11, "repeat")
        a = nm.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = nm.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        loss = nm.mean_all(sigmoid(nm.matmul(nm.relu(a), b)))
        loss.backward()
        return loss.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()

    assert run() == run()


def test_permute_rows_roundtrip_gradient():
    rng = substream(13, "perm")
    a = nm.Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    perm = rng.permutation(5)
    out = nm.permute_rows(a, perm)
    assert np.array_equal(out.data, a.data[perm])
    w = rng.standard_normal((5, 2))
    nm.mean_all(mul_const(out, w)).backward()
    inv = np.empty_like(perm)
    inv[perm] = np.arange(5)
    assert np.allclose(a.grad, (w / w.size)[inv], atol=1e-15)
