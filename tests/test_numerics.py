"""Autodiff engine: per-op gradients, optimizer algebra, init bounds."""

import dis
import importlib
import inspect
import math
import pkgutil
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import hgcml
import hgcml.numerics as nm
from hgcml.rng import substream

from conftest import (OracleOverflow, add, bilinear, code_objects, exp,
                      grad_check, log, matmul, mean_all, mul, mul_const,
                      numerics_grad_cases, permute_rows, relu, row_sum,
                      sigmoid, spmm)

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
    out = spmm(sp.csr_matrix(dense), x)
    assert np.allclose(out.data, dense @ x.data, atol=1e-12)
    w = rng.standard_normal((6, 4))
    mean_all(mul_const(out, w)).backward()
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
        with pytest.raises(OracleOverflow):
            exp(nm.Tensor(1000.0))


def test_relu_subgradient_at_zero_is_zero():
    x = nm.Tensor(np.array([[0.0, -1.0, 3.0]]), requires_grad=True)
    row_sum(relu(x)).backward()
    assert x.grad.tolist() == [[0.0, 0.0, 1.0]]


def test_sigmoid_gradient_at_zero():
    x = nm.Tensor(0.0, requires_grad=True)
    sigmoid(x).backward()
    assert x.grad[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_gradient_accumulates_through_shared_input():
    a = nm.Tensor(3.0, requires_grad=True)
    add(mul(a, a), a).backward()  # d/da (a^2 + a) = 2a + 1
    assert a.grad[0, 0] == pytest.approx(7.0, abs=1e-12)


def test_no_gradient_into_constants():
    a = nm.Tensor(np.ones((2, 2)), requires_grad=True)
    b = nm.Tensor(np.ones((2, 2)))
    mean_all(mul(a, b)).backward()
    assert b.grad is None
    assert a.grad is not None


def test_shape_mismatch_errors():
    with pytest.raises(nm.ShapeMismatch):
        add(nm.Tensor(np.zeros((2, 2))), nm.Tensor(np.zeros((3, 2))))
    with pytest.raises(nm.ShapeMismatch):
        matmul(nm.Tensor(np.zeros((2, 3))), nm.Tensor(np.zeros((2, 3))))
    with pytest.raises(nm.ShapeMismatch):
        permute_rows(nm.Tensor(np.zeros((3, 2))), [0, 1])
    with pytest.raises(nm.ShapeMismatch):
        bilinear(nm.Tensor(np.zeros((2, 3))), nm.Tensor(np.zeros((3, 3))),
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
    p = np.array([[1.0]])
    state = nm.AdamState([p], lr=1e-3)
    state.step([np.array([[1.0]])])
    expected = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))
    assert p[0, 0] == pytest.approx(expected, abs=1e-15)


def test_adam_skips_missing_gradients():
    p = np.array([[2.0]])
    state = nm.AdamState([p], lr=0.1)
    state.step([None])
    assert p[0, 0] == 2.0


def test_adam_two_steps_match_hand_recurrence():
    rng = substream(9, "adam")
    value = rng.standard_normal((3, 2))
    g1 = rng.standard_normal((3, 2))
    g2 = rng.standard_normal((3, 2))
    p = value.copy()
    state = nm.AdamState([p], lr=0.01)
    state.step([g1.copy()])
    state.step([g2.copy()])

    ref, m, v = value.copy(), np.zeros((3, 2)), np.zeros((3, 2))
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert np.allclose(p, ref, atol=1e-12)


def test_repeated_forward_backward_bit_identical():
    def run():
        rng = substream(11, "repeat")
        a = nm.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = nm.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        loss = mean_all(sigmoid(matmul(relu(a), b)))
        loss.backward()
        return loss.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()

    assert run() == run()


def test_permute_rows_roundtrip_gradient():
    rng = substream(13, "perm")
    a = nm.Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    perm = rng.permutation(5)
    out = permute_rows(a, perm)
    assert np.array_equal(out.data, a.data[perm])
    w = rng.standard_normal((5, 2))
    mean_all(mul_const(out, w)).backward()
    inv = np.empty_like(perm)
    inv[perm] = np.arange(5)
    assert np.allclose(a.grad, (w / w.size)[inv], atol=1e-15)


def test_backward_keeps_leaf_gradients_and_drops_intermediate_ones():
    rng = substream(17, "release")
    a = nm.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    b = nm.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    mid = matmul(a, b)
    act = relu(mid)
    loss = mean_all(act)
    loss.backward()
    assert mid.grad is None and act.grad is None and loss.grad is None
    g_mid = (mid.data > 0) / mid.data.size
    assert np.allclose(a.grad, g_mid @ b.data.T, atol=1e-15)
    assert np.allclose(b.grad, a.data.T @ g_mid, atol=1e-15)


def test_backward_lets_go_of_an_intermediate_once_its_gradient_is_passed_on():
    """When an input-side grad_fn runs, every node downstream of it that
    the caller no longer refers to has been freed. Tensor has slots and no
    weakref slot, so the refs are to the nodes' data, which only the
    nodes and their consumers' closures hold."""
    rng = substream(19, "release")
    x = nm.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    w = nm.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    alive = []

    def probe(a):
        def grad_fn(g):
            alive.append([ref() is not None for ref in refs])
            a._accumulate(g)
        return nm._make(a.data.copy(), (a,), grad_fn)

    mid = matmul(probe(x), w)
    act = relu(mid)
    refs = [weakref.ref(mid.data), weakref.ref(act.data)]
    loss = mean_all(act)
    del mid, act
    loss.backward()
    assert alive == [[False, False]]
    assert x.grad is not None and w.grad is not None


def test_backward_peak_stays_near_what_the_forward_holds():
    """A k-layer matmul/relu chain holds about 2k n x d arrays after its
    forward; its backward adds no more than a few n x d arrays on top,
    since each layer's gradient and data go once passed on (keeping every
    intermediate gradient would add 2k)."""
    n, d, k = 512, 16, 8
    rng = substream(23, "release")
    x = nm.Tensor(rng.standard_normal((n, d)))
    weights = [nm.Tensor(rng.standard_normal((d, d)) / d, requires_grad=True)
               for _ in range(k)]
    array = n * d * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = x
        for w in weights:
            h = relu(matmul(h, w))
        loss = mean_all(h)
        del h
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held - before > 2 * k * array
    assert peak - held < 4 * array
    assert all(w.grad is not None for w in weights)
