"""Dense/sparse 64-bit tensor core with reverse-mode differentiation.

Values are 2-D float64 arrays (scalars are (1,1), vectors are rows). Ops
record a dynamic graph; Tensor.backward() walks it in reverse topological
order, accumulates gradients into `.grad`, and frees the tape. Gradients
flow only into tensors with requires_grad=True; sparse matrices are
constants. All reductions use numpy's sequential kernels, so repeated
runs are bit-identical.

The ops are those the model and its losses call; the node-node loss is
one fused op in `objective`, built on `_make` like every op here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

LOG_EPS = 1e-12  # the losses' clamp on row norms and log arguments


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes."""


class NonFiniteResult(FloatingPointError):
    """An op produced NaN/Inf outside its error contract."""


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeMismatch(f"tensors are 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Tensor:
    """Node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._grad_fn = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() needs one element, shape is {self.shape}")
        return float(self.data[0, 0])

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a copy, never g itself: add/add_bias hand one g to both
            # parents, and mean_rows (and row_sum of the tests' reference
            # tape) pass read-only broadcast views
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar; frees the recorded graph."""
        if self.data.size != 1:
            raise ShapeMismatch("backward() starts from a scalar loss")
        order = _toposort(self)
        self._accumulate(np.ones((1, 1)))
        for node in order:
            if node._grad_fn is not None:
                if node.grad is not None:
                    node._grad_fn(node.grad)
                node._grad_fn = None
                node._parents = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative post-order DFS; reversed it lists consumers before inputs.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, idx = stack.pop()
        if idx == 0:
            if id(node) in visited:
                continue
            visited.add(id(node))
        if idx < len(node._parents):
            stack.append((node, idx + 1))
            child = node._parents[idx]
            if id(child) not in visited:
                stack.append((child, 0))
        else:
            order.append(node)
    order.reverse()
    return order


def _make(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


# ---------------------------------------------------------------- op suite


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), grad_fn)


def spmm(s: sp.csr_matrix, x: Tensor) -> Tensor:
    """Constant float64 CSR `s` times `x`; `s` is never differentiated."""
    if s.shape[1] != x.shape[0]:
        raise ShapeMismatch(f"spmm {s.shape} @ {x.shape}")

    def grad_fn(g):
        if x.requires_grad:
            x._accumulate(s.T @ g)

    return _make(s @ x.data, (x,), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add {a.shape} vs {b.shape}")

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _make(a.data + b.data, (a, b), grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(c * g)

    return _make(c * a.data, (a,), grad_fn)


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast add: a (n,d) + b (1,d)."""
    if b.shape != (1, a.shape[1]):
        raise ShapeMismatch(f"add_bias {a.shape} + {b.shape}")

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0, keepdims=True))

    return _make(a.data + b.data, (a, b), grad_fn)


def relu(a: Tensor) -> Tensor:
    # Subgradient at 0 is defined as 0.
    mask = a.data > 0

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _make(np.where(mask, a.data, 0.0), (a,), grad_fn)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed stably; gradient is sigmoid(x)."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g * _stable_sigmoid(x))

    return _make(out, (a,), grad_fn)


def transpose(a: Tensor) -> Tensor:
    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _make(a.data.T.copy(), (a,), grad_fn)


def mean_rows(a: Tensor) -> Tensor:
    """Column means: (n,d) -> (1,d)."""
    n = a.shape[0]

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g / n, a.shape))

    return _make(a.data.mean(axis=0, keepdims=True), (a,), grad_fn)


def mean_all(a: Tensor) -> Tensor:
    size = a.data.size

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(np.full(a.shape, g[0, 0] / size))

    return _make(np.array([[a.data.mean()]]), (a,), grad_fn)


def permute_rows(a: Tensor, perm) -> Tensor:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (a.shape[0],):
        raise ShapeMismatch("permutation length must match row count")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g[inv])

    return _make(a.data[perm].copy(), (a,), grad_fn)


def bilinear(h: Tensor, b: Tensor, s: Tensor) -> Tensor:
    """h (n,d) x B (d,d) x s (1,d) -> logits (n,1); scalar when n=1."""
    if s.shape[0] != 1 or b.shape != (h.shape[1], s.shape[1]):
        raise ShapeMismatch(f"bilinear {h.shape}, {b.shape}, {s.shape}")
    return matmul(matmul(h, b), transpose(s))


# ------------------------------------------------------- init, optimizer


def xavier_init(shape, rng: np.random.Generator) -> Tensor:
    rows, cols = shape
    bound = math.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


class AdamState:
    """Bias-corrected Adam over a fixed list of parameters."""

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
