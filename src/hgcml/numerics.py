"""Dense 64-bit tensor core with reverse-mode differentiation.

Values are 2-D float64 arrays (scalars are (1,1), vectors are rows).
Each differentiable step records one node built with `_make`: its data,
its parents and a grad_fn that reads only what the step kept for it.
Tensor.backward() walks the nodes in reverse topological order,
accumulates gradients into the leaves' `.grad`, and lets go of each
intermediate node once its gradient has been passed on. A node's
backward hands every parent its gradient; `_accumulate` alone drops it
for a tensor with requires_grad=False, so no layer checks. All
reductions use numpy's sequential kernels, so repeated runs are
bit-identical.

The nodes are layer-sized: the GCN and the projector in `model`, the
losses and their weighted total in `objective`. This module keeps the
tape itself, the one shared row op, `mean_rows`, Adam, and the errors
`ShapeMismatch` and `DivergedLoss`; the CLI maps the latter to exit 4
without loading the trainer.
"""

from __future__ import annotations

import math

import numpy as np

LOG_EPS = 1e-12  # the losses' clamp on row norms and log arguments


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes."""


class DivergedLoss(ArithmeticError):
    """Training hit a NaN/Inf loss; carries the last good state."""

    def __init__(self, epoch: int, checkpoint, trace):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
        self.checkpoint = checkpoint
        self.trace = trace


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
        """Add `g` to `.grad`; the one place a constant keeps no gradient."""
        if not self.requires_grad:
            return
        if self.grad is None:
            # a C-ordered copy, never g itself: mean_rows passes a
            # read-only broadcast view, the node-graph loss a transposed
            # one, and the tests' reference ops hand one g to two parents
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar, freeing the recorded graph as it goes.

        Nodes run consumers first. Once a non-leaf node's grad_fn has run,
        the node drops its `.grad`, its grad_fn (with every array the
        closure holds) and its parents, and the walk drops the node, so an
        intermediate's data lives on only if the caller still refers to
        it. Leaves keep their accumulated `.grad` for the optimizer.
        """
        if self.data.size != 1:
            raise ShapeMismatch("backward() starts from a scalar loss")
        order = _toposort(self)
        self._accumulate(np.ones((1, 1)))
        while order:
            node = order.pop()
            if node._grad_fn is not None:
                node._grad_fn(node.grad)
                node.grad = None
                node._grad_fn = None
                node._parents = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative post-order DFS: inputs before consumers, the root last.
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
    return order


def _make(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


# ------------------------------------------------------- row op


def mean_rows(a: Tensor) -> Tensor:
    """Column means: (n,d) -> (1,d)."""
    n = a.shape[0]

    def grad_fn(g):
        a._accumulate(np.broadcast_to(g / n, a.shape))

    return _make(a.data.mean(axis=0, keepdims=True), (a,), grad_fn)


# ------------------------------------------------------- init, optimizer


def xavier_init(shape, rng: np.random.Generator) -> Tensor:
    rows, cols = shape
    bound = math.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


class AdamState:
    """Bias-corrected Adam that updates a fixed list of arrays in place."""

    def __init__(self, arrays, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.arrays = list(arrays)
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(a) for a in self.arrays]
        self.v = [np.zeros_like(a) for a in self.arrays]

    def step(self, grads) -> None:
        """One update from `grads`, one array per parameter array."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for a, g, m, v in zip(self.arrays, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            a -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
