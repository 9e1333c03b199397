"""Neural components: per-view GCN encoder, shared projector head,
mean-pooling readout, and late fusion.

The encoder is a single graph convolution H = ReLU(A_hat X W) with no
bias and the symmetric renormalization A_hat = D^-1/2 (A+I) D^-1/2, built
from the view's edge list. The projector is a 2-layer MLP d->d->d shared
by both losses: the objective applies it once to each corrupted view's
rows and once to each view's mean summary, and the bilinear
discriminator B (`disc_b`) scores those projections.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .hin import MetapathView
from .io import FormatError
from .numerics import ShapeMismatch, Tensor
from .rng import substream

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class ModelParams:
    """All trainable tensors; encoder weights are per metapath unless shared."""

    encoders: "OrderedDict[str, Tensor]"
    proj_w1: Tensor
    proj_b1: Tensor
    proj_w2: Tensor
    proj_b2: Tensor
    disc_b: Tensor

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        named = [(f"enc.{name}.W", w) for name, w in self.encoders.items()]
        named += [("proj.W1", self.proj_w1), ("proj.b1", self.proj_b1),
                  ("proj.W2", self.proj_w2), ("proj.b2", self.proj_b2),
                  ("disc.B", self.disc_b)]
        return named

    def trainable(self) -> list[Tensor]:
        """Unique tensors (shared encoder weights appear once)."""
        seen: dict[int, Tensor] = {}
        for _, tensor in self.named_tensors():
            seen.setdefault(id(tensor), tensor)
        return list(seen.values())

    def snapshot(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, t.data.copy()) for name, t in self.named_tensors())


def init_params(metapath_names, d_in: int, d: int, seed: int,
                share_encoder: bool = False) -> ModelParams:
    """Xavier-initialized parameters on named substreams of `seed`."""
    encoders: "OrderedDict[str, Tensor]" = OrderedDict()
    if share_encoder:
        shared = nm.xavier_init((d_in, d), substream(seed, "init", "enc", "shared"))
        for name in metapath_names:
            encoders[name] = shared
    else:
        for name in metapath_names:
            encoders[name] = nm.xavier_init(
                (d_in, d), substream(seed, "init", "enc", name))
    return ModelParams(
        encoders=encoders,
        proj_w1=nm.xavier_init((d, d), substream(seed, "init", "proj", "W1")),
        proj_b1=Tensor(np.zeros((1, d)), requires_grad=True),
        proj_w2=nm.xavier_init((d, d), substream(seed, "init", "proj", "W2")),
        proj_b2=Tensor(np.zeros((1, d)), requires_grad=True),
        disc_b=nm.xavier_init((d, d), substream(seed, "init", "disc", "B")),
    )


def params_from_checkpoint(checkpoint, metapath_names) -> ModelParams:
    """Rebuild inference-time parameters from a name->array checkpoint."""
    missing = [f"enc.{n}.W" for n in metapath_names
               if f"enc.{n}.W" not in checkpoint]
    missing += [k for k in ("proj.W1", "proj.b1", "proj.W2", "proj.b2", "disc.B")
                if k not in checkpoint]
    if missing:
        raise FormatError(f"checkpoint is missing tensors: {missing}")
    encoders = OrderedDict(
        (name, Tensor(checkpoint[f"enc.{name}.W"])) for name in metapath_names)
    return ModelParams(
        encoders=encoders,
        proj_w1=Tensor(checkpoint["proj.W1"]),
        proj_b1=Tensor(checkpoint["proj.b1"]),
        proj_w2=Tensor(checkpoint["proj.W2"]),
        proj_b2=Tensor(checkpoint["proj.b2"]),
        disc_b=Tensor(checkpoint["disc.B"]),
    )


def gcn_normalize(view: MetapathView) -> sp.csr_matrix:
    """Symmetric renormalization with self-loops: D^-1/2 (A+I) D^-1/2, with
    sorted indices, so `spmm` sums each row in column order."""
    import scipy.sparse as sp

    n = view.n_nodes
    degrees = np.bincount(view.edges.ravel(), minlength=n) + 1.0  # the loop
    inv_sqrt = 1.0 / np.sqrt(degrees)
    rows, cols = view.coo(np.arange(n))
    return sp.csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], (rows, cols)),
                         shape=(n, n))


def gcn_forward(view: MetapathView, weight: Tensor) -> Tensor:
    """One graph convolution: H = ReLU(A_hat X W)."""
    if view.features.shape[1] != weight.shape[0]:
        raise ShapeMismatch(
            f"features have {view.features.shape[1]} dims, W expects {weight.shape[0]}")
    x = Tensor(view.features)
    return nm.relu(nm.spmm(gcn_normalize(view), nm.matmul(x, weight)))


def project(h: Tensor, params: ModelParams) -> Tensor:
    """Shared projector head: W2 ReLU(W1 h + b1) + b2, row-wise."""
    hidden = nm.relu(nm.add_bias(nm.matmul(h, params.proj_w1), params.proj_b1))
    return nm.add_bias(nm.matmul(hidden, params.proj_w2), params.proj_b2)


def readout(h: Tensor) -> Tensor:
    """Mean-pooled graph summary: column mean of H."""
    return nm.mean_rows(h)


def fuse(h_list, mode: str) -> np.ndarray:
    """Late fusion of per-view embeddings: row-wise sum or column concat."""
    arrays = [np.asarray(h) for h in h_list]
    rows = arrays[0].shape[0]
    if any(a.shape[0] != rows for a in arrays):
        raise ShapeMismatch("fuse needs equal row counts")
    if mode == "sum":
        if any(a.shape[1] != arrays[0].shape[1] for a in arrays):
            raise ShapeMismatch("sum fusion needs equal dimensions")
        out = np.zeros_like(arrays[0])
        for a in arrays:
            out = out + a
        return out
    return np.hstack(arrays)
