"""Neural components: per-view GCN encoder, shared projector head and
late fusion.

The encoder is a single graph convolution H = ReLU(A_hat X W) with no
bias and the symmetric renormalization A_hat = D^-1/2 (A+I) D^-1/2, built
from the view's edge list. The projector is a 2-layer MLP d->d->d shared
by both losses: the objective applies it once to each corrupted view's
rows and once to each view's mean summary (`numerics.mean_rows`), and
the bilinear discriminator B scores those projections.

The parameters are one name -> Tensor dict, keyed and ordered as
`model.bin` stores them: `ENCODER` per metapath, then `HEAD`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .hin import MetapathView
from .io import FormatError
from .numerics import ShapeMismatch, Tensor
from .rng import substream

if TYPE_CHECKING:
    import scipy.sparse as sp

# the name of a metapath's GCN weight, and the shared head after the
# encoders in model.bin's order
ENCODER = "enc.{}.W"
PROJ_W1, PROJ_B1, PROJ_W2, PROJ_B2, DISC_B = HEAD = (
    "proj.W1", "proj.b1", "proj.W2", "proj.b2", "disc.B")


def encoder(params, view: MetapathView) -> Tensor:
    """The GCN weight of `view`'s metapath; ShapeMismatch if it has none."""
    name = ENCODER.format(view.metapath.name)
    if name not in params:
        raise ShapeMismatch(f"no encoder for view {view.metapath.name!r}")
    return params[name]


def init_params(metapath_names, d_in: int, d: int, seed: int,
                share_encoder: bool = False) -> dict[str, Tensor]:
    """Xavier-initialized parameters on named substreams of `seed`; a
    shared encoder is one Tensor under every encoder name."""
    if share_encoder:
        shared = nm.xavier_init((d_in, d), substream(seed, "init", "enc", "shared"))
    params = {ENCODER.format(name): shared if share_encoder else
              nm.xavier_init((d_in, d), substream(seed, "init", "enc", name))
              for name in metapath_names}
    params[PROJ_W1] = nm.xavier_init((d, d), substream(seed, "init", "proj", "W1"))
    params[PROJ_B1] = Tensor(np.zeros((1, d)), requires_grad=True)
    params[PROJ_W2] = nm.xavier_init((d, d), substream(seed, "init", "proj", "W2"))
    params[PROJ_B2] = Tensor(np.zeros((1, d)), requires_grad=True)
    params[DISC_B] = nm.xavier_init((d, d), substream(seed, "init", "disc", "B"))
    return params


def params_from_checkpoint(checkpoint, metapath_names) -> dict[str, Tensor]:
    """Inference-time parameters from a name->array checkpoint."""
    names = [ENCODER.format(name) for name in metapath_names] + list(HEAD)
    missing = [name for name in names if name not in checkpoint]
    if missing:
        raise FormatError(f"checkpoint is missing tensors: {missing}")
    for name in names:
        if not np.isfinite(checkpoint[name]).all():
            raise FormatError(f"checkpoint tensor {name!r} holds non-finite values")
    return {name: Tensor(checkpoint[name]) for name in names}


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
    """One graph convolution, H = ReLU(A_hat X W), as one tape node that
    keeps only H: its ReLU mask is H > 0."""
    if view.features.shape[1] != weight.shape[0]:
        raise ShapeMismatch(
            f"features have {view.features.shape[1]} dims, W expects {weight.shape[0]}")
    x = np.ascontiguousarray(view.features, dtype=np.float64)
    a_hat = gcn_normalize(view)
    pre = a_hat @ (x @ weight.data)
    out = np.where(pre <= 0, 0.0, pre)  # NaN stays NaN

    def grad_fn(g):
        weight._accumulate(x.T @ (a_hat.T @ (g * (out > 0))))

    return nm._make(out, (weight,), grad_fn)


def project(h: Tensor, params) -> Tensor:
    """Shared projector head, W2 ReLU(W1 h + b1) + b2 row-wise, as one tape
    node that keeps the hidden activation and the output."""
    w1, b1, w2, b2 = (params[name] for name in (PROJ_W1, PROJ_B1, PROJ_W2, PROJ_B2))
    hidden = h.data @ w1.data
    hidden += b1.data
    hidden = np.where(hidden <= 0, 0.0, hidden)  # NaN stays NaN
    out = hidden @ w2.data
    out += b2.data

    def grad_fn(g):
        b2._accumulate(g.sum(axis=0, keepdims=True))
        w2._accumulate(hidden.T @ g)
        g = (g @ w2.data.T) * (hidden > 0)
        b1._accumulate(g.sum(axis=0, keepdims=True))
        h._accumulate(g @ w1.data.T)
        w1._accumulate(h.data.T @ g)

    return nm._make(out, (h, w1, b1, w2, b2), grad_fn)


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
