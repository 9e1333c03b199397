"""Stochastic corruption of metapath views: edge dropping, feature masking.

Both corruptions are pure functions of (view, probabilities, stream);
the settings are range-checked once, in `config.AugmentSettings`.
Each undirected edge is one Bernoulli trial, so symmetry survives
dropping; feature masking zeroes whole columns by default (`mask_mode =
"columns"`) or independent entries (`"entries"`).
"""

from __future__ import annotations

import numpy as np

from .hin import MetapathView
from .rng import substream


def drop_edges(view: MetapathView, p_e: float, rng: np.random.Generator) -> MetapathView:
    """Remove each undirected edge with probability p_e."""
    import scipy.sparse as sp

    n = view.n_nodes
    upper = sp.triu(view.adjacency, k=1).tocoo()
    keep = rng.random(upper.nnz) >= p_e
    rows = upper.row[keep]
    cols = upper.col[keep]
    adjacency = sp.csr_matrix(
        (np.ones(2 * rows.size),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n), dtype=np.float64)
    return MetapathView(adjacency=adjacency, features=view.features,
                        metapath=view.metapath)


def mask_features(view: MetapathView, p_f: float, rng: np.random.Generator,
                  mask_mode: str = "columns") -> MetapathView:
    """Zero masked feature dimensions (or entries) across all nodes."""
    features = view.features.copy()
    if mask_mode == "columns":
        masked = rng.random(features.shape[1]) < p_f
        features[:, masked] = 0.0
    else:
        features[rng.random(features.shape) < p_f] = 0.0
    return MetapathView(adjacency=view.adjacency, features=features,
                        metapath=view.metapath)


def corrupt(view: MetapathView, p_e: float, p_f: float, seed: int,
            mask_mode: str = "columns") -> MetapathView:
    """Feature masking then edge dropping, on independent substreams of seed."""
    out = mask_features(view, p_f, substream(seed, "features"), mask_mode)
    out = drop_edges(out, p_e, substream(seed, "edges"))
    return out
