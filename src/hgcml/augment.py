"""Stochastic corruption of metapath views: edge dropping, feature masking.

Both corruptions are pure functions of (view, probabilities, stream);
the settings are range-checked once, in `config.AugmentSettings`.
Each undirected edge is one Bernoulli trial, in the view's edge order,
so symmetry survives dropping; feature masking zeroes whole columns by
default (`mask_mode = "columns"`) or independent entries (`"entries"`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .hin import MetapathView
from .rng import substream


def drop_edges(view: MetapathView, p_e: float, rng: np.random.Generator) -> MetapathView:
    """Remove each undirected edge with probability p_e."""
    keep = rng.random(view.n_edges) >= p_e
    return dataclasses.replace(view, edges=view.edges[:, keep])


def mask_features(view: MetapathView, p_f: float, rng: np.random.Generator,
                  mask_mode: str = "columns") -> MetapathView:
    """Zero masked feature dimensions (or entries) across all nodes."""
    features = view.features.copy()
    if mask_mode == "columns":
        masked = rng.random(features.shape[1]) < p_f
        features[:, masked] = 0.0
    else:
        features[rng.random(features.shape) < p_f] = 0.0
    return dataclasses.replace(view, features=features)


def corrupt(view: MetapathView, p_e: float, p_f: float, seed: int,
            mask_mode: str = "columns") -> MetapathView:
    """Feature masking then edge dropping, on independent substreams of seed."""
    out = mask_features(view, p_f, substream(seed, "features"), mask_mode)
    out = drop_edges(out, p_e, substream(seed, "edges"))
    return out
