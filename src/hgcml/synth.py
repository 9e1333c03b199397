"""Planted-block synthetic HIN generator for tests and demos.

Target nodes fall into equally sized blocks. For every metapath, node
pairs are planted with intra-/inter-block probabilities and each planted
pair is realized through its own bridge node of a metapath-specific
auxiliary type, so the extracted metapath view reproduces the planted
graph exactly. Features are block-shifted Gaussians; labels are block
ids.
"""

from __future__ import annotations

import json
import os
from itertools import repeat

import numpy as np

from . import io
from .config import ConfigError, SynthConfig
from .rng import substream


def plant_pairs(rng, block_of: np.ndarray, p_intra: float,
                p_inter: float) -> list[tuple[int, int]]:
    """The planted pairs (i, j), i < j, in row-major order.

    Each pair takes one uniform draw and is planted when the draw falls
    below its probability. Row i draws its n-1-i values at once, which
    yields the same doubles, in the same order, as one scalar draw per pair.
    """
    n = block_of.size
    pairs = []
    for i in range(n):
        p = np.where(block_of[i + 1:] == block_of[i], p_intra, p_inter)
        hits = np.flatnonzero(rng.random(n - 1 - i) < p) + i + 1
        pairs += zip(repeat(i), hits.tolist())
    return pairs


def generate(cfg: SynthConfig, out_dir) -> dict[str, str]:
    """Write nodes/edges/features/labels plus a runnable config.json.

    ConfigError, before `out_dir` is made, if a feature value does not fit
    the float32 that `features.bin` stores.
    """
    n = cfg.blocks * cfg.block_size
    block_of = np.repeat(np.arange(cfg.blocks), cfg.block_size)
    feat_rng = substream(cfg.seed, "synth", "features")
    with np.errstate(over="ignore", invalid="ignore"):
        features = cfg.feature_noise * feat_rng.standard_normal(
            (n, cfg.feature_dim))
        features[np.arange(n), block_of] += cfg.feature_shift
        features = features.astype(np.float32)
    if not np.isfinite(features).all():
        raise ConfigError("synth.feature_shift and synth.feature_noise give "
                          "features outside the float32 range")
    os.makedirs(out_dir, exist_ok=True)

    node_lines = [f"e{i}\tentity" for i in range(n)]
    edge_lines: list[str] = []
    for m in range(cfg.metapaths):
        rng = substream(cfg.seed, "synth", "edges", m)
        pairs = plant_pairs(rng, block_of, cfg.p_intra, cfg.p_inter)
        for bridge, (i, j) in enumerate(pairs):
            name = f"b{m}_{bridge}"
            node_lines.append(f"{name}\tbridge{m}")
            edge_lines.append(f"e{i}\t{name}\tvia{m}")
            edge_lines.append(f"e{j}\t{name}\tvia{m}")

    paths = {
        "nodes": os.path.join(out_dir, "nodes.tsv"),
        "edges": os.path.join(out_dir, "edges.tsv"),
        "features": os.path.join(out_dir, "features.bin"),
        "labels": os.path.join(out_dir, "labels.tsv"),
        "config": os.path.join(out_dir, "config.json"),
    }
    with io.atomic_open(paths["nodes"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(node_lines) + "\n")
    with io.atomic_open(paths["edges"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(edge_lines) + "\n")
    io.write_matrix(paths["features"], features)
    with io.atomic_open(paths["labels"], "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(f"e{i}\t{block_of[i]}\n")

    config = {
        "data": {
            "nodes": "nodes.tsv",
            "edges": "edges.tsv",
            "features": "features.bin",
            "labels": "labels.tsv",
        },
        "schema": {
            "types": ["entity"] + [f"bridge{m}" for m in range(cfg.metapaths)],
            "target_type": "entity",
            "relations": [
                {"name": f"via{m}", "src": "entity", "dst": f"bridge{m}"}
                for m in range(cfg.metapaths)
            ],
        },
        "metapaths": [
            {"name": f"meta{m}", "relations": [f"via{m}", f"via{m}"]}
            for m in range(cfg.metapaths)
        ],
        "seed": cfg.seed,
    }
    with io.atomic_open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
