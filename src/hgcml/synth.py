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
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import io
from .rng import substream


@dataclass(frozen=True)
class SynthConfig:
    blocks: int = 3
    block_size: int = 30
    metapaths: int = 2
    p_intra: float = 0.3
    p_inter: float = 0.02
    feature_dim: int = 16
    feature_shift: float = 4.0
    feature_noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.blocks < 1 or self.block_size < 1 or self.metapaths < 1:
            raise ValueError("blocks, block_size, metapaths must be >= 1")
        for name, p in (("p_intra", self.p_intra), ("p_inter", self.p_inter)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1]")
        if self.feature_dim < self.blocks:
            raise ValueError("feature_dim must be >= blocks (one shift axis per block)")


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
    """Write nodes/edges/features/labels plus a runnable config.json."""
    os.makedirs(out_dir, exist_ok=True)
    n = cfg.blocks * cfg.block_size
    block_of = np.repeat(np.arange(cfg.blocks), cfg.block_size)

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

    feat_rng = substream(cfg.seed, "synth", "features")
    features = cfg.feature_noise * feat_rng.standard_normal((n, cfg.feature_dim))
    for i in range(n):
        features[i, block_of[i]] += cfg.feature_shift

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
