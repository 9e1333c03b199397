"""The benchmark's workloads: a synth dataset plus run-config overrides each.

Every workload runs the same five stages; what differs is the shape of
the data, which decides the layer that dominates. Early stopping is off
(`patience` = `max_epochs`), so every run trains for exactly `epochs`
epochs and `trace.tsv` has a fixed length.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

SMOKE_NODES = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict                  # SynthConfig keys; the seed comes from --seed
    epochs: int
    overrides: dict = field(default_factory=dict)  # run-config sections

    @property
    def n(self) -> int:
        return self.synth["blocks"] * self.synth["block_size"]

    @property
    def views(self) -> int:
        return self.synth["metapaths"]

    def run_config(self, generated: dict) -> dict:
        """The config `synth` wrote, with this workload's overrides merged."""
        config = dict(generated)
        for section, values in self.overrides.items():
            config[section] = {**config.get(section, {}), **values}
        config["train"] = {**config.get("train", {}),
                           "max_epochs": self.epochs, "patience": self.epochs}
        return config

    def embedding_dim(self, config: dict) -> int:
        train = config.get("train", {})
        dim = train.get("dim", 64)
        return dim * self.views if train.get("fusion") == "concat" else dim

    def smoke(self) -> "Workload":
        """The same workload at about SMOKE_NODES target nodes and 1 epoch.

        Half the nodes train the probe, so that every class of so small a
        graph reaches the probe's training split.
        """
        blocks = self.synth["blocks"]
        synth = {**self.synth, "block_size": max(1, SMOKE_NODES // blocks)}
        overrides = {**self.overrides, "eval": {"train_frac": 0.5}}
        return dataclasses.replace(self, synth=synth, epochs=1,
                                   overrides=overrides)


WORKLOADS = {w.name: w for w in (
    Workload(
        "contrast-n600",
        "dense n x n node-node contrast and its tape backward dominate train",
        synth={"blocks": 3, "block_size": 200, "metapaths": 2},
        epochs=10),
    # Runnable, but not listed in BENCHMARK.json: its stages are mostly
    # interpreter start-up, whose wall time drifts with the machine's load
    # more than the spread bounds allow.
    Workload(
        "views-v6",
        "36 small view pairs per epoch: per-pair tape overhead and mask rebuilds",
        synth={"blocks": 6, "block_size": 50, "metapaths": 6},
        epochs=2,
        overrides={"train": {"fusion": "concat"}}),
    Workload(
        "diffusion-a015",
        "sparse graph and alpha 0.15: the dense PPR series dominates positives",
        synth={"blocks": 3, "block_size": 300, "metapaths": 2,
               "p_intra": 0.05, "p_inter": 0.005},
        epochs=1,
        overrides={"positives": {"alpha": 0.15}}),
)}
