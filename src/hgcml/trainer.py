"""Full-batch training loop with early stopping and embedding export.

Each epoch draws two corruptions per view (fresh substreams per epoch
unless resample_every_epoch is off), evaluates the total objective,
backpropagates, and takes one Adam step. The loop stops when the training
loss has not improved by at least 1e-6 for `patience` epochs or at
max_epochs. The checkpoint with the lowest recorded loss is kept; final
embeddings come from the uncorrupted views under that checkpoint, fused
per the configured mode.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .augment import corrupt
from .config import AugmentSettings, TrainSettings
from .hin import HIN, extract_metapath_view
from .model import (ModelParams, fuse, gcn_forward, init_params,
                    params_from_checkpoint)
from .numerics import AdamState, NonFiniteResult
from .objective import total_objective
from .positives import PositiveSets
from .rng import derive_key, substream

MIN_IMPROVEMENT = 1e-6


class DivergedLoss(ArithmeticError):
    """Training hit a NaN/Inf loss; carries the last good state."""

    def __init__(self, epoch: int, checkpoint, trace):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
        self.checkpoint = checkpoint
        self.trace = trace


@dataclass
class TrainResult:
    checkpoint: "OrderedDict[str, np.ndarray]"
    embeddings: np.ndarray
    trace: list[float] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def best_loss(self) -> float:
        return min(self.trace)


def _epoch_corruptions(views, augment: AugmentSettings, seed: int, epoch: int):
    tick = epoch if augment.resample_every_epoch else 0
    pairs = []
    for view in views:
        first, second = (
            corrupt(view, augment.p_e, augment.p_f,
                    derive_key(seed, "augment", view.metapath.name, copy, tick),
                    augment.mask_mode)
            for copy in (1, 2))
        pairs.append((first, second))
    return pairs, tick


def _negative_perms(views, seed: int, tick: int, literal_eq2: bool):
    """Intra negative-branch row shuffles; under literal_eq2 the identity,
    so the second corruption is scored unshuffled as Eq. 2 is printed."""
    return [np.arange(view.n_nodes) if literal_eq2
            else substream(seed, "shuffle", view.metapath.name, tick)
            .permutation(view.n_nodes) for view in views]


def compute_embeddings(params: ModelParams, views, mode: str) -> np.ndarray:
    """Per-view encoder outputs on uncorrupted views, fused."""
    names = list(params.encoders)
    per_view = [gcn_forward(view, params.encoders[names[i]]).data
                for i, view in enumerate(views)]
    return fuse(per_view, mode)


def train(hin: HIN, metapaths, positives: PositiveSets, cfg: TrainSettings,
          augment: AugmentSettings, seed: int) -> TrainResult:
    """Train on all metapath views; returns checkpoint, embeddings, trace."""
    metapaths = list(metapaths)
    if not metapaths:
        raise ValueError("at least one metapath is required")
    views = [extract_metapath_view(hin, spec) for spec in metapaths]
    d_in = hin.features.shape[1]
    params = init_params([spec.name for spec in metapaths], d_in, cfg.dim,
                         seed, cfg.share_encoder)
    optimizer = AdamState(params.trainable(), lr=cfg.lr)

    trace: list[float] = []
    best = math.inf
    best_epoch = 0
    best_checkpoint = params.snapshot()
    stale = 0
    for epoch in range(cfg.max_epochs):
        corrupted, tick = _epoch_corruptions(views, augment, seed, epoch)
        perms = _negative_perms(views, seed, tick, cfg.literal_eq2)
        try:
            loss_tensor = total_objective(
                corrupted, params, positives, cfg.tau, perms,
                w_local=cfg.loss_weights.local, w_global=cfg.loss_weights.global_)
            loss = loss_tensor.item()
        except NonFiniteResult as exc:
            raise DivergedLoss(epoch, best_checkpoint, trace) from exc
        if not math.isfinite(loss):
            raise DivergedLoss(epoch, best_checkpoint, trace)
        trace.append(loss)
        if best - loss >= MIN_IMPROVEMENT:
            stale = 0
        else:
            stale += 1
        if loss < best:
            best = loss
            best_epoch = epoch
            best_checkpoint = params.snapshot()
        if stale >= cfg.patience:
            break
        optimizer.zero_grad()
        loss_tensor.backward()
        optimizer.step()

    final = params_from_checkpoint(best_checkpoint, [m.name for m in metapaths])
    embeddings = compute_embeddings(final, views, cfg.fusion)
    return TrainResult(checkpoint=best_checkpoint, embeddings=embeddings,
                       trace=trace, best_epoch=best_epoch)


def export_embeddings(checkpoint, hin: HIN, metapaths, mode: str) -> np.ndarray:
    """Recompute fused embeddings from a checkpoint."""
    metapaths = list(metapaths)
    params = params_from_checkpoint(checkpoint, [m.name for m in metapaths])
    views = [extract_metapath_view(hin, spec) for spec in metapaths]
    return compute_embeddings(params, views, mode)


def write_trace(path, trace) -> None:
    """trace.tsv: epoch<TAB>loss, full float precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for epoch, loss in enumerate(trace):
            fh.write(f"{epoch}\t{loss!r}\n")
