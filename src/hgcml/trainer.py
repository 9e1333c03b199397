"""Full-batch training loop with early stopping and embedding export.

Each epoch draws two corruptions per view, on substreams keyed by the
view, the copy and the epoch, evaluates the total objective,
backpropagates, and takes one Adam step. The loop stops when the training
loss has not improved by at least 1e-6 for `patience` epochs or at
max_epochs. No step would follow epoch max_epochs - 1, so it is scored
on constants that hold the parameters' arrays: it records no tape and
runs no backward and no Adam step. The checkpoint with the lowest
recorded loss is kept; final embeddings come from the uncorrupted views
under that checkpoint, fused per the configured mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .augment import corrupt
from .config import AugmentSettings, TrainSettings
from .hin import HIN, extract_metapath_view
from .io import FormatError, atomic_open
from .model import (ENCODER, encoder, fuse, gcn_forward, init_params,
                    params_from_checkpoint)
from .numerics import AdamState, DivergedLoss, Tensor
from .objective import total_objective
from .positives import PositiveSets
from .rng import derive_key

MIN_IMPROVEMENT = 1e-6


@dataclass
class TrainResult:
    checkpoint: dict[str, np.ndarray]
    embeddings: np.ndarray
    trace: list[float] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def best_loss(self) -> float:
        return min(self.trace)


def _epoch_corruptions(views, augment: AugmentSettings, seed: int, epoch: int):
    return [tuple(corrupt(view, augment.p_e, augment.p_f,
                          derive_key(seed, "augment", view.metapath.name, copy, epoch))
                  for copy in (1, 2))
            for view in views]


def compute_embeddings(params, views, mode: str) -> np.ndarray:
    """Per-view encoder outputs on uncorrupted views, fused."""
    return fuse([gcn_forward(view, encoder(params, view)).data
                 for view in views], mode)


def train(hin: HIN, metapaths, positives: PositiveSets, cfg: TrainSettings,
          augment: AugmentSettings, seed: int) -> TrainResult:
    """Train on all metapath views; returns checkpoint, embeddings, trace."""
    metapaths = list(metapaths)
    views = [extract_metapath_view(hin, spec) for spec in metapaths]
    d_in = hin.features.shape[1]
    params = init_params([spec.name for spec in metapaths], d_in, cfg.dim,
                         seed, cfg.share_encoder)
    # a shared encoder is one tensor under several names: Adam steps it once
    unique = list({id(t): t for t in params.values()}.values())
    optimizer = AdamState([t.data for t in unique], lr=cfg.lr)

    trace: list[float] = []
    best = math.inf
    best_epoch = 0
    best_checkpoint = {name: t.data.copy() for name, t in params.items()}
    stale = 0
    for epoch in range(cfg.max_epochs):
        last = epoch + 1 == cfg.max_epochs
        # no step follows the last epoch: it is scored on constants, so it
        # records no tape and the node-node loss forms no gradient
        scored = ({name: Tensor(t.data) for name, t in params.items()}
                  if last else params)
        corrupted = _epoch_corruptions(views, augment, seed, epoch)
        loss_tensor = total_objective(
            corrupted, scored, positives, cfg.tau,
            w_local=cfg.loss_weights.local, w_global=cfg.loss_weights.global_)
        loss = loss_tensor.item()
        if not math.isfinite(loss):  # the one divergence check
            raise DivergedLoss(epoch, best_checkpoint, trace)
        trace.append(loss)
        if best - loss >= MIN_IMPROVEMENT:
            stale = 0
        else:
            stale += 1
        if loss < best:
            best = loss
            best_epoch = epoch
            best_checkpoint = {name: t.data.copy() for name, t in params.items()}
        if stale >= cfg.patience or last:
            break
        loss_tensor.backward()
        optimizer.step([t.grad for t in unique])
        for t in unique:
            t.grad = None

    embeddings = export_embeddings(best_checkpoint, views, cfg.fusion)
    return TrainResult(checkpoint=best_checkpoint, embeddings=embeddings,
                       trace=trace, best_epoch=best_epoch)


def export_embeddings(checkpoint, views, mode: str) -> np.ndarray:
    """Fused embeddings of the uncorrupted views under a checkpoint whose
    encoders all map the views' feature columns to one width."""
    params = params_from_checkpoint(
        checkpoint, [view.metapath.name for view in views])
    expected = (views[0].features.shape[1], encoder(params, views[0]).shape[1])
    for view in views:
        name = ENCODER.format(view.metapath.name)
        if params[name].shape != expected:
            raise FormatError(f"checkpoint tensor '{name}' has shape "
                              f"{params[name].shape}, expected {expected}")
    return compute_embeddings(params, views, mode)


def write_trace(path, trace) -> None:
    """trace.tsv: epoch<TAB>loss, full float precision."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for epoch, loss in enumerate(trace):
            fh.write(f"{epoch}\t{loss!r}\n")
