"""Full-batch training loop: early stopping, checkpointing, determinism."""

import os
import warnings

import numpy as np
import pytest

from hgcml.config import (AugmentSettings, ConfigError, PositiveSettings,
                          TrainSettings)
from hgcml.hin import extract_metapath_view, load_hin
from hgcml.io import read_matrix, write_matrix
from hgcml.trainer import (MIN_IMPROVEMENT, DivergedLoss, TrainResult,
                           compute_embeddings, export_embeddings, train,
                           write_trace)

from conftest import APA, APCPA, TOY_SCHEMA, anchor_only

METAPATHS = [APA, APCPA]


def quick_cfg(**overrides):
    """(TrainSettings, AugmentSettings, seed) for train(); keys go to their owner."""
    base = dict(lr=1e-2, tau=0.5, p_e=0.2, p_f=0.2, dim=8, patience=5,
                max_epochs=30, seed=0)
    base.update(overrides)
    augment = {k: base.pop(k) for k in ("p_e", "p_f") if k in base}
    seed = base.pop("seed")
    return TrainSettings(**base), AugmentSettings(**augment), seed


@pytest.fixture
def anchor_positives(toy_hin):
    return anchor_only(toy_hin.n_target)


def test_zero_lr_without_corruption_gives_constant_trace(toy_hin, anchor_positives):
    cfg = quick_cfg(lr=0.0, p_e=0.0, p_f=0.0, patience=5, max_epochs=50)
    result = train(toy_hin, METAPATHS, anchor_positives, *cfg)
    assert len(result.trace) == 6  # first epoch plus `patience` stale ones
    assert all(x == result.trace[0] for x in result.trace)
    assert result.best_epoch == 0


def test_training_is_deterministic(toy_hin, anchor_positives):
    cfg = quick_cfg()
    a = train(toy_hin, METAPATHS, anchor_positives, *cfg)
    b = train(toy_hin, METAPATHS, anchor_positives, *cfg)
    assert a.trace == b.trace
    assert a.best_epoch == b.best_epoch
    for (n1, t1), (n2, t2) in zip(a.checkpoint.items(), b.checkpoint.items()):
        assert n1 == n2
        assert np.array_equal(t1, t2)
    assert np.array_equal(a.embeddings, b.embeddings)
    different = train(toy_hin, METAPATHS, anchor_positives, *quick_cfg(seed=1))
    assert different.trace != a.trace


def test_checkpoint_is_argmin_of_trace(toy_hin, anchor_positives):
    result = train(toy_hin, METAPATHS, anchor_positives, *quick_cfg())
    assert result.best_loss == min(result.trace)
    assert result.trace[result.best_epoch] == result.best_loss
    first_min = result.trace.index(min(result.trace))
    assert result.best_epoch == first_min


def test_early_stopping_respects_patience(toy_hin, anchor_positives):
    cfg = quick_cfg(lr=0.0, p_e=0.0, p_f=0.0, patience=3, max_epochs=100)
    result = train(toy_hin, METAPATHS, anchor_positives, *cfg)
    assert len(result.trace) == 4
    capped = train(toy_hin, METAPATHS, anchor_positives,
                   *quick_cfg(max_epochs=2, patience=50))
    assert len(capped.trace) == 2


def test_embedding_shapes_per_fusion_mode(toy_hin, anchor_positives):
    summed = train(toy_hin, METAPATHS, anchor_positives, *quick_cfg(dim=8))
    assert summed.embeddings.shape == (4, 8)
    concat = train(toy_hin, METAPATHS, anchor_positives,
                   *quick_cfg(dim=8, fusion="concat"))
    assert concat.embeddings.shape == (4, 16)


def test_embeddings_come_from_best_checkpoint(toy_hin, anchor_positives):
    result = train(toy_hin, METAPATHS, anchor_positives, *quick_cfg())
    from hgcml.model import params_from_checkpoint
    views = [extract_metapath_view(toy_hin, spec) for spec in METAPATHS]
    params = params_from_checkpoint(result.checkpoint, [m.name for m in METAPATHS])
    recomputed = compute_embeddings(params, views, "sum")
    assert np.array_equal(result.embeddings, recomputed)


def test_export_embeddings_round_trip(toy_hin, anchor_positives, tmp_path):
    result = train(toy_hin, METAPATHS, anchor_positives, *quick_cfg(dim=8))
    out = tmp_path / "embeddings.bin"
    views = [extract_metapath_view(toy_hin, spec) for spec in METAPATHS]
    exported = export_embeddings(result.checkpoint, views, "sum")
    assert np.array_equal(exported, result.embeddings)
    write_matrix(str(out), exported)
    stored = read_matrix(str(out))
    assert stored.shape == (4, 8)
    assert np.allclose(stored, result.embeddings.astype(np.float32), atol=0)
    write_matrix(str(tmp_path / "again.bin"), export_embeddings(
        result.checkpoint, views, "sum"))
    assert (tmp_path / "again.bin").read_bytes() == out.read_bytes()


def test_share_encoder_checkpoints_identical_weights(toy_hin, anchor_positives):
    result = train(toy_hin, METAPATHS, anchor_positives,
                   *quick_cfg(share_encoder=True))
    assert np.array_equal(result.checkpoint["enc.APA.W"],
                          result.checkpoint["enc.APCPA.W"])


def test_diverged_loss_carries_last_good_checkpoint(toy_hin, anchor_positives):
    cfg = quick_cfg(lr=1e155, max_epochs=10, patience=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergedLoss) as info:
            train(toy_hin, METAPATHS, anchor_positives, *cfg)
    exc = info.value
    assert exc.epoch >= 1
    assert len(exc.trace) == exc.epoch
    assert "enc.APA.W" in exc.checkpoint
    assert all(np.isfinite(v).all() for v in exc.checkpoint.values())


@pytest.mark.parametrize("epochs", [1, 3])
def test_last_epoch_scores_the_same_loss_without_a_step(toy_hin,
                                                        anchor_positives, epochs):
    """max_epochs=k scores its last epoch on constants: its trace is the
    first k losses of a run one epoch longer, bit for bit."""
    short = train(toy_hin, METAPATHS, anchor_positives,
                  *quick_cfg(max_epochs=epochs, patience=epochs + 1))
    longer = train(toy_hin, METAPATHS, anchor_positives,
                   *quick_cfg(max_epochs=epochs + 1, patience=epochs + 1))
    assert len(short.trace) == epochs and len(longer.trace) == epochs + 1
    assert short.trace == longer.trace[:epochs]


def test_single_epoch_runs_no_backward_and_no_step(toy_hin, anchor_positives,
                                                   monkeypatch):
    import hgcml.numerics as nm
    calls = []
    for owner, name in ((nm.Tensor, "backward"), (nm.AdamState, "step")):
        original = getattr(owner, name)

        def counted(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(owner, name, counted)
    result = train(toy_hin, METAPATHS, anchor_positives,
                   *quick_cfg(max_epochs=1, patience=1))
    assert calls == [] and len(result.trace) == 1
    train(toy_hin, METAPATHS, anchor_positives,
          *quick_cfg(max_epochs=2, patience=2))
    assert calls == ["backward", "step"]


def test_non_finite_loss_in_the_last_epoch_raises(toy_hin, anchor_positives):
    cfg = quick_cfg(lr=1e155, max_epochs=2, patience=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergedLoss) as info:
            train(toy_hin, METAPATHS, anchor_positives, *cfg)
    assert info.value.epoch == 1 and len(info.value.trace) == 1


def test_nan_row_in_the_node_node_loss_raises_diverged_loss(
        toy_hin, anchor_positives, monkeypatch):
    """A NaN row reaching the node-node kernel at epoch 2 makes that epoch's
    loss NaN: DivergedLoss names epoch 2 and carries the trace of the two
    epochs before it, as a clean run records them."""
    import hgcml.objective as objective
    cfg = quick_cfg(max_epochs=5, patience=5)
    clean = train(toy_hin, METAPATHS, anchor_positives, *cfg)
    kernel, calls = objective.node_node_loss, []

    def poisoned(z_m, z_n, positives, tau, *shared):
        calls.append(None)
        if len(calls) > 2 * len(METAPATHS) ** 2:  # V^2 calls per epoch
            z_n.data[1, 0] = np.nan
        return kernel(z_m, z_n, positives, tau, *shared)

    monkeypatch.setattr(objective, "node_node_loss", poisoned)
    with pytest.raises(DivergedLoss) as info:
        train(toy_hin, METAPATHS, anchor_positives, *cfg)
    assert info.value.epoch == 2 and info.value.trace == clean.trace[:2]
    assert all(np.isfinite(v).all() for v in info.value.checkpoint.values())


@pytest.mark.parametrize("name", [f"enc.{APA.name}.W", "proj.W1"])
def test_a_nan_initial_weight_raises_diverged_loss_at_epoch_0(
        toy_hin, anchor_positives, monkeypatch, name):
    """A NaN planted in one initial weight reaches the first loss through
    ReLU, so training stops at epoch 0 with an empty trace."""
    import hgcml.trainer as trainer
    init_params = trainer.init_params

    def planted(*args):
        params = init_params(*args)
        params[name].data[0, 0] = np.nan
        return params

    monkeypatch.setattr(trainer, "init_params", planted)
    with pytest.raises(DivergedLoss) as info:
        train(toy_hin, METAPATHS, anchor_positives, *quick_cfg())
    assert info.value.epoch == 0 and info.value.trace == []


def test_write_trace_full_precision_round_trip(tmp_path):
    trace = [1.0 / 3.0, 2.0 / 7.0, 1e-17]
    path = tmp_path / "trace.tsv"
    write_trace(str(path), trace)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for epoch, line in enumerate(lines):
        e, loss = line.split("\t")
        assert int(e) == epoch
        assert float(loss) == trace[epoch]


def test_train_config_validation():
    TrainSettings(lr=0, tau=1)  # ints are numbers
    with pytest.raises(ConfigError, match="fusion"):
        TrainSettings(fusion="avg")
    with pytest.raises(ConfigError, match="tau"):
        TrainSettings(tau=0.0)
    with pytest.raises(ConfigError, match="tau"):
        TrainSettings(tau=-1.0)
    with pytest.raises(ConfigError, match="lr"):
        TrainSettings(lr=-1e-3)
    with pytest.raises(ConfigError, match="p_e"):
        AugmentSettings(p_e=1.5)
    with pytest.raises(ConfigError, match="patience"):
        TrainSettings(patience=0)
    with pytest.raises(ConfigError, match="max_epochs"):
        TrainSettings(max_epochs=0)
    with pytest.raises(ConfigError, match="dim"):
        TrainSettings(dim=0)
    with pytest.raises(ConfigError, match="k_t"):
        PositiveSettings(k_t=-1)
    with pytest.raises(ConfigError, match="k_s"):
        PositiveSettings(k_s=-1)
    PositiveSettings(alpha=1.0)  # the series is then its first term
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError, match="alpha"):
            PositiveSettings(alpha=alpha)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("section,key", [(TrainSettings, "lr"),
                                         (TrainSettings, "tau"),
                                         (PositiveSettings, "tol")],
                         ids=["lr", "tau", "tol"])
def test_non_finite_settings_rejected(section, key, value):
    with pytest.raises(ConfigError, match=key):
        section(**{key: value})
