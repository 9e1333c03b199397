"""Evaluation protocol: micro-F1, NMI, probe and clustering behavior."""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from conftest import (load_pipebench, per_run_linear_probe,
                      per_run_softmax_regression)
from hgcml import cli
from hgcml.config import load_config
from hgcml.evaluate import (DegenerateSplit, EvalReport, LengthMismatch,
                            _fit_softmax_regressions, _split,
                            evaluate_embeddings, kmeans, kmeans_nmi,
                            linear_probe, micro_f1, nmi, write_report)
from hgcml.io import read_matrix
from hgcml.rng import derive_key, substream


def blob_data(seed, per_class=30, classes=3, dim=6, spread=10.0, noise=0.5):
    rng = substream(seed, "blobs")
    centers = rng.standard_normal((classes, dim)) * spread
    x = np.vstack([centers[c] + noise * rng.standard_normal((per_class, dim))
                   for c in range(classes)])
    y = np.repeat(np.arange(classes), per_class)
    return x, y


def test_micro_f1_perfect():
    assert micro_f1([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_micro_f1_partial():
    assert micro_f1([0, 1, 1], [0, 1, 2]) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_micro_f1_length_mismatch():
    with pytest.raises(LengthMismatch):
        micro_f1([0, 1], [0, 1, 2])


def test_micro_f1_equals_accuracy():
    # single-label micro-F1 collapses to accuracy, bit for bit
    rng = substream(11, "acc")
    for _ in range(100):
        n = int(rng.integers(1, 200))
        k = int(rng.integers(1, 8))
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        accuracy = float(np.count_nonzero(pred == truth)) / n
        assert micro_f1(pred, truth) == accuracy


def test_nmi_identical_partitions():
    assert nmi([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0


def test_nmi_relabeled_identical():
    assert nmi([0, 0, 1, 1, 2], [7, 7, 3, 3, 5]) == 1.0


def test_nmi_constant_vs_multi():
    assert nmi([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0


def test_nmi_both_constant():
    assert nmi([4, 4, 4], [9, 9, 9]) == 1.0


def test_nmi_length_mismatch():
    with pytest.raises(LengthMismatch):
        nmi([0, 1], [0, 1, 1])


def test_nmi_symmetry_exact():
    rng = substream(5, "sym")
    for _ in range(50):
        n = int(rng.integers(2, 120))
        a = rng.integers(0, int(rng.integers(1, 6)), n)
        b = rng.integers(0, int(rng.integers(1, 6)), n)
        assert nmi(a, b) == nmi(b, a)


def test_nmi_relabel_invariance_exact():
    rng = substream(6, "relabel")
    for _ in range(50):
        n = int(rng.integers(2, 120))
        k = int(rng.integers(1, 6))
        a = rng.integers(0, k, n)
        b = rng.integers(0, int(rng.integers(1, 6)), n)
        remap = rng.permutation(k)
        assert nmi(remap[a], b) == nmi(a, b)


def test_nmi_independent_partitions_near_zero():
    rng = substream(7, "indep")
    a = rng.integers(0, 4, 10_000)
    b = rng.integers(0, 4, 10_000)
    assert nmi(a, b) < 0.05


def test_kmeans_recovers_blobs():
    x, y = blob_data(21)
    mean, std, scores = kmeans_nmi(x, y, runs=10, seed=0)
    assert len(scores) == 10
    assert mean >= 0.95
    assert std >= 0.0


def test_kmeans_assignment_shape_and_k():
    x, _ = blob_data(22, per_class=10)
    assign = kmeans(x, 3, substream(0, "km"))
    assert assign.shape == (30,)
    assert np.unique(assign).size == 3


def test_kmeans_nmi_length_mismatch():
    with pytest.raises(LengthMismatch):
        kmeans_nmi(np.zeros((4, 2)), [0, 1, 0])


def test_probe_separable_data():
    x, y = blob_data(23)
    scores = linear_probe(x, y, train_frac=0.2, seeds=list(range(10)))
    assert len(scores) == 10
    assert float(np.mean(scores)) >= 0.99


def test_probe_noise_is_chance_level():
    rng = substream(24, "noise")
    x = rng.standard_normal((300, 6))
    y = np.repeat(np.arange(3), 100)
    scores = linear_probe(x, y, train_frac=0.2, seeds=list(range(10)))
    assert abs(float(np.mean(scores)) - 1.0 / 3.0) < 0.05


def test_probe_length_mismatch():
    with pytest.raises(LengthMismatch):
        linear_probe(np.zeros((3, 2)), [0, 1])


def test_probe_degenerate_split():
    # n_train=1 can never cover two classes, so every retry fails
    x = np.arange(10.0).reshape(5, 2)
    with pytest.raises(DegenerateSplit):
        linear_probe(x, [0, 0, 0, 0, 1], train_frac=0.2, seeds=[0])


def test_probe_noncontiguous_labels():
    x, y = blob_data(25)
    scores_raw = linear_probe(x, y, train_frac=0.2, seeds=[0, 1])
    scores_shift = linear_probe(x, y * 10 + 5, train_frac=0.2, seeds=[0, 1])
    assert scores_raw == scores_shift


def test_scores_invariant_to_column_permutation():
    x, y = blob_data(26)
    perm = substream(26, "colperm").permutation(x.shape[1])
    assert linear_probe(x, y, seeds=[0, 1]) == linear_probe(x[:, perm], y, seeds=[0, 1])
    assert kmeans_nmi(x, y, runs=5)[2] == kmeans_nmi(x[:, perm], y, runs=5)[2]


def test_evaluate_one_hot_embeddings():
    y = np.repeat(np.arange(3), 30)
    x = np.zeros((90, 3))
    x[np.arange(90), y] = 1.0
    report = evaluate_embeddings(x, y, probe_runs=5, cluster_runs=5, seed=0)
    assert report.micro_f1_mean == 1.0
    assert report.micro_f1_std == 0.0
    assert report.nmi_mean == 1.0
    assert report.probe_runs == 5
    assert report.cluster_runs == 5


def test_evaluate_deterministic():
    x, y = blob_data(27)
    a = evaluate_embeddings(x, y, probe_runs=3, cluster_runs=3, seed=4)
    b = evaluate_embeddings(x, y, probe_runs=3, cluster_runs=3, seed=4)
    assert a == b


def test_write_report_round_trip(tmp_path):
    report = EvalReport(micro_f1_mean=0.9125, micro_f1_std=0.0125,
                        probe_runs=10, nmi_mean=0.8, nmi_std=0.025,
                        cluster_runs=7)
    path = tmp_path / "report.tsv"
    write_report(path, report)
    lines = path.read_text().splitlines()
    assert lines == ["micro_f1\t0.912500\t0.012500\t10", "nmi\t0.800000\t0.025000\t7"]


# -- the probes fitted side by side ---------------------------------------------

def assert_fits_bit_equal(x, y, classes, epochs=300):
    """Stacked fit of runs x[r], y[r] against a fit per run, bit for bit."""
    weights, biases = _fit_softmax_regressions(x, y, classes, epochs=epochs)
    assert weights.shape == (x.shape[0], x.shape[2], classes)
    assert biases.shape == (x.shape[0], 1, classes)
    for r in range(x.shape[0]):
        weight, bias = per_run_softmax_regression(x[r], y[r], classes,
                                                  epochs=epochs)
        assert np.array_equal(weights[r], weight), f"run {r} weights"
        assert np.array_equal(biases[r], bias), f"run {r} bias"


def test_stacked_probe_fits_bit_equal_per_run_fits():
    rng = substream(31, "stacked")
    for trial in range(30):
        runs, m = int(rng.integers(1, 7)), int(rng.integers(2, 60))
        d, classes = int(rng.integers(1, 20)), int(rng.integers(2, 6))
        scale = float(10.0 ** rng.uniform(-2, 2))
        x = scale * rng.standard_normal((runs, m, d))
        y = rng.integers(0, classes, (runs, m))
        assert_fits_bit_equal(x, y, classes,
                              epochs=300 if trial < 3 else int(rng.integers(1, 40)))


def test_linear_probe_matches_per_run_probe():
    rng = substream(32, "probe")
    for _ in range(12):
        n, d = int(rng.integers(8, 120)), int(rng.integers(1, 10))
        classes = int(rng.integers(2, 5))
        x = rng.standard_normal((n, d)) * 3.0
        y = np.concatenate([np.arange(classes),
                            rng.integers(0, classes, n - classes)])
        seeds = [int(s) for s in rng.integers(0, 1000, int(rng.integers(1, 8)))]
        train_frac = float(rng.uniform(0.1, 0.6))
        try:
            want = per_run_linear_probe(x, y, train_frac, seeds)
        except DegenerateSplit:
            continue
        assert linear_probe(x, y, train_frac, seeds) == want


def test_degenerate_split_names_the_same_seed():
    """One rare class: some seeds find a split holding it, some do not.
    The stacked probe draws every split before fitting and reports the
    first seed without one, as the per-run probe does."""
    x = np.arange(40.0).reshape(20, 2)
    y = [0] * 19 + [1]
    seeds = list(range(12))
    with pytest.raises(DegenerateSplit) as want:
        per_run_linear_probe(x, y, 0.1, seeds)
    failing = int(str(want.value).split(":")[0].split()[1])
    assert failing != seeds[0]  # an earlier seed's probe was fitted
    with pytest.raises(DegenerateSplit) as got:
        linear_probe(x, y, 0.1, seeds)
    assert str(got.value) == str(want.value)


def test_linear_probe_without_seeds_scores_nothing():
    x, y = blob_data(27)
    assert linear_probe(x, y, seeds=[]) == []


@pytest.fixture(scope="module", params=["contrast-n600", "diffusion-a015"])
def workload_embeddings(request, tmp_path_factory):
    """(embeddings, labels, run config) of a benchmark workload's seed-1
    dataset, run through prepare..embed as the benchmark configures it."""
    workload = load_pipebench("workloads").WORKLOADS[request.param]
    root = tmp_path_factory.mktemp(request.param)
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(workload.synth), encoding="utf-8")
    data, out = root / "data", root / "run"
    run_cfg = data / "run.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--config", str(synth_cfg), "--seed", "1",
                         "--out", str(data)]) == 0
        generated = json.loads((data / "config.json").read_text(encoding="utf-8"))
        run_cfg.write_text(json.dumps(workload.run_config(generated)),
                           encoding="utf-8")
        for stage in ("prepare", "positives", "train", "embed"):
            assert cli.main([stage, "--config", str(run_cfg),
                             "--out", str(out)]) == 0
    labels = [int(line.split("\t")[1]) for line in
              (data / "labels.tsv").read_text(encoding="utf-8").splitlines()]
    return (read_matrix(os.path.join(out, "embeddings.bin")).astype(np.float64),
            np.array(labels), load_config(str(run_cfg)))


def test_stacked_probe_bit_equal_on_workload_embeddings(workload_embeddings):
    x, labels, cfg = workload_embeddings
    _, y = np.unique(labels, return_inverse=True)
    classes = int(y.max()) + 1
    n_train = int(round(cfg.eval.train_frac * y.size))
    seeds = [derive_key(cfg.seed, "probe", i) for i in range(cfg.eval.probe_runs)]
    train = np.array([_split(y, n_train, classes, seed)[0] for seed in seeds])
    assert_fits_bit_equal(x[train], y[train], classes)
    assert (linear_probe(x, labels, cfg.eval.train_frac, seeds)
            == per_run_linear_probe(x, labels, cfg.eval.train_frac, seeds))
