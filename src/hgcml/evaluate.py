"""Evaluation protocol: linear-probe classification and k-means clustering.

The probe is multinomial logistic regression trained with Adam for a
fixed 300 epochs on a 20% random split of the frozen embeddings,
scored by micro-F1 on the held-out 80%. Clustering is Lloyd's k-means
with k-means++ seeding, scored by NMI (arithmetic-mean normalization)
over repeated runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import atomic_open
from .numerics import AdamState
from .rng import derive_key, substream


class LengthMismatch(ValueError):
    pass


class DegenerateSplit(RuntimeError):
    """No train split contained every class after the retry budget."""


def micro_f1(pred, truth) -> float:
    """Global TP/(TP + (FP+FN)/2); equals accuracy for single-label data."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise LengthMismatch(f"{pred.shape} vs {truth.shape}")
    tp = float(np.count_nonzero(pred == truth))
    fp = float(pred.size - tp)
    fn = float(pred.size - tp)
    return tp / (tp + 0.5 * (fp + fn))


def _sorted_sum(values) -> float:
    # canonical summation order: exact symmetry and relabel-invariance
    return float(np.sort(np.asarray(values, dtype=np.float64)).sum())


def nmi(part_a, part_b) -> float:
    """I(A;B) / ((H(A)+H(B))/2); 1.0 when both partitions are single-block."""
    a = np.asarray(part_a)
    b = np.asarray(part_b)
    if a.shape != b.shape:
        raise LengthMismatch(f"{a.shape} vs {b.shape}")
    n = a.size
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    k_a = int(a_idx.max()) + 1
    k_b = int(b_idx.max()) + 1
    table = np.zeros((k_a, k_b), dtype=np.int64)
    np.add.at(table, (a_idx, b_idx), 1)
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)

    cells = table[table > 0].astype(np.float64)
    outer = np.outer(rows, cols)[table > 0].astype(np.float64)
    mutual = _sorted_sum((cells / n) * np.log(n * cells / outer))
    h_a = _sorted_sum(-(rows[rows > 0] / n) * np.log(rows[rows > 0] / n))
    h_b = _sorted_sum(-(cols[cols > 0] / n) * np.log(cols[cols > 0] / n))
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    denominator = 0.5 * (h_a + h_b)
    if denominator == 0.0:
        return 0.0
    return float(min(max(mutual / denominator, 0.0), 1.0))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _fit_softmax_regressions(x: np.ndarray, y: np.ndarray, classes: int,
                             epochs: int = 300, lr: float = 1e-2):
    """Softmax regressions fitted side by side, one per run: `x` is
    (runs, m, d) and `y` (runs, m) class ids. Returns the weights
    (runs, d, classes) and biases (runs, 1, classes).

    Each run gets the bits of a fit on its own: products and sums run per
    run slice, and one AdamState steps all runs' stacked arrays
    elementwise, in place.
    """
    runs, m, d = x.shape
    weights = np.zeros((runs, d, classes))
    biases = np.zeros((runs, 1, classes))
    optimizer = AdamState([weights, biases], lr=lr)
    onehot = np.zeros((runs, m, classes))
    onehot[np.arange(runs)[:, None], np.arange(m), y] = 1.0
    x_t = x.transpose(0, 2, 1)
    for _ in range(epochs):
        probs = _softmax(x @ weights + biases)
        residual = (probs - onehot) / m
        optimizer.step([x_t @ residual, residual.sum(axis=1, keepdims=True)])
    return weights, biases


def _split(y: np.ndarray, n_train: int, classes: int, seed):
    """(train ids, test ids) of the first of 10 candidate permutations
    whose train part holds every class."""
    for attempt in range(10):
        perm = substream(seed, "split", attempt).permutation(y.size)
        if np.unique(y[perm[:n_train]]).size == classes:
            return perm[:n_train], perm[n_train:]
    raise DegenerateSplit(
        f"seed {seed}: some class missing from every candidate split")


def linear_probe(embeddings, labels, train_frac: float = 0.2,
                 seeds=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)) -> list[float]:
    """Held-out micro-F1 of a softmax probe, one score per seed. Every
    seed's split is drawn first; the probes are then fitted together."""
    x = np.asarray(embeddings, dtype=np.float64)
    y_raw = np.asarray(labels)
    if x.shape[0] != y_raw.size:
        raise LengthMismatch(f"{x.shape[0]} embeddings vs {y_raw.size} labels")
    _, y = np.unique(y_raw, return_inverse=True)
    classes = int(y.max()) + 1
    n = y.size
    n_train = min(max(1, int(round(train_frac * n))), n - 1)
    splits = [_split(y, n_train, classes, seed) for seed in seeds]
    train = np.array([train_idx for train_idx, _ in splits],
                     dtype=np.intp).reshape(len(splits), n_train)
    weights, biases = _fit_softmax_regressions(x[train], y[train], classes)
    scores = []
    for (_, test_idx), weight, bias in zip(splits, weights, biases):
        pred = np.argmax(x[test_idx] @ weight + bias, axis=1)
        scores.append(micro_f1(pred, y[test_idx]))
    return scores


def kmeans(x: np.ndarray, k: int, rng: np.random.Generator,
           max_iter: int = 300, tol: float = 1e-6) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; deterministic per stream."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    closest = np.sum((x - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total > 0:
            centroids[c] = x[rng.choice(n, p=closest / total)]
        else:
            centroids[c] = x[rng.integers(n)]
        closest = np.minimum(closest, np.sum((x - centroids[c]) ** 2, axis=1))

    assign = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        distances = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = distances.argmin(axis=1)
        for empty in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
            # repair: hand the empty cluster the globally farthest point
            own = distances[np.arange(n), assign]
            assign[int(own.argmax())] = empty
        new_centroids = np.vstack([x[assign == c].mean(axis=0) for c in range(k)])
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break
    return assign


def kmeans_nmi(embeddings, labels, runs: int = 10, seed: int = 0):
    """Mean/std NMI of k-means (k = #classes) over `runs` seeded runs."""
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if x.shape[0] != y.size:
        raise LengthMismatch(f"{x.shape[0]} embeddings vs {y.size} labels")
    k = np.unique(y).size
    scores = [nmi(kmeans(x, k, substream(seed, "kmeans", run)), y)
              for run in range(runs)]
    return float(np.mean(scores)), float(np.std(scores)), scores


@dataclass
class EvalReport:
    micro_f1_mean: float
    micro_f1_std: float
    probe_runs: int
    nmi_mean: float
    nmi_std: float
    cluster_runs: int

    def rows(self):
        return [("micro_f1", self.micro_f1_mean, self.micro_f1_std, self.probe_runs),
                ("nmi", self.nmi_mean, self.nmi_std, self.cluster_runs)]


def evaluate_embeddings(embeddings, labels, train_frac: float = 0.2,
                        probe_runs: int = 10, cluster_runs: int = 10,
                        seed: int = 0) -> EvalReport:
    probe_seeds = [derive_key(seed, "probe", i) for i in range(probe_runs)]
    f1 = linear_probe(embeddings, labels, train_frac, probe_seeds)
    nmi_mean, nmi_std, _ = kmeans_nmi(embeddings, labels, cluster_runs, seed)
    return EvalReport(
        micro_f1_mean=float(np.mean(f1)), micro_f1_std=float(np.std(f1)),
        probe_runs=probe_runs, nmi_mean=nmi_mean, nmi_std=nmi_std,
        cluster_runs=cluster_runs)


def write_report(path, report: EvalReport) -> None:
    """report.tsv: metric<TAB>mean<TAB>std<TAB>runs."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for metric, mean, std, runs in report.rows():
            fh.write(f"{metric}\t{mean:.6f}\t{std:.6f}\t{runs}\n")
