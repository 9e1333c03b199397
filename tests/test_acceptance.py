"""Acceptance suite: one printed PASS/FAIL line per numbered criterion.

Each criterion is a self-contained end-to-end check with explicit
tolerances; most also carry a wall-clock budget that is enforced.
"""

import contextlib
import functools
import io
import os
import tempfile
import time
import warnings

import numpy as np

from hgcml.augment import corrupt
from hgcml.cli import main as cli_main
from hgcml.config import load_config
from hgcml.evaluate import evaluate_embeddings, linear_probe, micro_f1, nmi
from hgcml.hin import extract_metapath_view, load_hin
from hgcml.model import init_params
from hgcml.numerics import Tensor
from hgcml.objective import (node_graph_loss, node_node_loss, pair_terms,
                             total_objective)
from hgcml.positives import (ppr_matrix, select_positives,
                             semantic_similarity, topology_similarity)
from hgcml.rng import derive_key, substream
from hgcml.synth import SynthConfig, generate
from hgcml.trainer import train

from conftest import (TOY_SCHEMA, APA, adjacency_of, anchor_only,
                      brute_force_view, grad_check, metapath_neighbors,
                      numerics_grad_cases, positive_sets, random_typed_case,
                      view_from_adjacency, write_toy_files)


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def criterion(number, budget=None):
    """Wrap a () -> (ok, detail) check with reporting and a time budget."""
    def wrap(fn):
        @functools.wraps(fn)
        def runner():
            start = time.perf_counter()
            try:
                ok, detail = fn()
            except Exception as exc:
                _report(number, False, f"raised {type(exc).__name__}: {exc}")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None:
                ok = ok and elapsed < budget
                detail = f"{detail}, {elapsed:.1f}s (budget {budget:.0f}s)"
            _report(number, ok, detail)
        return runner
    return wrap


def _random_symmetric_view(rng, n, name="v", feat_dim=1, density=0.5):
    upper = np.triu((rng.random((n, n)) < density).astype(np.float64), 1)
    adj = upper + upper.T
    return view_from_adjacency(adj, rng.standard_normal((n, feat_dim)), name)


def _fixture_pipeline(workdir):
    """Default synthetic dataset -> positives -> everything train() needs."""
    paths = generate(SynthConfig(), workdir)
    cfg = load_config(paths["config"])
    hin = load_hin(cfg.path("nodes"), cfg.path("edges"), cfg.path("features"),
                   cfg.path("labels"), cfg.schema)
    views = [extract_metapath_view(hin, spec) for spec in cfg.metapaths]
    diffusions = [ppr_matrix(v, cfg.positives.alpha, tol=cfg.positives.tol,
                             max_iter=cfg.positives.max_iter) for v in views]
    positives = select_positives(topology_similarity(diffusions),
                                 semantic_similarity(hin.features),
                                 cfg.positives.k_t, cfg.positives.k_s)
    return cfg, hin, positives


@criterion(1, budget=10.0)
def test_criterion_1_gradient_correctness():
    worst_op = 0.0
    for _, builder in numerics_grad_cases():
        f, params = builder()
        worst_op = max(worst_op, grad_check(f, params))

    rng = substream(9, "accept", "views")
    views = [_random_symmetric_view(rng, 6, name, feat_dim=5)
             for name in ("va", "vb")]
    corrupted = []
    for view in views:
        pair = tuple(
            corrupt(view, 0.3, 0.3, derive_key(9, "c", view.metapath.name, copy),
                    "columns")
            for copy in (1, 2))
        corrupted.append(pair)
    sim_t = rng.standard_normal((6, 6))
    sim_s = rng.standard_normal((6, 6))
    positives = select_positives((sim_t + sim_t.T) / 2, (sim_s + sim_s.T) / 2, 2, 2)
    perms = [substream(9, "perm", i).permutation(6) for i in range(2)]
    params = init_params(["va", "vb"], 5, 4, seed=3)
    jitter = substream(9, "jitter")
    for tensor in params.trainable():
        # generic point: zero-init biases can leave projected rows exactly
        # at the normalization kink, where finite differences are undefined
        tensor.data += 0.05 * jitter.standard_normal(tensor.data.shape)

    def objective():
        return total_objective(corrupted, params, positives, 0.5,
                               neg_perms=perms)

    full_err = grad_check(objective, params.trainable())
    ok = worst_op < 1e-6 and full_err < 1e-4
    return ok, (f"per-op max rel err {worst_op:.2e} (<1e-6), "
                f"full objective {full_err:.2e} (<1e-4)")


def _closed_form_ppr(adj, alpha):
    n = adj.shape[0]
    degrees = adj.sum(axis=0)
    transition = np.divide(adj, np.where(degrees > 0, degrees, 1.0))
    for j in np.flatnonzero(degrees == 0):
        transition[j, j] = 1.0
    return alpha * np.linalg.inv(np.eye(n) - (1.0 - alpha) * transition)


@criterion(2, budget=5.0)
def test_criterion_2_ppr_oracle():
    two = view_from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 1)))
    pair = ppr_matrix(two, 0.85).values
    expected = np.array([[0.86957, 0.13043], [0.13043, 0.86957]])
    two_node_err = float(np.abs(pair - expected).max())

    rng = substream(14, "pprgraphs")
    worst_margin = -np.inf
    for trial in range(50):
        n = int(rng.integers(2, 31))
        alpha = 0.85 if trial < 10 else float(rng.uniform(0.2, 0.95))
        view = _random_symmetric_view(rng, n, density=float(rng.uniform(0.05, 0.6)))
        diff = ppr_matrix(view, alpha, tol=1e-9, max_iter=400)
        oracle = _closed_form_ppr(adjacency_of(view).toarray(), alpha)
        err = float(np.abs(diff.values - oracle).max())
        bound = 1e-6 + diff.error_bound
        worst_margin = max(worst_margin, err - bound)
    ok = two_node_err <= 1e-4 and worst_margin <= 0.0
    return ok, (f"2-node err {two_node_err:.2e} (<=1e-4), "
                f"worst series-vs-inverse excess {worst_margin:.2e} (<=0)")


@criterion(3, budget=10.0)
def test_criterion_3_metapath_view_oracle():
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_toy_files(tmp)
        hin = load_hin(paths["nodes"], paths["edges"], paths["features"],
                       paths["labels"], TOY_SCHEMA)
    coauthors_of_first = metapath_neighbors(extract_metapath_view(hin, APA), 0)
    toy_ok = coauthors_of_first == [1]

    rng = substream(4, "viewcases")
    mismatches = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            case_hin, _, spec = random_typed_case(rng)
            view = extract_metapath_view(case_hin, spec)
            if not np.array_equal(adjacency_of(view).toarray(),
                                  brute_force_view(case_hin, spec)):
                mismatches += 1
    ok = toy_ok and mismatches == 0
    return ok, (f"first author's coauthor view {coauthors_of_first} (== [1]), "
                f"{mismatches}/100 brute-force mismatches")


@criterion(4)
def test_criterion_4_loss_identities():
    z = Tensor(np.ones((2, 3)))
    local = node_node_loss(z, z, anchor_only(2), 0.5).item()
    local_err = abs(local - np.log(3.0))

    rng = substream(8, "dgi")
    params = init_params(["a"], 4, 4, seed=1)
    params.disc_b.data[:] = 0.0
    h = Tensor(rng.standard_normal((5, 4)))
    h_neg = Tensor(rng.standard_normal((5, 4)))
    summary = Tensor(h.data.mean(axis=0, keepdims=True))
    glob = node_graph_loss(h, h_neg, summary, params.disc_b).item()
    glob_err = abs(glob - 2.0 * np.log(2.0))

    views = [_random_symmetric_view(substream(8, "pair", i), 4, f"v{i}",
                                    feat_dim=3) for i in range(2)]
    corrupted = [(v, v) for v in views]
    perms = [substream(8, "pp", i).permutation(4) for i in range(2)]
    terms = pair_terms(corrupted, init_params(["v0", "v1"], 3, 4, seed=2),
                       anchor_only(4), 0.5, neg_perms=perms)
    ok = local_err <= 1e-10 and glob_err <= 1e-12 and len(terms) == 4
    return ok, (f"2-node identical-rows loss off log(3) by {local_err:.1e} "
                f"(<=1e-10), zero-discriminator loss off 2ln2 by "
                f"{glob_err:.1e} (<=1e-12), {len(terms)} ordered pair terms (== 4)")


@criterion(5, budget=120.0)
def test_criterion_5_end_to_end_learning():
    with tempfile.TemporaryDirectory() as tmp:
        cfg, hin, positives = _fixture_pipeline(tmp)
    result = train(hin, cfg.metapaths, positives, cfg.train, cfg.augment,
                   cfg.seed)
    drop = (result.trace[0] - min(result.trace)) / result.trace[0]
    report = evaluate_embeddings(
        result.embeddings, hin.labels, train_frac=cfg.eval.train_frac,
        probe_runs=cfg.eval.probe_runs, cluster_runs=cfg.eval.cluster_runs,
        seed=cfg.seed)
    ok = (drop >= 0.20 and report.micro_f1_mean >= 0.90
          and report.nmi_mean >= 0.6)
    return ok, (f"loss drop {drop:.1%} (>=20%), probe micro-F1 "
                f"{report.micro_f1_mean:.3f} (>=0.90), k-means NMI "
                f"{report.nmi_mean:.3f} over {report.cluster_runs} runs (>=0.6)")


@criterion(6)
def test_criterion_6_positive_sampler_quality():
    with tempfile.TemporaryDirectory() as tmp:
        cfg, hin, sampled = _fixture_pipeline(tmp)
    labels = hin.labels
    pairs = 0
    in_block = 0
    for u, ids in enumerate(sampled.sets):
        others = ids[ids != u]
        pairs += others.size
        in_block += int(np.count_nonzero(labels[others] == labels[u]))
    frac = in_block / pairs

    alone = anchor_only(hin.n_target)
    means = {"sampled": [], "anchor": []}
    for seed in range(5):
        for name, pos in (("sampled", sampled), ("anchor", alone)):
            result = train(hin, cfg.metapaths, pos, cfg.train, cfg.augment, seed)
            probe_seeds = [derive_key(seed, "probe", i) for i in range(5)]
            scores = linear_probe(result.embeddings, labels,
                                  train_frac=cfg.eval.train_frac,
                                  seeds=probe_seeds)
            means[name].append(float(np.mean(scores)))
    f1_sampled = float(np.mean(means["sampled"]))
    f1_anchor = float(np.mean(means["anchor"]))
    ok = frac >= 0.80 and f1_sampled >= f1_anchor - 0.01
    return ok, (f"{frac:.1%} of selected positives share the anchor's block "
                f"(>=80%), probe micro-F1 sampled {f1_sampled:.3f} vs "
                f"anchor-only {f1_anchor:.3f} over 5 seeds (non-inferiority -0.01)")


@criterion(7)
def test_criterion_7_determinism():
    artifacts = ("positives.tsv", "trace.tsv", "model.bin", "embeddings.bin")
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "data")
        generate(SynthConfig(), data_dir)
        config = os.path.join(data_dir, "config.json")
        outs = []
        for run in ("first", "second"):
            out = os.path.join(tmp, run)
            for command in ("positives", "train", "embed"):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli_main([command, "--config", config,
                                     "--out", out]) == 0
            outs.append(out)
        mismatched = [
            name for name in artifacts
            if open(os.path.join(outs[0], name), "rb").read()
            != open(os.path.join(outs[1], name), "rb").read()]

    rng = substream(23, "rescale")
    sets = []
    for u in range(12):
        extra = rng.choice(12, size=3, replace=False)
        sets.append(np.unique(np.append(extra, u)).astype(np.int64))
    positives = positive_sets(sets)
    z_m = rng.standard_normal((12, 6))
    z_n = rng.standard_normal((12, 6))
    base = node_node_loss(Tensor(z_m), Tensor(z_n), positives, 0.5).item()
    rescaled = node_node_loss(
        Tensor(z_m * rng.uniform(0.1, 10.0, (12, 1))), Tensor(z_n * 3.7),
        positives, 0.5).item()
    drift = abs(base - rescaled)
    ok = not mismatched and drift <= 1e-10
    return ok, (f"byte-identical reruns for {len(artifacts) - len(mismatched)}"
                f"/{len(artifacts)} artifacts{' (' + ', '.join(mismatched) + ' differ)' if mismatched else ''}, "
                f"cosine rescale drift {drift:.1e} (<=1e-10)")


@criterion(8)
def test_criterion_8_protocol_invariants():
    rng = substream(30, "proto")
    f1_breaks = 0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        k = int(rng.integers(1, 7))
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        accuracy = float(np.count_nonzero(pred == truth)) / n
        if micro_f1(pred, truth) != accuracy:
            f1_breaks += 1

    nmi_breaks = 0
    for _ in range(100):
        n = int(rng.integers(2, 80))
        a = rng.integers(0, int(rng.integers(1, 6)), n)
        b = rng.integers(0, int(rng.integers(1, 6)), n)
        remap = rng.permutation(int(a.max()) + 1)
        if nmi(a, b) != nmi(b, a) or nmi(remap[a], b) != nmi(a, b):
            nmi_breaks += 1
    ok = f1_breaks == 0 and nmi_breaks == 0
    return ok, (f"micro-F1 == accuracy exact on {1000 - f1_breaks}/1000 cases, "
                f"NMI symmetry and relabel-invariance exact on "
                f"{100 - nmi_breaks}/100 partitions")
