"""Command line pipeline: prepare -> positives -> train -> embed -> eval.

Exit codes: 0 success, 2 data error, 3 config error, 4 numerical
divergence. All randomness flows from the config seed (or --seed); rerunning
any command with identical inputs produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys


def _cap_threads() -> None:
    cap = os.environ.get("HGCML_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_threads()  # must land before numpy loads its BLAS

import numpy as np
import scipy.sparse as sp

from . import synth
from .config import (ConfigError, load_config, load_synth_config)
from .evaluate import (DegenerateSplit, LengthMismatch, evaluate_embeddings,
                       write_report)
from .hin import HinError, extract_metapath_view, load_hin
from .io import FormatError, read_checkpoint, read_matrix, write_checkpoint, write_matrix
from .positives import (KTooLarge, load_positives, ppr_matrix, save_positives,
                        select_positives, semantic_similarity,
                        topology_similarity)
from .synth import SynthConfig
from .trainer import DivergedLoss, export_embeddings, train, write_trace

CONFIG_FAILURES = (ConfigError, KTooLarge)
DATA_FAILURES = (HinError, FormatError, LengthMismatch, DegenerateSplit,
                 FileNotFoundError, IsADirectoryError)


def _fail(exc) -> None:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)


def _run_config(args):
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _out_dir(args, cfg=None) -> str:
    if args.out:
        out = args.out
    elif cfg is not None and cfg.out:
        out = cfg.out if os.path.isabs(cfg.out) else os.path.join(cfg.base_dir, cfg.out)
    else:
        out = "."
    os.makedirs(out, exist_ok=True)
    return out


def _load(cfg):
    return load_hin(cfg.path("nodes"), cfg.path("edges"), cfg.path("features"),
                    cfg.path("labels"), cfg.schema)


def cmd_prepare(args) -> int:
    cfg = _run_config(args)
    hin = _load(cfg)
    out = _out_dir(args, cfg)
    summary = []
    for spec in cfg.metapaths:
        view = extract_metapath_view(hin, spec)
        upper = sp.triu(view.adjacency, k=1).tocoo()
        order = np.lexsort((upper.col, upper.row))
        path = os.path.join(out, f"view_{spec.name}.tsv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for i, j in zip(upper.row[order], upper.col[order]):
                fh.write(f"{i}\t{j}\n")
        summary.append((spec.name, view.n_nodes, view.n_edges))
        print(f"wrote {path}")
    summary_path = os.path.join(out, "views.tsv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("view\tnodes\tedges\n")
        for name, nodes, edges in summary:
            fh.write(f"{name}\t{nodes}\t{edges}\n")
    print(f"wrote {summary_path}")
    return 0


def cmd_positives(args) -> int:
    cfg = _run_config(args)
    hin = _load(cfg)
    out = _out_dir(args, cfg)
    pos_cfg = cfg.positives
    # the per-view totals are dropped once summed, before the semantic channel
    sim_t = topology_similarity([
        ppr_matrix(extract_metapath_view(hin, spec), pos_cfg.alpha,
                   tol=pos_cfg.tol, max_iter=pos_cfg.max_iter)
        for spec in cfg.metapaths])
    sim_s = semantic_similarity(hin.features)
    selected = select_positives(sim_t, sim_s, pos_cfg.k_t, pos_cfg.k_s)
    path = os.path.join(out, "positives.tsv")
    save_positives(path, selected)
    print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    hin = _load(cfg)
    out = _out_dir(args, cfg)
    pos_path = os.path.join(out, "positives.tsv")
    if not os.path.exists(pos_path):
        print(f"error: positives file {pos_path} not found; "
              "run the positives command first", file=sys.stderr)
        return 2
    positives = load_positives(pos_path, hin.n_target)
    model_path = os.path.join(out, "model.bin")
    trace_path = os.path.join(out, "trace.tsv")
    try:
        result = train(hin, cfg.metapaths, positives, cfg.train, cfg.augment,
                       cfg.seed)
    except DivergedLoss as exc:
        write_checkpoint(model_path, exc.checkpoint)
        write_trace(trace_path, exc.trace)
        print(f"error: DivergedLoss: non-finite loss at epoch {exc.epoch}; "
              f"kept best checkpoint in {model_path}", file=sys.stderr)
        return 4
    write_checkpoint(model_path, result.checkpoint)
    write_trace(trace_path, result.trace)
    print(f"wrote {model_path}")
    print(f"wrote {trace_path}")
    print(f"best epoch {result.best_epoch}, loss {result.best_loss:.6f}")
    return 0


def cmd_embed(args) -> int:
    cfg = _run_config(args)
    hin = _load(cfg)
    out = _out_dir(args, cfg)
    checkpoint = read_checkpoint(os.path.join(out, "model.bin"))
    path = os.path.join(out, "embeddings.bin")
    write_matrix(path, export_embeddings(checkpoint, hin, cfg.metapaths,
                                         cfg.train.fusion))
    print(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _run_config(args)
    hin = _load(cfg)
    out = _out_dir(args, cfg)
    if hin.labels is None or (hin.labels < 0).any():
        print("error: HinError: every target node needs a label for eval",
              file=sys.stderr)
        return 2
    embeddings = read_matrix(os.path.join(out, "embeddings.bin")).astype(np.float64)
    report = evaluate_embeddings(
        embeddings, hin.labels, train_frac=cfg.eval.train_frac,
        probe_runs=cfg.eval.probe_runs, cluster_runs=cfg.eval.cluster_runs,
        seed=cfg.seed)
    path = os.path.join(out, "report.tsv")
    write_report(path, report)
    print(f"wrote {path}")
    for metric, mean, std, runs in report.rows():
        print(f"{metric}\t{mean:.4f}\t±{std:.4f}\t({runs} runs)")
    return 0


def cmd_synth(args) -> int:
    cfg = load_synth_config(args.config) if args.config else SynthConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = _out_dir(args)
    paths = synth.generate(cfg, out)
    for path in paths.values():
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "positives": cmd_positives,
    "train": cmd_train,
    "embed": cmd_embed,
    "eval": cmd_eval,
    "synth": cmd_synth,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgcml",
        description="Self-supervised node embeddings from metapath views.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "prepare": "validate the dataset and cache extracted metapath views",
        "positives": "compute diffusion/feature similarities and freeze positives.tsv",
        "train": "contrastive training; writes model.bin and trace.tsv",
        "embed": "export fused embeddings from a checkpoint",
        "eval": "linear probe and clustering report on embeddings.bin",
        "synth": "generate a planted-block synthetic dataset",
    }
    for name, func in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--config", help="path to the JSON run config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", help="output directory")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_FAILURES as exc:
        _fail(exc)
        return 3
    except DATA_FAILURES as exc:
        _fail(exc)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
