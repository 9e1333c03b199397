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

from . import synth
from .config import ConfigError, SynthConfig, load_config, load_synth_config
from .evaluate import (DegenerateSplit, LengthMismatch, evaluate_embeddings,
                       write_report)
from .hin import (HinError, extract_metapath_view, graph_key, load_hin,
                  read_graph, write_graph)
from .io import (FormatError, atomic_open, read_checkpoint, read_matrix,
                 write_checkpoint, write_matrix)
from .numerics import DivergedLoss
from .positives import (KTooLarge, load_positives, ppr_matrix, save_positives,
                        select_positives, semantic_similarity,
                        topology_similarity)

# exit code per failure class; main reports each as one `error:` line. An
# OSError is a file that is missing, a directory or cannot be read, and
# names it.
EXIT_CODES = {ConfigError: 3, KTooLarge: 3, HinError: 2, FormatError: 2,
              LengthMismatch: 2, DegenerateSplit: 2, OSError: 2,
              DivergedLoss: 4}
GRAPH_CACHE = "graph.bin"  # the graph prepare parsed, in the output directory


def _out_path(args, cfg=None) -> str:
    if args.out:
        return args.out
    if cfg is not None and cfg.out:
        return cfg.out if os.path.isabs(cfg.out) else os.path.join(cfg.base_dir, cfg.out)
    return "."


def _out_dir(out: str, make: bool = True) -> str:
    """`out`, made if `make`; ConfigError if it is or lies below a file."""
    try:
        if make:
            os.makedirs(out, exist_ok=True)
        elif not os.path.isdir(out):
            os.stat(out)  # NotADirectoryError below a file
            raise NotADirectoryError(out)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {out} is not a directory") from exc
    except FileNotFoundError:  # the stage's missing input names itself
        pass
    return out


def _stage(args, cached: bool = True, make: bool = False):
    """(run config, graph, output directory, graph key) of a pipeline stage.

    The graph holds the views of the config's metapaths. With `cached`, it
    comes from the output directory's graph cache when its key matches;
    otherwise `load_hin` parses the dataset and extracts them. Hashing the
    data files for the key reads each one first, so a file that is missing
    or cannot be read ends the stage with its OSError, which names it. Only
    with `make` is the directory made, and last, so neither a bad dataset
    nor a missing input leaves one.
    """
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    files = [cfg.path(name) for name in ("nodes", "edges", "features", "labels")]
    key = graph_key(*files, cfg.schema, cfg.metapaths)
    out = _out_path(args, cfg)
    hin = None
    if cached:
        hin = read_graph(os.path.join(out, GRAPH_CACHE), key, cfg.metapaths)
    if hin is None:
        hin = load_hin(*files, cfg.schema, cfg.metapaths)
    return cfg, hin, _out_dir(out, make), key


def cmd_prepare(args) -> int:
    cfg, hin, out, key = _stage(args, cached=False, make=True)
    for spec in cfg.metapaths:
        view = extract_metapath_view(hin, spec)
        path = os.path.join(out, f"view_{spec.name}.tsv")
        with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{i}\t{j}\n" for i, j in zip(*view.edges.tolist()))
        print(f"wrote {path}")
    summary_path = os.path.join(out, "views.tsv")
    with atomic_open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("view\tnodes\tedges\n")
        for name, view in hin.views.items():
            fh.write(f"{name}\t{view.n_nodes}\t{view.n_edges}\n")
    print(f"wrote {summary_path}")
    cache_path = os.path.join(out, GRAPH_CACHE)
    write_graph(cache_path, hin, key)
    print(f"wrote {cache_path}")
    return 0


def cmd_positives(args) -> int:
    cfg, hin, out, _ = _stage(args, make=True)
    pos_cfg = cfg.positives
    # a generator: each view's series runs only once the previous view's
    # total has been added to the sum and let go
    sim_t = topology_similarity(
        ppr_matrix(extract_metapath_view(hin, spec), pos_cfg.alpha,
                   tol=pos_cfg.tol, max_iter=pos_cfg.max_iter)
        for spec in cfg.metapaths)
    sim_s = semantic_similarity(hin.features)
    selected = select_positives(sim_t, sim_s, pos_cfg.k_t, pos_cfg.k_s)
    path = os.path.join(out, "positives.tsv")
    save_positives(path, selected)
    print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    # training code loads only in the stages that run it
    from .trainer import train, write_trace

    cfg, hin, out, _ = _stage(args)
    positives = load_positives(os.path.join(out, "positives.tsv"), hin.n_target)
    model_path = os.path.join(out, "model.bin")
    trace_path = os.path.join(out, "trace.tsv")
    try:
        result = train(hin, cfg.metapaths, positives, cfg.train, cfg.augment,
                       cfg.seed)
    except DivergedLoss as exc:  # keeps the best checkpoint and the trace
        result = exc
    write_checkpoint(model_path, result.checkpoint)
    write_trace(trace_path, result.trace)
    print(f"wrote {model_path}")
    print(f"wrote {trace_path}")
    if isinstance(result, DivergedLoss):
        raise result
    print(f"best epoch {result.best_epoch}, loss {result.best_loss:.6f}")
    return 0


def cmd_embed(args) -> int:
    from .trainer import export_embeddings

    cfg, hin, out, _ = _stage(args)
    checkpoint = read_checkpoint(os.path.join(out, "model.bin"))
    views = [extract_metapath_view(hin, spec) for spec in cfg.metapaths]
    path = os.path.join(out, "embeddings.bin")
    write_matrix(path, export_embeddings(checkpoint, views, cfg.train.fusion))
    print(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    cfg, hin, out, _ = _stage(args)
    if hin.labels is None or (hin.labels < 0).any():
        raise HinError("every target node needs a label for eval")
    emb_path = os.path.join(out, "embeddings.bin")
    embeddings = read_matrix(emb_path).astype(np.float64)
    if not np.isfinite(embeddings).all():
        raise FormatError(f"{emb_path}: non-finite embedding values")
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
    paths = synth.generate(cfg, _out_dir(_out_path(args), make=False))
    for path in paths.values():
        print(f"wrote {path}")
    return 0


# name -> (function, help); every function returns 0 or raises
_COMMANDS = {
    "prepare": (cmd_prepare, "validate the dataset, write each view's edge "
                             "list and the graph cache the later stages read"),
    "positives": (cmd_positives, "compute diffusion/feature similarities and "
                                 "freeze positives.tsv"),
    "train": (cmd_train, "contrastive training; writes model.bin and trace.tsv"),
    "embed": (cmd_embed, "export fused embeddings from a checkpoint"),
    "eval": (cmd_eval, "linear probe and clustering report on embeddings.bin"),
    "synth": (cmd_synth, "generate a planted-block synthetic dataset"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgcml",
        description="Self-supervised node embeddings from metapath views.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
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
    except tuple(EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items()
                    if isinstance(exc, kind))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
