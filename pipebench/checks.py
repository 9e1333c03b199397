"""Output checks for one pipeline run, through hgcml's own loaders.

Every check is one operation in the run's ledger: it passes, or it fails
with a reason printed to stderr. The benchmark's `failed` count and
`ok_frac` metric come from the ledger.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys

QUALITY_FLOORS = {"micro_f1": 0.90, "nmi": 0.6}
ARTIFACTS = ("positives.tsv", "trace.tsv", "model.bin", "embeddings.bin",
             "report.tsv")
MODEL_TENSORS = ("proj.W1", "proj.b1", "proj.W2", "proj.b2", "disc.B")


class CheckFailed(Exception):
    """An output is present but wrong."""


class Ledger:
    """Counts operations (stage processes and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    def check(self, what: str, func, *args):
        """Run one check; any exception is that check failing."""
        try:
            result = func(*args)
        except Exception as exc:  # a failing check must not stop the run
            self.record(what, False, f"{type(exc).__name__}: {exc}")
            return None
        self.record(what, True)
        return result


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_positives(run_dir, n: int) -> None:
    from hgcml.positives import load_positives
    load_positives(os.path.join(run_dir, "positives.tsv"), n)


def check_model(run_dir, metapaths) -> None:
    import numpy as np
    from hgcml.io import read_checkpoint
    checkpoint = read_checkpoint(os.path.join(run_dir, "model.bin"))
    expected = {f"enc.{name}.W" for name in metapaths} | set(MODEL_TENSORS)
    _require(set(checkpoint) == expected,
             f"tensors {sorted(checkpoint)}, expected {sorted(expected)}")
    _require(all(np.isfinite(a).all() for a in checkpoint.values()),
             "non-finite parameter")


def check_embeddings(run_dir, n: int, dim: int) -> None:
    import numpy as np
    from hgcml.io import read_matrix
    embeddings = read_matrix(os.path.join(run_dir, "embeddings.bin"))
    _require(embeddings.shape == (n, dim),
             f"shape {embeddings.shape}, expected {(n, dim)}")
    _require(bool(np.isfinite(embeddings).all()), "non-finite embedding")


def check_trace(run_dir, epochs: int) -> None:
    with open(os.path.join(run_dir, "trace.tsv"), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    _require(len(rows) == epochs, f"{len(rows)} epochs, expected {epochs}")
    for i, (epoch, loss) in enumerate(rows):
        _require(int(epoch) == i, f"row {i} is epoch {epoch}")
        _require(math.isfinite(float(loss)), f"epoch {i} loss {loss}")


def read_report(run_dir) -> dict[str, float]:
    """report.tsv means, checked against QUALITY_FLOORS."""
    means = {}
    with open(os.path.join(run_dir, "report.tsv"), encoding="utf-8") as fh:
        for line in fh:
            metric, mean, _std, _runs = line.rstrip("\n").split("\t")
            means[metric] = float(mean)
    for metric, floor in QUALITY_FLOORS.items():
        _require(means.get(metric, -1.0) >= floor,
                 f"{metric} {means.get(metric)} below floor {floor}")
    return means


def digests(run_dir, names=ARTIFACTS) -> dict[str, str | None]:
    """sha256 of each named file; None where it is missing."""
    out = {}
    for name in names:
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            out[name] = None
            continue
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_run(ledger: Ledger, run_dir, workload, config: dict) -> dict:
    """All output checks of one run; returns the report means (maybe empty)."""
    metapaths = [m["name"] for m in config["metapaths"]]
    ledger.check("positives.tsv parses", check_positives, run_dir, workload.n)
    ledger.check("model.bin parses", check_model, run_dir, metapaths)
    ledger.check("embeddings.bin parses", check_embeddings, run_dir,
                 workload.n, workload.embedding_dim(config))
    ledger.check("trace.tsv epochs", check_trace, run_dir, workload.epochs)
    return ledger.check("report.tsv floors", read_report, run_dir) or {}


def check_same(ledger: Ledger, what: str, first: dict, again: dict) -> None:
    """Determinism: one check per artifact, byte-identical to the first run."""
    for name, digest in first.items():
        ledger.record(f"{what}: {name} identical", digest is not None
                      and again.get(name) == digest, "bytes differ or missing")
