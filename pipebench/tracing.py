"""In-memory span tracer around hgcml's public functions.

Each layer is one public function of one hgcml module. The tracer patches
the name in every module that looks it up at call time (`trainer.corrupt`
for `augment.corrupt`, `objective.gcn_forward` for `model.gcn_forward`),
so each call goes through a wrapper that records a span: layer, stage,
start, end and parent span. Nothing inside hgcml changes. Spans stay in
memory until the run ends; `layer_metrics` turns them into self times and
counts, and `write_spans` dumps them.

A layer's self time is its span's duration minus the part covered by its
child spans, so per stage the layer self times plus the stage's own self
time (`cli.<stage>.self_s`) add up to the stage's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass

STAGES = ("prepare", "positives", "train", "embed", "eval")
MIB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Layer:
    name: str             # "<module>.<function>", the metric prefix
    sites: tuple          # (hgcml submodule, attribute path) to patch
    stages: tuple = ()    # record only inside these stages; () means all


LAYERS = (
    Layer("hin.load_hin", (("cli", "load_hin"),)),
    Layer("hin.extract_metapath_view", (("cli", "extract_metapath_view"),
                                        ("trainer", "extract_metapath_view"))),
    Layer("positives.ppr_matrix", (("cli", "ppr_matrix"),)),
    Layer("positives.topology_similarity", (("cli", "topology_similarity"),)),
    Layer("positives.semantic_similarity", (("cli", "semantic_similarity"),)),
    Layer("positives.select_positives", (("cli", "select_positives"),)),
    Layer("positives.save_positives", (("cli", "save_positives"),)),
    Layer("positives.load_positives", (("cli", "load_positives"),)),
    Layer("positives.mask", (("positives", "PositiveSets.mask"),)),
    Layer("augment.corrupt", (("trainer", "corrupt"),)),
    Layer("model.gcn_forward", (("objective", "gcn_forward"),
                                ("trainer", "gcn_forward"))),
    Layer("model.project", (("objective", "project"), ("model", "project"))),
    Layer("objective.total_objective", (("trainer", "total_objective"),)),
    Layer("objective.node_node_loss", (("objective", "node_node_loss"),)),
    Layer("objective.node_graph_loss", (("objective", "node_graph_loss"),)),
    # the linear probe in eval also steps an AdamState; that stays probe time
    Layer("numerics.backward", (("numerics", "Tensor.backward"),), ("train",)),
    Layer("numerics.adam_step", (("numerics", "AdamState.step"),), ("train",)),
    Layer("trainer.compute_embeddings", (("trainer", "compute_embeddings"),)),
    Layer("io.read_matrix", (("cli", "read_matrix"), ("io", "read_matrix"))),
    Layer("io.write_matrix", (("cli", "write_matrix"), ("io", "write_matrix"))),
    Layer("io.read_checkpoint", (("cli", "read_checkpoint"),)),
    Layer("io.write_checkpoint", (("cli", "write_checkpoint"),)),
    Layer("evaluate.linear_probe", (("evaluate", "linear_probe"),)),
    Layer("evaluate.kmeans_nmi", (("evaluate", "kmeans_nmi"),)),
)

# Not spans: `_epoch_corruptions` opens each epoch and the checkpoint
# restore after the loop closes the last one.
EPOCH_START = ("trainer", "_epoch_corruptions")
TRAIN_END = ("trainer", "params_from_checkpoint")

CALL_COUNTS = ("hin.load_hin", "positives.mask", "objective.node_node_loss",
               "augment.corrupt")

# Every per-layer metric with its unit, in output order.
PER_LAYER = (
    [(f"{layer.name}_s", "s") for layer in LAYERS]
    + [(f"{name}_calls", "count") for name in CALL_COUNTS]
    + [("hin.view_edges", "count"),
       ("positives.ppr_iterations", "count"),
       ("positives.ppr_converged_frac", "1"),
       ("positives.peak_mib", "MiB"),
       ("positives.set_size_mean", "count"),
       ("positives.label_purity", "1"),
       ("trainer.epochs", "count"),
       ("trainer.epoch_s", "s"),
       ("trainer.epoch_peak_mib", "MiB")]
    + [(f"cli.{stage}.self_s", "s") for stage in STAGES]
    + [("share.objective_backward_of_train", "1"),
       ("share.ppr_of_positives", "1"),
       ("trace.overhead_ratio", "1")])

# Per-layer metrics that count work: they must repeat exactly per seed.
EXACT = tuple(name for name, unit in PER_LAYER if unit == "count") + (
    "positives.ppr_converged_frac", "positives.label_purity")
# tracemalloc peaks, taken from a Tracer(memory=True) pass
MEMORY = ("positives.peak_mib", "trainer.epoch_peak_mib")


def _resolve(site):
    """(object holding the attribute, attribute name) for one patch site."""
    module, path = site
    owner = importlib.import_module(f"hgcml.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counts while `patched()` is active.

    With `memory` set it also samples tracemalloc peaks: over the
    positives computation (first PPR call to positive selection) and per
    training epoch. tracemalloc slows allocation-heavy code by a large
    factor, so a memory tracer's span times are not used as layer times.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []     # [name, stage, parent, start, end]
        self.stage: str | None = None
        self.counts: Counter = Counter()
        self.epoch_marks: list[float] = []
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._labels = None
        self._set_sizes: list[int] = []
        self._purity: tuple[int, int] = (0, 0)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.stage, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def stage_span(self, stage: str):
        """Root span `cli.<stage>` around one CLI command."""
        self.stage = stage
        index = self._open(f"cli.{stage}")
        try:
            yield
        finally:
            self._close(index)
            self.stage = None

    def _wrap(self, layer: Layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer.stages and self.stage not in layer.stages:
                return fn(*args, **kwargs)
            self._before(layer.name)
            index = self._open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._after(layer.name, result)
            return result
        return wrapper

    def _wrap_mark(self, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stage == "train":
                on_call()
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Patch every layer site; restore the originals on exit."""
        saved = []
        try:
            for layer in LAYERS:
                for site in layer.sites:
                    owner, attr = _resolve(site)
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, original))
            for site, on_call in ((EPOCH_START, self._epoch_start),
                                  (TRAIN_END, self._train_end)):
                owner, attr = _resolve(site)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap_mark(original, on_call))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            if self.memory and tracemalloc.is_tracing():
                tracemalloc.stop()

    # -- counts and memory ---------------------------------------------------

    def _before(self, name: str) -> None:
        if name == "positives.ppr_matrix":
            self._memory_start()

    def _after(self, name: str, result) -> None:
        if name == "hin.load_hin":
            self._labels = result.labels
        elif name == "hin.extract_metapath_view":
            self.counts["hin.view_edges"] += result.n_edges
        elif name == "positives.ppr_matrix":
            self.counts["positives.ppr_iterations"] += result.iterations
            self.counts["ppr_converged"] += int(result.converged)
        elif name == "positives.select_positives":
            if self.memory:
                self.peaks["positives"] = self._memory_peak(stop=True)
            self._record_positives(result)

    def _record_positives(self, positives) -> None:
        self._set_sizes = [len(ids) for ids in positives.sets]
        if self._labels is None:
            return
        same = pairs = 0
        for u, ids in enumerate(positives.sets):
            others = ids[ids != u]
            pairs += others.size
            same += int((self._labels[others] == self._labels[u]).sum())
        self._purity = (same, pairs)

    def _epoch_start(self) -> None:
        self.epoch_marks.append(time.perf_counter())
        if self.memory and tracemalloc.is_tracing():
            self._epoch_peak()
        self._memory_start()

    def _train_end(self) -> None:
        self.counts["epochs"] = len(self.epoch_marks)
        self.epoch_marks.append(time.perf_counter())
        if self.memory and tracemalloc.is_tracing():
            self._epoch_peak()
            tracemalloc.stop()

    def _memory_start(self) -> None:
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()

    def _epoch_peak(self) -> None:
        peak = self._memory_peak(stop=False)
        self.peaks["epoch"] = max(self.peaks.get("epoch", 0.0), peak)
        tracemalloc.reset_peak()

    @staticmethod
    def _memory_peak(stop: bool) -> float:
        if not tracemalloc.is_tracing():
            return 0.0
        peak = tracemalloc.get_traced_memory()[1] / MIB
        if stop:
            tracemalloc.stop()
        return peak

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span, aligned with self.spans."""
        covered = [0.0] * len(self.spans)
        for name, stage, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, _, _, start, end) in enumerate(self.spans)]

    def accounting_error(self) -> float:
        """Largest |sum of self times - wall| over stages, plus any nesting fault.

        A consistency check of the tracer itself: self times telescope to
        the root span's duration by construction, so this is zero up to
        rounding unless a span was left open or closed outside its parent.
        """
        selfs = self.self_times()
        worst = 0.0
        total = defaultdict(float)
        for (name, stage, parent, start, end), own in zip(self.spans, selfs):
            total[stage] += own
            if own < -1e-9:
                worst = max(worst, -own)
            if parent is not None:
                p_start, p_end = self.spans[parent][3:5]
                worst = max(worst, p_start - start, end - p_end)
        for name, stage, parent, start, end in self.spans:
            if parent is None:
                worst = max(worst, abs(total[stage] - (end - start)))
        return worst

    def _inclusive(self, name: str, stage: str) -> float:
        return sum(end - start for n, s, _, start, end in self.spans
                   if n == name and s == stage)

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_ratio."""
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            self_time[span[0]] += own
            calls[span[0]] += 1
        out = {f"{layer.name}_s": self_time[layer.name] for layer in LAYERS}
        out.update({f"{name}_calls": float(calls[name]) for name in CALL_COUNTS})
        ppr_calls = calls["positives.ppr_matrix"]
        same, pairs = self._purity
        epochs = self.epoch_marks
        out.update({
            "hin.view_edges": float(self.counts["hin.view_edges"]),
            "positives.ppr_iterations": float(self.counts["positives.ppr_iterations"]),
            "positives.ppr_converged_frac":
                self.counts["ppr_converged"] / ppr_calls if ppr_calls else 0.0,
            "positives.peak_mib": self.peaks.get("positives", 0.0),
            "positives.set_size_mean":
                statistics.fmean(self._set_sizes) if self._set_sizes else 0.0,
            "positives.label_purity": same / pairs if pairs else 0.0,
            "trainer.epochs": float(self.counts["epochs"]),
            "trainer.epoch_s": statistics.median(
                b - a for a, b in zip(epochs, epochs[1:])) if len(epochs) > 1 else 0.0,
            "trainer.epoch_peak_mib": self.peaks.get("epoch", 0.0),
        })
        for stage in STAGES:
            out[f"cli.{stage}.self_s"] = self_time[f"cli.{stage}"]
        train = self._inclusive("cli.train", "train")
        positives = self._inclusive("cli.positives", "positives")
        out["share.objective_backward_of_train"] = (
            self._inclusive("objective.total_objective", "train")
            + self._inclusive("numerics.backward", "train")) / train if train else 0.0
        out["share.ppr_of_positives"] = (
            self._inclusive("positives.ppr_matrix", "positives") / positives
            if positives else 0.0)
        return out

    def write_spans(self, path) -> None:
        """Span table: id, parent, stage, name, start, end, self (seconds)."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tstage\tname\tstart_s\tend_s\tself_s\n")
            for i, ((name, stage, parent, start, end), own) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(f"{i}\t{'' if parent is None else parent}\t{stage}\t"
                         f"{name}\t{start - origin:.6f}\t{end - origin:.6f}\t"
                         f"{own:.6f}\n")
