"""Tests of the benchmark harness itself (not of hgcml).

    python3 -m pytest -q pipebench

The smoke runs use each workload at about 30 target nodes, so the whole
file takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _bench(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "pipebench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=175, check=False)


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_metrics_and_workloads_match_the_harness():
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(tracing.PER_LAYER)
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: WORKLOADS[name].why for name in declared}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line)["env"] for line in lines
               if line.startswith('{"env"'))
    assert env["python_hash_seed"] == run.HASH_SEED
    assert env["blas_threads"]["HGCML_THREADS"] == run.BLAS_THREADS
    assert env["pinned_cpu"] in os.sched_getaffinity(0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == _declared("per_layer" if trace else "end_to_end")
    if trace:
        metrics = result["metrics"]
        epochs = metrics["trainer.epochs"]["value"]
        pairs = WORKLOADS[workload].views ** 2
        assert metrics["positives.mask_calls"]["value"] == pairs * epochs
        assert metrics["objective.node_node_loss_calls"]["value"] == pairs * epochs


def _sites():
    sites = [site for layer in tracing.LAYERS for site in layer.sites]
    return [tracing._resolve(site) for site in
            sites + [tracing.EPOCH_START, tracing.TRAIN_END]]


def test_wrappers_restore_the_patched_functions():
    originals = [owner.__dict__[attr] for owner, attr in _sites()]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched():
            for (owner, attr), original in zip(_sites(), originals):
                assert owner.__dict__[attr] is not original, attr
            raise RuntimeError("leave the block by an exception")
    for (owner, attr), original in zip(_sites(), originals):
        assert owner.__dict__[attr] is original, attr


def test_self_times_add_up_to_the_stage_wall():
    tracer = tracing.Tracer()
    inner = tracer._wrap(tracing.Layer("t.inner", ()), lambda: time.sleep(0.01))
    only_train = tracer._wrap(tracing.Layer("t.train_only", (), ("train",)),
                              lambda: None)

    def outer():
        time.sleep(0.01)
        inner()
        inner()
        only_train()

    outer = tracer._wrap(tracing.Layer("t.outer", ()), outer)
    with tracer.stage_span("eval"):
        outer()
    names = [span[0] for span in tracer.spans]
    assert names == ["cli.eval", "t.outer", "t.inner", "t.inner"]
    assert tracer.accounting_error() < 1e-9
    selfs = dict(zip(names, tracer.self_times()))
    outer_span = tracer.spans[1]
    assert selfs["t.outer"] == pytest.approx(
        outer_span[4] - outer_span[3]
        - sum(s[4] - s[3] for s in tracer.spans[2:]))


def test_accounting_error_fires_on_a_nesting_fault():
    tracer = tracing.Tracer()
    # [name, stage, parent, start, end]: the child ends after its parent
    tracer.spans = [["cli.eval", "eval", None, 0.0, 1.0],
                    ["t.inner", "eval", 0, 0.5, 1.5]]
    assert tracer.accounting_error() == pytest.approx(0.5)
    # two children that overlap cover more than their parent's duration
    tracer.spans = [["cli.eval", "eval", None, 0.0, 1.0],
                    ["t.a", "eval", 0, 0.0, 0.8],
                    ["t.b", "eval", 0, 0.2, 1.0]]
    assert tracer.accounting_error() == pytest.approx(0.6)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """A smoke pipeline run in this process: (bench, its run directory)."""
    import hgcml.cli as cli
    work = tmp_path_factory.mktemp("smoke")
    bench = run.Bench(WORKLOADS["contrast-n600"].smoke(), 3, 0, str(work),
                      time.monotonic() + 120)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", run.SRC)   # synth runs as a child process
        bench.setup()
        bench.resynth(0)
    run_dir = os.path.join(work, "run")
    os.makedirs(run_dir)
    bench._inprocess(cli, run_dir, None)
    bench.check_outputs(run_dir, "reference")
    assert bench.ledger.failed == 0
    return bench, run_dir


def _drop_last_line(data: bytes) -> bytes:
    return data[:data.rstrip(b"\n").rfind(b"\n") + 1]


# name: (artifact, corruption or None to delete it, checks that must fail);
# every corruption fails the byte-identity check, most also a content check
CORRUPTIONS = {
    "missing trace row": ("trace.tsv", _drop_last_line, 2),
    "report below the floors": (
        "report.tsv", lambda b: re.sub(rb"(?m)^micro_f1\t[^\t]*", b"micro_f1\t0.5", b),
        2),
    "changed embedding byte": (
        "embeddings.bin", lambda b: b[:-1] + bytes([b[-1] ^ 1]), 1),
    "truncated model": ("model.bin", lambda b: b[:len(b) // 2], 2),
    "missing positives": ("positives.tsv", None, 2),
}


def test_output_checks_pass_an_unchanged_copy(smoke_run, tmp_path):
    bench, reference = smoke_run
    shutil.copytree(reference, tmp_path / "run")
    before = (bench.ledger.attempted, bench.ledger.failed)
    bench.check_outputs(str(tmp_path / "run"), "copy")
    assert bench.ledger.attempted > before[0]
    assert bench.ledger.failed == before[1]


@pytest.mark.parametrize("name,corrupt,failing", CORRUPTIONS.values(),
                         ids=list(CORRUPTIONS))
def test_output_checks_fail_on_a_corrupted_artifact(smoke_run, tmp_path, name,
                                                    corrupt, failing):
    bench, reference = smoke_run
    shutil.copytree(reference, tmp_path / "run")
    path = tmp_path / "run" / name
    if corrupt is None:
        path.unlink()
    else:
        data = path.read_bytes()
        assert corrupt(data) != data
        path.write_bytes(corrupt(data))
    before = bench.ledger.failed
    bench.check_outputs(str(tmp_path / "run"), "corrupted")
    assert bench.ledger.failed - before == failing


def test_repeats_stop_before_the_measured_time_runs_out(tmp_path):
    bench = run.Bench(WORKLOADS["contrast-n600"], 1, 1.0, str(tmp_path),
                      time.monotonic() + 60)
    # 0.3 s repeats in a 1 s window: a fourth would end after 1.2 s
    assert bench.repeat(lambda i: time.sleep(0.3)) == 3
    bench.seconds = 0
    assert bench.repeat(lambda i: None) == run.MIN_REPEATS


def test_wall_times_are_scaled_by_the_calibrations_around_them(tmp_path,
                                                               monkeypatch):
    # the machine runs at half, then a third of the reference speed
    cals = iter([2.0, 3.0, 9.0])
    monkeypatch.setattr(run, "calibrate", lambda: next(cals))
    monkeypatch.setattr(run, "run_process", lambda argv, log, deadline:
                        (0, 3.0, 50.0))
    bench = run.Bench(WORKLOADS["contrast-n600"], 1, 1.0, str(tmp_path),
                      time.monotonic() + 60)
    assert bench.timed("train", ["train"], str(tmp_path / "log")) == (0, 50.0)
    assert bench.walls["train"] == [3.0]
    assert bench.scaled["train"] == pytest.approx([1.2])
    # the calibration after one process is the one before the next
    bench.timed("eval", ["eval"], str(tmp_path / "log"))
    assert bench.scaled["eval"] == pytest.approx([0.5])


def test_run_process_reports_exit_code_and_kills_at_the_deadline(tmp_path):
    log = str(tmp_path / "child")
    code, wall, rss = run.run_process(
        [sys.executable, "-c", "import sys; sys.exit(3)"], log,
        time.monotonic() + 60)
    assert code == 3 and wall > 0 and rss > 0
    code, wall, _ = run.run_process(
        [sys.executable, "-c", "import time; time.sleep(30)"], log,
        time.monotonic() + 0.5)
    assert code == -9 and wall < 10


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(str(tmp_path), "--workload", next(iter(WORKLOADS)),
                  "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
