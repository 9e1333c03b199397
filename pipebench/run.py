"""End-to-end benchmark of the hgcml pipeline on generated workloads.

Run from the root of a checkout:

    python3 pipebench/run.py --workload contrast-n600 --seed 1 --seconds 20 --trace 0

Set-up generates the workload's dataset with `hgcml synth --seed <seed>`.
The measured part then repeats `synth -> prepare -> positives -> train ->
embed -> eval` until `--seconds` have passed (at least twice), each step a
fresh `python -m hgcml.cli` process as a user would start it, and reports
medians over the repeats; `setup_s` is the median over every synth, the
set-up one included. Every exit, every artifact and the byte-identity of
the repeats (datasets and run outputs) is checked.

With `--trace 1` the same stages run in this process through
`hgcml.cli.main`, alternating untraced and traced repeats; the traced ones
go through the wrappers in tracing.py and yield the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict

import checks
import tracing
from checks import Ledger
from tracing import STAGES
from workloads import SMOKE_NODES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".pipebench_work")
MIN_REPEATS = 2
DEADLINE_S = 170.0   # the whole run, set-up included, ends before this
BLAS_THREADS = "1"   # default HGCML_THREADS: one core computes, one stays free
HASH_SEED = "0"      # PYTHONHASHSEED of this process and every stage process
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
# times of the two calibration probes at the reference speed (see README.md)
KERNEL_REF_S = 0.022
IMPORT_REF_S = 0.155
CAL_FRESH_S = 1.0    # a calibration this recent also serves the next process

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("positives_s", "s"),
    ("train_s", "s"),
    ("train_peak_rss_mib", "MiB"),
    ("positives_peak_rss_mib", "MiB"),
    ("micro_f1", "1"),
    ("nmi", "1"),
    ("ok_frac", "1"),
)


# -- processes ---------------------------------------------------------------

def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def run_process(argv, log_base: str, deadline: float):
    """Run argv to completion: (exit code, wall s, peak RSS MiB).

    The child is killed at `deadline` (time.monotonic). Its exit is
    observed without reaping, so a late kill can never hit a reused pid,
    and its rusage is read when it is reaped.
    """
    with open(log_base + ".out", "wb") as out, open(log_base + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill,
                            (proc.pid,))
    timer.start()
    wall = None
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    except BaseException:
        _kill(proc.pid)
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


_CAL_MATRIX = []


def _kernel_s() -> float:
    """Seconds for six 300 x 300 matrix products with tanh and a Python loop."""
    import numpy as np
    if not _CAL_MATRIX:
        _CAL_MATRIX.append(np.random.default_rng(0).random((300, 300)))
    matrix = _CAL_MATRIX[0]
    start = time.perf_counter()
    a = matrix
    for _ in range(6):
        a = np.tanh(a @ matrix / 300)
    s = 0
    for i in range(150_000):
        s += i * i
    return time.perf_counter() - start


def _import_s() -> float:
    """Seconds for a fresh interpreter to start and import numpy."""
    start = time.perf_counter()
    # no timeout: with one, wait() polls in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def calibrate() -> float:
    """How much slower than the reference the machine runs now (1 = as fast).

    The geometric mean of two probes' times over their reference times:
    compute in this process, and the start-up and imports a stage process
    begins with. Taken right before and right after every stage process,
    on the same pinned CPU, it gives the machine's speed while the stage
    ran. Neither probe calls hgcml.
    """
    return ((_kernel_s() / KERNEL_REF_S) * (_import_s() / IMPORT_REF_S)) ** 0.5


def _stderr_tail(log_base: str) -> str:
    try:
        with open(log_base + ".err", encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-3:])
    except OSError:
        return ""


def hgcml_argv(*args) -> list[str]:
    return [sys.executable, "-m", "hgcml.cli", *map(str, args)]


# -- one run -----------------------------------------------------------------

class Bench:
    """One benchmark run: a workload, a seed and a work directory."""

    def __init__(self, workload, seed: int, seconds: float, work: str,
                 deadline: float):
        self.workload = workload
        self.seconds = seconds
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.ledger = Ledger()
        # per process name: raw wall times, and the same scaled to the
        # reference speed by the calibrations on either side
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.last_cal = (0.0, -CAL_FRESH_S)  # (slowdown, when it was taken)
        self.config: dict = {}
        self.config_path = ""
        self.synth_path = ""
        self.data = ""
        self.first_digests: dict | None = None

    def timed(self, name: str, argv, log_base: str):
        """Run argv between two calibrations: (exit code, peak RSS MiB).

        The wall time is recorded under `name` as measured, and divided by
        the mean slowdown of the two calibrations. The one after a process
        is the one before the next, if that starts within CAL_FRESH_S.
        """
        before, taken = self.last_cal
        if time.monotonic() - taken >= CAL_FRESH_S:
            before = calibrate()
        code, wall, peak = run_process(argv, log_base, self.deadline)
        after = calibrate()
        self.last_cal = (after, time.monotonic())
        self.walls[name].append(wall)
        self.scaled[name].append(wall * 2 / (before + after))
        return code, peak

    def synth(self, out: str) -> bool:
        """Generate the dataset into `out`; record the wall time and the exit."""
        k = len(self.walls["synth"])
        log = os.path.join(self.work, f"synth{k}")
        code, _ = self.timed(
            "synth", hgcml_argv("synth", "--config", self.synth_path,
                                "--seed", self.seed, "--out", out), log)
        return self.ledger.record(f"synth #{k} exit", code == 0,
                                  f"exit {code}; {_stderr_tail(log)}")

    def setup(self) -> None:
        """Generate the dataset the pipeline repeats read."""
        self.synth_path = os.path.join(self.work, "synth.json")
        with open(self.synth_path, "w", encoding="utf-8") as fh:
            json.dump(self.workload.synth, fh)
        self.data = os.path.join(self.work, "data")
        if not self.synth(self.data):
            raise SystemExit("error: synth failed in set-up")
        with open(os.path.join(self.data, "config.json"), encoding="utf-8") as fh:
            self.config = self.workload.run_config(json.load(fh))
        self.config_path = os.path.join(self.data, "run.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=2, sort_keys=True)

    def resynth(self, i: int) -> None:
        """One more synth, timed for setup_s and checked against the first."""
        out = os.path.join(self.work, f"data{i}")
        if self.synth(out):
            names = sorted((set(os.listdir(out)) | set(os.listdir(self.data)))
                           - {"run.json"})
            self.ledger.record(f"synth #{len(self.walls['synth']) - 1} dataset "
                               "identical", checks.digests(out, names)
                               == checks.digests(self.data, names),
                               "dataset bytes differ")
        shutil.rmtree(out, ignore_errors=True)

    def check_outputs(self, run_dir: str, label: str) -> dict:
        """Artifact checks plus byte-identity with the first repeat."""
        report = checks.check_run(self.ledger, run_dir, self.workload, self.config)
        found = checks.digests(run_dir)
        if self.first_digests is None:
            self.first_digests = found
        else:
            checks.check_same(self.ledger, label, self.first_digests, found)
        return report

    def repeat(self, body) -> int:
        """Call body(i) while another repeat fits in --seconds (MIN_REPEATS at least).

        A repeat fits when a repeat of median length, started now, ends
        within --seconds of the first one's start.
        """
        start = time.monotonic()
        lengths = []
        i = 0
        while True:
            begun = time.monotonic()
            body(i)
            i += 1
            lengths.append(time.monotonic() - begun)
            now = time.monotonic()
            if (i >= MIN_REPEATS
                    and now + statistics.median(lengths) > start + self.seconds):
                return i
            if now + 1.5 * max(lengths) > self.deadline:
                print(f"note: stopped after {i} repeats to meet the deadline",
                      file=sys.stderr)
                return i

    # -- trace 0: one process per stage -----------------------------------

    def measure(self) -> dict[str, float]:
        rss: dict[str, list[float]] = {s: [] for s in STAGES}
        reports: list[dict] = []

        def one(i):
            self.resynth(i)
            run_dir = os.path.join(self.work, f"run{i}")
            os.makedirs(run_dir)
            for stage in STAGES:
                log = os.path.join(run_dir, stage)
                code, peak = self.timed(
                    stage, hgcml_argv(stage, "--config", self.config_path,
                                      "--out", run_dir), log)
                rss[stage].append(peak)
                self.ledger.record(f"{stage} #{i} exit", code == 0,
                                   f"exit {code}; {_stderr_tail(log)}")
            reports.append(self.check_outputs(run_dir, f"repeat #{i}"))
            shutil.rmtree(run_dir)

        repeats = self.repeat(one)
        print(f"# {repeats} pipeline repeats, {len(self.walls['synth'])} synths")
        for name in ("synth", *STAGES):
            print(f"# {name} walls (s): "
                  + " ".join(f"{t:.3f}" for t in self.walls[name]))
            print(f"# {name} scaled walls (s): "
                  + " ".join(f"{t:.3f}" for t in self.scaled[name]))
        med = statistics.median
        scaled = self.scaled
        report = reports[0]
        return {
            "setup_s": med(scaled["synth"]),
            "pipeline_s": sum(med(scaled[s]) for s in STAGES),
            "positives_s": med(scaled["positives"]),
            "train_s": med(scaled["train"]),
            "train_peak_rss_mib": med(rss["train"]),
            "positives_peak_rss_mib": med(rss["positives"]),
            "micro_f1": report.get("micro_f1", 0.0),
            "nmi": report.get("nmi", 0.0),
            "ok_frac": 1.0 - self.ledger.failed / self.ledger.attempted,
        }

    # -- trace 1: stages in this process, traced and untraced -------------

    def _inprocess(self, cli, run_dir: str, tracer) -> float:
        patch = tracer.patched() if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with patch:
            for stage in STAGES:
                span = tracer.stage_span(stage) if tracer else contextlib.nullcontext()
                argv = [stage, "--config", self.config_path, "--out", run_dir]
                with contextlib.redirect_stdout(io.StringIO()), span:
                    try:
                        code = cli.main(argv)
                    except Exception:  # a crash is this stage failing
                        traceback.print_exc()
                        code = None
                self.ledger.record(f"{stage} in-process exit", code == 0,
                                   f"returned {code}")
        return time.perf_counter() - start

    def _traced_pass(self, cli, label: str, tracer) -> float:
        run_dir = os.path.join(self.work, label)
        os.makedirs(run_dir)
        wall = self._inprocess(cli, run_dir, tracer)
        self.check_outputs(run_dir, label)
        shutil.rmtree(run_dir)
        if tracer is not None:
            err = tracer.accounting_error()
            self.ledger.record(f"{label}: self times add up to stage walls",
                               err <= 1e-6, f"off by {err:.3g} s")
        return wall

    def measure_traced(self, spans_path: str) -> dict[str, float]:
        """Per-layer metrics: medians over timing-traced repeats.

        A first traced pass samples tracemalloc peaks (and warms up); the
        repeats then alternate untraced and traced passes, whose median
        walls give the tracing overhead.
        """
        import hgcml.cli as cli
        memory = tracing.Tracer(memory=True)
        self._traced_pass(cli, "memory", memory)
        walls = {False: [], True: []}
        tracers = []

        def one(i):
            walls[False].append(self._traced_pass(cli, f"plain{i}", None))
            tracers.append(tracing.Tracer())
            walls[True].append(self._traced_pass(cli, f"traced{i}", tracers[-1]))

        repeats = self.repeat(one)
        print(f"# 1 memory pass, then {repeats} untraced + {repeats} traced "
              "in-process repeats")
        tracers[-1].write_spans(spans_path)
        print(f"# spans of the last traced repeat: {spans_path}")
        layers = [t.layer_metrics() for t in tracers]
        sampled = memory.layer_metrics()
        for later in layers:
            self.ledger.record(
                "per-layer counts repeat exactly",
                all(later[k] == sampled[k] for k in tracing.EXACT),
                "work counts differ between traced passes")
        out = {name: (sampled[name] if name in tracing.EXACT + tracing.MEMORY
                      else statistics.median(m[name] for m in layers))
               for name in sampled}
        out["trace.overhead_ratio"] = (statistics.median(walls[True])
                                       / statistics.median(walls[False]))
        return out


# -- environment ---------------------------------------------------------------

def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in (
            "HGCML_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "address_randomization": (None if _personality() == -1 else
                                  not _personality() & ADDR_NO_RANDOMIZE),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _personality(persona: int = 0xFFFFFFFF) -> int:
    """personality(2): 0xFFFFFFFF queries; -1 where it is unavailable."""
    try:
        return ctypes.CDLL(None, use_errno=True).personality(persona)
    except (OSError, AttributeError):
        return -1


def reexec_fixed_layout() -> None:
    """Start this script again with a fixed hash seed and no address randomisation.

    Both are inherited by every stage process. With a random hash seed or
    random addresses, a `train` process of contrast-n600 makes between
    about 510k and 780k page faults from run to run, and its system time
    varies with them; fixed, the count repeats exactly.
    """
    persona = _personality()
    # True once randomisation was on and is now off for this process
    layout_changed = (persona != -1 and not persona & ADDR_NO_RANDOMIZE
                      and _personality(persona | ADDR_NO_RANDOMIZE) != -1
                      and bool(_personality() & ADDR_NO_RANDOMIZE))
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED and not layout_changed:
        return
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    sys.stdout.flush()
    os.execv(sys.executable,
             [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])


def _import_hgcml() -> None:
    """Import the checkout's hgcml (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "hgcml", "cli.py")):
        raise SystemExit(f"error: no hgcml sources under {SRC}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import hgcml.cli  # caps BLAS threads; nothing imported numpy before
    if os.path.dirname(os.path.dirname(os.path.abspath(hgcml.cli.__file__))) != SRC:
        raise SystemExit(f"error: imported hgcml from {hgcml.cli.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"shrink the workload to about {SMOKE_NODES} "
                             "target nodes (for tests of the benchmark)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    # a terminated run still kills and reaps its stage process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.setdefault("HGCML_THREADS", BLAS_THREADS)
    _import_hgcml()
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    # every process of the run shares one CPU, the one calibrate() measures
    cpu = min(os.sched_getaffinity(0))
    print(json.dumps({"env": {**environment(args.seed), "pinned_cpu": cpu}},
                     sort_keys=True))
    os.sched_setaffinity(0, {cpu})
    calibrate()  # warm-up
    print(f"# workload {workload.name}: n={workload.n}, V={workload.views}, "
          f"{workload.epochs} epochs; {workload.why}")

    os.makedirs(WORK_ROOT, exist_ok=True)
    tag = f"{workload.name}-s{args.seed}{'-smoke' if args.smoke else ''}"
    work = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    bench = Bench(workload, args.seed, args.seconds, work, deadline)
    try:
        bench.setup()
        if args.trace:
            metrics = bench.measure_traced(
                os.path.join(WORK_ROOT, f"spans-{tag}.tsv"))
            units = tracing.PER_LAYER
        else:
            metrics = bench.measure()
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, unit in units:
        print(f"{name}\t{metrics[name]:.6g}\t{unit}")
    ledger = bench.ledger
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    reexec_fixed_layout()
    sys.exit(main())
