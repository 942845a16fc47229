"""Run one benchmark workload against the insep sources next to this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one closed-loop client: each op starts when the last one ends.
The runner sets the workload up five times (each time also importing the
program in a fresh interpreter) and reports the median as ``setup_s``. It
runs each op once to warm up, then repeats whole rounds of the workload's
ops until their summed time reaches ``--seconds``, checking every output
with ``oracle`` outside the timed calls. Every reported time is scaled to
reference seconds by the host-speed calibration of ``calibrate``.

With ``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it
first times half the budget untraced, then half with the layer wrappers of
``tracing`` installed, and prints the per-layer metrics and the tracing
overhead. The last line of stdout is the result object; the line before it
records the environment and inputs. Both, and the spans of a traced run,
are also written under ``.perfbench/results/``.

Exit code 0 once a result is printed (``correct`` says whether every op
passed); 2 if the program's sources are missing or set-up fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# A set-up calls for few calibrations, or none while it starts a fresh
# interpreter, so it is scaled by those within this long of its ends.
SETUP_WINDOW_S = 0.25
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_FAILURE_MESSAGES = 10


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "insep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def import_seconds() -> float:
    """Wall time to start a fresh interpreter and import the CLI module."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import insep.cli"], env=env, check=True, cwd=ROOT)
    return time.perf_counter() - start


class Phase:
    """Closed-loop timing of whole rounds of ops, with every output checked.

    The loop stops once the ops' summed wall time (``busy``) reaches
    ``seconds``. It runs inside the entered ``calibration``; ``by_op``
    holds each op's times in reference seconds.
    """

    def __init__(self, ops, seconds, checked, calibration, tracer=None):
        self.samples: list[float] = []
        timed: list[list[tuple[float, float]]] = [[] for _ in ops]
        self.rounds = 0
        self.failed = 0
        self.failures: list[str] = []
        while self.rounds == 0 or self.busy < seconds:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.begin_op(len(self.samples))
                start = time.perf_counter()
                raised = None
                try:
                    out = op.run()
                except Exception as exc:  # an op that raises counts as failed
                    raised = exc
                elapsed = time.perf_counter() - start
                self.samples.append(elapsed)
                timed[i].append((start, elapsed))
                errors = [f"raised {raised!r}"] if raised else _check(op, out, checked, tracer)
                if errors:
                    self.failed += 1
                    if len(self.failures) < MAX_FAILURE_MESSAGES:
                        self.failures.append(f"{op.label}: {'; '.join(errors)}")
            self.rounds += 1
        calibration.settle()
        self.by_op = [[calibration.scaled(*t) for t in times] for times in timed]

    @property
    def busy(self) -> float:
        return math.fsum(self.samples)

    @property
    def scaled_busy(self) -> float:
        return math.fsum(math.fsum(times) for times in self.by_op)


def _check(op, out, checked, tracer) -> list[str]:
    """Check an op's output, once per distinct output, with tracing paused."""
    memo = (op.label, op.key(out))
    if memo not in checked:
        if tracer is not None:
            tracer.paused = True
        try:
            checked[memo] = op.check(out)
        except Exception as exc:  # a malformed output the oracle cannot read
            checked[memo] = [f"check raised {exc!r}"]
        finally:
            if tracer is not None:
                tracer.paused = False
    return checked[memo]


def tail(samples, pct) -> tuple[float, int]:
    """Nearest-rank percentile ``pct`` of ``samples`` and how many lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(phase, pct, setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics, in reference seconds, and how the tail was taken.

    The median and the throughput take each op's median across rounds
    first, so one slow round moves them less. A percentile tail is taken
    over every sample, so it keeps such rounds. With ``pct`` None the tail
    is the slowest op's median.
    """
    medians = [statistics.median(times) for times in phase.by_op]
    beyond = None
    if pct is None:
        tail_s = max(medians)
    else:
        tail_s, beyond = tail([t for times in phase.by_op for t in times], pct)
    metrics = {
        "op_p50_s": (statistics.median(medians), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(medians) / math.fsum(medians), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"percentile": pct, "samples": len(phase.samples), "beyond": beyond}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--control", action="store_true",
                        help="run the workload's negative control, whose ops must all fail")
    args = parser.parse_args(argv)

    if not (SRC / "insep" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: on a shared host, threads that
    # wait for each other's cores would time the scheduler, not the program.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import calibrate
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    setup = wl.setup
    if args.control:
        if wl.control is None:
            print(f"error: workload {wl.name} has no negative control", file=sys.stderr)
            return 2
        setup = wl.control

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        with calibrate.Calibration() as calibration:
            setup_times, setup_wall = [], []
            calibration.settle(SETUP_WINDOW_S)
            for _ in range(SETUP_REPEATS):
                shutil.rmtree(workdir / "inputs", ignore_errors=True)
                (workdir / "inputs").mkdir()
                start = time.perf_counter()
                with calibration.paused():
                    import_time = import_seconds()
                try:
                    ops = setup(args.seed, workdir / "inputs")
                except workloads.SetupError as exc:
                    print(f"error: set-up failed: {exc}", file=sys.stderr)
                    return 2
                setup_wall.append(time.perf_counter() - start)
                calibration.settle(SETUP_WINDOW_S)
                setup_times.append(calibration.scaled(start, setup_wall[-1], SETUP_WINDOW_S))

            checked: dict = {}
            for op in ops:  # warm-up: fill caches and finish lazy imports
                with contextlib.suppress(Exception):  # the timed rounds count failures
                    op.run()
            record = {
                "workload": wl.name,
                "why": wl.why,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "control": args.control,
                "environment": environment(np),
                "reference_s": calibrate.REFERENCE_S,
                "setup_s_each": setup_times,
                "setup_wall_s_each": setup_wall,
                "import_s_last": import_time,
            }
            if args.trace:
                plain = Phase(ops, args.seconds / 2, checked, calibration)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    phase = Phase(ops, args.seconds / 2, checked, calibration, tracer)
                finally:
                    tracer.uninstall()
                overhead = (phase.scaled_busy / phase.rounds) / (plain.scaled_busy / plain.rounds) - 1
                record["layer_self_s"] = tracer.layer_self_seconds()
                metrics = tracing.layer_metrics(tracer, record["layer_self_s"], phase.busy, phase.rounds,
                                                len(phase.samples))
                metrics["trace.overhead_pct"] = (100 * overhead, "%")
                record["unobserved"] = tracer.unobserved
                record["rounds"] = {"untraced": plain.rounds, "traced": phase.rounds}
                tracer.write(results / f"spans-{wl.name}-seed{args.seed}.jsonl")
                attempted = len(plain.samples) + len(phase.samples)
                failed = plain.failed + phase.failed
                failures = plain.failures + phase.failures
            else:
                phase = Phase(ops, args.seconds, checked, calibration)
                metrics, record["tail"] = end_to_end(phase, wl.tail_pct, setup_times)
                record["rounds"] = phase.rounds
                record["calibration_s_mean"] = statistics.fmean(calibration.seconds)
                attempted, failed, failures = len(phase.samples), phase.failed, phase.failures
            record["file_bytes"] = {p.name: p.stat().st_size for p in sorted((workdir / "inputs").iterdir())}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["fail_frac"] = failed / attempted
    record["failures"] = failures
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-control' if args.control else ''}"
    (results / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
