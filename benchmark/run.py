"""Run one treeconn workload and print its metrics as the last line of stdout.

    python3 benchmark/run.py --workload build-certs --seed 1 --seconds 30 --trace 0

One process, one thread, one caller in a closed loop: each operation is
one in-process CLI command, ``treeconn.cli.run(argv)``, with stdout and
stderr captured in memory, started only after the previous one returned.
The loop runs whole rounds of the workload's seeded operation list until
the timed phase has lasted ``--seconds``.  Every output is checked outside
the timed phase.  With ``--trace 0`` the line holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics, from wrappers installed around
treeconn's layers (see layers.py), and the spans go to benchmark/out/.

treeconn is imported from src/ beside this directory, never from an
installed copy; without it the command exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import CertificateError, check_certificate
from layers import Tracer
from workloads import WORKLOADS, Round

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 5  # set-up samples per untraced run: this process and four set-up-only ones
WARMUP = 5  # untimed operations, the first ones of the round
MIN_ROUNDS = 2


def import_treeconn():
    """treeconn.cli.run, from the sources beside the benchmark."""
    if not (SRC / "treeconn" / "cli.py").is_file():
        raise SystemExit(f"error: no treeconn sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from treeconn import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: treeconn was imported from {cli.__file__}, not {SRC}")
    return cli.run


def make_invoke(run):
    def invoke(argv: list) -> tuple:
        """(exit code, stdout, stderr, seconds) of one CLI command."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = run(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
        return rc, out.getvalue(), err.getvalue(), seconds

    return invoke


def set_up(workload: str, seed: int):
    """Import treeconn and make the inputs; returns (seconds, invoke, round, workdir)."""
    start = time.perf_counter()
    invoke = make_invoke(import_treeconn())
    workdir = OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    round_ = WORKLOADS[workload](seed, workdir, lambda argv: invoke(argv)[:3])
    return time.perf_counter() - start, invoke, round_, workdir


class Checker:
    """Judges each operation: failed (wrong exit code) or wrong output.

    A certificate is checked in full the first time an operation emits it;
    the same operation in a later round must then emit the same bytes.
    """

    def __init__(self) -> None:
        self.digests: dict[int, bytes] = {}
        self.problems: list[str] = []

    def __call__(self, index: int, op, rc, out: str, err: str) -> bool:
        """True when the operation failed; wrong outputs go to ``problems``."""
        if rc != op.rc:
            return True
        problem = None
        if op.cert is not None:
            digest = hashlib.blake2b(out.encode()).digest()
            if index in self.digests:
                if digest != self.digests[index]:
                    problem = "output differs from the first round"
            else:
                try:
                    check_certificate(out, *op.cert)
                    self.digests[index] = digest
                except CertificateError as exc:
                    problem = str(exc)
            if err:
                problem = f"unexpected stderr {err[:80]!r}"
        elif out != op.stdout:
            problem = f"stdout {out[:80]!r}, expected {op.stdout!r}"
        elif (rc == 0) == bool(err):
            problem = f"stderr {err[:80]!r} does not fit exit code {rc}"
        if problem is not None:
            self.problems.append(f"{' '.join(op.argv)}: {problem}")
        return False


def measure(invoke, round_: Round, seconds: float, tracer: Tracer | None, between_rounds):
    """Warm up, then run whole rounds, calling ``between_rounds()`` after each.

    Returns (op seconds, failed, checker, seconds of the timed phase).  The
    timed phase is the wall time of the rounds, less what lies outside it:
    the ``gc.collect()`` before each operation, the checking after it, and
    the calls between rounds.
    """
    checker = Checker()

    def execute(index, op):
        """(op seconds, failed, seconds spent outside the timed phase)."""
        start = time.perf_counter()
        gc.collect()  # a CLI process starts with a clean heap
        collected = time.perf_counter()
        call = lambda: invoke(list(op.argv))
        rc, out, err, elapsed = tracer.run_op(index, call) if tracer else call()
        checking = time.perf_counter()
        op_failed = checker(index, op, rc, out, err)
        return elapsed, op_failed, collected - start + time.perf_counter() - checking

    for index, op in enumerate(round_.ops[:WARMUP]):
        execute(index, op)
    if tracer:
        tracer.install()
    times, failed, rounds, untimed = [], 0, 0, 0.0
    start = time.perf_counter()
    try:
        while rounds < MIN_ROUNDS or time.perf_counter() - start - untimed < seconds:
            for index, op in enumerate(round_.ops):
                elapsed, op_failed, outside = execute(index, op)
                times.append(elapsed)
                failed += op_failed
                untimed += outside
            rounds += 1
            paused = time.perf_counter()
            between_rounds()
            untimed += time.perf_counter() - paused
    finally:
        if tracer:
            tracer.uninstall()
    return times, failed, checker, time.perf_counter() - start - untimed


def check_inputs(round_: Round) -> list[str]:
    """Each verify-certs input must pass the independent checker exactly when
    treeconn is expected to accept it."""
    problems = []
    for path, (a, b, k, passes) in round_.files.items():
        try:
            check_certificate(Path(path).read_text(), a, b, k)
            accepted = True
        except CertificateError:
            accepted = False
        if accepted != passes:
            problems.append(f"{path}: checker {'accepts' if accepted else 'rejects'} it")
    return problems


def quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) mass over each one's
    rank interval.  A single order statistic jumps by a whole gap when
    operations near its rank trade places; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(u: float) -> float:
        if not 0 < u < 1:
            return 0.0
        return math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_norm)

    steps = 4  # Simpson's rule over each rank interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        points = [(i + j / steps) / n for j in range(steps + 1)]
        coefficients = [1] + [4 if j % 2 else 2 for j in range(1, steps)] + [1]
        weights.append(sum(c * density(u) for c, u in zip(coefficients, points)))
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, ordered)) / total


def setup_sampler(workload: str, seed: int, samples: list):
    """A call that adds the set-up seconds of one fresh set-up-only process
    to ``samples``, until they number SETUPS."""

    def sample() -> None:
        if len(samples) < SETUPS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--setup-only"],
                capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append(float(done.stdout.split()[-1]))

    return sample


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    setup_seconds, invoke, round_, workdir = set_up(args.workload, args.seed)
    try:
        if args.setup_only:
            print(setup_seconds)
            return 0
        tracer = Tracer() if args.trace else None
        # Set-up samples are taken between rounds, so that they meet the
        # same host speed as the operations, and after the last round if
        # the run had too few rounds.
        setups = [setup_seconds]
        sample = (lambda: None) if tracer else setup_sampler(args.workload, args.seed, setups)
        times, failed, checker, timed = measure(invoke, round_, args.seconds, tracer, sample)
        while not tracer and len(setups) < SETUPS:
            sample()
        problems = checker.problems + check_inputs(round_)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"wrong output: {problem}", file=sys.stderr)
    attempted = len(times)
    if tracer:
        metrics = tracer.metrics(attempted, quantile(times, 0.5) * 1000)
        tracer.write_spans(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "p50_ms": {"value": quantile(times, 0.5) * 1000, "unit": "ms"},
            "tail_ms": {"value": quantile(times, round_.tail / 100) * 1000, "unit": "ms"},
            "ops_per_s": {"value": (attempted - failed) / timed, "unit": "1/s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(f"workload {args.workload}: {len(round_.ops)} operations a round, "
          f"tail_ms is p{round_.tail:g} of {attempted}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
