"""Run two sets of one workload and print each metric's spread against its bound.

    python3 benchmark/steady.py --workload verify-certs

Each set is ten runs of ``run_seconds`` from BENCHMARK.json, each a fresh
``run.py`` process with its own seed: 1-10 in the first set, 11-20 in the
second.  For every end-to-end metric the table shows
each set's median and its spread, the distance between the first and
third quartile as a share of the median, and how far the last set's
median moved from the first set's in the worse direction.  A metric is
steady when both spreads and the move stay within its bound from
BENCHMARK.json, set-up time included.  The figures are
also written to benchmark/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    sets = []
    for s in range(SETS):
        results = []
        for seed in range(s * RUNS + 1, (s + 1) * RUNS + 1):
            result = run_once(args.workload, seed, seconds)
            results.append(result)
            print(f"set {s + 1} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()), flush=True)
        sets.append(results)

    report = {"workload": args.workload, "seconds": seconds, "metrics": {}, "failed_share": []}
    steady = True
    for results in sets:
        report["failed_share"].append(
            [sum(r["failed"] for r in results), sum(r["attempted"] for r in results)])
        steady &= all(r["correct"] for r in results)
    shares = {f / a for f, a in report["failed_share"]}
    steady &= len(shares) == 1
    print(f"\nfailed/attempted per set: {report['failed_share']}")
    print(f"{'metric':14} {'bound':>6} " + " ".join(
        f"{'median' + str(s + 1):>10} {'spread' + str(s + 1):>8}" for s in range(len(sets)))
          + f" {'move':>7}  verdict")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = [summary([r["metrics"][name]["value"] for r in results]) for results in sets]
        first, last = stats[0]["median"], stats[-1]["median"]
        move = (last - first) / first * (1 if metric["better"] == "lower" else -1)
        ok = move <= bound and all(st["spread"] <= bound for st in stats)
        steady &= ok
        report["metrics"][name] = {"bound": bound, "sets": stats, "move": move, "ok": ok}
        print(f"{name:14} {bound:6.2f} " + " ".join(
            f"{st['median']:10.4g} {st['spread']:8.3f}" for st in stats)
              + f" {move:+7.3f}  {'ok' if ok else 'UNSTEADY'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
