"""Spread check: run workloads over several seeds and compare against the bounds.

    python3 perfbench/check_steady.py --workloads iris-trials,signal-cli --seeds 1-10
    python3 perfbench/check_steady.py --compare A.json B.json

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
for every end-to-end metric the median and the quartile spread (Q3 - Q1 as a
share of the median, quartiles from ``statistics.quantiles(values, n=4)``)
beside the metric's bound in ``BENCHMARK.json``: a spread within a third of
the bound is steady, one over the bound fails. ``setup_s`` is held to the
same rule. Results are saved as JSON; ``--compare`` checks that the second
set's medians are not worse than the first's by more than the bound.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from stats import relative_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads, seed_list, seconds):
    results = {}
    for w in workloads:
        for seed in seed_list:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w, "--seed", str(seed),
                   "--trace", "0"] + (["--seconds", str(seconds)] if seconds else [])
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
            took = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", flush=True)
                continue
            result = json.loads(lines[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{w} seed {seed} ({took:.1f} s): correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
            results.setdefault(w, []).append({"seed": seed, "correct": result["correct"],
                                              "seconds": took, "metrics": values})
    return results


def report(results, bounds):
    ok = True
    for w, runs in results.items():
        print(f"{w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        ok &= all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            spread = relative_spread(values) if len(values) >= 2 else float("nan")
            steady = spread <= bound / 3
            ok &= spread <= bound
            print(f"  {name:14s} median {median(values):12.6g}  spread {spread:6.3f}  "
                  f"bound {bound:.2f}  {'steady' if steady else 'UNSTEADY'}")
    return ok


def compare(first, second, bounds, better):
    ok = True
    for w in first.keys() & second.keys():
        for name, bound in bounds.items():
            a = median([r["metrics"][name] for r in first[w]])
            b = median([r["metrics"][name] for r in second[w]])
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            ok &= worse <= bound
            print(f"{w:12s} {name:14s} {a:12.6g} -> {b:12.6g}  worse by {worse:+.3f}  "
                  f"bound {bound:.2f}  {'ok' if worse <= bound else 'FAIL'}")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="iris-trials,mnist-train,mnist-infer,signal-cli")
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--save", type=Path, default=None)
    p.add_argument("--compare", nargs=2, type=Path, default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.compare:
        first, second = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        return 0 if compare(first, second, bounds, better) else 1
    results = collect(args.workloads.split(","), args.seeds, args.seconds)
    if args.save:
        args.save.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0 if report(results, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
