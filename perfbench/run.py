"""divfe benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all            # every workload, one process each

Runs one workload in this process: imports the package from ``src/`` of the
checkout holding this directory, sets the workload up several times (each a
fresh interpreter importing the package plus the in-process set-up; the
median is ``setup_s``), then repeats rounds of the workload until
``--seconds`` have passed. Gated times are calibrated (see ``calibrate.py``).
With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics plus the tracing overhead. The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Every earlier line is a human-readable report, including the environment.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_CALIBRATION = 5   # kernel runs before each set-up, and after the last
DEFAULT_SEED = 1   # the iris-trials accuracy gate applies at this seed
WORKLOAD_NAMES = ("iris-trials", "mnist-train", "mnist-infer", "signal-cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "workload_seed": seed,
        "criterion6_real_mnist": "not verified: the MNIST IDX files are absent; "
                                 "MNIST-shaped workloads use synthetic images",
    }


def load_program():
    """Import the package from the checkout's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import divfe
    if Path(divfe.__file__).resolve().parent != ROOT / "src" / "divfe":
        raise ImportError(f"divfe imported from {divfe.__file__}, not from {ROOT / 'src'}")
    global calibrate, stats, tracing, workloads
    import calibrate
    import stats
    import tracing
    import workloads


def set_up(workload, cal):
    """Set the workload up ``SETUP_REPEATS`` times; the median calibrated time in s.

    Each set-up is a fresh interpreter starting and importing the package,
    then the workload's in-process set-up. The calibration kernel runs
    between set-ups.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spans = []
    for _ in range(SETUP_REPEATS):
        cal.run(SETUP_CALIBRATION)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import divfe"], env=env, cwd=ROOT, check=True)
        workload.setup()
        spans.append((start, time.perf_counter()))
    cal.run(SETUP_CALIBRATION)
    return median((end - start) * cal.scale(start, end) for start, end in spans)


def measure(workload, cal, seconds, trace, tracer):
    """Rounds until ``seconds`` have passed; with tracing, odd rounds are traced."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        cal.tick()
        spent = cal.spent_s
        start = time.perf_counter()
        try:
            if traced:
                with tracer.installed(run=len(rounds) + 1):
                    r = workload.run_round()
            else:
                r = workload.run_round()
            r.span = (start, time.perf_counter())
            r.wall_s = r.span[1] - start - (cal.spent_s - spent)
            r.checks = workload.checks(r)
        except Exception:   # noqa: BLE001 - a round that raises counts as a failed operation
            traceback.print_exc()
            r = workloads.Round(ops=1, ops_failed=1, wall_s=time.perf_counter() - start)
        r.traced = traced
        rounds.append(r)
        if time.perf_counter() >= deadline and (not trace or len(rounds) >= 2):
            cal.tick()
            return rounds


def end_to_end(workload, rounds, setup_s, cal):
    """Every end-to-end metric the run supports, as name -> (value, unit, note)."""
    plain = [r for r in rounds if not r.traced and r.op_spans]
    if not plain:
        return {}   # no round finished an operation: nothing was measured
    op_ms = [ms for r in plain for ms in r.op_ms]
    op_cal = [(end - start) * 1e3 * cal.scale(start, end) for r in plain for start, end in r.op_spans]
    round_cal = [r.wall_s * 1e3 * cal.scale(*r.span) / len(r.op_spans) for r in plain]
    m = {
        "setup_s": (setup_s, "s", f"calibrated, median of {SETUP_REPEATS} interpreter starts + set-ups"),
        "op_ms": (median(op_cal), "ms", f"calibrated, median {workload.op}, n={len(op_cal)}"),
        "round_ms_per_op": (median(round_cal), "ms",
                            f"calibrated, median of round time / {workload.op}s, n={len(round_cal)}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", "ru_maxrss"),
        "wall_s": (median([r.wall_s for r in plain]), "s", f"median round, n={len(plain)}"),
        "calibration_ms": (median(cal.ms), "ms", f"median calibration kernel, n={len(cal.ms)}; "
                                                 f"reference {cal.reference_ms} ms"),
    }
    names = {"epoch": "epoch_ms", "batch": "batch_ms"}
    if workload.op in names:
        m[f"{names[workload.op]}_p50"] = (median(op_ms), "ms", f"median {workload.op}, n={len(op_ms)}")
        tail = stats.tail(op_ms)
        if tail is not None:
            m[f"{names[workload.op]}_tail"] = (tail[1], "ms", f"p{tail[0]}, n={len(op_ms)}")
        busy = sum(r.busy_s for r in plain)
        rate = "train_samples_per_s" if workload.training else "infer_samples_per_s"
        m[rate] = (sum(r.samples for r in plain) / busy, "samples/s",
                   "sample-epochs / time in fit" if workload.training else "images / time in evaluate")
    accuracies = [r.accuracy for r in plain if r.accuracy is not None]
    if accuracies:
        m["accuracy"] = (median(accuracies), "fraction", "median over rounds")
    return m


def per_layer(workload, rounds, tracer):
    traced = [r for r in rounds if r.traced]
    weights = {0: 1.0, **{i + 1: 1.0 / len(traced) for i, r in enumerate(rounds) if r.traced}}
    m, calls = tracing.layer_metrics(tracer, weights, len(traced))
    plain = median([r.wall_s for r in rounds if not r.traced])
    overhead = median([r.wall_s for r in traced]) - plain
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_pct"] = (100 * overhead / plain, "%")
    missing = [name for name in workload.expected_spans if not calls.get(name)]
    return {k: (v, u, "") for k, (v, u) in m.items()}, missing


def run_one(args, declared):
    load_program()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    tracer = tracing.Tracer() if args.trace else None
    cal = calibrate.Calibrator(args.workload, enabled=tracer is None)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir, cal)
        setup_s = set_up(workload, cal)
        if tracer is not None:
            with tracer.installed(run=0):
                workload.setup()
        rounds = measure(workload, cal, args.seconds, args.trace, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = list(workload.setup_checks) + [c for r in rounds for c in r.checks]
    if tracer is not None:
        metrics, missing = per_layer(workload, rounds, tracer)
        checks.append(("every expected layer wrapper was hit", not missing, ", ".join(missing)))
    else:
        metrics = end_to_end(workload, rounds, setup_s, cal)

    attempted = sum(r.ops for r in rounds) + len(checks)
    failed = sum(r.ops_failed for r in rounds) + sum(not ok for _, ok, _ in checks)
    if tracer is None:
        metrics["error_rate"] = (failed / attempted, "fraction", f"{failed} of {attempted}")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    for i, r in enumerate(rounds):
        print(f"round {i}{' traced' if r.traced else ''}: wall_s={r.wall_s:.4f} ops={r.ops} "
              f"failed={r.ops_failed} digest={r.digest} accuracy={r.accuracy}")
    for name, ok, detail in checks:
        print(f"check {'ok    ' if ok else 'FAILED'} {name}: {' '.join(str(detail).split())}")
    for name, (value, unit, note) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    if tracer is not None:
        first = min((run for run, *_ in tracer.fits if run > 0), default=None)
        fits = [(epochs, best) for run, epochs, best in tracer.fits if run == first]
        if fits:
            print(f"counts per fit of traced round {first} (epochs_run, best_epoch): {fits}")
        for (pos, *_), (line, flops, cols) in sorted(tracer.geometry.items(), key=str):
            print(f"computed layers.{pos} [{line}]: {flops / 1e6:.4f} MFLOP and "
                  f"{cols / 1024:.1f} KiB im2col per sample (forward)")
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        print(f"spans {len(tracer.spans)} written to {path}")

    out = {}
    for name, unit in declared:
        if name not in metrics and tracer is None:
            print(f"perfbench: metric {name} was not measured", file=sys.stderr)
            return 1
        value, measured_unit, _ = metrics.get(name, (0.0, unit, ""))   # layer did no work
        if measured_unit != unit:
            print(f"perfbench: {name} measured in {measured_unit}, declared in {unit}", file=sys.stderr)
            return 1
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def run_all(args):
    """Each workload in a fresh process, then one table of every metric."""
    table = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        table[name] = proc.returncode, [line for line in proc.stdout.splitlines()
                                        if line.startswith(("metric ", "check FAILED"))]
    print("summary")
    for name, (code, lines) in table.items():
        print(f"  {name} (exit {code})")
        for line in lines:
            print(f"    {line}")
    return max(code for code, _ in table.values())


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    for var in THREAD_VARS:   # one BLAS thread unless the caller chose otherwise
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    try:
        return run_one(args, declared)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
