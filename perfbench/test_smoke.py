"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py     (or: python3 perfbench/test_smoke.py)

Runs every workload at a tiny size, untraced and traced, and checks the
span arithmetic (self time, weights) and the tail-percentile rule on
hand-built inputs.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import calibrate  # noqa: E402
import stats      # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402

MS = 1_000_000   # ns per ms


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0, 100 * MS, None, 1, None],
        ["child", 10 * MS, 30 * MS, 0, 1, 0],
        ["child", 20 * MS, 50 * MS, 0, 1, 0],      # overlaps the first child
        ["child", 90 * MS, 120 * MS, 0, 1, 1],     # runs past the parent's end
        ["grandchild", 12 * MS, 14 * MS, 1, 1, 0],
        ["setup", 0, 8 * MS, None, 0, None],
    ]
    total, self_time, calls = tracing.span_totals(spans, {0: 1.0, 1: 0.5})
    # children cover [10, 50] and [90, 100] of the parent: 50 of its 100 ms
    assert self_time["parent"] == 0.5 * 50
    assert total["parent"] == 0.5 * 100
    assert total["child"] == 0.5 * (20 + 30 + 30)
    assert self_time["child"] == 0.5 * (18 + 30 + 30)
    assert total[("child", 0)] == 0.5 * 50 and total[("child", 1)] == 0.5 * 30
    assert calls["child"] == 1.5
    assert total["setup"] == 8 and calls["setup"] == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90)
    pct, value = stats.tail(list(range(1, 26)))
    assert (pct, value) == (60, 15) and sum(v > value for v in range(1, 26)) >= 10
    assert stats.tail(list(range(19))) is None


def test_relative_spread_uses_quartiles_over_the_median():
    assert stats.relative_spread([1, 2, 3, 4, 5]) == (4.5 - 1.5) / 3


def test_calibration_scales_by_the_samples_in_or_nearest_an_interval():
    cal = calibrate.Calibrator("iris-trials")
    cal.reference_ms = 4.0
    cal.times = [float(t) for t in range(20)]
    cal.ms = [2.0] * 10 + [8.0] * 10          # the machine slowed down 4x at t = 10
    assert cal.scale(12.0, 19.5) == 0.5       # 8 samples inside the interval
    assert cal.scale(2.0, 2.1) == 2.0         # the 7 nearest, t = 0..6
    assert cal.scale(9.4, 9.6) == 0.5         # the 7 nearest, t = 7..13: four slow ones


def _run_tiny(cls, workdir):
    w = cls(workloads.CRITERION5_SEED, ROOT, workdir, calibrate.Calibrator(cls.name), tiny=True)
    w.setup()
    tracer = tracing.Tracer()
    with tracer.installed(run=0):
        w.setup()
    plain = w.run_round()
    with tracer.installed(run=1):
        traced = w.run_round()
    checks = list(w.setup_checks) + w.checks(plain) + w.checks(traced)
    assert plain.op_ms and plain.ops_failed == 0 and traced.ops_failed == 0
    return w, tracer, checks


def test_every_workload_runs_tiny_and_passes_its_checks():
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    seen = {}
    for cls in workloads.WORKLOADS.values():
        workdir = Path(tempfile.mkdtemp())
        try:
            w, tracer, checks = _run_tiny(cls, workdir)
        finally:
            shutil.rmtree(workdir)
        failed = [c for c in checks if not c[1]]
        assert not failed, (w.name, failed)
        metrics, calls = tracing.layer_metrics(tracer, {0: 1.0, 1: 1.0}, 1)
        missed = [name for name in w.expected_spans if not calls.get(name)]
        assert not missed, (w.name, missed)
        seen.update({k: u for k, (v, u) in metrics.items()})
    # every declared per-layer metric is produced by some workload, in its unit
    missing = {k for k in declared if k not in seen and not k.startswith("trace.")}
    assert not missing, sorted(missing)
    assert all(seen[k] == u for k, u in declared.items() if k in seen)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "signal-cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            if "tmp_path" in fn.__code__.co_varnames[:fn.__code__.co_argcount]:
                with tempfile.TemporaryDirectory() as d:
                    fn(Path(d))
            else:
                fn()
            print(f"ok {name}")
