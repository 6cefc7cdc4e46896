"""Self-test of the benchmark: every workload at toy scale.

Run from the root of the checkout:  python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def toy_run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = toy_run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


def _tamper_census(expected):
    n, m, counts = expected
    return n, m, counts[:3] + (counts[3] + 1,)


def _tamper_sweep(expected):
    golden, sizes = expected
    return [golden[0].replace(",", ",0", 5)] + golden[1:], sizes


TAMPER = {
    "census-files": ("census", _tamper_census),
    "convergence-sweep": ("sweep", _tamper_sweep),
    "limit-queries": ("optimize", lambda value: value + 1e-3),
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tampered_expected_value_counts_as_failed(workload, tmp_path):
    wl = WORKLOADS[workload](3, True, tmp_path)
    run.load_package(wl.pkg)
    samples, failed = run.run_pass(wl, run.Speed(wl.probe))
    assert failed == 0 and len(samples) == len(wl.ops)
    kind, tamper = TAMPER[workload]
    op = next(op for op in wl.ops if op.kind == kind)
    op.expected = tamper(op.expected)
    samples, failed = run.run_pass(wl, run.Speed(wl.probe))
    assert failed == 1 and len(samples) == len(wl.ops)


def test_times_are_scaled_by_the_probes_around_them():
    speed = run.Speed("mixed")
    ref = speed.reference_s
    speed.at, speed.took = [1.0, 2.0, 3.0], [ref, 3 * ref, 2 * ref]
    assert speed.scale(1.5, 0.4) == pytest.approx(0.4 / 2)
    assert speed.scale(2.5, 0.5) == pytest.approx(0.5 / 2.5)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = toy_run(tmp_path, WORKLOAD_NAMES[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
