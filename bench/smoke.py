"""Smoke test of the benchmark itself, at tiny corpus sizes.

    python3 bench/smoke.py          (or: python -m pytest bench/smoke.py)

Runs every workload untraced and traced through the real command line and
checks that each named metric is present with its unit, that the exact
trace counts hold, and that a corrupted or emptied artifact is reported as
a failure rather than crashing the run.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Context, Op, tree_digest  # noqa: E402


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


def _assert_metrics(result: dict, expected: dict) -> None:
    metrics = result["metrics"]
    assert list(metrics) == list(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], (int, float)), name


def test_every_workload_reports_every_metric():
    for name in WORKLOADS:
        untraced = _bench(name, 0)
        _assert_metrics(untraced, run.END_TO_END)
        assert untraced["metrics"]["wall_s"]["value"] > 0
        traced = _bench(name, 1)
        _assert_metrics(traced, LAYER_METRICS)
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        summary = json.loads((run.OUT / "results" /
                              f"{name}-seed3-trace1-tiny.json").read_text())
        # Every workload regenerates all seven representations once.
        assert m["pathcontexts.extract_paths.calls"] == 2 * summary["methods"]
        if name.endswith("_cli"):
            assert m["pipeline.load_corpus.calls"] == 10


def test_corrupted_artifact_is_a_failure():
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        work = Path(tmp)
        w = WORKLOADS["long_methods"](Context(
            work=work, seed=3, tiny=True, env=run._child_env()))
        w.setup()
        w.prepare()
        ops = w.traced_repetition(lambda _name: nullcontext())
        ws = w.ws
        good = tree_digest(ws, w.corpus)

        clean = run.Checker(w, good)
        clean.check(ops)
        assert clean.failures == []

        def retrun(data: bytes) -> bytes:
            return data.replace(b"return", b"retrun", 1)

        def header_only(data: bytes) -> bytes:
            return data.splitlines(keepends=True)[0]

        cases = [("representations/TKNA.csv", retrun, "digest"),
                 ("properties/NMTK.csv", header_only, "NMTK.csv")]
        for i, (rel, corrupt_bytes, reason) in enumerate(cases):
            copy = work / f"copy{i}"
            shutil.copytree(ws, copy)
            w.ws = copy
            target = copy / rel
            target.write_bytes(corrupt_bytes(target.read_bytes()))
            corrupt = run.Checker(w, good)
            corrupt.check(ops)
            assert corrupt.attempted == len(ops) + 1
            assert len(corrupt.failures) == 1, corrupt.failures
            assert "digest" in corrupt.failures[0]
            assert reason in corrupt.failures[0]


def test_wrong_summary_is_a_failure():
    base = Op("catalog", 0, {"methods": 5, "skipped_files": 0})
    bad = [Op("catalog", 0, {"methods": 4, "skipped_files": 0}),
           Op("catalog", 0, {"methods": 5, "skipped_files": 1}),
           Op("catalog", 0, None),
           Op("catalog", 2, {"methods": 5, "skipped_files": 0}, "boom")]
    w = WORKLOADS["fixture_cli"](Context(work=run.OUT, seed=0))
    w.methods = 5
    assert w.check([base]) == []
    assert len(w.check(bad)) == len(bad)


if __name__ == "__main__":
    for test in (test_wrong_summary_is_a_failure,
                 test_corrupted_artifact_is_a_failure,
                 test_every_workload_reports_every_metric):
        test()
        print(f"ok {test.__name__}", flush=True)
