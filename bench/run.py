"""codecorpus benchmark: four workloads, six end-to-end metrics, a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of fixture_cli, scaled_cli, long_methods, incremental, or
`all`, which runs the four in turn and prints one row per workload. The
program is run from source (`src/` of the checkout holding this file).

With `--trace 0` the run byte-compiles the package once, untimed, sets up
its inputs at least three times (reporting the median as `setup_s`), then
repeats the workload's timed part for about S seconds: it starts another
repetition only while the projected end stays within S, and always runs at
least one. The times it
reports (`setup_s`, `wall_s`, `cpu_s` and `methods_per_s`) are in
reference seconds, scaled by a CPU-speed probe taken around every
set-up and every operation (see PROBE_REF_S); the measured seconds go to
the results file under `raw`. Every repetition is checked: each operation
must exit 0 and end with a JSON summary whose counts match the corpus;
the workspace tree digest must equal the one recorded in `digests.json`
for that workload and seed (for an unrecorded seed, every repetition must
match the first), and the tables `regime()` reads must be well formed. A
failed check counts in `failed` and `ok_frac` and does not stop the run.

With `--trace 1` the run executes the workload once in-process untraced
and once with every public `codecorpus` function of interest wrapped by
`tracing.Tracer`, checks both like a timed repetition, and reports the
per-layer self times and counts.

`--tiny` shrinks every corpus for the smoke test (`bench/smoke.py`).

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Everything else about the run
(environment, per-metric median and quartiles, every sample, corpus
regime, failures, spans) goes to `.bench_out/results/` in the checkout.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracing import LAYER_METRICS, SPECS, Tracer, layer_metrics
from workloads import (WORKLOADS, Context, probe_seconds, regime,
                       tree_digest)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# Set-up runs at least SETUP_MIN times and, when it is cheap, again until
# SETUP_BUDGET_S seconds are spent, so a short set-up gets a steady median.
SETUP_MIN = 3
SETUP_MAX = 20
SETUP_BUDGET_S = 3.0
IMPORT_PROBES = 3
# Times are reported in reference seconds: measured seconds scaled by how
# much slower than PROBE_REF_S a fixed loop ran next to them. The CPUs of a
# shared host change speed by up to 2x within seconds to minutes, and
# independently of each other, so the run pins itself (and its children)
# to one CPU and probes that CPU before and after every set-up and every
# operation of a repetition (`workloads.probe_seconds`); a repetition's
# time is the sum of its operations' times, each scaled by the probes on
# either side of it.
PROBE_REF_S = 0.03

END_TO_END = {"setup_s": "s", "wall_s": "s", "methods_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}


def _stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "samples": values}


def _environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "git_commit": commit, "src_sha256": src.hexdigest(),
            "seed": seed}


def _recorded_digest(name: str, seed: int, tiny: bool) -> str | None:
    path = HERE / "digests.json"
    if tiny or not path.exists():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


class Checker:
    """Counts operations and failures across the repetitions of one run.

    Each operation counts once, and the workspace it leaves counts once
    more: its digest and the tables `regime()` reads.
    """

    def __init__(self, workload, expected_digest: str | None):
        self.w = workload
        self.expected = expected_digest
        self.digests: list[str] = []
        self.regime: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ops) -> None:
        self.failures += self.w.check(ops)
        digest = tree_digest(self.w.ws, self.w.corpus)
        corpus_regime, problems = regime(self.w.ws)
        if self.regime is None:
            self.regime = corpus_regime
        ref = self.expected or (self.digests[0] if self.digests else None)
        self.digests.append(digest)
        if ref is not None and digest != ref:
            problems.append(f"digest {digest[:16]} != {ref[:16]}")
        if problems:
            self.failures.append("workspace: " + "; ".join(problems))
        self.attempted += len(ops) + 1


def _reference(raw: list[float], probes: list[float]) -> list[float]:
    """Raw seconds scaled to the reference speed.

    `probes[i]` and `probes[i + 1]` were taken right before and after the
    interval `raw[i]`; the interval is scaled by PROBE_REF_S over their mean.
    """
    return [x * PROBE_REF_S * 2 / (a + b)
            for x, a, b in zip(raw, probes, probes[1:])]


def run_timed(w, seconds: float, checker: Checker) -> dict:
    w.warm()
    setups: list[float] = []
    setup_probes = [probe_seconds()]
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_BUDGET_S
                                      and len(setups) < SETUP_MAX):
        w.reset()
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)
        setup_probes.append(probe_seconds())
    walls, cpus, ref_walls, ref_cpus, peaks = [], [], [], [], []
    all_probes: list[float] = []
    start = time.perf_counter()
    while True:
        w.prepare()
        gc.collect()
        ops, probes = w.repetition()
        all_probes += probes
        walls.append(sum(op.seconds for op in ops))
        cpus.append(sum(op.cpu for op in ops))
        ref_walls.append(sum(_reference([op.seconds for op in ops], probes)))
        ref_cpus.append(sum(_reference([op.cpu for op in ops], probes)))
        peaks.append(max(op.maxrss_kb for op in ops) / 1024)
        checker.check(ops)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    stats = {"setup_s": _stats(_reference(setups, setup_probes)),
             "wall_s": _stats(ref_walls),
             "methods_per_s": _stats([w.methods / x for x in ref_walls]),
             "cpu_s": _stats(ref_cpus),
             "peak_rss_mb": _stats(peaks)}
    raw = {"setup_s": _stats(setups), "wall_s": _stats(walls),
           "cpu_s": _stats(cpus), "probe_s": _stats(setup_probes + all_probes)}
    values = {name: s["median"] for name, s in stats.items()}
    values["methods_per_s"] = w.methods / values["wall_s"]
    values["ok_frac"] = 1 - len(checker.failures) / checker.attempted
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in END_TO_END.items()}
    return {"metrics": metrics, "stats": stats, "raw": raw,
            "regime": checker.regime,
            "failed_frac": len(checker.failures) / checker.attempted}


def _import_seconds(env: dict, cwd: Path) -> float:
    """Median time to import codecorpus.cli in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import codecorpus.cli; "
             "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              cwd=cwd, capture_output=True, text=True,
                              check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def run_traced(w, checker: Checker, spans_path: Path) -> dict:
    import codecorpus.cli  # noqa: F401  imported before any timing
    w.warm()
    w.setup()
    import_s = _import_seconds(w.ctx.env, w.ctx.work)

    w.prepare()
    gc.collect()
    t0 = time.perf_counter()
    ops = w.traced_repetition(lambda name: nullcontext())
    untraced = time.perf_counter() - t0
    checker.check(ops)

    tracer = Tracer()
    w.prepare()
    gc.collect()
    tracer.install(SPECS)
    try:
        t0 = time.perf_counter()
        ops = w.traced_repetition(tracer.span)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    checker.check(ops)
    tracer.write(spans_path)
    values = layer_metrics(tracer, traced, untraced, import_s)
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in LAYER_METRICS.items()}
    own, _calls, _root = tracer.self_times()
    return {"metrics": metrics, "regime": checker.regime,
            "untraced_wall_s": untraced,
            "traced_wall_s": traced, "hooks_s": own.get("trace.hooks", 0.0),
            "failed_frac": len(checker.failures) / checker.attempted}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CODECORPUS_WORKSPACE", None)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    work = OUT / "work" / f"{name}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(work=work, seed=seed, tiny=tiny, env=_child_env())
    w = WORKLOADS[name](ctx)
    checker = Checker(w, _recorded_digest(name, seed, tiny))
    stem = f"{name}-seed{seed}-trace{int(trace)}" + ("-tiny" if tiny else "")
    try:
        out = run_traced(w, checker, results / f"{stem}-spans.jsonl") \
            if trace else run_timed(w, seconds, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.update(workload=name, seed=seed, trace=int(trace), tiny=tiny,
               seconds=seconds, methods=w.methods,
               attempted=checker.attempted, failed=len(checker.failures),
               failures=checker.failures, digests=checker.digests,
               expected_digest=checker.expected,
               env=_environment(seed))
    (results / f"{stem}.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")
    return out


def _row(out: dict) -> str:
    """One line per workload; a traced run's many metrics wrap, 4 a line."""
    cells = []
    for name, m in out["metrics"].items():
        s = out.get("stats", {}).get(name)
        spread = f" [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}" \
            if s and name == "wall_s" else ""
        cells.append(f"{name}={m['value']:.6g} {m['unit']}{spread}")
    cells.append(f"failed_frac={out['failed_frac']:.4g} 1")
    if "raw" in out:
        cells.append(f"(measured wall_s={out['raw']['wall_s']['median']:.6g}"
                     f" s, probe_s={out['raw']['probe_s']['median']:.4g} s)")
    width = 4 if out["trace"] else len(cells)
    lines = ["  ".join(cells[i:i + width])
             for i in range(0, len(cells), width)]
    return "\n".join(f"{out['workload'] if i == 0 else '':<13}  {line}"
                     for i, line in enumerate(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test corpus sizes; digests unchecked")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "codecorpus" / "__init__.py").is_file():
        print(f"error: no codecorpus source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 1

    outs = []
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.tiny)
        outs.append(out)
        print(_row(out))
        if out.get("regime"):
            print(f"{'':<13}  regime: {json.dumps(out['regime'])}")
        for failure in out["failures"][:5]:
            print(f"{'':<13}  FAILED {failure}")
    print("env: " + json.dumps(outs[0]["env"], sort_keys=True))
    if len(outs) == 1:
        metrics = outs[0]["metrics"]
    else:
        metrics = {f"{o['workload']}.{k}": v
                   for o in outs for k, v in o["metrics"].items()}
    failed = sum(o["failed"] for o in outs)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(o["attempted"] for o in outs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
