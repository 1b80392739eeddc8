"""The four benchmark workloads: set-up, one timed repetition, and checks.

A workload writes everything under its own work directory. `warm()`
byte-compiles the package once, untimed. `setup()` builds the inputs (and,
for `incremental`, the base workspace) and counts the methods of the
corpus; `reset()`, untimed, removes what an earlier `setup()` wrote.
`prepare()` restores the state a repetition starts from; it is not timed.
`repetition()` is the timed part and returns one `Op` per operation and
the CPU-speed probes (`probe_seconds`) taken before every operation and
after the last one, outside the timed operations. Checking an `Op` happens
after the clock stops, in `check_ops()`, `tree_digest()` and `regime()`.

Workloads that drive the command line start each command as a fresh
`python -m codecorpus` process, one at a time, never with `--parallelism`
above 1. `long_methods` runs each repetition in one fresh interpreter that
imports the modules first and then times the stages, so its peak resident
set is the library caller's own:

    python3 bench/workloads.py WORK_DIR SEED

The same command lists and stages can run in this process (through
`cli.main` for commands), which the traced run and the digest recorder use.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import longgen

# CPU-speed probe: a fixed pure-Python loop of PROBE_LOOPS steps.
PROBE_LOOPS = 200_000
# Fixture corpus scaled for `scaled_cli`: every bucket_classes count x4.
SCALE = 4
STUDIES = ("calls", "windows", "bias")
INCREMENTAL_PROJECT = "textzoo"
PROPS_KEY = "GRADE"


@dataclass
class Op:
    """One operation of a repetition: a CLI command or a library stage."""

    label: str
    exit_code: int
    summary: dict | None
    error: str = ""
    maxrss_kb: int = 0
    seconds: float = 0.0    # wall time of the operation
    cpu: float = 0.0        # its user + system CPU time


@dataclass
class Context:
    """What a workload needs from the benchmark run."""

    work: Path          # this workload's scratch directory
    seed: int
    tiny: bool = False  # smoke-test sizes
    env: dict = field(default_factory=dict)


def probe_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast this CPU runs just now."""
    t0 = time.perf_counter()
    table: dict = {}
    total = 0
    for k in range(PROBE_LOOPS):
        total += k * k
        table[k & 1023] = total & 0xFFFF
    return time.perf_counter() - t0


def _summary(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        value = json.loads(lines[-1])
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _spawn(ctx: Context, argv: list[str], label: str) -> Op:
    """`python argv...` in a fresh interpreter; records exit and peak RSS."""
    err_path = ctx.work / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv],
                                stdout=subprocess.PIPE, stderr=err,
                                env=ctx.env, cwd=ctx.work)
        out = proc.stdout.read()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = "" if proc.returncode == 0 else \
        err_path.read_text(errors="replace")[-400:]
    return Op(label, proc.returncode,
              _summary(out.decode("utf-8", "replace")), error,
              usage.ru_maxrss, seconds, usage.ru_utime + usage.ru_stime)


def run_cli(ctx: Context, args: list[str], ws: Path) -> Op:
    """One command as a fresh `python -m codecorpus` process."""
    return _spawn(ctx, ["-m", "codecorpus", args[0], "-w", str(ws),
                        *args[1:]], _label(args))


def run_cli_inprocess(args: list[str], ws: Path) -> Op:
    """The same command through `codecorpus.cli.main` in this process."""
    from codecorpus import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([args[0], "-w", str(ws), *args[1:]])
    return Op(_label(args), code, _summary(buf.getvalue()))


def _label(args: list[str]) -> str:
    """`cli.<command>` names: `repr`, `taskgen.call-mask`, `report.bias`."""
    if args[0] == "taskgen":
        return f"taskgen.{args[args.index('--task') + 1]}"
    if args[0] == "report":
        return f"report.{args[args.index('--study') + 1]}"
    return args[0]


def tree_digest(ws: Path, corpus: Path) -> str:
    """SHA-256 over every workspace file's relative path and bytes.

    `workspace.json` records the absolute corpus root, which differs per
    checkout, so that one string is replaced before hashing.
    """
    h = hashlib.sha256()
    root_text = str(corpus.resolve()).encode()
    for path in sorted(p for p in ws.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "workspace.json":
            data = data.replace(root_text, b"<corpus>")
        h.update(path.relative_to(ws).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def cli_sequence(corpus: Path, seed: int) -> list[list[str]]:
    """The 11-command sequence of acceptance criterion 9, seeded."""
    s = str(seed)
    return [["catalog", "--corpus", str(corpus), "--seed", s],
            ["repr"], ["metrics"], ["callgraph"],
            ["taskgen", "--task", "property", "--seed", s],
            ["taskgen", "--task", "call-mask", "--seed", s],
            ["taskgen", "--task", "mutation", "--seed", s],
            ["tokenstats"],
            *(["report", "--study", st] for st in STUDIES)]


def check_ops(ops: list[Op], methods: int, project_methods: int = 0
              ) -> list[str]:
    """One message per failed operation; an empty list means all passed."""
    failures = []
    for op in ops:
        problem = _check_op(op, methods, project_methods)
        if problem:
            failures.append(f"{op.label}: {problem}")
    return failures


def _check_op(op: Op, n: int, project_n: int) -> str:
    if op.exit_code != 0:
        return f"exit {op.exit_code} {op.error.strip()}"
    s = op.summary
    if s is None:
        return "last stdout line is not a JSON summary"
    want: dict = {}
    if op.label in ("catalog", "stage_catalog"):
        want = {"methods": n, "skipped_files": 0}
    elif op.label in ("repr", "stage_representations"):
        counts = s.get("methods_per_type", {})
        if len(counts) != 7 or set(counts.values()) != {n}:
            return f"methods_per_type {counts} != 7 x {n}"
    elif op.label in ("metrics", "stage_metrics", "report.bias"):
        want = {"methods": n}
    elif op.label in ("taskgen.property", "taskgen.mutation"):
        want = {"samples": n}
    elif op.label == "add-project":
        want = {"methods": project_n, "skipped_files": 0}
    elif op.label == "props-import":
        want = {"stored": n, "rejected": 0}
    elif op.label == "report.calls":
        if abs(s.get("total_percent", 0) - 100) > 0.05:
            return f"total_percent {s.get('total_percent')} != 100"
    elif op.label in ("callgraph", "stage_callgraph", "taskgen.call-mask",
                      "tokenstats", "stage_tokenstats"):
        key = {"tokenstats": "size_records", "stage_tokenstats":
               "size_records", "taskgen.call-mask": "samples"}.get(
                   op.label, "edges")
        if not s.get(key):
            return f"{key} is {s.get(key)!r}, expected > 0"
    for key, value in want.items():
        if s.get(key) != value:
            return f"{key} = {s.get(key)!r}, expected {value!r}"
    return ""


def _rows(path: Path) -> list[list[str]]:
    """Data rows of a workspace CSV table; raises ValueError if it has none."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if not rows:
        raise ValueError("no data rows")
    return rows


def regime(ws: Path) -> tuple[dict, list[str]]:
    """What the corpus exercises, read back from the workspace artifacts.

    Terminals per method is the NMTK token count; `unique_lines` counts
    distinct lines of the method texts BPE trains on; `capped_methods`
    counts C2SQ payloads at the 200-context cap (C2SQ, because its
    subtokenized terminals never contain spaces). Returns what could be
    read and one message per missing or malformed table.
    """
    csv.field_size_limit(1 << 30)
    out: dict = {}
    problems: list[str] = []
    tables = ws / "properties" / "NMTK.csv", ws / "representations" / \
        "TEXT.csv", ws / "representations" / "C2SQ.csv"
    for path in tables:
        try:
            rows = _rows(path)
            if path.stem == "NMTK":
                sizes = sorted(int(r[1]) for r in rows)
                q = statistics.quantiles(sizes, n=4) if len(sizes) > 1 \
                    else sizes * 3
                out["terminals"] = {"min": sizes[0], "q1": q[0],
                                    "median": q[1], "q3": q[2],
                                    "max": sizes[-1]}
            elif path.stem == "TEXT":
                lines = "".join(r[1] for r in rows).splitlines(True)
                out["lines"] = len(lines)
                out["unique_lines"] = len(set(lines))
            else:
                out["capped_methods"] = sum(1 for r in rows
                                            if r[1].count(" ") == 200)
        except (OSError, ValueError, IndexError, csv.Error) as exc:
            problems.append(f"{path.name}: {type(exc).__name__}: {exc}")
    return out, problems


def declared_methods(corpus: Path) -> int:
    """Method and constructor declarations, counted from the source text.

    Independent of the parser: every member of the fixture and generated
    corpora starts on a line of its own at class indentation and ends it
    with `{` or `);`.
    """
    decl = re.compile(r"^    \w[\w<>, ]*\([^)]*\)\s*(\{|;)\s*$")
    return sum(1 for path in corpus.rglob("*.java")
               for line in path.read_text(encoding="utf-8").splitlines()
               if decl.match(line))


def write_fixture(corpus: Path, tiny: bool, scale: int = 1) -> None:
    """The fixture corpus with every bucket_classes count times `scale`."""
    from codecorpus.fixturegen import (DEFAULT_BUCKET_CLASSES,
                                       write_fixture_corpus)
    write_fixture_corpus(corpus, {k: 2 if tiny else v * scale
                                  for k, v in DEFAULT_BUCKET_CLASSES.items()})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.corpus = ctx.work / "corpus"
        self.ws = ctx.work / "ws"
        self.methods = 0
        self.project_methods = 0

    def warm(self) -> None:
        """Byte-compile and cache the package, as an installed one would be."""
        subprocess.run([sys.executable, "-c", "import codecorpus.cli"],
                       env=self.ctx.env, cwd=self.ctx.work, check=True)

    def reset(self) -> None:
        shutil.rmtree(self.corpus, ignore_errors=True)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        shutil.rmtree(self.ws, ignore_errors=True)

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def repetition(self) -> tuple[list[Op], list[float]]:
        ops, probes = [], []
        for args in self.commands():
            probes.append(probe_seconds())
            ops.append(run_cli(self.ctx, args, self.ws))
        probes.append(probe_seconds())
        return ops, probes

    def traced_repetition(self, span) -> list[Op]:
        """The repetition in-process, so the tracer sees every call.

        `span(name)` is a context manager opened around each command as
        `cli.<command>`.
        """
        ops = []
        for args in self.commands():
            with span(f"cli.{_label(args)}"):
                ops.append(run_cli_inprocess(args, self.ws))
        return ops

    def check(self, ops: list[Op]) -> list[str]:
        return check_ops(ops, self.methods, self.project_methods)


class FixtureCli(Workload):
    """Criterion-9 sequence, one subprocess per command, fixture corpus."""

    name = "fixture_cli"
    scale = 1

    def setup(self) -> None:
        write_fixture(self.corpus, self.ctx.tiny, self.scale)
        self.methods = declared_methods(self.corpus)

    def commands(self) -> list[list[str]]:
        return cli_sequence(self.corpus, self.ctx.seed)


class ScaledCli(FixtureCli):
    """The same sequence on the fixture corpus with bucket_classes x4."""

    name = "scaled_cli"
    scale = SCALE


class LongMethods(Workload):
    """Library use on long generated methods, modules already imported."""

    name = "long_methods"
    stages = ("stage_catalog", "stage_representations", "stage_metrics",
              "stage_callgraph", "stage_tokenstats")

    def setup(self) -> None:
        from codecorpus.catalog import catalog_project
        longgen.write(self.corpus, longgen.generate(self.ctx.seed,
                                                    self.ctx.tiny))
        self.methods = declared_methods(self.corpus)
        for project in sorted(self.corpus.iterdir()):
            data = catalog_project(project, corpus_root=self.corpus)
            if data.diagnostics:
                raise RuntimeError(f"generated corpus left the parser "
                                   f"subset: {data.diagnostics[:3]}")

    def repetition(self) -> tuple[list[Op], list[float]]:
        """The stages in a fresh interpreter (see `_child`); every stage
        carries that interpreter's peak resident set."""
        child = _spawn(self.ctx, [__file__, str(self.ctx.work),
                                  str(self.ctx.seed)], "long_methods")
        if child.exit_code != 0 or child.summary is None:
            probe = probe_seconds()
            return ([Op(label, child.exit_code or 3, None,
                        child.error or "no JSON result")
                     for label in self.stages],
                    [probe] * (len(self.stages) + 1))
        ops = [Op(**op) for op in child.summary["ops"]]
        for op in ops:
            op.maxrss_kb = child.maxrss_kb
        return ops, child.summary["probes"]

    def traced_repetition(self, span) -> list[Op]:
        return self.run_stages()

    def run_stages(self, probes: list[float] | None = None) -> list[Op]:
        """The timed stages in this process; probes the CPU between them
        when `probes` is a list."""
        from codecorpus import pipeline as pl
        ws = pl.Workspace(self.ws)
        cfg = pl.WorkspaceConfig(corpus_root=str(self.corpus),
                                 seed=self.ctx.seed)
        state: dict = {}
        parse_corpus = pl.parse_corpus

        def keep_parse(c):
            # stage_catalog parses once; keep its result instead of
            # reparsing, as a library caller holding the objects would.
            state["datas"] = parse_corpus(c)
            return state["datas"]

        def catalog():
            pl.parse_corpus = keep_parse
            try:
                summary = pl.stage_catalog(ws, cfg)
            finally:
                pl.parse_corpus = parse_corpus
            state["cat"] = pl.merged_catalog(state["datas"])
            return summary

        calls = {
            "stage_catalog": catalog,
            "stage_representations": lambda: pl.stage_representations(
                ws, state["datas"], list(pl.REPRESENTATION_TYPES),
                cfg.seed),
            "stage_metrics": lambda: pl.stage_metrics(
                ws, state["datas"], state["cat"]),
            "stage_callgraph": lambda: pl.stage_callgraph(
                ws, state["datas"], state["cat"]),
            "stage_tokenstats": lambda: pl.stage_tokenstats(
                ws, state["datas"], state["cat"]),
        }
        ops = []
        for label in self.stages:
            if probes is not None:
                probes.append(probe_seconds())
            t0, cpu0 = time.perf_counter(), time.process_time()
            try:
                op = Op(label, 0, calls[label]())
            except Exception as exc:  # counted as a failed operation
                op = Op(label, 3, None, f"{type(exc).__name__}: {exc}")
            op.seconds = time.perf_counter() - t0
            op.cpu = time.process_time() - cpu0
            ops.append(op)
        if probes is not None:
            probes.append(probe_seconds())
        return ops


class Incremental(Workload):
    """add-project of one project beside metadata-only reads."""

    name = "incremental"

    def reset(self) -> None:
        for d in (self.corpus, self.ctx.work / "held", self.ctx.work / "base"):
            shutil.rmtree(d, ignore_errors=True)

    def setup(self) -> None:
        from codecorpus.catalog import catalog_project, read_metadata
        work = self.ctx.work
        write_fixture(self.corpus, self.ctx.tiny)
        self.methods = declared_methods(self.corpus)
        held = work / "held" / INCREMENTAL_PROJECT
        held.parent.mkdir(parents=True)
        shutil.move(self.corpus / INCREMENTAL_PROJECT, held)
        self.project_methods = declared_methods(held)

        base = work / "base"
        for args in cli_sequence(self.corpus, self.ctx.seed):
            op = run_cli_inprocess(args, base)
            if op.exit_code != 0:
                raise RuntimeError(f"base workspace: {op.label} failed")
        ids = [m.method_id for m in read_metadata(base / "metadata").methods]
        ids += [m.method_id for m in
                catalog_project(held, corpus_root=held.parent).methods]
        rng = random.Random(f"incremental:{self.ctx.seed}")
        table = ["method_id,value"] + [f"{mid},{rng.randrange(100)}"
                                       for mid in sorted(ids)]
        (work / "grade.csv").write_text("\n".join(table) + "\n")

    def prepare(self) -> None:
        work = self.ctx.work
        shutil.rmtree(self.ws, ignore_errors=True)
        shutil.rmtree(self.corpus / INCREMENTAL_PROJECT, ignore_errors=True)
        shutil.copytree(work / "base", self.ws)
        shutil.copytree(work / "held" / INCREMENTAL_PROJECT,
                        self.corpus / INCREMENTAL_PROJECT)

    def commands(self) -> list[list[str]]:
        return [["add-project", str(self.corpus / INCREMENTAL_PROJECT)],
                ["props-import", str(self.ctx.work / "grade.csv"),
                 "--key", PROPS_KEY],
                ["taskgen", "--task", "call-mask", "--augment",
                 "--seed", str(self.ctx.seed)],
                *(["report", "--study", st] for st in STUDIES)]


WORKLOADS = {w.name: w for w in (FixtureCli, ScaledCli, LongMethods,
                                 Incremental)}


def _child(work: str, seed: str) -> int:
    """One timed `long_methods` repetition; prints its ops and probes."""
    import codecorpus.pipeline  # noqa: F401  imported before any timing
    w = LongMethods(Context(work=Path(work), seed=int(seed)))
    probes: list[float] = []
    ops = w.run_stages(probes)
    print(json.dumps({"ops": [vars(op) for op in ops], "probes": probes}))
    return 0


if __name__ == "__main__":
    sys.exit(_child(*sys.argv[1:]))
