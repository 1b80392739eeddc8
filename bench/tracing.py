"""In-process tracer for the per-layer metrics.

The tracer replaces public functions of the `codecorpus` modules where
their callers bind them (for example `codecorpus.pipeline.extract_paths`,
imported from `pathcontexts`, or `codecorpus.catalog.file_view`) with
wrappers that record spans; the source tree is not edited. A span is
`[name, start_ns, end_ns, parent]`, kept in memory and written out when
the run ends. Self time is a span's duration minus that of its children.

Counting hooks (parser nodes, path pairs, BPE merges, ...) run in their own
`trace.hooks` span beside the function's span, so their cost shows up as
tracing overhead, not as time of the layer they count.

Two path-context counts are not observed inside the pair loop, which calls
no function the tracer could wrap. `pathcontexts.pairs_considered` is the
number of terminal pairs the all-pairs loop visits, t(t-1)/2 per call for
the t terminals of the input AST: a change that prunes that loop must count
its pairs anew. `pathcontexts.capped_methods` counts the `extract_paths`
calls that sampled down to `max_contexts`, seen as the `random.Random` the
module creates only then (two calls per method where `repr` runs).
"""

import functools
import importlib
import json
import random
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

HOOKS = "trace.hooks"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0,
               self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            parent = stack[-1] if stack else -1
            rec = [name, time.perf_counter_ns(), 0, parent]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if after:
                with tracer.span(HOOKS):
                    after(tracer.counts, args, kwargs, result, state)
            return result
        return traced

    def install(self, specs) -> None:
        """Wrap each `(module, function, before, after)` at every binding."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "codecorpus" or n.startswith("codecorpus.")]
        for module_name, func, before, after in specs:
            module = importlib.import_module(f"codecorpus.{module_name}")
            original = getattr(module, func)
            wrapped = self.wrap(f"{module_name}.{func}", original,
                                before, after)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        self._count_sampling()

    def _count_sampling(self) -> None:
        """Give `pathcontexts` a `random` whose `Random` counts its uses."""
        from codecorpus import pathcontexts
        counts = self.counts

        class CountingRandom(random.Random):
            def __init__(self, *args):
                counts["pathcontexts.capped_methods"] += 1
                super().__init__(*args)

        shim = types.ModuleType("random")
        shim.__dict__.update(vars(random))
        shim.Random = CountingRandom
        self._patched.append((pathcontexts, "random", pathcontexts.random))
        pathcontexts.random = shim

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> tuple[dict, Counter, int]:
        """Self seconds and call count per span name, and root nanoseconds."""
        child_ns = [0] * len(self.spans)
        root_ns = 0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                root_ns += end - start
        own: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            own[name] += (end - start - child_ns[i]) / 1e9
            calls[name] += 1
        return own, calls, root_ns

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# Counting hooks
# ---------------------------------------------------------------------------

def _nodes(counts, args, kwargs, view, _state):
    counts["parser.nodes"] += len(view.ast)


def _paths(counts, args, kwargs, paths, _state):
    ast = args[0] if args else kwargs["ast"]
    t = sum(1 for ti in ast.token_indices if ti is not None)
    counts["pathcontexts.pairs_considered"] += t * (t - 1) // 2
    counts["pathcontexts.paths_returned"] += len(paths)


def _graph_edges(counts, args, kwargs, graph, _state):
    counts["featuregraph.edges"] += sum(len(e) for e in graph.edges.values())


def _call_edges(counts, args, kwargs, graph, _state):
    counts["callgraph.edges"] += len(graph.edges)


def _bpe(counts, args, kwargs, vocab, _state):
    text = args[0] if args else kwargs["corpus_text"]
    counts["tokenstats.merges"] += len(vocab.merges)
    counts["tokenstats.unique_lines"] += len(set(
        text.splitlines(keepends=True)))


def _cache_size(args):
    return len(getattr(args[0], "_line_cache", ()))


def _encode(counts, args, kwargs, _n, before):
    lines = len(args[1].splitlines())
    misses = len(getattr(args[0], "_line_cache", ())) - before
    counts["tokenstats.lines_encoded"] += lines
    counts["tokenstats.line_cache_hits"] += lines - misses


def _written(counts, args, kwargs, result, _state):
    from pathlib import Path
    base = Path(args[0])
    paths = [base.with_suffix(".csv"), base.with_suffix(".txt")] \
        if not base.suffix else [base]
    counts["io.bytes_written"] += sum(p.stat().st_size for p in paths
                                      if p.is_file())


# Table writers and readers of every module; their self times make up
# io.csv_write_s and io.csv_read_s.
WRITERS = [("catalog", "_write_csv"), ("pipeline", "_write_repr_csv"),
           ("pipeline", "_write_table"), ("callgraph", "write_callgraph_csv"),
           ("taskgen", "write_task_csv"), ("tokenstats", "write_sizes_csv"),
           ("tokenstats", "write_fit_csv"), ("tokenstats", "write_vocab")]
READERS = [("catalog", "_read_csv"), ("pipeline", "read_repr_csv"),
           ("callgraph", "read_callgraph_csv"), ("taskgen", "read_task_csv"),
           ("tokenstats", "read_sizes_csv")]

STAGES = ("catalog", "representations", "metrics", "callgraph", "taskgen",
          "tokenstats", "report", "props_import", "add_project")

SPECS = [
    ("pipeline", "load_corpus", None, None),
    *(("pipeline", f"stage_{s}", None, None) for s in STAGES),
    ("catalog", "catalog_project", None, None),
    ("catalog", "read_metadata", None, None),
    ("catalog", "write_metadata", None, None),
    ("parser", "file_view", None, _nodes),
    ("lexer", "lex", None, None),
    ("pathcontexts", "extract_paths", None, _paths),
    ("pathcontexts", "to_c2vc", None, None),
    ("pathcontexts", "to_c2sq", None, None),
    ("featuregraph", "build_feature_graph", None, _graph_edges),
    ("featuregraph", "ast_graph", None, None),
    ("featuregraph", "graph_payload", None, None),
    ("metrics", "compute_metrics", None, None),
    ("callgraph", "build_callgraph", None, _call_edges),
    ("callgraph", "arg_name_maps", None, None),
    ("callgraph", "n_hop_context", None, None),
    ("taskgen", "make_property_task", None, None),
    ("taskgen", "make_call_masking_task", None, None),
    ("taskgen", "make_mutation_task", None, None),
    ("taskgen", "evaluate_exact_match", None, None),
    ("tokenstats", "train_bpe", None, _bpe),
    ("tokenstats", "bpe_encode_len", _cache_size, _encode),
    ("tokenstats", "entity_sizes", None, None),
    *((m, f, None, _written) for m, f in WRITERS),
    *((m, f, None, None) for m, f in READERS),
]

# `cli.<command>` spans are opened by the benchmark around each command.
CLI_COMMANDS = ("catalog", "repr", "metrics", "callgraph", "taskgen.property",
                "taskgen.call-mask", "taskgen.mutation", "tokenstats",
                "report.calls", "report.windows", "report.bias",
                "add-project", "props-import")

# Per-layer metric -> unit, in report order. `_s` names are self times.
LAYER_METRICS = {
    "cli.import_s": "s",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "pipeline.load_corpus_s": "s",
    "pipeline.load_corpus.calls": "count",
    **{f"pipeline.stage_{s}_self_s": "s" for s in STAGES},
    "catalog.catalog_project_s": "s",
    "catalog.read_metadata_s": "s",
    "catalog.write_metadata_s": "s",
    "parser.file_view_s": "s",
    "parser.nodes": "count",
    "parser.nodes_per_s": "1/s",
    "lexer.lex_s": "s",
    "lexer.lex.calls": "count",
    "pathcontexts.extract_paths_s": "s",
    "pathcontexts.extract_paths.calls": "count",
    "pathcontexts.pairs_considered": "count",
    "pathcontexts.paths_returned": "count",
    "pathcontexts.capped_methods": "count",
    "pathcontexts.render_s": "s",
    "featuregraph.build_feature_graph_s": "s",
    "featuregraph.ast_graph_s": "s",
    "featuregraph.graph_payload_s": "s",
    "featuregraph.edges": "count",
    "metrics.compute_metrics_s": "s",
    "callgraph.build_callgraph_s": "s",
    "callgraph.arg_name_maps_s": "s",
    "callgraph.n_hop_context_s": "s",
    "callgraph.read_callgraph_csv_s": "s",
    "callgraph.edges": "count",
    "taskgen.make_property_task_s": "s",
    "taskgen.make_call_masking_task_s": "s",
    "taskgen.make_mutation_task_s": "s",
    "taskgen.evaluate_exact_match_s": "s",
    "tokenstats.train_bpe_s": "s",
    "tokenstats.merges": "count",
    "tokenstats.unique_lines": "count",
    "tokenstats.bpe_encode_len_s": "s",
    "tokenstats.line_cache_hit_ratio": "ratio",
    "tokenstats.entity_sizes_s": "s",
    "io.csv_write_s": "s",
    "io.csv_read_s": "s",
    "io.bytes_written": "bytes",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  import_s: float) -> dict:
    """Every LAYER_METRICS value from one traced repetition.

    A layer that the workload never calls reads 0.
    """
    own, calls, root_ns = tracer.self_times()
    c = tracer.counts
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name.endswith(".calls"):
            out[name] = calls[name[:-len(".calls")]]
        elif unit in ("count", "bytes"):
            out[name] = c[name]
        elif name.endswith("_self_s"):
            out[name] = own.get(name[:-len("_self_s")], 0.0)
        else:
            out[name] = own.get(name[:-len("_s")], 0.0)
    file_view_s = own.get("parser.file_view", 0.0)
    encoded = c["tokenstats.lines_encoded"]
    out.update({
        "cli.import_s": import_s,
        "parser.nodes_per_s":
            c["parser.nodes"] / file_view_s if file_view_s else 0.0,
        "pathcontexts.render_s": own.get("pathcontexts.to_c2vc", 0.0)
            + own.get("pathcontexts.to_c2sq", 0.0),
        "tokenstats.line_cache_hit_ratio":
            c["tokenstats.line_cache_hits"] / encoded if encoded else 0.0,
        "io.csv_write_s": sum(own.get(f"{m}.{f}", 0.0) for m, f in WRITERS),
        "io.csv_read_s": sum(own.get(f"{m}.{f}", 0.0) for m, f in READERS),
        "unattributed_s": traced_wall - root_ns / 1e9,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return out
