"""Workspace orchestration: each pipeline stage reads the corpus plus
earlier artifacts and writes its own files under the workspace directory.

`ARTIFACT_WRITERS` names the command that writes each top-level entry of
the workspace (the README's "Workspace layout" says what each holds), and
`PROPERTY_WRITERS` the command that writes each computed property table.
`Workspace.read` reads every stored table, so any problem names its writer.

The corpus is loaded one way: `parse_corpus` catalogs every project once
(one `ProjectData` each, holding the method parses and the class file
views) and `merged_catalog` joins their rows into one sorted `Catalog`.
Stages take those two and never re-join classes to files or reparse;
`load_corpus` reads the four stored metadata tables, then checks that the
reparse gives them row for row, and `add-project` reuses the same single
parse. Property values are read by `catalog.property_value`; each stage
prints its own notes (diagnostics, empty task splits) on stderr.

Every writer writes its rows in key order (`repr` builds each payload as it
writes it), so the same corpus and seed reproduce identical bytes. Every
workspace file is written through `tables`, so it is replaced whole or not
at all, and each reader gives `tables` its table's key (an entity, a method,
a call site's caller, line and column, a sample, or a size's entity,
granularity and tokenizer) and the catalog, which checks each id in the same
pass. A malformed or truncated table, a repeated key or an uncataloged id is
an `InputError` naming `file:line`; so is a `workspace.json` that does not
hold a config, naming the file (CLI exit 2 for all).
"""

import json
import sys
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, NamedTuple

from . import metrics as metrics_mod
from .catalog import (CALLGRAPH_KEYS, Catalog, METADATA_TABLES, METRIC_KEYS,
                      ProjectData, catalog_project, java_entries,
                      property_value, read_metadata, read_property_csv,
                      validate_property_key, write_metadata,
                      write_property_csv)
from .callgraph import (arg_name_maps, build_callgraph,
                        classify_distribution, connectivity_props,
                        n_hop_context, read_callgraph_csv,
                        write_callgraph_csv)
from .errors import (EmptyProjectError, InputError, InvalidArgumentError,
                     MissingArtifactError)
from .featuregraph import ast_graph, build_feature_graph, graph_payload
from .identity import EntityId
from .lexer import tkna_text, tknb_text
from .parser import MethodSource
from .pathcontexts import (clear_render_caches, extract_paths, to_c2sq,
                           to_c2vc)
from .tables import read_table, write_table, write_text
from .taskgen import (SPLIT_NAMES, augment_with_context,
                      baseline_context_unigram, baseline_most_frequent,
                      bias_table, evaluate_exact_match,
                      make_call_masking_task, make_mutation_task,
                      make_property_task, write_task_csv)
from .tokenstats import (TOKENIZER_TAGS, english_sample_text,
                         entity_sizes, read_sizes_csv, tokenizer_ratio,
                         train_bpe, window_fit, write_fit_csv,
                         write_sizes_csv, write_vocab)

# Representation type -> payload builder, called with one method, its
# class's fields, the formal-argument names of its resolved call sites (FTGR
# only) and the seed. Builders name module globals, so each call goes
# through the current binding.
_PAYLOAD_BUILDERS = {
    "TEXT": lambda method, fields, argmap, seed: method.text,
    "TKNA": lambda method, fields, argmap, seed: tkna_text(method.tokens),
    "TKNB": lambda method, fields, argmap, seed: tknb_text(method.tokens),
    "ASTS": lambda method, fields, argmap, seed:
        graph_payload(ast_graph(method)),
    "C2VC": lambda method, fields, argmap, seed:
        to_c2vc(method, extract_paths(method.ast, seed=seed)),
    "C2SQ": lambda method, fields, argmap, seed:
        to_c2sq(method, extract_paths(method.ast, seed=seed)),
    "FTGR": lambda method, fields, argmap, seed:
        graph_payload(build_feature_graph(method, fields, argmap.get)),
}
REPRESENTATION_TYPES = tuple(_PAYLOAD_BUILDERS)
REPR_HEADER = ["method_id", "payload"]
STRICTNESS = ("skip-unparseable", "fail-fast")
TASKS = ("property", "call-mask", "mutation")
STUDIES = ("calls", "windows", "bias")

# The command that writes each top-level workspace entry. A property table
# is written by the command `PROPERTY_WRITERS` names for its key, and by
# `props-import` for any other key.
ARTIFACT_WRITERS = {
    "workspace.json": "catalog", "metadata": "catalog",
    "representations": "repr", "properties": "props-import",
    "callgraph.csv": "callgraph", "tasks": "taskgen",
    "tokenstats": "tokenstats", "reports": "report",
}
PROPERTY_WRITERS = {**dict.fromkeys(METRIC_KEYS, "metrics"),
                    **dict.fromkeys(CALLGRAPH_KEYS, "callgraph")}


class WorkspaceConfig(NamedTuple):
    """What `workspace.json` holds; `WorkspaceConfig(**data)` raises
    TypeError on an unknown or a missing key."""

    corpus_root: str
    seed: int = 0
    strictness: str = "skip-unparseable"


class Workspace:
    def __init__(self, root):
        self.root = root = Path(root)
        self.config_path = root / "workspace.json"
        self.metadata_dir = root / "metadata"
        self.properties_dir = root / "properties"
        self.callgraph_path = root / "callgraph.csv"
        self.tokenstats_dir = root / "tokenstats"
        self.reports_dir = root / "reports"

    # -- config ---------------------------------------------------------------

    def save_config(self, cfg: WorkspaceConfig) -> None:
        if cfg.strictness not in STRICTNESS:
            raise InvalidArgumentError(
                f"strictness must be one of {STRICTNESS}")
        # "parallelism" is a fixed legacy field: it keeps workspace.json
        # byte-identical to the files older versions wrote.
        payload = {"corpus_root": cfg.corpus_root, "seed": cfg.seed,
                   "parallelism": 1, "strictness": cfg.strictness}
        write_text(self.config_path,
                   json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def load_config(self) -> WorkspaceConfig:
        """The saved config; a file that does not hold one is an InputError."""
        if not self.config_path.exists():
            raise InputError(f"no workspace at {self.root}; "
                             f"run `{self.writer(self.config_path)}` first")
        return self.read(self.config_path, _read_config)

    # -- paths ------------------------------------------------------------------

    def property_path(self, key: str) -> Path:
        return self.properties_dir / f"{key}.csv"

    def repr_path(self, rtype: str) -> Path:
        return self.root / "representations" / f"{rtype}.csv"

    def task_path(self, name: str) -> Path:
        return self.root / "tasks" / f"{name}.csv"

    def writer(self, path: Path) -> str:
        """The command that writes the workspace file at `path`."""
        entry = path.relative_to(self.root).parts[0]
        if entry == "properties":
            return PROPERTY_WRITERS.get(path.stem, ARTIFACT_WRITERS[entry])
        return ARTIFACT_WRITERS[entry]

    def read(self, path: Path, reader):
        """`reader(path)` for a workspace file or table directory. A missing
        table says to run its writer first; any other InputError names the
        file and says to re-run its writer."""
        try:
            return reader(path)
        except MissingArtifactError as exc:
            raise InputError(f"missing artifact {exc.path.name}; "
                             f"run `{self.writer(exc.path)}` first") from None
        except InputError as exc:
            text = str(exc) if path.name in str(exc) else f"{path}: {exc}"
            raise InputError(f"{text}; re-run `{self.writer(path)}`") from None


def _json_object(pairs: list) -> dict:
    """A JSON object; `json.loads` alone keeps a repeated key's last value."""
    keys = [key for key, _value in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"key {max(keys, key=keys.count)!r} is repeated")
    return dict(pairs)


def _read_config(path: Path) -> WorkspaceConfig:
    """The config in `path`; `Workspace.read` puts the file in each error."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"),
                          object_pairs_hook=_json_object)
    except ValueError as exc:  # bad JSON or UTF-8, or a repeated key
        raise InputError(f"not a workspace config: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"expected a JSON object, got {type(data).__name__}")
    data.pop("parallelism", None)
    try:
        cfg = WorkspaceConfig(**data)
    except TypeError as exc:  # unknown or missing keys
        raise InputError(f"not a workspace config: {exc}") from None
    # type(...) is int: a bool is an int too
    if not (isinstance(cfg.corpus_root, str) and type(cfg.seed) is int
            and cfg.strictness in STRICTNESS):
        raise InputError("not a workspace config: corpus_root must be a string,"
                         f" seed an integer, strictness one of {STRICTNESS}")
    return cfg


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------

def discover_projects(corpus_root: Path) -> list[Path]:
    root = Path(corpus_root)
    if not root.is_dir():
        raise InputError(f"corpus root is not a directory: {root}")
    out = [child for child in sorted(root.iterdir())
           if child.is_dir() and any(java_entries(str(child)))]
    if not out:
        raise InputError(f"no project directories with .java files in {root}")
    return out


def parse_corpus(cfg: WorkspaceConfig) -> list[ProjectData]:
    """Catalog every project once. A project with no cataloged classes (a
    strict run fails at its first bad file before that) is skipped: it
    stays in the list without rows, so its notes are reported, and
    `merged_catalog` leaves it out. A corpus with no cataloged class at
    all is an EmptyProjectError naming its root. A text that several files
    hold is lexed, parsed and summarized once per call: its files are
    twins that share the summary and the method views (`file_view`)."""
    strict = cfg.strictness == "fail-fast"
    root = Path(cfg.corpus_root)
    builds: dict = {}
    datas = [catalog_project(p, corpus_root=root, strict=strict, builds=builds)
             for p in discover_projects(root)]
    if not any(d.classes for d in datas):
        raise EmptyProjectError(f"no cataloged classes under {root}")
    return datas


def merged_catalog(datas: list[ProjectData]) -> Catalog:
    """One catalog over the rows of every project, in metadata order."""
    cat = Catalog([d.project for d in datas if d.classes],
                  [p for d in datas for p in d.packages],
                  [c for d in datas for c in d.classes],
                  [m for d in datas for m in d.methods])
    cat.sort()
    return cat


def all_sources(datas: list[ProjectData]) -> dict[EntityId, MethodSource]:
    out: dict[EntityId, MethodSource] = {}
    for d in datas:
        out.update(d.sources)
    return out


def load_corpus(ws: Workspace
                ) -> tuple[WorkspaceConfig, list[ProjectData], Catalog]:
    """Reparse the corpus recorded in the workspace config.

    The reparse must give the four stored metadata tables row for row, so
    a corpus edit that adds, removes or renames an entity or moves a
    method's lines fails loudly instead of mixing artifacts. An edit that
    keeps every row (a method body changed within its lines) passes. A
    missing or malformed metadata table is reported before any parse.
    """
    cfg = ws.load_config()
    stored = ws.read(ws.metadata_dir, read_metadata)
    datas = parse_corpus(cfg)
    cat = merged_catalog(datas)
    for name, _row, _key, _ints in METADATA_TABLES:
        pairs = zip_longest(getattr(stored, name), getattr(cat, name))
        line = next((n for n, (a, b) in enumerate(pairs, 2) if a != b), None)
        if line is not None:
            raise InputError(
                "corpus no longer matches the cataloged metadata: "
                f"{name}.csv:{line} differs from the reparse; "
                f"re-run `{ws.writer(ws.metadata_dir)}`")
    return cfg, datas, cat


def _report_skipped_files(datas: list[ProjectData]) -> int:
    """Print every diagnostic to stderr as a note, and a note for each
    skipped project; count the files that got no class row (each of them
    has a diagnostic)."""
    skipped = 0
    for d in datas:
        for diag in d.diagnostics:
            print(f"note: {diag.path}: {diag.message}", file=sys.stderr)
        if not d.classes:
            print(f"note: {d.project.project_path}: no cataloged classes; "
                  "project skipped", file=sys.stderr)
        skipped += len({diag.path for diag in d.diagnostics}
                       - {c.class_path for c in d.classes})
    return skipped


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_catalog(ws: Workspace, cfg: WorkspaceConfig) -> dict:
    cfg = cfg._replace(corpus_root=str(Path(cfg.corpus_root).resolve()))
    ws.save_config(cfg)
    datas = parse_corpus(cfg)
    cat = merged_catalog(datas)
    write_metadata(cat, ws.metadata_dir)
    return {"projects": len(cat.projects), "packages": len(cat.packages),
            "classes": len(cat.classes), "methods": len(cat.methods),
            "skipped_files": _report_skipped_files(datas), "seed": cfg.seed}


def _write_repr_csv(path: Path, rows: Iterable[tuple[str, str]]) -> None:
    """Write (method id, payload) rows as they come, in method-id order."""
    write_table(path, REPR_HEADER, rows)


def read_repr_csv(path, cat: Catalog | None = None) -> dict[EntityId, str]:
    """Payload per method id; a method id on two rows, or with `cat` one it
    does not catalog, is an InputError."""
    return dict(read_table(path, REPR_HEADER, key=("method_id",),
                           check=cat and (lambda row: cat.stray(row[0]))))


def stage_representations(ws: Workspace, datas: list[ProjectData],
                          types: list[str], seed: int) -> dict:
    types = list(dict.fromkeys(types))      # each once, in first order
    bad = [t for t in types if t not in REPRESENTATION_TYPES]
    if bad or not types:
        what = f"unknown representation types {bad}" if bad \
            else "no representation types given"
        raise InvalidArgumentError(
            f"{what}; valid: {', '.join(REPRESENTATION_TYPES)}")
    methods = sorted(((meta.method_id, d.sources[meta.method_id],
                       d.class_views[meta.class_id].classes[0].fields)
                      for d in datas for meta in d.methods),
                     key=lambda entry: entry[0])
    for rtype in types:
        build = _PAYLOAD_BUILDERS[rtype]
        argmaps = {mid: names for d in datas if rtype == "FTGR"
                   for mid, names in arg_name_maps(d).items()}
        _write_repr_csv(ws.repr_path(rtype), (
            (mid, build(method, fields, argmaps.get(mid, {}), seed))
            for mid, method, fields in methods))
    clear_render_caches()
    return {"types": types,
            "methods_per_type": dict.fromkeys(types, len(methods))}


def stage_metrics(ws: Workspace, datas: list[ProjectData],
                  cat: Catalog) -> dict:
    tables: dict[str, dict[str, object]] = {k: {} for k in METRIC_KEYS}
    # The values depend only on the header and the Ast, which twins share:
    # each Ast is measured once. `datas` keeps every Ast, so no id is reused.
    measured: dict[int, dict[str, int | str]] = {}
    for d in datas:
        for meta in d.methods:
            method = d.sources[meta.method_id]
            shared = id(method.ast)
            if shared not in measured:
                measured[shared] = metrics_mod.compute_metrics(method)
            values = measured[shared]
            for key in METRIC_KEYS:
                tables[key][meta.method_id] = values[key]
    for key in METRIC_KEYS:
        write_property_csv(key, tables[key], ws.properties_dir)
    return {"keys": list(METRIC_KEYS), "methods": len(cat.methods)}


def stage_callgraph(ws: Workspace, datas: list[ProjectData], cat: Catalog,
                    include_constructors: bool = True) -> dict:
    graph = build_callgraph(datas, include_constructors=include_constructors)
    write_callgraph_csv(ws.callgraph_path, graph)
    conn = connectivity_props(graph, cat)
    for key, table in conn.items():
        write_property_csv(key, table, ws.properties_dir)
    dist = classify_distribution(graph) if graph.edges else {}
    return {"edges": len(graph.edges),
            "distribution": {k: round(v, 6) for k, v in dist.items()}}


def stage_props_import(ws: Workspace, cat: Catalog, source_csv,
                       key: str | None = None) -> dict:
    source = Path(source_csv)
    if not source.is_file():
        raise InputError(f"no such property file: {source}")
    inferred = key or source.stem
    validate_property_key(inferred)
    writer = ws.writer(ws.property_path(inferred))
    if writer != "props-import":
        raise InvalidArgumentError(f"property {inferred} is written by "
                                   f"`{writer}`; import under another key")
    values = read_property_csv(source)
    table = {mid: v for mid, v in values.items() if not cat.stray(mid)}
    write_property_csv(inferred, table, ws.properties_dir)
    return {"key": inferred, "stored": len(table),
            "rejected": len(values) - len(table)}


def _cataloged(ws: Workspace, cat: Catalog, path: Path, table: dict) -> dict:
    """`table`, read from `path` with `cat`'s id check, if it holds a row,
    and every cataloged method unless `props-import` wrote it; else an
    InputError naming the file."""
    if not table:
        raise InputError(f"{path}: holds no method rows")
    if len(table) < len(cat.methods) and ws.writer(path) != "props-import":
        raise InputError(f"{path}: holds {len(table)} of the "
                         f"{len(cat.methods)} cataloged methods")
    return table


def _load_props(ws: Workspace, cat: Catalog, keys: list[str],
                ints: bool = False) -> dict[str, dict]:
    """Property tables of cataloged methods, values read by
    `property_value`, or with `ints` as integers."""
    return {key: ws.read(ws.property_path(key), lambda path: {
        mid: v if ints else property_value(v) for mid, v in _cataloged(
            ws, cat, path, read_property_csv(path, ints, cat)).items()})
        for key in keys}


def stage_taskgen(ws: Workspace, datas: list[ProjectData], cat: Catalog,
                  task: str, seed: int, split_fracs,
                  key: str = "CMPX", balance: bool = False,
                  filters: list[tuple[str, str, int | str]] = (),
                  p_mutate: float = 0.5, augment: bool = False,
                  include_constructors: bool = False) -> dict:
    sources = all_sources(datas)
    if task == "property":
        if key == "NAME":
            raise InvalidArgumentError("every payload spells the method's own "
                                       "name, so NAME cannot be a task label")
        needed = [key] + [f[0] for f in filters]
        for k in needed:
            validate_property_key(k)
        payloads = ws.read(ws.repr_path("TKNA"), lambda path: _cataloged(
            ws, cat, path, read_repr_csv(path, cat)))
        props = _load_props(ws, cat, sorted(set(needed)))
        dataset = make_property_task(
            key, props, payloads, cat, filters=list(filters),
            balance=balance, split_fracs=split_fracs, seed=seed)
        name = f"property_{key}"
    elif task == "call-mask":
        graph = ws.read(ws.callgraph_path,
                        lambda path: read_callgraph_csv(path, cat))
        # a masked site without a row is a fault of the stored graph too
        dataset = ws.read(ws.callgraph_path, lambda _: make_call_masking_task(
            cat, sources, graph, seed=seed, split_fracs=split_fracs,
            include_constructors=include_constructors))
        if augment:
            for i, sample in enumerate(dataset.samples):
                bundle = n_hop_context(graph, sample.method_id, 1)
                dataset.samples[i] = augment_with_context(sample, bundle)
        name = "call_mask"
    elif task == "mutation":
        dataset = make_mutation_task(cat, sources, p_mutate, seed=seed,
                                     split_fracs=split_fracs)
        name = "mutation"
    else:
        raise InvalidArgumentError(f"task must be one of {TASKS}")

    write_task_csv(ws.task_path(name), dataset)
    counts = Counter(s.split for s in dataset.samples)
    summary = {"task": name, "samples": len(dataset.samples),
               "splits": {s: counts[s] for s in SPLIT_NAMES}, "seed": seed}
    empty = [s for s in SPLIT_NAMES if not counts[s]]
    for split in empty:
        print(f"note: tasks/{name}.csv has an empty {split} split",
              file=sys.stderr)
    if task == "call-mask" and counts["test"] and counts["train"]:
        evals = {}
        for tag, fn in (("most_frequent", baseline_most_frequent),
                        ("context_unigram", baseline_context_unigram)):
            evals[tag] = evaluate_exact_match(dataset, fn(dataset))
        write_text(ws.task_path(name).with_suffix(".eval.json"),
                   json.dumps(evals, indent=2, sort_keys=True) + "\n")
        summary["baseline_overall"] = {
            tag: round(report["overall"], 6)
            for tag, report in evals.items()}
    elif task == "call-mask":
        print("note: call_mask.eval.json was not written: empty "
              f"{'/'.join(s for s in empty if s != 'valid')} split",
              file=sys.stderr)
    return summary


def stage_tokenstats(ws: Workspace, datas: list[ProjectData], cat: Catalog,
                     vocab_size: int = 512) -> dict:
    sources = all_sources(datas)
    ordered = sorted(sources.items())
    method_texts = {mid: m.text for mid, m in ordered}  # each sliced once
    texts = list(method_texts.values())
    # a method that ends its file without a newline still ends its line
    code_corpus = "".join(t if t.endswith("\n") else t + "\n" for t in texts)
    vocabs = {tag: train_bpe(text, vocab_size, corpus_tag=tag)
              for tag, text in zip(TOKENIZER_TAGS,
                                   (code_corpus, english_sample_text()))}
    out = ws.tokenstats_dir
    out.mkdir(parents=True, exist_ok=True)
    class_texts = {cid: v.source for d in datas
                   for cid, v in d.class_views.items()}
    records = []
    ratios = {}
    token_counts = [len(m.tokens) for _, m in ordered]
    for tag, vocab in vocabs.items():
        write_vocab(out / f"vocab_{tag}.txt", vocab)
        records.extend(entity_sizes(cat, method_texts, class_texts,
                                    vocab, tag))
        ratios[tag] = round(tokenizer_ratio(vocab, texts, token_counts), 3)
    write_sizes_csv(out / "sizes.csv", records)
    write_fit_csv(out / "fit.csv", window_fit(records))
    write_fit_csv(out / "fit_bucketed.csv",
                  window_fit(records, catalog=cat))
    return {"vocab_size": vocab_size, "ratios": ratios,
            "size_records": len(records)}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _write_table(path_base: Path, header: list[str], rows: list[list],
                 title: str) -> None:
    write_table(path_base.with_suffix(".csv"), header, rows)
    widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
              for i, h in enumerate(header)]
    lines = [title,
             "  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    for r in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    write_text(path_base.with_suffix(".txt"), "\n".join(lines) + "\n")


def stage_report(ws: Workspace, cat: Catalog, study: str) -> dict:
    if study == "calls":
        graph = ws.read(ws.callgraph_path,
                        lambda path: read_callgraph_csv(path, cat))
        if not graph.edges:
            raise InputError(f"{ws.callgraph_path.name} holds no call sites, "
                             "so there is no locality distribution to report")
        dist = classify_distribution(graph)
        rows = [[t, f"{dist[t] * 100:.2f}"] for t in dist]
        _write_table(ws.reports_dir / "calls", ["call_type", "percent"],
                     rows, "Call sites by locality")
        return {"study": study, "total_percent":
                round(sum(float(r[1]) for r in rows), 6)}
    if study == "windows":
        records = ws.read(ws.tokenstats_dir / "sizes.csv",
                          lambda path: read_sizes_csv(path, cat))
        table = window_fit(records)
        rows = [[g, tag, bucket, tau, f"{f:.4f}"]
                for g, tag, bucket, tau, f in table.rows()]
        _write_table(ws.reports_dir / "windows",
                     ["granularity", "tokenizer", "bucket", "threshold",
                      "fit_fraction"],
                     rows, "Entities fitting each context window")
        return {"study": study, "rows": len(rows)}
    if study == "bias":
        props = _load_props(ws, cat, ["SLOC", "CMPX"], ints=True)
        row_labels, col_labels, matrix = bias_table(props["SLOC"],
                                                    props["CMPX"])
        rows = [[rl] + list(counts) for rl, counts in zip(row_labels, matrix)]
        _write_table(ws.reports_dir / "bias", ["sloc_bin"] + col_labels,
                     rows, "Method counts by size and complexity")
        return {"study": study,
                "methods": sum(sum(r) for r in matrix)}
    raise InvalidArgumentError(f"study must be one of {STUDIES}")


# ---------------------------------------------------------------------------
# add-project: the composite workflow
# ---------------------------------------------------------------------------

def stage_add_project(ws: Workspace, project_root, replace: bool = False
                      ) -> dict:
    cfg = ws.load_config()
    root = Path(project_root).resolve()
    corpus_root = Path(cfg.corpus_root).resolve()
    if not root.is_dir():
        raise InputError(f"project root is not a directory: {root}")
    if corpus_root not in root.parents:
        raise InputError(
            f"project must live under the corpus root {corpus_root}")
    existing = ws.read(ws.metadata_dir, read_metadata)

    datas = parse_corpus(cfg)
    project_path = root.relative_to(corpus_root).as_posix()
    new_data = next((d for d in datas
                     if d.project.project_path == project_path), None)
    if new_data is None:
        raise InputError("project was not discovered under the corpus root")
    if not new_data.classes:
        raise EmptyProjectError(f"no cataloged classes under {root}")
    if not replace and new_data.project.project_id in existing.by_id:
        raise InputError(f"project already cataloged: {project_path}; "
                         "pass --replace to regenerate it")

    cat = merged_catalog(datas)
    write_metadata(cat, ws.metadata_dir)
    stage_representations(ws, datas, list(REPRESENTATION_TYPES), cfg.seed)
    stage_metrics(ws, datas, cat)
    stage_callgraph(ws, datas, cat)
    return {"project": new_data.project.project_name,
            "classes": len(new_data.classes),
            "methods": len(new_data.methods),
            "skipped_files": _report_skipped_files([new_data])}
