"""Workspace orchestration: each pipeline stage reads the corpus plus
earlier artifacts and writes its own files under the workspace directory.

Layout:

    workspace.json            corpus root, seed, strictness, and a fixed
                              legacy `"parallelism": 1`
    metadata/                 projects/packages/classes/methods CSVs
    properties/<KEY>.csv      one value column per method
    representations/<T>.csv   method_id,payload for each representation
    callgraph.csv             one row per call site
    tasks/<name>.csv          generated datasets (+ eval JSON per dataset)
    tokenstats/               vocab files, sizes.csv, fit tables
    reports/                  plain-text and CSV study tables

Every writer sorts its rows, so regenerating a workspace with the same
corpus and seed reproduces identical bytes. Every CSV table goes through
`tables`: it is replaced whole or not at all, and a malformed or truncated
table is an `InputError` naming `file:line` (CLI exit 2).
"""

import json
from dataclasses import dataclass
from pathlib import Path

from . import metrics as metrics_mod
from .catalog import (Catalog, METRIC_KEYS, ProjectData, PropertyStore,
                      catalog_project, read_metadata, read_property_csv,
                      write_metadata, write_property_csv)
from .callgraph import (arg_name_maps, build_callgraph,
                        classify_distribution, connectivity_props,
                        n_hop_context, read_callgraph_csv,
                        write_callgraph_csv)
from .errors import InputError, InvalidArgumentError
from .featuregraph import ast_graph, build_feature_graph, graph_payload
from .identity import EntityId
from .lexer import lex, tkna_text, tknb_text
from .parser import MethodSource
from .pathcontexts import extract_paths, to_c2sq, to_c2vc
from .tables import read_table, write_table
from .taskgen import (augment_with_context, baseline_context_unigram,
                      baseline_most_frequent, bias_table,
                      evaluate_exact_match, make_call_masking_task,
                      make_mutation_task, make_property_task, write_task_csv)
from .tokenstats import (english_sample_text, entity_sizes, read_sizes_csv,
                         tokenizer_ratio, train_bpe, window_fit,
                         write_fit_csv, write_sizes_csv, write_vocab)

REPRESENTATION_TYPES = ("TEXT", "TKNA", "TKNB", "ASTS", "C2VC", "C2SQ", "FTGR")
REPR_HEADER = ["method_id", "payload"]
STRICTNESS = ("skip-unparseable", "fail-fast")


@dataclass
class WorkspaceConfig:
    corpus_root: str
    seed: int = 0
    strictness: str = "skip-unparseable"


class Workspace:
    def __init__(self, root):
        self.root = Path(root)

    # -- config ---------------------------------------------------------------

    @property
    def config_path(self) -> Path:
        return self.root / "workspace.json"

    def save_config(self, cfg: WorkspaceConfig) -> None:
        if cfg.strictness not in STRICTNESS:
            raise InvalidArgumentError(
                f"strictness must be one of {STRICTNESS}")
        self.root.mkdir(parents=True, exist_ok=True)
        # "parallelism" is a fixed legacy field: it keeps workspace.json
        # byte-identical to the files older versions wrote.
        payload = {"corpus_root": cfg.corpus_root, "seed": cfg.seed,
                   "parallelism": 1, "strictness": cfg.strictness}
        self.config_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    def load_config(self) -> WorkspaceConfig:
        if not self.config_path.exists():
            raise InputError(
                f"no workspace at {self.root}; run `catalog` first")
        data = json.loads(self.config_path.read_text(encoding="utf-8"))
        data.pop("parallelism", None)
        return WorkspaceConfig(**data)

    # -- paths ------------------------------------------------------------------

    @property
    def metadata_dir(self) -> Path:
        return self.root / "metadata"

    def property_path(self, key: str) -> Path:
        return self.root / "properties" / f"{key}.csv"

    def repr_path(self, rtype: str) -> Path:
        return self.root / "representations" / f"{rtype}.csv"

    @property
    def callgraph_path(self) -> Path:
        return self.root / "callgraph.csv"

    def task_path(self, name: str) -> Path:
        return self.root / "tasks" / f"{name}.csv"

    @property
    def tokenstats_dir(self) -> Path:
        return self.root / "tokenstats"

    @property
    def reports_dir(self) -> Path:
        return self.root / "reports"

    def require(self, path: Path, hint: str) -> Path:
        if not path.exists():
            raise InputError(f"missing artifact {path.name}; run `{hint}` first")
        return path


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------

def discover_projects(corpus_root: Path) -> list[Path]:
    root = Path(corpus_root)
    if not root.is_dir():
        raise InputError(f"corpus root is not a directory: {root}")
    out = []
    for child in sorted(root.iterdir()):
        if child.is_dir() and any(child.rglob("*.java")):
            out.append(child)
    if not out:
        raise InputError(f"no project directories with .java files in {root}")
    return out


def parse_corpus(cfg: WorkspaceConfig) -> list[ProjectData]:
    strict = cfg.strictness == "fail-fast"
    root = Path(cfg.corpus_root)
    return [catalog_project(p, corpus_root=root, strict=strict)
            for p in discover_projects(root)]


def merged_catalog(datas: list[ProjectData]) -> Catalog:
    cat = Catalog()
    for d in datas:
        cat.merge(d.catalog())
    return cat


def all_sources(datas: list[ProjectData]) -> dict[EntityId, MethodSource]:
    out: dict[EntityId, MethodSource] = {}
    for d in datas:
        out.update(d.sources)
    return out


def load_corpus(ws: Workspace, verify: bool = True
                ) -> tuple[WorkspaceConfig, list[ProjectData], Catalog]:
    """Reparse the corpus recorded in the workspace config.

    With `verify`, the recomputed entity ids must match the cataloged
    metadata, so stale workspaces fail loudly instead of mixing ids.
    """
    cfg = ws.load_config()
    datas = parse_corpus(cfg)
    cat = merged_catalog(datas)
    if verify:
        ws.require(ws.metadata_dir / "methods.csv", "catalog")
        stored = read_metadata(ws.metadata_dir)
        if {m.method_id for m in stored.methods} != \
                {m.method_id for m in cat.methods}:
            raise InputError(
                "corpus no longer matches the cataloged metadata; "
                "re-run `catalog`")
    return cfg, datas, cat


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_catalog(ws: Workspace, cfg: WorkspaceConfig) -> dict:
    cfg.corpus_root = str(Path(cfg.corpus_root).resolve())
    ws.save_config(cfg)
    datas = parse_corpus(cfg)
    cat = merged_catalog(datas)
    write_metadata(cat, ws.metadata_dir)
    skipped = sum(len(d.diagnostics) for d in datas)
    return {"projects": len(cat.projects), "packages": len(cat.packages),
            "classes": len(cat.classes), "methods": len(cat.methods),
            "skipped_files": skipped, "seed": cfg.seed}


def _write_repr_csv(path: Path, rows: list[tuple[str, str]]) -> None:
    write_table(path, REPR_HEADER, sorted(rows))


def read_repr_csv(path) -> dict[EntityId, str]:
    return dict(read_table(path, REPR_HEADER))


def _method_payload(rtype: str, method: MethodSource, fields: dict,
                    argmap: dict[int, list[str]], seed: int) -> str:
    if rtype == "TEXT":
        return method.text
    if rtype == "TKNA":
        return tkna_text(lex(method.text))
    if rtype == "TKNB":
        return tknb_text(lex(method.text))
    if rtype == "ASTS":
        return graph_payload(ast_graph(method))
    if rtype in ("C2VC", "C2SQ"):
        paths = extract_paths(method.ast, seed=seed)
        return to_c2vc(method, paths) if rtype == "C2VC" \
            else to_c2sq(method, paths)
    if rtype == "FTGR":
        g = build_feature_graph(method, fields, argmap.get)
        return graph_payload(g)
    raise InvalidArgumentError(f"unknown representation type {rtype!r}")


def stage_representations(ws: Workspace, datas: list[ProjectData],
                          types: list[str], seed: int) -> dict:
    bad = [t for t in types if t not in REPRESENTATION_TYPES]
    if bad:
        raise InvalidArgumentError(
            f"unknown representation types {bad}; "
            f"valid: {', '.join(REPRESENTATION_TYPES)}")
    counts = {}
    for rtype in types:
        rows = []
        for d in datas:
            argmaps = arg_name_maps(d) if rtype == "FTGR" else {}
            fields_by_class = {c.class_id: v.classes[0].fields
                               for c, v in zip_classes(d)}
            for meta in d.methods:
                method = d.sources[meta.method_id]
                fields = fields_by_class.get(meta.class_id, {})
                payload = _method_payload(
                    rtype, method, fields,
                    argmaps.get(meta.method_id, {}), seed)
                rows.append((meta.method_id, payload))
        _write_repr_csv(ws.repr_path(rtype), rows)
        counts[rtype] = len(rows)
    return {"types": types, "methods_per_type": counts}


def zip_classes(data: ProjectData):
    """(ClassMeta, FileView) pairs for the views that were cataloged."""
    views_by_path = {v.path: v for v in data.views}
    for c in data.classes:
        v = views_by_path.get(c.class_path)
        if v is not None and v.classes:
            yield c, v


def stage_metrics(ws: Workspace, datas: list[ProjectData],
                  cat: Catalog) -> dict:
    tables: dict[str, dict[str, object]] = {k: {} for k in METRIC_KEYS}
    for d in datas:
        for meta in d.methods:
            values = metrics_mod.compute_metrics(d.sources[meta.method_id])
            for key in METRIC_KEYS:
                tables[key][meta.method_id] = values[key]
    for key in METRIC_KEYS:
        write_property_csv(key, tables[key], ws.root / "properties")
    return {"keys": list(METRIC_KEYS), "methods": len(cat.methods)}


def stage_callgraph(ws: Workspace, datas: list[ProjectData], cat: Catalog,
                    include_constructors: bool = True) -> dict:
    graph = build_callgraph(datas, include_constructors=include_constructors)
    write_callgraph_csv(ws.callgraph_path, graph)
    conn = connectivity_props(graph, cat)
    for key, table in conn.items():
        write_property_csv(key, table, ws.root / "properties")
    dist = classify_distribution(graph) if graph.edges else {}
    return {"edges": len(graph.edges),
            "distribution": {k: round(v, 6) for k, v in dist.items()}}


def stage_props_import(ws: Workspace, cat: Catalog, source_csv,
                       key: str | None = None) -> dict:
    source = Path(source_csv)
    if not source.exists():
        raise InputError(f"no such property file: {source}")
    inferred = key or source.stem
    store = PropertyStore({m.method_id for m in cat.methods})
    store.validate_key(inferred)
    values = read_property_csv(source)
    stored, rejected = store.add_property(inferred, values)
    write_property_csv(inferred, store.table(inferred),
                       ws.root / "properties")
    return {"key": inferred, "stored": stored, "rejected": len(rejected)}


def _coerce(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def _load_props(ws: Workspace, keys: list[str]) -> dict[str, dict]:
    """Property tables with numeric strings restored to ints."""
    out = {}
    for key in keys:
        path = ws.require(ws.property_path(key), "metrics")
        out[key] = {mid: _coerce(v)
                    for mid, v in read_property_csv(path).items()}
    return out


def stage_taskgen(ws: Workspace, datas: list[ProjectData], cat: Catalog,
                  task: str, seed: int, split_fracs,
                  key: str = "CMPX", balance: bool = False,
                  filters: list[tuple[str, str, object]] = (),
                  p_mutate: float = 0.5, augment: bool = False,
                  include_constructors: bool = False) -> dict:
    sources = all_sources(datas)
    if task == "property":
        payloads = read_repr_csv(ws.require(ws.repr_path("TKNA"), "repr"))
        needed = [key] + [f[0] for f in filters]
        props = _load_props(ws, sorted(set(needed)))
        dataset = make_property_task(
            key, props[key], payloads, cat, filters=list(filters),
            balance=balance, split_fracs=split_fracs, seed=seed,
            all_props=props)
        name = f"property_{key}"
    elif task == "call-mask":
        graph = read_callgraph_csv(ws.require(ws.callgraph_path, "callgraph"))
        dataset = make_call_masking_task(
            cat, sources, graph, seed=seed, split_fracs=split_fracs,
            include_constructors=include_constructors)
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
        raise InvalidArgumentError(
            "task must be property, call-mask, or mutation")

    write_task_csv(ws.task_path(name), dataset)
    summary = {"task": name, "samples": len(dataset.samples),
               "splits": {s: len(ix) for s, ix in dataset.splits.items()},
               "seed": seed}
    if task == "call-mask" and dataset.splits["test"] \
            and dataset.splits["train"]:
        evals = {}
        for tag, fn in (("most_frequent", baseline_most_frequent),
                        ("context_unigram", baseline_context_unigram)):
            report = evaluate_exact_match(dataset, fn(dataset))
            evals[tag] = report
        eval_path = ws.task_path(name).with_suffix(".eval.json")
        eval_path.write_text(
            json.dumps(evals, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        summary["baseline_overall"] = {
            tag: round(report["overall"], 6)
            for tag, report in evals.items()}
    return summary


def stage_tokenstats(ws: Workspace, datas: list[ProjectData], cat: Catalog,
                     vocab_size: int = 512) -> dict:
    sources = all_sources(datas)
    ordered = sorted(sources.items())
    code_corpus = "".join(m.text for _, m in ordered)
    vocabs = {
        "code": train_bpe(code_corpus, vocab_size, corpus_tag="code"),
        "english": train_bpe(english_sample_text(), vocab_size,
                             corpus_tag="english"),
    }
    out = ws.tokenstats_dir
    out.mkdir(parents=True, exist_ok=True)
    method_texts = {mid: m.text for mid, m in sources.items()}
    class_texts = {}
    for d in datas:
        views_by_path = {v.path: v for v in d.views}
        for c in d.classes:
            v = views_by_path.get(c.class_path)
            if v is not None:
                class_texts[c.class_id] = v.source
    records = []
    ratios = {}
    texts = [m.text for _, m in ordered]
    for tag, vocab in vocabs.items():
        write_vocab(out / f"vocab_{tag}.txt", vocab)
        records.extend(entity_sizes(cat, method_texts, class_texts,
                                    vocab, tag))
        ratios[tag] = round(tokenizer_ratio(vocab, texts), 3)
    write_sizes_csv(out / "sizes.csv", records)
    write_fit_csv(out / "fit.csv", window_fit(records))
    write_fit_csv(out / "fit_bucketed.csv",
                  window_fit(records, catalog=cat, buckets=True))
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
    path_base.with_suffix(".txt").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")


def stage_report(ws: Workspace, cat: Catalog, study: str) -> dict:
    if study == "calls":
        graph = read_callgraph_csv(ws.require(ws.callgraph_path, "callgraph"))
        dist = classify_distribution(graph)
        rows = [[t, f"{dist[t] * 100:.2f}"] for t in dist]
        _write_table(ws.reports_dir / "calls", ["call_type", "percent"],
                     rows, "Call sites by locality")
        return {"study": study, "total_percent":
                round(sum(float(r[1]) for r in rows), 6)}
    if study == "windows":
        sizes_path = ws.require(ws.tokenstats_dir / "sizes.csv", "tokenstats")
        records = read_sizes_csv(sizes_path)
        table = window_fit(records)
        rows = [[g, tag, bucket, tau, f"{f:.4f}"]
                for g, tag, bucket, tau, f in table.rows()]
        _write_table(ws.reports_dir / "windows",
                     ["granularity", "tokenizer", "bucket", "threshold",
                      "fit_fraction"],
                     rows, "Entities fitting each context window")
        return {"study": study, "rows": len(rows)}
    if study == "bias":
        props = _load_props(ws, ["SLOC", "CMPX"])
        row_labels, col_labels, matrix = bias_table(props["SLOC"],
                                                    props["CMPX"])
        rows = [[rl] + list(counts) for rl, counts in zip(row_labels, matrix)]
        _write_table(ws.reports_dir / "bias", ["sloc_bin"] + col_labels,
                     rows, "Method counts by size and complexity")
        return {"study": study,
                "methods": sum(sum(r) for r in matrix)}
    raise InvalidArgumentError("study must be calls, windows, or bias")


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

    new_data = catalog_project(root, corpus_root=corpus_root,
                               strict=cfg.strictness == "fail-fast")
    if ws.metadata_dir.joinpath("projects.csv").exists():
        existing = read_metadata(ws.metadata_dir)
        dup = [p for p in existing.projects
               if p.project_id == new_data.project.project_id]
        if dup and not replace:
            raise InputError(
                f"project already cataloged: {dup[0].project_path}; "
                "pass --replace to regenerate it")

    datas = parse_corpus(cfg)
    cat = merged_catalog(datas)
    if new_data.project.project_id not in {p.project_id
                                           for p in cat.projects}:
        raise InputError("project was not discovered under the corpus root")
    write_metadata(cat, ws.metadata_dir)
    stage_representations(ws, datas, list(REPRESENTATION_TYPES), cfg.seed)
    stage_metrics(ws, datas, cat)
    stage_callgraph(ws, datas, cat)
    return {"project": new_data.project.project_name,
            "classes": len(new_data.classes),
            "methods": len(new_data.methods),
            "skipped_files": len(new_data.diagnostics)}
