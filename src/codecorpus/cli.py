"""Command-line entry point.

Every subcommand prints a one-line JSON summary as its last stdout line.
Exit codes: 0 success, 1 usage error, 2 input or prerequisite error,
3 unexpected internal failure. The workspace directory defaults to the
CODECORPUS_WORKSPACE environment variable.

The commands only split strings: every check, and every note on stderr,
belongs to the library stage that a command calls.

A command runs with the cyclic garbage collector switched off, and `main`
restores the caller's setting when it returns. A command keeps its whole
parsed corpus alive, so each collector pass would re-walk it, at a cost
that grows with the corpus; no command builds up cyclic garbage (a parse
leaves none), so reference counting alone frees what a command drops.
The library functions that the commands call leave `gc` alone.
"""

import gc
import json
import sys

import click

from .catalog import property_value
from .errors import CorpusError, InvalidArgumentError
from .pipeline import (REPRESENTATION_TYPES, Workspace, WorkspaceConfig,
                       load_corpus, stage_add_project, stage_callgraph,
                       stage_catalog, stage_metrics, stage_props_import,
                       stage_report, stage_representations, stage_taskgen,
                       stage_tokenstats)
from .taskgen import DEFAULT_SPLIT_FRACS, FILTER_OPS

_WS_OPTION = click.option(
    "--workspace", "-w", "workspace_dir", envvar="CODECORPUS_WORKSPACE",
    required=True, type=click.Path(), metavar="DIR",
    help="Workspace directory (or set CODECORPUS_WORKSPACE).")


def _emit(summary: dict) -> None:
    click.echo(json.dumps(summary, sort_keys=True))


def _parse_fracs(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise click.UsageError(f"--fracs must be three numbers, got {text!r}")


def _parse_filter(text: str) -> tuple[str, str, int | str]:
    for op in FILTER_OPS:
        if op in text:
            key, _, raw = text.partition(op)
            return key.strip(), op, property_value(raw.strip())
    raise click.UsageError(f"filter {text!r} needs an operator "
                           f"(one of {' '.join(FILTER_OPS)})")


@click.group()
def cli():
    """Build metadata, representations, properties, graphs, datasets and
    reports for a directory tree of Java projects."""


@cli.command()
@click.option("--corpus", "corpus_root", required=True,
              type=click.Path(exists=True, file_okay=False),
              help="Directory whose subdirectories are projects.")
@_WS_OPTION
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--strict", is_flag=True,
              help="Fail on the first unparseable file instead of skipping.")
def catalog(corpus_root, workspace_dir, seed, strict):
    """Scan the corpus and write the metadata tables."""
    ws = Workspace(workspace_dir)
    cfg = WorkspaceConfig(
        corpus_root=str(corpus_root), seed=seed,
        strictness="fail-fast" if strict else "skip-unparseable")
    summary = stage_catalog(ws, cfg)
    _emit({"command": "catalog", **summary})


@cli.command("add-project")
@click.argument("project_root", type=click.Path(exists=True, file_okay=False))
@_WS_OPTION
@click.option("--replace", is_flag=True,
              help="Regenerate a project that is already cataloged.")
def add_project(project_root, workspace_dir, replace):
    """Catalog one project and regenerate every downstream artifact."""
    ws = Workspace(workspace_dir)
    summary = stage_add_project(ws, project_root, replace=replace)
    _emit({"command": "add-project", **summary})


@cli.command("repr")
@_WS_OPTION
@click.option("--types", "types_csv", default=",".join(REPRESENTATION_TYPES),
              show_default=True, metavar="LIST",
              help="Comma-separated representation types to generate.")
def repr_cmd(workspace_dir, types_csv):
    """Write one payload CSV per requested representation type."""
    types = [t.strip().upper() for t in types_csv.split(",") if t.strip()]
    ws = Workspace(workspace_dir)
    cfg, datas, cat = load_corpus(ws)
    summary = stage_representations(ws, datas, types, cfg.seed)
    _emit({"command": "repr", **summary})


@cli.command()
@_WS_OPTION
def metrics(workspace_dir):
    """Compute the static source metrics for every method."""
    ws = Workspace(workspace_dir)
    _cfg, datas, cat = load_corpus(ws)
    summary = stage_metrics(ws, datas, cat)
    _emit({"command": "metrics", **summary})


@cli.command()
@_WS_OPTION
@click.option("--no-constructors", is_flag=True,
              help="Skip object-creation sites.")
def callgraph(workspace_dir, no_constructors):
    """Resolve call sites and write the edge table plus connectivity
    properties."""
    ws = Workspace(workspace_dir)
    _cfg, datas, cat = load_corpus(ws)
    summary = stage_callgraph(ws, datas, cat,
                              include_constructors=not no_constructors)
    _emit({"command": "callgraph", **summary})


@cli.command("props-import")
@click.argument("csv_file", type=click.Path(exists=True, dir_okay=False))
@_WS_OPTION
@click.option("--key", default=None, metavar="KEY",
              help="Property key; defaults to the file stem.")
def props_import(csv_file, workspace_dir, key):
    """Validate and store an externally computed property table."""
    ws = Workspace(workspace_dir)
    _cfg, _datas, cat = load_corpus(ws)
    summary = stage_props_import(ws, cat, csv_file, key=key)
    _emit({"command": "props-import", **summary})


@cli.command()
@_WS_OPTION
@click.option("--task", required=True,
              type=click.Choice(["property", "call-mask", "mutation"]))
@click.option("--key", default="CMPX", show_default=True,
              help="Property key for the property task.")
@click.option("--filter", "filters", multiple=True, metavar="EXPR",
              help="Property filter like 'SLOC>=5'; repeatable.")
@click.option("--balance", is_flag=True,
              help="Down-sample every label to the rarest label's count.")
@click.option("--augment", is_flag=True,
              help="Append one-hop callee names to masked payloads.")
@click.option("--include-constructors", is_flag=True,
              help="Mask object-creation sites too.")
@click.option("--p-mutate", default=0.5, show_default=True, type=float)
@click.option("--seed", default=None, type=int,
              help="Override the workspace seed for this dataset.")
@click.option("--fracs", default=None, metavar="A,B,C",
              help="Train,valid,test fractions; must sum to 1.")
def taskgen(workspace_dir, task, key, filters, balance, augment,
            include_constructors, p_mutate, seed, fracs):
    """Generate a labeled dataset with project-disjoint splits."""
    ws = Workspace(workspace_dir)
    cfg, datas, cat = load_corpus(ws)
    summary = stage_taskgen(
        ws, datas, cat, task,
        seed=cfg.seed if seed is None else seed,
        split_fracs=_parse_fracs(fracs) if fracs else DEFAULT_SPLIT_FRACS,
        key=key.upper(), balance=balance,
        filters=[_parse_filter(f) for f in filters],
        p_mutate=p_mutate, augment=augment,
        include_constructors=include_constructors)
    _emit({"command": "taskgen", **summary})


@cli.command()
@_WS_OPTION
@click.option("--vocab-size", default=512, show_default=True, type=int)
def tokenstats(workspace_dir, vocab_size):
    """Train the code and English subword vocabularies and measure
    entity sizes against common context-window budgets."""
    ws = Workspace(workspace_dir)
    _cfg, datas, cat = load_corpus(ws)
    summary = stage_tokenstats(ws, datas, cat, vocab_size=vocab_size)
    _emit({"command": "tokenstats", **summary})


@cli.command()
@_WS_OPTION
@click.option("--study", required=True,
              type=click.Choice(["calls", "windows", "bias"]))
def report(workspace_dir, study):
    """Render one of the built-in study tables."""
    ws = Workspace(workspace_dir)
    _cfg, _datas, cat = load_corpus(ws)
    summary = stage_report(ws, cat, study)
    _emit({"command": "report", **summary})


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except InvalidArgumentError as exc:
        click.echo(f"usage error: {exc}", err=True)
        return 1
    except CorpusError as exc:
        click.echo(f"input error: {exc}", err=True)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
