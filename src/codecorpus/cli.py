"""Command-line entry point, built on the standard library's `argparse`.

Every subcommand prints a one-line JSON summary as its last stdout line.
Exit codes: 0 success, 1 usage error (also no command, or an option cut
short), 2 input or prerequisite error, 3 unexpected internal failure;
`main` returns the code, also after `--help`. The workspace directory
defaults to the CODECORPUS_WORKSPACE environment variable.

Beyond parsing (a path argument must exist), the commands only split
strings: every other check, and every note on stderr, belongs to the
library stage that a command calls.

A command runs with the cyclic garbage collector switched off, and `main`
restores the caller's setting when it returns. A command keeps its whole
parsed corpus alive, so each collector pass would re-walk it, at a cost
that grows with the corpus; no command builds up cyclic garbage (a parse
leaves none), so reference counting alone frees what a command drops.
The library functions that the commands call leave `gc` alone.
"""

import argparse
import gc
import json
import os
import sys

from .catalog import property_value
from .errors import CorpusError, InvalidArgumentError
from .pipeline import (REPRESENTATION_TYPES, STUDIES, TASKS, Workspace,
                       WorkspaceConfig, load_corpus, stage_add_project,
                       stage_callgraph, stage_catalog, stage_metrics,
                       stage_props_import, stage_report,
                       stage_representations, stage_taskgen, stage_tokenstats)
from .taskgen import DEFAULT_SPLIT_FRACS, FILTER_OPS


class _Formatter(argparse.HelpFormatter):
    """Starts a help page with `Usage:`."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """Takes `--help` but no `-h` and no prefix of an option, and raises a
    usage error where argparse would print one and exit."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, formatter_class=_Formatter,
                         add_help=False, **kwargs)
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def error(self, message):
        raise InvalidArgumentError(message)


def _path(kind: str, exists):
    """An argparse `type` that takes a path for which `exists` holds."""
    def check(text: str) -> str:
        if not exists(text):
            raise argparse.ArgumentTypeError(f"{text!r} is not a {kind}")
        return text
    return check


def _parse_fracs(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise InvalidArgumentError(
            f"--fracs must be three numbers, got {text!r}") from None


def _parse_filter(text: str) -> tuple[str, str, int | str]:
    """Split at the leftmost operator; `>=` and `<=` are taken whole."""
    found = [(text.find(op), -len(op), op) for op in FILTER_OPS if op in text]
    if not found:
        raise InvalidArgumentError(f"filter {text!r} needs an operator "
                                   f"(one of {' '.join(FILTER_OPS)})")
    at, _, op = min(found)
    return text[:at].strip(), op, property_value(text[at + len(op):].strip())


def catalog(ws: Workspace, args) -> dict:
    """Scan the corpus and write the metadata tables."""
    return stage_catalog(ws, WorkspaceConfig(
        corpus_root=args.corpus_root, seed=args.seed,
        strictness="fail-fast" if args.strict else "skip-unparseable"))


def add_project(ws: Workspace, args) -> dict:
    """Catalog one project and regenerate every downstream artifact."""
    return stage_add_project(ws, args.project_root, replace=args.replace)


def repr_cmd(ws: Workspace, args) -> dict:
    """Write one payload CSV per requested representation type."""
    types = [t.strip().upper() for t in args.types_csv.split(",") if t.strip()]
    cfg, datas, _cat = load_corpus(ws)
    return stage_representations(ws, datas, types, cfg.seed)


def metrics(ws: Workspace, args) -> dict:
    """Compute the static source metrics for every method."""
    _cfg, datas, cat = load_corpus(ws)
    return stage_metrics(ws, datas, cat)


def callgraph(ws: Workspace, args) -> dict:
    """Resolve call sites and write the edge table plus connectivity
    properties."""
    _cfg, datas, cat = load_corpus(ws)
    return stage_callgraph(ws, datas, cat,
                           include_constructors=not args.no_constructors)


def props_import(ws: Workspace, args) -> dict:
    """Validate and store an externally computed property table."""
    _cfg, _datas, cat = load_corpus(ws)
    return stage_props_import(ws, cat, args.csv_file, key=args.key)


def taskgen(ws: Workspace, args) -> dict:
    """Generate a labeled dataset with project-disjoint splits."""
    cfg, datas, cat = load_corpus(ws)
    return stage_taskgen(
        ws, datas, cat, args.task,
        seed=cfg.seed if args.seed is None else args.seed,
        split_fracs=(_parse_fracs(args.fracs) if args.fracs
                     else DEFAULT_SPLIT_FRACS),
        key=args.key.upper(), balance=args.balance,
        filters=[_parse_filter(f) for f in args.filters or ()],
        p_mutate=args.p_mutate, augment=args.augment,
        include_constructors=args.include_constructors)


def tokenstats(ws: Workspace, args) -> dict:
    """Train the code and English subword vocabularies and measure
    entity sizes against common context-window budgets."""
    _cfg, datas, cat = load_corpus(ws)
    return stage_tokenstats(ws, datas, cat, vocab_size=args.vocab_size)


def report(ws: Workspace, args) -> dict:
    """Render one of the built-in study tables."""
    _cfg, _datas, cat = load_corpus(ws)
    return stage_report(ws, cat, args.study)


def _parser() -> _Parser:
    top = _Parser(prog="codecorpus", description=(
        "Build metadata, representations, properties, graphs, datasets and "
        "reports for a directory tree of Java projects."))
    commands = top.add_subparsers(dest="command", metavar="COMMAND",
                                  required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        sub.add_argument("-w", "--workspace", dest="workspace_dir",
                         metavar="DIR", help="Workspace directory; required "
                         "unless CODECORPUS_WORKSPACE names one.")
        return sub.add_argument

    directory = _path("directory", os.path.isdir)
    arg = command("catalog", catalog)
    arg("--corpus", dest="corpus_root", required=True, type=directory,
        metavar="DIRECTORY",
        help="Directory whose subdirectories are projects.")
    arg("--seed", default=0, type=int, help="(default: %(default)s)")
    arg("--strict", action="store_true",
        help="Fail on the first unparseable file instead of skipping.")

    arg = command("add-project", add_project)
    arg("project_root", type=directory)
    arg("--replace", action="store_true",
        help="Regenerate a project that is already cataloged.")

    arg = command("repr", repr_cmd)
    arg("--types", dest="types_csv", default=",".join(REPRESENTATION_TYPES),
        metavar="LIST", help="Comma-separated representation types to "
                             "generate (default: %(default)s).")

    command("metrics", metrics)

    arg = command("callgraph", callgraph)
    arg("--no-constructors", action="store_true",
        help="Skip object-creation sites.")

    arg = command("props-import", props_import)
    arg("csv_file", type=_path("file", os.path.isfile))
    arg("--key", metavar="KEY",
        help="Property key; defaults to the file stem.")

    arg = command("taskgen", taskgen)
    arg("--task", required=True, choices=TASKS)
    arg("--key", default="CMPX",
        help="Property key for the property task (default: %(default)s).")
    arg("--filter", dest="filters", action="append", metavar="EXPR",
        help="Property filter like 'SLOC>=5'; repeatable.")
    arg("--balance", action="store_true",
        help="Down-sample every label to the rarest label's count.")
    arg("--augment", action="store_true",
        help="Append one-hop callee names to masked payloads.")
    arg("--include-constructors", action="store_true",
        help="Mask object-creation sites too.")
    arg("--p-mutate", default=0.5, type=float, help="(default: %(default)s)")
    arg("--seed", type=int,
        help="Override the workspace seed for this dataset.")
    arg("--fracs", metavar="A,B,C",
        help="Train,valid,test fractions; must sum to 1.")

    arg = command("tokenstats", tokenstats)
    arg("--vocab-size", default=512, type=int, help="(default: %(default)s)")

    arg = command("report", report)
    arg("--study", required=True, choices=STUDIES)
    return top


# Built once per process: building a parser leaves reference cycles, and a
# command, which runs with the collector off, must leave none.
_PARSER = _parser()


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
        args = _PARSER.parse_args(argv)
        ws = args.workspace_dir or os.environ.get("CODECORPUS_WORKSPACE")
        if not ws:
            raise InvalidArgumentError(
                "the following arguments are required: -w/--workspace")
        summary = args.run(Workspace(ws), args)
    except SystemExit as exc:   # `--help`, once it has printed the usage
        return exc.code
    except InvalidArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CorpusError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"command": args.command, **summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
