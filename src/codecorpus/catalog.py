"""Entity catalog: project/package/class/method metadata and properties.

Cataloging walks a project tree, parses every `.java` file it can, and
assigns deterministic ids (see identity.py). Files outside the language
subset are skipped with a diagnostic instead of failing the project, unless
strict mode is on. The resulting `ProjectData` keeps, beside the metadata
rows, each method's parse (`sources`) and each class's file view
(`class_views`); every later stage reads those instead of parsing or
joining again; a project with no cataloged class is returned without
rows. A `Catalog` is the four tables of one or more projects plus `by_id`,
an index of every entity by its id.

Metadata persists as four CSV files with fixed headers, one per row type
(`ProjectMeta` ... `MethodMeta`, named tuples of the columns in order),
each keyed on its entity's id; `METADATA_TABLES` is their one schema.

    projects.csv  project_id,project_path,project_name
    packages.csv  project_id,package_id,package_path,package_name
    classes.csv   project_id,package_id,class_id,class_path,class_name
    methods.csv   project_id,package_id,class_id,method_id,method_path,
                  method_name,start_line,end_line,method_signature

Method-level properties persist one file per key as `<KEY>.csv` with header
`method_id,value`, keyed on `method_id`. Keys are 4-16 uppercase letters.
A stored value is read back by `property_value` (`7` is an int, `007` and
`x` are text). The workspace's artifact table (`pipeline.ARTIFACT_WRITERS`
and `pipeline.PROPERTY_WRITERS`) names the command that writes each table.
"""

import os
import re
from collections import Counter
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import CorpusError, InputError, InvalidArgumentError, ParseError
from .identity import (
    EntityId, assign_id, class_key, method_key, package_key, project_key,
)
from .parser import FileView, MethodSource, file_view
from .tables import read_table, write_table

PROPERTY_HEADER = ["method_id", "value"]
PROPERTY_KEY_RE = re.compile(r"^[A-Z]{4,16}$")

# The property keys this package computes; any other key is imported.
METRIC_KEYS = ("TLOC", "SLOC", "CMPX", "MXIN", "NPTH", "NMTK", "NMPR",
               "NUID", "NMOP", "NMLT", "NMRT", "NAME")
CALLGRAPH_KEYS = ("NUPC", "NUCC", "NMNC", "NMLC")


class ProjectMeta(NamedTuple):
    project_id: EntityId
    project_path: str
    project_name: str


class PackageMeta(NamedTuple):
    project_id: EntityId
    package_id: EntityId
    package_path: str
    package_name: str


class ClassMeta(NamedTuple):
    project_id: EntityId
    package_id: EntityId
    class_id: EntityId
    class_path: str
    class_name: str


class MethodMeta(NamedTuple):
    project_id: EntityId
    package_id: EntityId
    class_id: EntityId
    method_id: EntityId
    method_path: str
    method_name: str
    start_line: int
    end_line: int
    method_signature: str


# Catalog attribute (and file stem), row type, key, integer columns.
METADATA_TABLES = (
    ("projects", ProjectMeta, ("project_id",), ()),
    ("packages", PackageMeta, ("package_id",), ()),
    ("classes", ClassMeta, ("class_id",), ()),
    ("methods", MethodMeta, ("method_id",), ("start_line", "end_line")),
)


class Diagnostic(NamedTuple):
    path: str
    message: str


class Catalog:
    """The four metadata tables, an index of every entity by id and each
    project's class count, both taken once (`sort` only reorders rows)."""

    __slots__ = ("projects", "packages", "classes", "methods", "by_id",
                 "_class_counts")

    def __init__(self, projects: list[ProjectMeta],
                 packages: list[PackageMeta], classes: list[ClassMeta],
                 methods: list[MethodMeta]):
        self.projects = projects
        self.packages = packages
        self.classes = classes
        self.methods = methods
        self.by_id: dict[EntityId, object] = {
            **{p.project_id: p for p in self.projects},
            **{p.package_id: p for p in self.packages},
            **{c.class_id: c for c in self.classes},
            **{m.method_id: m for m in self.methods},
        }
        self._class_counts = Counter(c.project_id for c in self.classes)

    def sort(self) -> None:
        """Put every table in metadata order (the indexes do not depend on it)."""
        self.projects.sort(key=lambda p: (p.project_path, p.project_id))
        self.packages.sort(key=lambda p: (p.package_path, p.package_id))
        self.classes.sort(key=lambda c: (c.class_path, c.class_id))
        self.methods.sort(key=lambda m: (m.method_path, m.start_line, m.method_id))

    def class_count(self, project_id: EntityId) -> int:
        return self._class_counts[project_id]

    def stray(self, eid: EntityId, gran: str = "method",
              column: str = "method_id") -> str | None:
        """None if `eid` is the id of a cataloged `gran` (a granularity),
        else what is wrong with it in a table's `column`."""
        if getattr(self.by_id.get(eid), f"{gran}_id", None) != eid:
            return f"{column} {eid!r} is not a cataloged {gran}"


def size_bucket(class_count: int) -> str:
    """Project-size buckets: A <=20 classes, B 21-50, C 51-100, D >100."""
    if class_count <= 20:
        return "A"
    if class_count <= 50:
        return "B"
    if class_count <= 100:
        return "C"
    return "D"


class ProjectData(NamedTuple):
    """Catalog rows for one project plus what parsing found for each.

    `sources` holds every method's parse and `class_views` the file view
    each class was cataloged from, so downstream stages never re-join
    classes to files by path. A project with no cataloged class has no
    rows but its project and its diagnostics.
    """

    project: ProjectMeta
    packages: list[PackageMeta]
    classes: list[ClassMeta]
    methods: list[MethodMeta]
    sources: dict[EntityId, MethodSource]      # method_id -> source
    class_views: dict[EntityId, FileView]      # class_id -> its file view
    diagnostics: list[Diagnostic]


def java_entries(root: str) -> Iterator[tuple[str, ...]]:
    """The path parts, below `root`, of every entry named `*.java`, in
    walk order: the entries `Path(root).rglob("*.java")` yields. Hidden
    directories are entered and symlinked ones are not; a directory or a
    link named `*.java` is listed too."""
    base = os.path.join(root, "")
    for dirpath, dirnames, filenames in os.walk(root):
        prefix = tuple(filter(None, dirpath[len(base):].split(os.sep)))
        for name in dirnames + filenames:
            if name.endswith(".java"):
                yield (*prefix, name)


def _parse_one(path: str, rel: str, builds: dict | None
               ) -> FileView | Diagnostic:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return Diagnostic(rel, f"not valid UTF-8: {exc}")
    except OSError as exc:  # a directory or a dangling link named *.java
        return Diagnostic(rel, f"not readable: {exc.strerror}")
    try:
        return file_view(text, rel, builds)
    except CorpusError as exc:
        return Diagnostic(rel, str(exc))


def catalog_project(root, corpus_root, strict: bool = False,
                    builds: dict | None = None) -> ProjectData:
    """Catalog one project directory tree.

    `corpus_root` anchors the relative paths recorded in metadata.
    Unparseable files become diagnostics (or errors if strict), and so does
    a method declared again with the same signature on the same first line:
    only the first one gets a row. A project with no cataloged classes is
    returned as it is: no rows, and the diagnostics that say why.
    `builds` is `file_view`'s map from a text to the first view of it,
    which `parse_corpus` shares among the projects of one load: a file
    with a text already there is a twin of that view, and each of its
    methods gets its own id here.
    """
    root = Path(root)
    if not root.is_dir():
        raise InputError(f"project root is not a directory: {root}")
    project_rel = root.relative_to(corpus_root).as_posix()
    project_name = root.name
    project_id = assign_id("project", project_key(project_name, project_rel))
    project = ProjectMeta(project_id, project_rel, project_name)

    diagnostics: list[Diagnostic] = []
    views: list[tuple[str, FileView]] = []     # (package path, view)
    top = str(root)
    for parts in sorted(java_entries(top)):     # as Paths sort: by parts
        res = _parse_one(os.path.join(top, *parts),
                         f"{project_rel}/{'/'.join(parts)}", builds)
        if isinstance(res, Diagnostic):
            if strict:
                raise ParseError(f"{res.path}: {res.message}")
            diagnostics.append(res)
        else:
            views.append(("/".join(parts[:-1]) or ".", res))

    packages: dict[str, PackageMeta] = {}
    packages_by_path: dict[str, PackageMeta] = {}
    classes: list[ClassMeta] = []
    methods: list[MethodMeta] = []
    sources: dict[EntityId, MethodSource] = {}
    class_views: dict[EntityId, FileView] = {}

    for pkg_path, view in views:
        file_rel = view.path
        pkg_name = view.package_name
        if pkg_name not in packages:
            if pkg_path in packages_by_path:
                # the package id is path-keyed; fold mismatched declarations in
                diagnostics.append(Diagnostic(
                    file_rel, f"package {pkg_name!r} shares directory with "
                    f"{packages_by_path[pkg_path].package_name!r}"))
                packages[pkg_name] = packages_by_path[pkg_path]
            else:
                pkg_id = assign_id("package", package_key(project_rel, pkg_path))
                packages[pkg_name] = PackageMeta(project_id, pkg_id, pkg_path, pkg_name)
                packages_by_path[pkg_path] = packages[pkg_name]
        pkg = packages[pkg_name]
        if pkg.package_path != pkg_path:
            diagnostics.append(Diagnostic(
                file_rel, f"package {pkg_name!r} is also declared in "
                f"directory {pkg.package_path!r}; its classes share that row"))
        if len(view.classes) > 1:
            diagnostics.append(Diagnostic(
                file_rel, "multiple top-level types; extra types skipped"))
        cv = view.classes[0]
        class_id = assign_id("class", class_key(file_rel))
        classes.append(ClassMeta(project_id, pkg.package_id, class_id,
                                 file_rel, cv.name))
        class_views[class_id] = view
        for m in cv.methods:
            mid = assign_id("method", method_key(file_rel, m.signature, m.start_line))
            m.method_id = mid   # a call to a repeat resolves to it too
            if mid in sources:
                diagnostics.append(Diagnostic(
                    file_rel, f"duplicate declaration of {m.signature} at "
                    f"line {m.start_line}; skipped"))
                continue
            methods.append(MethodMeta(
                project_id, pkg.package_id, class_id, mid, file_rel,
                m.name, m.start_line, m.end_line, m.signature))
            sources[mid] = m

    return ProjectData(
        project=project,
        packages=sorted(packages_by_path.values(),
                        key=lambda p: (p.package_path, p.package_id)),
        classes=classes,
        methods=methods,
        sources=sources,
        class_views=class_views,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Metadata CSV round trip
# ---------------------------------------------------------------------------

# Metadata and property tables go through these two functions rather than
# straight to `tables`: the benchmark tracer (bench/tracing.py) wraps them by
# name, which times catalog table I/O apart from the other tables.

def _write_csv(path: Path, header: list[str], rows) -> None:
    write_table(path, header, rows)


def _read_csv(path: Path, header: list[str], int_columns=(), key=(),
              check=None) -> list[list]:
    return read_table(path, header, int_columns, key, check)


def write_metadata(cat: Catalog, out_dir) -> list[Path]:
    """Write the four metadata CSVs; rows sorted for byte determinism."""
    cat.sort()
    paths = []
    for name, row, _key, _ints in METADATA_TABLES:
        path = Path(out_dir) / f"{name}.csv"
        _write_csv(path, list(row._fields), getattr(cat, name))
        paths.append(path)
    return paths


def read_metadata(in_dir) -> Catalog:
    """Read the metadata CSVs back, rows in file order; each table is
    checked for its header, field counts, integers and repeated keys."""
    return Catalog(*(
        list(map(row._make, _read_csv(Path(in_dir) / f"{name}.csv",
                                      list(row._fields), ints, key)))
        for name, row, key, ints in METADATA_TABLES))


# ---------------------------------------------------------------------------
# Property tables
# ---------------------------------------------------------------------------

def validate_property_key(key: str) -> None:
    if not PROPERTY_KEY_RE.match(key or ""):
        raise InvalidArgumentError(
            f"property key must be 4-16 uppercase letters, got {key!r}")


def property_value(text: str) -> int | str:
    """A stored property value: an int when `text` is that int's canonical
    decimal form, else `text`; so `str(property_value(t)) == t`."""
    try:
        value = int(text)
    except ValueError:
        return text
    return value if str(value) == text else text


def write_property_csv(key: str, table: dict[EntityId, int | str], out_dir
                       ) -> Path:
    validate_property_key(key)
    path = Path(out_dir) / f"{key}.csv"
    _write_csv(path, PROPERTY_HEADER,
               [(mid, str(v)) for mid, v in sorted(table.items())])
    return path


def read_property_csv(path, ints: bool = False, cat: Catalog | None = None
                      ) -> dict[EntityId, str | int]:
    """Read a property CSV; values come back as text (see `property_value`),
    or with `ints` as ints (a value that is not one is an InputError), and
    with `cat` a method id it does not catalog is an InputError."""
    return dict(_read_csv(path, PROPERTY_HEADER, ["value"] * ints, ["method_id"],
                          cat and (lambda row: cat.stray(row[0]))))
