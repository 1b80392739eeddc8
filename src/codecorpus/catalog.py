"""Entity catalog: project/package/class/method metadata and properties.

Cataloging walks a project tree, parses every `.java` file it can, and
assigns deterministic ids (see identity.py). Files outside the language
subset are skipped with a diagnostic instead of failing the project, unless
strict mode is on.

Metadata persists as four CSV files with fixed headers:

    projects.csv  project_id,project_path,project_name
    packages.csv  project_id,package_id,package_path,package_name
    classes.csv   project_id,package_id,class_id,class_path,class_name
    methods.csv   project_id,package_id,class_id,method_id,method_path,
                  method_name,start_line,end_line,method_signature

Method-level properties persist one file per key as `<KEY>.csv` with header
`method_id,value`. Keys are 4-16 uppercase ASCII letters.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    CorpusError, EmptyProjectError, InputError, InvalidArgumentError,
    NotFoundError, ParseError,
)
from .identity import (
    EntityId, assign_id, class_key, method_key, package_key, project_key,
)
from .parser import FileView, MethodSource, file_view
from .tables import read_table, write_table

PROJECTS_HEADER = ["project_id", "project_path", "project_name"]
PACKAGES_HEADER = ["project_id", "package_id", "package_path", "package_name"]
CLASSES_HEADER = ["project_id", "package_id", "class_id", "class_path", "class_name"]
METHODS_HEADER = [
    "project_id", "package_id", "class_id", "method_id", "method_path",
    "method_name", "start_line", "end_line", "method_signature",
]

PROPERTY_KEY_RE = re.compile(r"^[A-Z]{4,16}$")

# Known property codes. "metrics" and "callgraph" keys are computed by this
# package; "import" keys only ever arrive via props-import.
METRIC_KEYS = ("TLOC", "SLOC", "CMPX", "MXIN", "NPTH", "NMTK", "NMPR",
               "NUID", "NMOP", "NMLT", "NMRT", "NAME")
CALLGRAPH_KEYS = ("NUPC", "NUCC", "NMNC", "NMLC")
IMPORT_ONLY_KEYS = ("NLDF", "RSLK", "NTID")
KNOWN_KEYS = METRIC_KEYS + CALLGRAPH_KEYS + IMPORT_ONLY_KEYS


@dataclass(frozen=True)
class ProjectMeta:
    project_id: EntityId
    project_path: str
    project_name: str


@dataclass(frozen=True)
class PackageMeta:
    project_id: EntityId
    package_id: EntityId
    package_path: str
    package_name: str


@dataclass(frozen=True)
class ClassMeta:
    project_id: EntityId
    package_id: EntityId
    class_id: EntityId
    class_path: str
    class_name: str


@dataclass(frozen=True)
class MethodMeta:
    project_id: EntityId
    package_id: EntityId
    class_id: EntityId
    method_id: EntityId
    method_path: str
    method_name: str
    start_line: int
    end_line: int
    method_signature: str


@dataclass
class Diagnostic:
    path: str
    message: str


@dataclass
class Catalog:
    """Joined metadata tables plus id-based navigation."""

    projects: list[ProjectMeta] = field(default_factory=list)
    packages: list[PackageMeta] = field(default_factory=list)
    classes: list[ClassMeta] = field(default_factory=list)
    methods: list[MethodMeta] = field(default_factory=list)

    def __post_init__(self):
        self._reindex()

    def _reindex(self):
        self.by_id: dict[EntityId, object] = {}
        self._parent: dict[EntityId, EntityId | None] = {}
        self._children: dict[EntityId, list[EntityId]] = {}
        for p in self.projects:
            self.by_id[p.project_id] = p
            self._parent[p.project_id] = None
            self._children.setdefault(p.project_id, [])
        for pk in self.packages:
            self.by_id[pk.package_id] = pk
            self._parent[pk.package_id] = pk.project_id
            self._children.setdefault(pk.project_id, []).append(pk.package_id)
            self._children.setdefault(pk.package_id, [])
        for c in self.classes:
            self.by_id[c.class_id] = c
            self._parent[c.class_id] = c.package_id
            self._children.setdefault(c.package_id, []).append(c.class_id)
            self._children.setdefault(c.class_id, [])
        for m in self.methods:
            self.by_id[m.method_id] = m
            self._parent[m.method_id] = m.class_id
            self._children.setdefault(m.class_id, []).append(m.method_id)
            self._children.setdefault(m.method_id, [])

    def parent(self, entity_id: EntityId) -> EntityId | None:
        if entity_id not in self._parent:
            raise NotFoundError(f"unknown entity id: {entity_id}")
        return self._parent[entity_id]

    def children(self, entity_id: EntityId) -> list[EntityId]:
        if entity_id not in self._children:
            raise NotFoundError(f"unknown entity id: {entity_id}")
        return list(self._children[entity_id])

    def merge(self, other: "Catalog") -> None:
        self.projects.extend(other.projects)
        self.packages.extend(other.packages)
        self.classes.extend(other.classes)
        self.methods.extend(other.methods)
        self.sort()

    def sort(self) -> None:
        self.projects.sort(key=lambda p: (p.project_path, p.project_id))
        self.packages.sort(key=lambda p: (p.package_path, p.package_id))
        self.classes.sort(key=lambda c: (c.class_path, c.class_id))
        self.methods.sort(key=lambda m: (m.method_path, m.start_line, m.method_id))
        self._reindex()

    def class_count(self, project_id: EntityId) -> int:
        return sum(1 for c in self.classes if c.project_id == project_id)


@dataclass
class ProjectData:
    """Catalog rows for one project plus parse results for downstream use."""

    project: ProjectMeta
    packages: list[PackageMeta]
    classes: list[ClassMeta]
    methods: list[MethodMeta]
    sources: dict[EntityId, MethodSource]      # method_id -> source
    views: list[FileView]
    diagnostics: list[Diagnostic]

    def catalog(self) -> Catalog:
        return Catalog([self.project], list(self.packages),
                       list(self.classes), list(self.methods))


def _parse_one(path: Path, rel: str) -> FileView | Diagnostic:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return Diagnostic(rel, f"not valid UTF-8: {exc}")
    try:
        return file_view(text, rel)
    except CorpusError as exc:
        return Diagnostic(rel, str(exc))


def catalog_project(root, corpus_root=None, strict: bool = False
                    ) -> ProjectData:
    """Catalog one project directory tree.

    `corpus_root` anchors the relative paths recorded in metadata; when
    omitted, paths are relative to the project root's parent. Unparseable
    files become diagnostics (or errors if strict). A project with no
    cataloged classes raises EmptyProjectError.
    """
    root = Path(root)
    if not root.is_dir():
        raise InputError(f"project root is not a directory: {root}")
    base = Path(corpus_root) if corpus_root is not None else root.parent
    project_rel = root.relative_to(base).as_posix()
    project_name = root.name
    project_id = assign_id("project", project_key(project_name, project_rel))
    project = ProjectMeta(project_id, project_rel, project_name)

    diagnostics: list[Diagnostic] = []
    views: list[FileView] = []
    for path in sorted(root.rglob("*.java")):
        rel = f"{project_rel}/{path.relative_to(root).as_posix()}"
        res = _parse_one(path, rel)
        if isinstance(res, Diagnostic):
            if strict:
                raise ParseError(f"{res.path}: {res.message}")
            diagnostics.append(res)
        else:
            views.append(res)

    packages: dict[str, PackageMeta] = {}
    packages_by_path: dict[str, PackageMeta] = {}
    classes: list[ClassMeta] = []
    methods: list[MethodMeta] = []
    sources: dict[EntityId, MethodSource] = {}
    seen_class_paths: set[str] = set()

    for view in views:
        file_rel = view.path
        pkg_name = view.package_name
        pkg_dir = file_rel.rsplit("/", 1)[0] if "/" in file_rel else file_rel
        if pkg_name not in packages:
            pkg_path = Path(pkg_dir).relative_to(project_rel).as_posix() \
                if pkg_dir != project_rel else "."
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
        if not view.classes:
            diagnostics.append(Diagnostic(file_rel, "no type declarations"))
            continue
        if len(view.classes) > 1:
            diagnostics.append(Diagnostic(
                file_rel, "multiple top-level types; extra types skipped"))
        cv = view.classes[0]
        if file_rel in seen_class_paths:
            diagnostics.append(Diagnostic(file_rel, "duplicate class path; skipped"))
            continue
        seen_class_paths.add(file_rel)
        class_id = assign_id("class", class_key(file_rel))
        classes.append(ClassMeta(project_id, pkg.package_id, class_id,
                                 file_rel, cv.name))
        for m in cv.methods:
            mid = assign_id("method", method_key(file_rel, m.signature, m.start_line))
            m.method_id = mid
            methods.append(MethodMeta(
                project_id, pkg.package_id, class_id, mid, file_rel,
                m.name, m.start_line, m.end_line, m.signature))
            sources[mid] = m

    if not classes:
        raise EmptyProjectError(f"no cataloged classes under {root}")

    unique_packages = {p.package_id: p for p in packages.values()}
    data = ProjectData(
        project=project,
        packages=sorted(unique_packages.values(),
                        key=lambda p: (p.package_path, p.package_id)),
        classes=classes,
        methods=methods,
        sources=sources,
        views=views,
        diagnostics=diagnostics,
    )
    return data


# ---------------------------------------------------------------------------
# Metadata CSV round trip
# ---------------------------------------------------------------------------

# Metadata and property tables go through these two functions rather than
# straight to `tables`: the benchmark tracer (bench/tracing.py) wraps them by
# name, which times catalog table I/O apart from the other tables.

def _write_csv(path: Path, header: list[str], rows) -> None:
    write_table(path, header, rows)


def _read_csv(path: Path, header: list[str], int_columns=()) -> list[list]:
    return read_table(path, header, int_columns)


def write_metadata(cat: Catalog, out_dir) -> list[Path]:
    """Write the four metadata CSVs; rows sorted for byte determinism."""
    out = Path(out_dir)
    cat.sort()
    paths = []
    for name, header, rows in (
        ("projects.csv", PROJECTS_HEADER,
         [(p.project_id, p.project_path, p.project_name) for p in cat.projects]),
        ("packages.csv", PACKAGES_HEADER,
         [(p.project_id, p.package_id, p.package_path, p.package_name)
          for p in cat.packages]),
        ("classes.csv", CLASSES_HEADER,
         [(c.project_id, c.package_id, c.class_id, c.class_path, c.class_name)
          for c in cat.classes]),
        ("methods.csv", METHODS_HEADER,
         [(m.project_id, m.package_id, m.class_id, m.method_id, m.method_path,
           m.method_name, m.start_line, m.end_line, m.method_signature)
          for m in cat.methods]),
    ):
        path = out / name
        _write_csv(path, header, rows)
        paths.append(path)
    return paths


def read_metadata(in_dir) -> Catalog:
    """Read metadata CSVs back; validates headers and field counts."""
    base = Path(in_dir)
    projects = [ProjectMeta(*row)
                for row in _read_csv(base / "projects.csv", PROJECTS_HEADER)]
    packages = [PackageMeta(*row)
                for row in _read_csv(base / "packages.csv", PACKAGES_HEADER)]
    classes = [ClassMeta(*row)
               for row in _read_csv(base / "classes.csv", CLASSES_HEADER)]
    methods = [MethodMeta(*row)
               for row in _read_csv(base / "methods.csv", METHODS_HEADER,
                                    ("start_line", "end_line"))]
    return Catalog(projects, packages, classes, methods)


# ---------------------------------------------------------------------------
# Property store
# ---------------------------------------------------------------------------

PropertyValue = int | str | bool


class PropertyStore:
    """Method-id keyed property tables, one per 4-16 uppercase-letter key."""

    def __init__(self, known_ids: set[EntityId] | None = None):
        self.tables: dict[str, dict[EntityId, PropertyValue]] = {}
        self.known_ids = known_ids

    @staticmethod
    def validate_key(key: str) -> None:
        if not PROPERTY_KEY_RE.match(key or ""):
            raise InvalidArgumentError(
                f"property key must be 4-16 uppercase letters, got {key!r}")

    def add_property(self, key: str,
                     rows: dict[EntityId, PropertyValue]) -> tuple[int, list[EntityId]]:
        """Store a table atomically; returns (stored, rejected ids).

        Rows whose method id is not in the known-id set are rejected. Re-adding
        a key replaces the whole table only after validation passes.
        """
        self.validate_key(key)
        accepted: dict[EntityId, PropertyValue] = {}
        rejected: list[EntityId] = []
        for mid, value in rows.items():
            if self.known_ids is not None and mid not in self.known_ids:
                rejected.append(mid)
            else:
                accepted[mid] = value
        self.tables[key] = accepted
        return len(accepted), sorted(rejected)

    def table(self, key: str) -> dict[EntityId, PropertyValue]:
        if key not in self.tables:
            raise NotFoundError(f"unknown property key: {key}")
        return dict(self.tables[key])


def format_property_value(value: PropertyValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_property_csv(key: str, table: dict[EntityId, PropertyValue], out_dir) -> Path:
    PropertyStore.validate_key(key)
    path = Path(out_dir) / f"{key}.csv"
    rows = [(mid, format_property_value(v)) for mid, v in sorted(table.items())]
    _write_csv(path, ["method_id", "value"], rows)
    return path


def read_property_csv(path) -> dict[EntityId, str]:
    """Read a property CSV; values come back as text, caller coerces."""
    rows = _read_csv(Path(path), ["method_id", "value"])
    return {mid: value for mid, value in rows}
