"""Seeded generator for the `long_methods` corpus.

The fixture corpora have tiny, repetitive methods (median 14 terminals), so
the quadratic path-context pair loop, path sampling at the context cap,
feature-graph data flow, NPATH and BPE training never see realistic input.
This generator writes long, branchy methods instead: nested if/else, while
and for loops, calls in all four localities, ternaries and `new`, with
varied identifiers and literals. Everything it emits stays inside the
parser's Java subset (no arrays, switch, try, lambdas).

Method sizes are spread evenly over a terminal-count range (80-400). The
corpus is 12 members and about 300 distinct lines, so that one repetition
takes a few seconds and a run holds several: path extraction is quadratic
in terminals per method, and BPE training rescans every line once per
merge, so 30 methods of 1k-6k terminals take minutes.
"""

import random
import re
from pathlib import Path

WORDS = """
account active adjust amount anchor batch bound branch bucket budget buffer
cache carry cell chunk clock count cursor delta depth digit draft edge entry
factor field filter flag frame gauge grade group guard index input item
label layer level limit line load margin mark meter mode node offset order
output owner packet page parcel path peak pivot point pool price queue quota
range rank rate ratio record region result round row scale score segment
shift signal size slot source span stage start state step stock store
stride sum table target term tick tier token total track trend unit value
vector volume weight width window
""".split()

API_CALLS = (("Math", "max", 2), ("Math", "min", 2), ("Math", "abs", 1),
             ("Integer", "signum", 1))

_TOKEN_RE = re.compile(r'"[^"]*"|\w+|&&|\|\||[<>=!+\-*/%]=|\+\+|--|\S')

# One project of two packages of two classes: calls reach the same class,
# the same package, the other package and the library API. Each class has
# a constructor, a static helper and an instance method, all generated long.
PROJECT = "long0"
PACKAGES = 2
CLASSES = 2
TERMS = (80, 400)
TINY_TERMS = (40, 80)


def count_terminals(text: str) -> int:
    """Token count of a Java-subset snippet (approximates parser terminals)."""
    return len(_TOKEN_RE.findall(text))


class _Klass:
    def __init__(self, package, name):
        self.package = package
        self.name = name
        self.fields: list[str] = []
        self.method: tuple[str, int] = ("", 0)   # instance: (name, arity)
        self.helper: tuple[str, int] = ("", 0)   # static: (name, arity)


class _MethodWriter:
    """Emits one method body into `lines`, tracking the terminal budget."""

    def __init__(self, rng: random.Random, klass: _Klass,
                 others: list[_Klass], budget: int, static: bool = False):
        self.rng = rng
        self.klass = klass
        self.static = static
        self.others = others
        self.budget = budget
        self.used = 0
        self.lines: list[str] = []
        self.names: set[str] = set()

    # -- names and literals ----------------------------------------------

    def fresh(self) -> str:
        rng = self.rng
        while True:
            a, b = rng.sample(WORDS, 2)
            name = a + b.capitalize()
            if rng.random() < 0.3:
                name += str(rng.randrange(2, 99))
            if name not in self.names:
                self.names.add(name)
                return name

    def literal(self) -> str:
        r = self.rng.random()
        if r < 0.6:
            return str(self.rng.randrange(0, 10000))
        return str(self.rng.randrange(0, 10))

    # -- expressions -----------------------------------------------------

    def atom(self, scope: list[str]) -> str:
        rng = self.rng
        r = rng.random()
        if scope and r < 0.55:
            return rng.choice(scope)
        if r < 0.7 and not self.static:
            field = rng.choice(self.klass.fields)
            return f"this.{field}" if rng.random() < 0.5 else field
        return self.literal()

    def call(self, scope: list[str], depth: int) -> str:
        rng = self.rng
        r = rng.random()
        if r < 0.35 and not self.static:
            name, arity = self.klass.method
            prefix = "this." if rng.random() < 0.3 else ""
        elif r < 0.75 and self.others:
            other = rng.choice(self.others)
            name, arity = other.helper
            prefix = other.name + "."
        else:
            owner, name, arity = rng.choice(API_CALLS)
            prefix = owner + "."
        args = ", ".join(self.expr(scope, depth + 1) for _ in range(arity))
        return f"{prefix}{name}({args})"

    def expr(self, scope: list[str], depth: int = 0) -> str:
        rng = self.rng
        r = rng.random()
        if depth >= 2 or r < 0.35:
            return self.atom(scope)
        if r < 0.7:
            op = rng.choice(("+", "-", "*", "+", "-", "/", "%"))
            right = self.atom(scope)
            if op in ("/", "%"):
                right = str(rng.randrange(2, 97))
            return f"{self.expr(scope, depth + 1)} {op} {right}"
        if r < 0.85:
            return self.call(scope, depth)
        if r < 0.93:
            return f"({self.cond(scope, depth + 1)} ? " \
                f"{self.atom(scope)} : {self.atom(scope)})"
        return f"({self.expr(scope, depth + 1)})"

    def cond(self, scope: list[str], depth: int = 0) -> str:
        rng = self.rng
        op = rng.choice(("<", ">", "<=", ">=", "==", "!="))
        base = f"{self.atom(scope)} {op} {self.expr(scope, depth + 1)}"
        r = rng.random()
        if depth < 2 and r < 0.25:
            glue = rng.choice(("&&", "||"))
            return f"{base} {glue} {self.cond(scope, depth + 1)}"
        if depth < 2 and r < 0.32:
            return f"!({base})"
        return base

    # -- statements ------------------------------------------------------

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)
        self.used += count_terminals(text)

    def block(self, indent: int, scope: list[str], budget: int,
              depth: int) -> None:
        """Statements until `budget` more terminals are spent."""
        scope = list(scope)
        stop = self.used + budget
        while self.used < stop and self.used < self.budget:
            self.statement(indent, scope, depth, stop - self.used)

    def statement(self, indent: int, scope: list[str], depth: int,
                  room: int) -> None:
        rng = self.rng
        r = rng.random()
        nested = depth < 3 and room > 30
        if not scope or r < 0.2:
            name = self.fresh()
            self.emit(indent, f"int {name} = {self.expr(scope)};")
            scope.append(name)
        elif nested and r < 0.38:
            self.emit(indent, f"if ({self.cond(scope)}) {{")
            self.block(indent + 1, scope, room // 3, depth + 1)
            if rng.random() < 0.6:
                self.emit(indent, "} else {")
                self.block(indent + 1, scope, room // 4, depth + 1)
            self.emit(indent, "}")
        elif nested and r < 0.46:
            counter = self.fresh()
            self.emit(indent, f"int {counter} = {self.literal()};")
            self.emit(indent, f"while ({counter} < {self.atom(scope)}) {{")
            self.block(indent + 1, scope + [counter], room // 4, depth + 1)
            self.emit(indent + 1, f"{counter} = {counter} + "
                      f"{rng.randrange(1, 5)};")
            self.emit(indent, "}")
        elif nested and r < 0.54:
            i = self.fresh()
            step = f"{i}++" if rng.random() < 0.5 else f"{i} = {i} + 1"
            self.emit(indent, f"for (int {i} = {rng.randrange(0, 4)}; "
                      f"{i} < {self.atom(scope)}; {step}) {{")
            self.block(indent + 1, scope + [i], room // 4, depth + 1)
            self.emit(indent, "}")
        elif r < 0.62 and self.others:
            other = rng.choice(self.others)
            obj = self.fresh()
            self.emit(indent, f"{other.name} {obj} = new {other.name}("
                      f"{self.expr(scope)});")
            name, arity = other.method
            args = ", ".join(self.atom(scope) for _ in range(arity))
            target = rng.choice(scope)
            self.emit(indent, f"{target} += {obj}.{name}({args});")
        elif r < 0.70:
            self.emit(indent, f"{self.call(scope, 1)};")
        elif r < 0.76:
            label = self.fresh()
            word = rng.choice(WORDS)
            self.emit(indent, f'String {label} = "{word} {rng.choice(WORDS)}"'
                      f" + {rng.choice(scope)};")
        elif r < 0.82 and not self.static:
            field = rng.choice(self.klass.fields)
            self.emit(indent, f"this.{field} = {self.expr(scope)};")
        elif r < 0.86:
            self.emit(indent, f"{rng.choice(scope)}++;")
        else:
            op = rng.choice(("=", "+=", "-=", "*="))
            self.emit(indent, f"{rng.choice(scope)} {op} {self.expr(scope)};")


def _member(rng: random.Random, klass: _Klass, others: list[_Klass],
            budget: int, head: str, arity: int, static: bool = False,
            returns: bool = True) -> list[str]:
    """One generated member: `head` is the declaration up to the name."""
    writer = _MethodWriter(rng, klass, others, budget, static)
    params = [writer.fresh() for _ in range(arity)]
    decl = f"    {head}(" + ", ".join(f"int {p}" for p in params) + ") {"
    writer.used = count_terminals(decl) + 1
    if returns:
        writer.used += 3
    writer.block(2, params, writer.budget, 0)
    lines = ["", decl, *writer.lines]
    if returns:
        lines.append(f"        return {writer.expr(params)};")
    lines.append("    }")
    return lines


def _class_source(rng: random.Random, klass: _Klass, others: list[_Klass],
                  imports: list[str], budgets) -> str:
    lines = [f"package {klass.package};", ""]
    lines += [f"import {imp};" for imp in imports]
    if imports:
        lines.append("")
    lines.append(f"public class {klass.name} {{")
    for field in klass.fields:
        lines.append(f"    private int {field};")
    lines += _member(rng, klass, others, next(budgets),
                     f"public {klass.name}", 1, returns=False)
    name, arity = klass.helper
    lines += _member(rng, klass, others, next(budgets),
                     f"public static int {name}", arity, static=True)
    name, arity = klass.method
    lines += _member(rng, klass, others, next(budgets),
                     f"public int {name}", arity)
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate(seed: int, tiny: bool = False) -> dict[str, str]:
    """All corpus files as {relative path: source text} for this seed.

    `tiny` shrinks every member to 40-80 terminals for the smoke test.
    """
    rng = random.Random(f"long_methods:{seed}")
    words = iter(rng.sample(WORDS, len(WORDS)))
    klasses = []
    for k in range(PACKAGES):
        package = f"{next(words)}{k}"
        klasses += [_Klass(package, next(words).capitalize() + "Unit")
                    for _ in range(CLASSES)]
    for klass in klasses:
        taken: set[str] = set()

        def name(prefix_words=2):
            while True:
                parts = rng.sample(WORDS, prefix_words)
                n = parts[0] + "".join(w.capitalize() for w in parts[1:])
                if n not in taken:
                    taken.add(n)
                    return n

        klass.fields = [name(1) + "Field", name(1) + "Acc"]
        klass.method = (name(), rng.randrange(1, 4))
        klass.helper = (name() + "Of", rng.randrange(1, 3))
    # Sizes are spread evenly over the range and shuffled, so the total
    # work (quadratic in method size) hardly changes from seed to seed.
    n = len(klasses) * 3
    lo, hi = TINY_TERMS if tiny else TERMS
    sizes = [round(lo + (hi - lo) * (i + 0.5) / n) for i in range(n)]
    rng.shuffle(sizes)
    budgets = iter(sizes)
    files = {}
    for klass in klasses:
        others = [o for o in klasses if o is not klass]
        imports = sorted({f"{o.package}.{o.name}" for o in others
                          if o.package != klass.package})
        files[f"{PROJECT}/{klass.package}/{klass.name}.java"] = \
            _class_source(rng, klass, others, imports, budgets)
    return files


def write(root, files: dict[str, str]) -> None:
    root = Path(root)
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
