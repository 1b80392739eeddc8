"""Synthetic fixture corpus generator.

Writes a small, fully deterministic corpus of Java-subset projects used by
the test suite, the acceptance checks, and the README quickstart:

* demo        -- hand-traceable call graph across two packages plus one
                 library-API call (the ground truth lives in the tests).
* metricsuite -- hand-analyzed methods pinning the metric computers.
* flowlab     -- straight-line / branch / loop shapes for data-flow checks.
* textzoo     -- literals with commas and spaces, annotations, overloads,
                 an interface, generics, constructors, cross-package calls.
* bulk_b/c/d  -- generated projects whose class counts land in the 21-50,
                 51-100, and >100 class-count buckets (the small projects
                 cover the <=20 bucket). Counts are configurable.

Run `python -m codecorpus.fixturegen OUT_DIR` to materialize one.
"""

import sys
from pathlib import Path

DEFAULT_BUCKET_CLASSES = {"bulk_b": 25, "bulk_c": 60, "bulk_d": 104}

_DEMO_FILES = {
    "demo/app/A.java": """\
package app;

import lib.C;

public class A {

    public void main() {
        helper();
        B.util(1);
        C.fmt("x");
        String.format("y");
    }

    public int helper() {
        int x = 1;
        return x;
    }
}
""",
    "demo/app/B.java": """\
package app;

public class B {

    public static void util(int n) {
        int m = n + 1;
    }
}
""",
    "demo/lib/C.java": """\
package lib;

public class C {

    public static void fmt(String s) {
        String t = s;
    }

    public static int twice(int n) {
        return n + n;
    }
}
""",
}

_METRIC_FILES = {
    "metricsuite/calc/Calc.java": """\
package calc;

public class Calc {

    public int zero() {
        return 0;
    }

    public void nothing() {
    }

    public int abs(int a) {
        if (a < 0) {
            return 0 - a;
        }
        return a;
    }

    public int clamp(int a) {
        if (a > 9 && a < 99) {
            a = 9;
        }
        return a;
    }

    public int pick(int a, int b) {
        if (a > b) {
            return a;
        } else {
            return b;
        }
    }

    public int sum(int n) {
        int s = 0;
        int i = 0;
        while (i < n) {
            s = s + i;
            i = i + 1;
        }
        return s;
    }

    public int grid(int n) {
        int c = 0;
        int i = 0;
        while (i < n) {
            int j = 0;
            while (j < n) {
                c = c + 1;
                j = j + 1;
            }
            i = i + 1;
        }
        return c;
    }

    public int steps(int n) {
        int t = 0;
        for (int i = 0; i < n; i = i + 1) {
            t = t + 2;
        }
        return t;
    }

    public int branchy(int a) {
        int r = 0;
        if (a > 0) {
            if (a > 10) {
                r = 2;
            } else {
                r = 1;
            }
        }
        return r;
    }

    public int trio(int a) {
        int r = 0;
        if (a > 0) {
            r = r + 1;
        }
        if (a > 1) {
            r = r + 1;
        }
        if (a > 2) {
            r = r + 1;
        }
        return r;
    }

    public int either(int a, int b) {
        if (a > 0 || b > 0) {
            return 1;
        }
        return 0;
    }

    public int ternary(int a) {
        int r = a > 0 ? 1 : 0;
        return r;
    }

    public int hits(int n) {
        int c = 0;
        for (int i = 0; i < n; i = i + 1) {
            if (i > 2) {
                c = c + 1;
            }
        }
        return c;
    }
}
""",
}

_FLOW_FILES = {
    "flowlab/flow/Flow.java": """\
package flow;

public class Flow {
    private int total;

    public Flow(int seed) {
        this.total = seed;
    }

    public int straight(int a) {
        int x = 1;
        int y = x;
        return y;
    }

    public int joinuse(int a) {
        int b = 0;
        if (a > 0) {
            b = a;
        } else {
            b = 0;
        }
        int c = b;
        return c;
    }

    public int looped(int n) {
        int i = 0;
        while (i < n) {
            i = i + 1;
        }
        return i;
    }

    public int guard(int a, int b) {
        int r = 0;
        if (a > 0) {
            r = a;
        } else {
            r = b;
        }
        return r;
    }

    public int chain(int a) {
        int x = a + 1;
        int y = x * 2;
        x = y - a;
        return x;
    }

    public int bump(int a) {
        a++;
        return a;
    }

    public int fieldflow(int a) {
        total = total + a;
        return total;
    }

    public void setTotal(int v) {
        this.total = v;
    }

    public int forflow(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            acc = acc + i;
        }
        return acc;
    }
}
""",
}

_TEXT_FILES = {
    "textzoo/text/Literals.java": """\
package text;

public class Literals {

    public String join(String left, String right) {
        String sep = ",";
        String pair = "a,b";
        char mark = ',';
        return left + sep + pair + right + mark;
    }

    public String spaced() {
        return "a b c";
    }

    public int codes() {
        char nl = '\\n';
        String quoted = "say \\"hi\\"";
        boolean flag = true;
        String none = null;
        return flag ? 1 : 0;
    }
}
""",
    "textzoo/text/Over.java": """\
package text;

public class Over {

    public int f(int a) {
        return a + 1;
    }

    public int f(String s) {
        return 2;
    }

    public int go() {
        int r = f(1);
        return r + f("x");
    }
}
""",
    "textzoo/text/Shape.java": """\
package text;

public interface Shape {
    int area();

    int scaled(int factor);
}
""",
    "textzoo/text/Box.java": """\
package text;

import java.util.List;

public class Box implements Shape {
    private int width;
    private int height;

    public Box(int width, int height) {
        this.width = width;
        this.height = height;
    }

    @Override
    public int area() {
        return width * height;
    }

    @Override
    public int scaled(int factor) {
        Box copy = new Box(width * factor, height * factor);
        return copy.area();
    }

    public List<String> tags() {
        List<String> names = null;
        return names;
    }
}
""",
    "textzoo/text/Helper.java": """\
package text;

import util2.Pretty;

public class Helper {

    public String describe(Shape s) {
        int a = s.area();
        String tag = Pretty.wrap("box", a);
        return String.valueOf(a) + tag;
    }

    public int grow(Shape s, int factor) {
        return s.scaled(factor);
    }
}
""",
    "textzoo/text/Solo.java": """\
package text;

import util2.Pretty;

public class Solo {

    public int localOnly() {
        return pick();
    }

    public int pick() {
        return 7;
    }

    public int packageOnly() {
        Box b = new Box(2, 3);
        return b.area();
    }

    public int projectOnly(int a, int b) {
        return Pretty.flip(a, b);
    }

    public String apiOnly(int n) {
        return String.valueOf(n);
    }
}
""",
    "textzoo/util2/Pretty.java": """\
package util2;

public class Pretty {

    public static String wrap(String tag, int value) {
        return tag + value;
    }

    public static int flip(int a, int b) {
        return b - a;
    }
}
""",
}

_BULK_ROOT = """\
package bulk;

public class Root {

    public static int base(int a, int b) {
        return a * 31 + b;
    }
}
"""

_BULK_CLASS = """\
package bulk;

public class {name} {{
    private int seed;

    public {name}(int seed) {{
        this.seed = seed;
    }}

    public int value() {{
        return seed * {mult} + {add};
    }}

    public int next() {{
        return value() + {add};
    }}
{extra}}}
"""

_BULK_STEP = """\

    public int step(int lo, int hi) {
        return hi - lo + seed;
    }

    public int share() {
        return Root.base(seed, 3) + step(1, 2);
    }
"""

_BULK_API = """\

    public String apiTag() {
        return String.valueOf(seed);
    }
"""


def _bulk_files(project: str, class_count: int) -> dict[str, str]:
    files = {f"{project}/bulk/Root.java": _BULK_ROOT}
    for i in range(class_count - 1):
        name = f"Gen{i:03d}"
        extra = ""
        if i % 3 == 0:
            extra += _BULK_STEP
        if i % 5 == 0:
            extra += _BULK_API
        files[f"{project}/bulk/{name}.java"] = _BULK_CLASS.format(
            name=name, mult=(i % 9) + 2, add=(i % 4) + 1, extra=extra)
    return files


def fixture_files(bucket_classes: dict[str, int] | None = None) -> dict[str, str]:
    """All fixture files as {relative path: source text}."""
    counts = dict(DEFAULT_BUCKET_CLASSES)
    if bucket_classes:
        counts.update(bucket_classes)
    files: dict[str, str] = {}
    for group in (_DEMO_FILES, _METRIC_FILES, _FLOW_FILES, _TEXT_FILES):
        files.update(group)
    for project, count in sorted(counts.items()):
        files.update(_bulk_files(project, count))
    return files


def write_fixture_corpus(root, bucket_classes: dict[str, int] | None = None) -> list[str]:
    """Materialize the fixture corpus under root; returns project names."""
    root = Path(root)
    files = fixture_files(bucket_classes)
    paths = {rel: root / rel for rel in files}
    for parent in {path.parent for path in paths.values()}:
        parent.mkdir(parents=True, exist_ok=True)
    for rel, text in files.items():
        paths[rel].write_text(text, encoding="utf-8")
    return sorted({rel.split("/", 1)[0] for rel in files})


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: python -m codecorpus.fixturegen OUT_DIR", file=sys.stderr)
        return 1
    projects = write_fixture_corpus(args[0])
    print(f"wrote {len(projects)} projects under {args[0]}: {', '.join(projects)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
