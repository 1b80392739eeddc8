"""Record the expected workspace digest of each workload for a range of seeds.

    python3 bench/record_digests.py SEEDS [WORKLOAD ...]

SEEDS is a range like `0-31`. Each digest comes from one in-process
repetition, which runs the same commands through `codecorpus.cli.main` as
the timed subprocess runs do, and is merged into `bench/digests.json`.
Record only from a commit whose output is known to be right: the
benchmark counts every later mismatch as a failed operation.
"""

import json
import shutil
import sys
from contextlib import nullcontext

import run
from workloads import WORKLOADS, Context, tree_digest


def main(argv: list[str]) -> int:
    if not argv or "-" not in argv[0]:
        print(__doc__, file=sys.stderr)
        return 1
    lo, hi = (int(x) for x in argv[0].split("-"))
    sys.path.insert(0, str(run.ROOT / "src"))
    names = argv[1:] or list(WORKLOADS)
    path = run.HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        for seed in range(lo, hi + 1):
            work = run.OUT / "work" / f"record-{name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                ctx = Context(work=work, seed=seed, env=run._child_env())
                w = WORKLOADS[name](ctx)
                w.setup()
                w.prepare()
                ops = w.traced_repetition(lambda _name: nullcontext())
                problems = w.check(ops)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                digest = tree_digest(w.ws, w.corpus)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = digest
            print(f"{name} {seed} {digest}", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
