"""Record the reference values of every pool instance into references.json.

    python3 perfbench/record_references.py [workload ...]

The checks compare later revisions against these values, so the file is
recorded once, on the revision that defined the benchmark, and is not
regenerated to make a check pass.  It runs only the tasks that have a
reference (not the cascade samplers or ``optimize``).
"""
import json
import os
import sys
from pathlib import Path

from runrecord import BLAS_PIN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(names) -> None:
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    path = HERE / workloads.REFERENCES
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in names or workloads.WORKLOADS:
        refs[name] = {}
        for pool in range(workloads.POOL):
            wl = workloads.build(name, pool, ROOT)
            refs[name][str(pool)] = {t.key: t.reference(t.fn()) for t in wl.tasks
                                     if t.reference is not None}
            print(name, pool, flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
