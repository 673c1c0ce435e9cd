"""Time one cold set-up and print it in seconds.

Runs in a fresh interpreter, started by ``run.py`` with the BLAS pins set:
the clock starts just before the first ``import vecspin.cli`` (numpy,
scipy and yaml load under it) and stops when the workload's inputs are
built.  This is the fixed cost a user of the CLI pays on every call.

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> None:
    workload, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import vecspin.cli  # noqa: F401
    import workloads

    workloads.build(workload, seed, ROOT)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
