"""The run record written into every results file."""
from __future__ import annotations

import os
import platform
from pathlib import Path

#: Thread pins set before numpy loads, in the benchmark and in every
#: interpreter it starts.
BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas_version(np_module) -> str | None:
    blas = np_module.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}" if blas else None


def source_lines(root: Path) -> int:
    """Physical lines of ``src/vecspin/*.py`` (ROADMAP aim 2; baseline 3027)."""
    total = 0
    for path in sorted((root / "src" / "vecspin").glob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def record(root: Path, workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "workload": workload,
        "workload_seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_version(numpy),
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "vecspin_threads": 1,
        "source_lines": source_lines(root),
    }
