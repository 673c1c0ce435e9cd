"""Deterministic seed derivation.

All randomness in the package flows from one 64-bit seed.  Sub-tasks
(Monte Carlo replications, disorder draws, optimizer multi-starts) derive
their generator from the top-level seed plus an integer key path:

    rng = spawn_rng(seed, task_index)            # one level
    rng = spawn_rng(seed, draw_index, stage)     # nested

``numpy.random.SeedSequence(seed, spawn_key=path)`` implements the
derivation, so results are identical no matter how many workers run the
tasks or in which order they complete.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for sub-task ``path`` of the run seeded by ``seed`` (>= 0)."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def parallel_map(fn, n_tasks: int, threads: int = 1) -> list:
    """Run ``fn(i)`` for i in range(n_tasks), returning results in task order.

    Results are independent of ``threads``; the thread pool only changes
    scheduling, never the per-task seeds or the reduction order.
    """
    check_threads(threads)
    if threads == 1 or n_tasks <= 1:
        return [fn(i) for i in range(n_tasks)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_tasks)))


def check_threads(n: int) -> None:
    """Raise ValidationError unless ``n`` asks for at least one thread."""
    if n < 1:
        raise ValidationError(f"threads must be >= 1, got {n}")


def check_replications(n: int) -> None:
    """Raise ValidationError unless ``n`` asks for at least one replication or draw."""
    if n < 1:
        raise ValidationError(f"at least one replication or draw is required, got {n}")


def mean_and_se(values) -> tuple[float, float]:
    """Mean of independent replications and its standard error.

    The standard error is the sample standard deviation over sqrt(n), and 0
    for a single replication.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), se
