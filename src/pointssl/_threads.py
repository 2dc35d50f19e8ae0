"""Internal helpers: the usable CPU count and an ordered thread map."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def usable_cpus() -> int:
    # scipy's workers=-1 counts every CPU of the machine, including those
    # outside this process's affinity mask.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items] on up to `workers` threads; inline with
    fewer than 2 workers or items.  Either way the results, and the first
    exception, come back in input order."""
    items = list(items)
    workers = min(workers, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
