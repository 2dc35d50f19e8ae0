import threading

import numpy as np
import pytest

from pointssl import PointCloud, SceneSpec, _threads, generate_room


def make_cloud(positions, **kwargs) -> PointCloud:
    return PointCloud(positions=np.asarray(positions, dtype=np.float64), **kwargs)


def toy_room(seed: int = 0, **overrides) -> PointCloud:
    """Small annotated room for training-path tests."""
    defaults = dict(
        extents=(1.6, 1.2, 0.8),
        surface_density=110.0,
        furniture_count=2,
        ghost_fraction=0.1,
        max_points=800,
        seed=seed,
    )
    defaults.update(overrides)
    cloud, _ = generate_room(SceneSpec(**defaults))
    return cloud


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail a test that leaves a Python thread running: every pool must be
    joined before its caller returns."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")


@pytest.fixture(scope="session")
def toy_scenes():
    return [toy_room(seed=100 + i) for i in range(8)]


@pytest.fixture(scope="session")
def big_room():
    """A tilted 21,000-point room with ghosts and outliers: many row blocks."""
    cloud, _ = generate_room(SceneSpec(ghost_fraction=0.2, outlier_count=200,
                                       tilt_degrees=6.0, max_points=21000, seed=3))
    return cloud


def force_threads(monkeypatch, cpus: int) -> set:
    """Make every thread_map caller see `cpus` usable CPUs; return the set of
    threads its items ran on."""
    threads = set()
    thread_map = _threads.thread_map

    def recording_thread_map(fn, items, workers):
        def item_fn(item):
            threads.add(threading.get_ident())
            return fn(item)
        return thread_map(item_fn, items, workers)

    monkeypatch.setattr(_threads, "thread_map", recording_thread_map)
    monkeypatch.setattr(_threads, "usable_cpus", lambda: cpus)
    return threads
