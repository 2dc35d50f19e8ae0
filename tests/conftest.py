import threading

import numpy as np
import pytest

from pointssl import PointCloud, SceneSpec, generate_room, geometry


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


@pytest.fixture(scope="session")
def toy_scenes():
    return [toy_room(seed=100 + i) for i in range(8)]


@pytest.fixture(scope="session")
def big_room():
    """A tilted 21,000-point room with ghosts and outliers: many row blocks."""
    cloud, _ = generate_room(SceneSpec(ghost_fraction=0.2, outlier_count=200,
                                       tilt_degrees=6.0, max_points=21000, seed=3))
    return cloud


def force_row_threads(monkeypatch, cpus: int) -> set:
    """Make geometry's row-parallel stages see `cpus` usable CPUs; return the
    set of threads their row blocks ran on."""
    threads = set()
    row_map = geometry._row_map

    def recording_row_map(fn, n):
        def block(rows):
            threads.add(threading.get_ident())
            return fn(rows)
        return row_map(block, n)

    monkeypatch.setattr(geometry, "_row_map", recording_row_map)
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: cpus)
    return threads
