import threading

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pointssl import EmptyCloudError, estimate_normals

from conftest import force_threads, make_cloud, toy_room


def reference_normals(cloud, k):
    """Single-threaded query and the PCA formula, written out step by step."""
    pts = cloud.positions
    _, nbr = cKDTree(pts).query(pts, k=k + 1)
    neighborhoods = pts[nbr]
    centered = neighborhoods - neighborhoods.mean(axis=1, keepdims=True)
    eigvals, eigvecs = np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered))
    normals = eigvecs[:, :, 0]
    degenerate = eigvals[:, 1] <= 1e-12 * np.maximum(eigvals[:, 2], 0.0)
    normals[degenerate] = (0.0, 0.0, 1.0)
    sign = np.zeros(len(normals))
    for axis in (2, 0, 1):
        use = (sign == 0.0) & (np.abs(normals[:, axis]) >= 1e-6)
        sign[use] = np.sign(normals[use, axis])
    sign[sign == 0.0] = 1.0
    normals *= sign[:, None]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals, degenerate


def test_plane_normals():
    rng = np.random.default_rng(0)
    points = np.column_stack([rng.uniform(0, 2, 800), rng.uniform(0, 2, 800),
                              np.zeros(800)])
    cloud = estimate_normals(make_cloud(points), k=12)
    angles = np.degrees(np.arccos(np.clip(cloud.normals @ [0, 0, 1], -1, 1)))
    assert angles.max() < 1.0


def test_sphere_normals_radial():
    rng = np.random.default_rng(1)
    directions = rng.normal(size=(3000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    cloud = estimate_normals(make_cloud(directions), k=16)
    # normals should agree with the radial direction up to sign
    cos = np.abs(np.einsum("ij,ij->i", cloud.normals, directions))
    angles = np.degrees(np.arccos(np.clip(cos, -1, 1)))
    assert np.percentile(angles, 99) < 5.0


def test_degenerate_neighborhood_flagged():
    # a pile of coincident points plus a line: rank < 2 everywhere
    points = np.concatenate([
        np.zeros((8, 3)),
        np.column_stack([np.linspace(1, 2, 8), np.zeros(8), np.zeros(8)]),
    ])
    cloud, degenerate = estimate_normals(make_cloud(points), k=4, return_degenerate=True)
    assert degenerate.all()
    np.testing.assert_array_equal(cloud.normals, np.tile([0.0, 0.0, 1.0], (16, 1)))


def test_orientation_conventions():
    rng = np.random.default_rng(2)
    # tilted plane: normals must point into the +Z hemisphere
    base = np.column_stack([rng.uniform(0, 2, 500), rng.uniform(0, 2, 500), np.zeros(500)])
    tilt = np.radians(30)
    rot = np.array([[1, 0, 0], [0, np.cos(tilt), -np.sin(tilt)],
                    [0, np.sin(tilt), np.cos(tilt)]])
    cloud = estimate_normals(make_cloud(base @ rot.T), k=12)
    assert (cloud.normals[:, 2] > 0).all()

    # vertical plane (normal perpendicular to z): +X rule decides the sign
    wall = np.column_stack([np.zeros(500), rng.uniform(0, 2, 500), rng.uniform(0, 2, 500)])
    cloud = estimate_normals(make_cloud(wall), k=12)
    assert (cloud.normals[:, 0] > 0.99).all()


def test_unit_norm_output():
    rng = np.random.default_rng(3)
    cloud = estimate_normals(make_cloud(rng.uniform(0, 1, (300, 3))), k=10)
    np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-9)


def test_needs_more_than_k_points():
    with pytest.raises(EmptyCloudError):
        estimate_normals(make_cloud(np.random.default_rng(0).uniform(0, 1, (10, 3))), k=10)


def _bit_exact_cases():
    rng = np.random.default_rng(4)
    room = toy_room(seed=3, extents=(3.2, 2.4, 1.6), max_points=6000)
    valid = rng.random(len(room)) > 0.05
    yield room.select(valid), 16
    pile = np.concatenate([np.zeros((8, 3)), rng.uniform(0, 1, (200, 3))])
    yield make_cloud(np.concatenate([pile, pile[:40]])), 6
    line = np.column_stack([np.linspace(1, 2, 8), np.zeros(8), np.zeros(8)])
    yield make_cloud(np.concatenate([np.zeros((8, 3)), line])), 4


def test_bit_identical_to_reference():
    for cloud, k in _bit_exact_cases():
        out, degenerate = estimate_normals(cloud, k=k, return_degenerate=True)
        ref_normals, ref_degenerate = reference_normals(cloud, k)
        assert np.array_equal(out.normals, ref_normals)
        assert np.array_equal(degenerate, ref_degenerate)


@pytest.mark.parametrize("cpus", [2, 1])
def test_row_blocks_match_reference_on_any_thread_count(big_room, monkeypatch, cpus):
    threads = force_threads(monkeypatch, cpus)
    out, degenerate = estimate_normals(big_room, k=16, return_degenerate=True)
    if cpus == 1:
        assert threads == {threading.get_ident()}
    else:
        assert threads and threading.get_ident() not in threads
    ref_normals, ref_degenerate = reference_normals(big_room, 16)
    assert np.array_equal(out.normals, ref_normals)
    assert np.array_equal(degenerate, ref_degenerate)
