import threading

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pointssl import EmptyCloudError, estimate_normals, geometry, sor_filter
from pointssl.geometry import self_knn, survivor_neighbors

from conftest import force_threads, make_cloud, toy_room


def reference_normals(cloud, k):
    """Single-threaded query, the covariances and Smith's closed form for
    the smallest eigenpair, written out step by step on every row at once."""
    pts = cloud.positions
    _, nbr = cKDTree(pts).query(pts, k=k + 1)
    neighborhoods = pts[nbr]
    centered = neighborhoods - np.full((1, k + 1), 1.0 / (k + 1)) @ neighborhoods
    cov = centered.transpose(0, 2, 1) @ centered
    a00, a11, a22 = cov[:, 0, 0], cov[:, 1, 1], cov[:, 2, 2]
    a01, a02, a12 = cov[:, 0, 1], cov[:, 0, 2], cov[:, 1, 2]

    # Smith (1961): eigenvalues q + 2 p cos(phi + 2 pi j / 3) of cov = q I + p B,
    # with cos(3 phi) = det(B) / 2; j = 1 gives the smallest.
    q = (a00 + a11 + a22) / 3.0
    p = np.sqrt(((a00 - q) * (a00 - q) + (a11 - q) * (a11 - q) + (a22 - q) * (a22 - q)
                 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    scale = 1.0 / np.where(p > 0.0, p, 1.0)
    b00, b11, b22 = (a00 - q) * scale, (a11 - q) * scale, (a22 - q) * scale
    b01, b02, b12 = a01 * scale, a02 * scale, a12 * scale
    det_b = (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
             + b02 * (b01 * b12 - b11 * b02))
    phi = np.arccos(np.clip(0.5 * det_b, -1.0, 1.0)) / 3.0
    smallest = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)

    # Rank < 2 where the principal 2x2 minors sum to at most 1e-12 trace^2.
    minors = (a00 * a11 - a01 * a01) + (a00 * a22 - a02 * a02) + (a11 * a22 - a12 * a12)
    degenerate = minors <= 1e-12 * ((3.0 * q) * (3.0 * q))

    # The normal: the longest cross product of two rows of cov - smallest * I.
    normals = np.empty((len(pts), 3))
    for i in range(len(pts)):
        rows = cov[i] - smallest[i] * np.eye(3)
        products = [np.cross(rows[0], rows[1]), np.cross(rows[0], rows[2]),
                    np.cross(rows[1], rows[2])]
        squares = [x * x + y * y + z * z for x, y, z in products]
        longest = squares.index(max(squares))
        length = np.sqrt(squares[longest])
        if length > 0.0:
            normals[i] = products[longest] / length
        elif not degenerate[i]:  # an exact multiple root: any eigenvector
            normals[i] = np.linalg.eigh(cov[i])[1][:, 0]
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
    cloud, _ = estimate_normals(make_cloud(points), k=12)
    angles = np.degrees(np.arccos(np.clip(cloud.normals @ [0, 0, 1], -1, 1)))
    assert angles.max() < 1.0


def test_sphere_normals_radial():
    rng = np.random.default_rng(1)
    directions = rng.normal(size=(3000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    cloud, _ = estimate_normals(make_cloud(directions), k=16)
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
    cloud, degenerate = estimate_normals(make_cloud(points), k=4)
    assert degenerate.all()
    np.testing.assert_array_equal(cloud.normals, np.tile([0.0, 0.0, 1.0], (16, 1)))


def test_orientation_conventions():
    rng = np.random.default_rng(2)
    # tilted plane: normals must point into the +Z hemisphere
    base = np.column_stack([rng.uniform(0, 2, 500), rng.uniform(0, 2, 500), np.zeros(500)])
    tilt = np.radians(30)
    rot = np.array([[1, 0, 0], [0, np.cos(tilt), -np.sin(tilt)],
                    [0, np.sin(tilt), np.cos(tilt)]])
    cloud, _ = estimate_normals(make_cloud(base @ rot.T), k=12)
    assert (cloud.normals[:, 2] > 0).all()

    # vertical plane (normal perpendicular to z): +X rule decides the sign
    wall = np.column_stack([np.zeros(500), rng.uniform(0, 2, 500), rng.uniform(0, 2, 500)])
    cloud, _ = estimate_normals(make_cloud(wall), k=12)
    assert (cloud.normals[:, 0] > 0.99).all()


def test_unit_norm_output():
    rng = np.random.default_rng(3)
    cloud, _ = estimate_normals(make_cloud(rng.uniform(0, 1, (300, 3))), k=10)
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
        out, degenerate = estimate_normals(cloud, k=k)
        ref_normals, ref_degenerate = reference_normals(cloud, k)
        assert np.array_equal(out.normals, ref_normals)
        assert np.array_equal(degenerate, ref_degenerate)


@pytest.mark.parametrize("cpus", [2, 1])
def test_row_blocks_match_reference_on_any_thread_count(big_room, monkeypatch, cpus):
    # The CPU count reaches only the kd-tree query's workers=; the row
    # blocks run on the calling thread.
    threads = force_threads(monkeypatch, cpus)
    out, degenerate = estimate_normals(big_room, k=16)
    assert threads <= {threading.get_ident()}
    ref_normals, ref_degenerate = reference_normals(big_room, 16)
    assert np.array_equal(out.normals, ref_normals)
    assert np.array_equal(degenerate, ref_degenerate)


def eigh_oracle(points, k):
    """LAPACK's answer for each neighborhood: its einsum covariance, the
    eigenvalues and eigenvectors eigh finds, and eigh's rank < 2 rule."""
    _, nbr = cKDTree(points).query(points, k=k + 1)
    centered = points[nbr] - points[nbr].mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    eigvals, eigvecs = np.linalg.eigh(cov)
    return cov, eigvals, eigvecs, eigvals[:, 1] <= 1e-12 * np.maximum(eigvals[:, 2], 0.0)


def _oracle_clouds(big_room):
    rng = np.random.default_rng(8)
    directions = rng.normal(size=(3000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return {"big_room": big_room.positions, "uniform": rng.uniform(0, 1, (4000, 3)),
            "sphere": directions}


@pytest.mark.parametrize("name", ["big_room", "uniform", "sphere"])
def test_closed_form_agrees_with_eigh(big_room, name):
    points = _oracle_clouds(big_room)[name]
    cov, eigvals, eigvecs, _ = eigh_oracle(points, 16)
    smallest, _, _ = geometry._smallest_eigenpairs(cov)
    assert (np.abs(smallest - eigvals[:, 0]) <= 1e-10 * eigvals[:, 2]).all()

    out, degenerate = estimate_normals(make_cloud(points), k=16)
    separated = (eigvals[:, 1] - eigvals[:, 0]) / eigvals[:, 2] >= 1e-3
    assert separated.mean() > 0.99 and not degenerate.any()
    # the angle between the lines the two normals span, by its sine
    sines = np.linalg.norm(np.cross(out.normals, eigvecs[:, :, 0]), axis=1)
    assert np.degrees(np.arcsin(np.minimum(sines[separated], 1.0))).max() <= 1e-5


def _flag_cases():
    for cloud, k in _bit_exact_cases():
        yield cloud.positions, k
    rng = np.random.default_rng(9)
    # ten coincident piles of three: a neighborhood of 3, 5 or 9 points spans
    # one pile (no extent), two (a line) or three (a plane)
    piles = np.repeat(rng.uniform(0, 1, (10, 3)), 3, axis=0)
    for k in (2, 4, 8):
        yield piles, k
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        yield rng.uniform(-5, 5, 3) + np.sort(rng.uniform(0, 2, 30))[:, None] * direction, 6


def test_degenerate_flags_match_eigh():
    flagged = unflagged = 0
    for points, k in _flag_cases():
        _, degenerate = estimate_normals(make_cloud(points), k=k)
        assert np.array_equal(degenerate, eigh_oracle(points, k)[3])
        flagged += degenerate.sum()
        unflagged += (~degenerate).sum()
    assert flagged > 0 and unflagged > 0


def test_isotropic_neighborhood_gets_an_eigenvector():
    # The centre and the six unit points of an octahedron: cov = 2 I, so the
    # smallest eigenvalue is a triple root and every direction is its vector.
    points = np.concatenate([np.zeros((1, 3)), np.eye(3), -np.eye(3)])
    cov, eigvals, _, eigh_degenerate = eigh_oracle(points, 6)
    assert np.array_equal(cov, np.tile(2.0 * np.eye(3), (7, 1, 1)))
    out, degenerate = estimate_normals(make_cloud(points), k=6)
    assert not degenerate.any() and not eigh_degenerate.any()
    np.testing.assert_allclose(np.linalg.norm(out.normals, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("removed", [0.3, 0.01])
@pytest.mark.parametrize("k", [16, 8, 24])
def test_survivor_neighbors_equal_a_query_on_the_survivors(removed, k):
    # With 30% removed most rows name a removed point and are queried again;
    # with 1% most are the renumbered first k + 1 entries of a 25-column row.
    rng = np.random.default_rng(5)
    points = rng.uniform(0, 1, (2000, 3))
    kept = rng.random(len(points)) > removed
    survivors = points[kept]
    rows = survivor_neighbors(self_knn(points, 25), kept, survivors, k)
    assert np.array_equal(rows, cKDTree(survivors).query(survivors, k=k + 1)[1])


def test_survivor_neighbors_none_with_k_or_fewer_survivors():
    points = np.random.default_rng(6).uniform(0, 1, (40, 3))
    kept = np.zeros(40, bool)
    kept[:8] = True
    assert survivor_neighbors(self_knn(points, 9), kept, points[kept], 8) is None


def test_neighbors_of_the_wrong_shape_rejected():
    cloud = make_cloud(np.random.default_rng(7).uniform(0, 1, (50, 3)))
    rows = self_knn(cloud.positions, 9)
    for bad in (rows[:, :8], rows[:40], rows[0]):
        with pytest.raises(ValueError, match="neighbors must have shape"):
            estimate_normals(cloud, k=8, neighbors=bad)
        with pytest.raises(ValueError, match="neighbors must have shape"):
            sor_filter(cloud, k=8, neighbors=bad)
