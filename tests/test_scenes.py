import hashlib

import numpy as np
import pytest

from pointssl import SceneSpec, detect_dominant_plane, generate_room
from pointssl.scenes import LABEL_GHOST, LABEL_OUTLIER, LABEL_SURFACE


def test_deterministic_per_seed():
    spec = SceneSpec(tilt_degrees=5.0, ghost_fraction=0.1, outlier_count=50, seed=4)
    a_cloud, a_truth = generate_room(spec)
    b_cloud, b_truth = generate_room(spec)
    np.testing.assert_array_equal(a_cloud.positions, b_cloud.positions)
    np.testing.assert_array_equal(a_cloud.colors, b_cloud.colors)
    np.testing.assert_array_equal(a_truth.labels, b_truth.labels)
    np.testing.assert_array_equal(a_truth.tilt_rotation, b_truth.tilt_rotation)


def test_defect_free_scene_recovers_floor():
    cloud, truth = generate_room(SceneSpec(seed=1, max_points=8000))
    plane = detect_dominant_plane(cloud, 512, 0.02, seed=0)
    assert plane is not None
    angle = np.degrees(np.arccos(np.clip(abs(plane.normal @ truth.up_axis), -1, 1)))
    assert angle < 0.5


def test_ghost_fraction_of_ghostable_points():
    # no downsampling so the construction count is exact
    spec = SceneSpec(surface_density=120.0, ghost_fraction=0.2, max_points=10**9, seed=2)
    cloud, truth = generate_room(spec)
    ghosts = (truth.labels == LABEL_GHOST).sum()
    # ghostable surfaces: floor + four walls (not ceiling, not furniture)
    ex, ey, ez = spec.extents
    ghostable_area = ex * ey + 2 * (ex + ey) * ez
    expected = 0.2 * ghostable_area * spec.surface_density
    assert abs(ghosts - expected) / expected < 0.01


def test_outliers_and_labels_cover_all_points():
    spec = SceneSpec(outlier_count=100, ghost_fraction=0.1, seed=3, max_points=6000)
    cloud, truth = generate_room(spec)
    assert len(truth.labels) == len(cloud)
    assert set(np.unique(truth.labels)) <= {LABEL_SURFACE, LABEL_GHOST, LABEL_OUTLIER}
    assert (truth.labels == LABEL_OUTLIER).sum() > 0


def test_tilt_and_scale_recorded():
    spec = SceneSpec(tilt_degrees=10.0, scale=2.0, seed=5, max_points=5000)
    cloud, truth = generate_room(spec)
    assert truth.scale == 2.0
    r = truth.tilt_rotation
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
    angle = np.degrees(np.arccos(np.clip((np.trace(r) - 1) / 2, -1, 1)))
    assert angle == pytest.approx(10.0, abs=1e-9)
    np.testing.assert_allclose(truth.up_axis, r @ [0, 0, 1], atol=1e-15)
    # undoing scale and tilt puts the floor back at z ~ 0
    canonical = (cloud.positions / 2.0) @ r
    floor = canonical[truth.labels == LABEL_SURFACE]
    floor_z = floor[:, 2]
    near_floor = floor_z[np.abs(floor_z) < 0.05]
    assert len(near_floor) > 0.2 * len(floor)
    assert abs(np.median(near_floor)) < 0.005


def test_downsample_cap():
    cloud, truth = generate_room(SceneSpec(max_points=1500, seed=6))
    assert len(cloud) == 1500
    assert len(truth.labels) == 1500


def test_floor_dominance_enforced():
    # a shaft-like room: walls dwarf the floor, the invariant must trip
    bad = SceneSpec(extents=(0.5, 0.5, 4.0), furniture_count=0, seed=7)
    with pytest.raises(ValueError, match="dominant"):
        generate_room(bad)


@pytest.mark.parametrize("name, value, message", [
    ("furniture_count", -2, "furniture_count must lie in [0, inf)"),
    ("hole_count", -1, "hole_count must lie in [0, inf)"),
    ("tilt_degrees", -30.0, "tilt_degrees must lie in [0, 180]"),
    ("tilt_degrees", 181.0, "tilt_degrees must lie in [0, 180]"),
    ("seed", -1, "seed must lie in [0, inf)"),
    ("extents", (1.0, 2.0), "extents must be 3 numbers"),
    ("extents", 5.0, "extents must be 3 numbers"),
    ("extents", (True, 1.0, 0.5), "extents must be tuple[float, float, float], got (True"),
])
def test_spec_rejects_numbers_out_of_range(name, value, message):
    with pytest.raises((TypeError, ValueError)) as info:
        SceneSpec(**{name: value})
    assert message in str(info.value)
    # A number of another type is a TypeError, one out of its range a ValueError.
    assert info.type is (TypeError if "must be tuple" in message else ValueError)


# sha256 over positions, colors, normals and labels, recorded before the
# defect magnitudes became module constants.
PINNED_ROOMS = [
    (dict(extents=(1.6, 1.2, 0.8), surface_density=110.0, furniture_count=2,
          ghost_fraction=0.1, max_points=800, seed=0),
     800, "65742acbd23eb76f9de8b0a46ef983008de302a51f0052dd3672964f3ef9389d"),
    (dict(ghost_fraction=0.2, outlier_count=300, tilt_degrees=7.5, max_points=30000, seed=5),
     30000, "52ec6579c40c7c1437db9fb77b265467b457c384b6edd0457ce2dc48ad1284da"),
    (dict(hole_count=6, surface_density=200.0, max_points=10**9, seed=8),
     15326, "8d058a7f43b9ec35571f0e175520eba14fe75f227673b07eb2462e728d623748"),
]


@pytest.mark.parametrize("fields, count, sha256", PINNED_ROOMS, ids=["toy", "align", "holes"])
def test_generated_room_is_pinned(fields, count, sha256):
    cloud, truth = generate_room(SceneSpec(**fields))
    digest = hashlib.sha256()
    for array in (cloud.positions, cloud.colors, cloud.normals, truth.labels):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert len(cloud) == count
    assert digest.hexdigest() == sha256


@pytest.mark.parametrize("fields, message", [
    (dict(extents=(0.6, 0.6, 0.02), hole_count=60, max_points=2000),
     "hole_count 60: the holes remove every point"),
    # The last hole empties this room, so no later hole draws from it.
    (dict(extents=(0.3, 0.3, 0.01), hole_count=2, furniture_count=0),
     "hole_count 2: the holes remove every point"),
    # One point kept out of many outliers: no surface point is left.
    (dict(extents=(0.5, 0.5, 0.1), surface_density=20.0, furniture_count=0,
          outlier_count=500, max_points=1, seed=1), "no surface points are left"),
], ids=["holes-mid-loop", "holes-last", "no-surface-point"])
def test_room_that_cannot_be_built_names_the_cause(fields, message):
    with pytest.raises(ValueError, match=message):
        generate_room(SceneSpec(**fields))


def test_holes_remove_points():
    base = SceneSpec(hole_count=0, seed=8, max_points=10**9)
    holed = SceneSpec(hole_count=5, seed=8, max_points=10**9)
    n_base = len(generate_room(base)[0])
    n_holed = len(generate_room(holed)[0])
    assert n_holed < n_base


def test_cloud_has_colors_and_normals():
    cloud, _ = generate_room(SceneSpec(seed=9, max_points=2000))
    assert cloud.colors is not None and cloud.normals is not None
    np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-9)
