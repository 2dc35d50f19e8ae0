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
    ("hole_radius", -1.0, "hole_radius must lie in [0, inf)"),
    ("furniture_size_min", -1.0, "furniture_size_min must lie in (0, inf)"),
    ("furniture_size_max", 0.0, "furniture_size_max must lie in (0, inf)"),
    ("furniture_size_min", 2.0, "furniture_size_min must not exceed furniture_size_max"),
    ("surface_noise", -0.1, "surface_noise must lie in [0, inf)"),
    ("furniture_count", -2, "furniture_count must lie in [0, inf)"),
    ("ceiling_coverage", -0.5, "ceiling_coverage must lie in [0, inf)"),
    ("outlier_radius", -6.0, "outlier_radius must lie in [0, inf)"),
    ("ghost_offset", float("nan"), "ghost_offset must lie in (-inf, inf)"),
    ("hole_count", -1, "hole_count must lie in [0, inf)"),
    ("tilt_degrees", -30.0, "tilt_degrees must lie in [0, 180]"),
    ("tilt_degrees", 181.0, "tilt_degrees must lie in [0, 180]"),
    ("seed", -1, "seed must lie in [0, inf)"),
])
def test_spec_rejects_numbers_out_of_range(name, value, message):
    with pytest.raises(ValueError) as info:
        SceneSpec(**{name: value})
    assert message in str(info.value)


def test_holes_remove_points():
    base = SceneSpec(hole_count=0, seed=8, max_points=10**9)
    holed = SceneSpec(hole_count=5, hole_radius=0.4, seed=8, max_points=10**9)
    n_base = len(generate_room(base)[0])
    n_holed = len(generate_room(holed)[0])
    assert n_holed < n_base


def test_cloud_has_colors_and_normals():
    cloud, _ = generate_room(SceneSpec(seed=9, max_points=2000))
    assert cloud.colors is not None and cloud.normals is not None
    np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-9)
