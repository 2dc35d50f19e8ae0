from dataclasses import fields, replace

import numpy as np
import pytest

from pointssl import PointCloud, ViewConfig, grid_mask, make_views, noise_view
from pointssl.rng import make_rng
from pointssl.views import _STREAM_MASK

from conftest import toy_room


def brute_force_voxel_partition(positions, grid_size):
    voxels = np.floor(positions / grid_size).astype(np.int64)
    groups = {}
    for i, v in enumerate(map(tuple, voxels)):
        groups.setdefault(v, []).append(i)
    return groups


def loop_grid_mask(positions, grid_size, mask_ratio, seed):
    """Reference grid_mask: whole voxels, in the seeded order, one at a time
    until the masked count first reaches mask_ratio of the points."""
    voxels = np.floor(positions / grid_size).astype(np.int64)
    _, voxel_of_point, counts = np.unique(voxels, axis=0, return_inverse=True, return_counts=True)
    order = make_rng(seed, _STREAM_MASK).permutation(len(counts))
    needed, covered = mask_ratio * len(positions), 0
    chosen = np.zeros(len(counts), dtype=bool)
    for voxel in order:
        if covered >= needed:
            break
        chosen[voxel] = True
        covered += counts[voxel]
    return chosen[voxel_of_point.ravel()]


def full_view(cloud):
    """The whole cloud as one view, without jitter."""
    config = ViewConfig(global_crop_min=1.0, global_crop_max=1.0, jitter_sigma=0.0, color_jitter=0.0)
    return make_views(cloud, seed=0, config=config).global_views[0]


class TestMakeViews:
    def test_counts_and_mask_location(self):
        scene = toy_room(seed=0)
        views = make_views(scene, seed=1)
        assert len(views.global_views) == 2
        assert len(views.local_views) == 4
        assert views.mask.shape == (len(views.global_views[0].features),)

    def test_deterministic_bit_for_bit(self):
        scene = toy_room(seed=1)
        a = make_views(scene, seed=42)
        b = make_views(scene, seed=42)
        for va, vb in zip(a.global_views + a.local_views, b.global_views + b.local_views):
            np.testing.assert_array_equal(va.features, vb.features)
            np.testing.assert_array_equal(va.source_indices, vb.source_indices)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_full_crop_no_jitter_equals_rotated_scene(self):
        scene = toy_room(seed=2)
        config = ViewConfig(
            global_crop_min=1.0, global_crop_max=1.0, jitter_sigma=0.0, color_jitter=0.0
        )
        views = make_views(scene, seed=3, config=config)
        view = views.global_views[0]
        np.testing.assert_array_equal(view.source_indices, np.arange(len(scene)))
        expected = (scene.positions * view.flip) @ view.rotation.T
        np.testing.assert_array_equal(view.features[:, :3], expected)
        np.testing.assert_array_equal(view.features[:, 3:6], scene.colors)
        np.testing.assert_array_equal(
            view.features[:, 6:], (scene.normals * view.flip) @ view.rotation.T
        )

    def test_global_crops_cover_at_least_40_percent(self):
        scene = toy_room(seed=3)
        views = make_views(scene, seed=4)
        for view in views.global_views:
            assert len(view.features) >= 0.4 * len(scene) - 1
        for view in views.local_views:
            assert 0.08 * len(scene) <= len(view.features) <= 0.26 * len(scene) + 1

    def test_global_overlap_at_least_5_percent(self):
        scene = toy_room(seed=4, max_points=10000, surface_density=1500.0)
        for seed in range(5):
            views = make_views(scene, seed=seed)
            a, b = (set(v.source_indices.tolist()) for v in views.global_views)
            overlap = len(a & b) / min(len(a), len(b))
            assert overlap >= 0.05

    def test_inverse_transform_recovers_original_frame(self):
        scene = toy_room(seed=5)
        views = make_views(scene, seed=6)
        for view in views.global_views + views.local_views:
            np.testing.assert_allclose(
                view.invert_positions(), view.original_positions, atol=1e-6
            )
            np.testing.assert_array_equal(
                view.original_positions, scene.positions[view.source_indices]
            )

    def test_too_few_points_rejected(self):
        tiny = PointCloud(positions=np.random.default_rng(0).uniform(0, 1, (100, 3)))
        with pytest.raises(ValueError, match="at least"):
            make_views(tiny, seed=0)

    def test_missing_colors_and_normals_are_zero_columns(self):
        scene = toy_room(seed=14)
        bare = PointCloud(scene.positions)
        for view in make_views(bare, seed=15).global_views:
            assert not view.features[:, 3:].any()
        colorless = replace(scene, colors=None)
        view = make_views(colorless, seed=15).global_views[0]
        assert not view.features[:, 3:6].any() and view.features[:, 6:].any()

    def test_normals_draw_no_randomness(self):
        # Views of a scene with and without normals match in every other column.
        scene = toy_room(seed=16)
        with_normals = make_views(scene, seed=17)
        without = make_views(replace(scene, normals=None), seed=17)
        for a, b in zip(with_normals.global_views + with_normals.local_views,
                        without.global_views + without.local_views):
            np.testing.assert_array_equal(a.features[:, :6], b.features[:, :6])
            np.testing.assert_array_equal(a.source_indices, b.source_indices)
        np.testing.assert_array_equal(with_normals.mask, without.mask)

    def test_view_arrays_are_read_only(self):
        views = make_views(toy_room(seed=18), seed=19)
        noisy = noise_view(views.global_views[1], sigma=0.01, dropout=0.2, seed=20)
        for view in views.global_views + views.local_views + (noisy,):
            for field in fields(view):
                array = getattr(view, field.name)
                assert not array.flags.writeable, field.name
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0


class TestGridMask:
    def test_ratio_zero_and_one(self):
        scene = toy_room(seed=6)
        assert not grid_mask(scene.positions, 0.1, 0.0, seed=0).any()
        assert grid_mask(scene.positions, 0.1, 1.0, seed=0).all()

    def test_masked_fraction_bounds(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(positions=rng.uniform(0, 1, (1000, 3)))
        mask = grid_mask(cloud.positions, 0.1, 0.3, seed=1)
        groups = brute_force_voxel_partition(cloud.positions, 0.1)
        largest = max(len(g) for g in groups.values()) / 1000
        fraction = mask.mean()
        assert 0.3 <= fraction <= 0.3 + largest

    def test_voxel_aligned_patches(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud(positions=rng.uniform(0, 1, (500, 3)))
        mask = grid_mask(cloud.positions, 0.2, 0.4, seed=2)
        for indices in brute_force_voxel_partition(cloud.positions, 0.2).values():
            states = mask[indices]
            assert states.all() or not states.any()

    def test_equals_the_voxel_loop(self):
        for seed in range(40):
            positions = toy_room(seed=seed).positions
            for ratio in (0.05, 0.3, 0.5, 1.0):
                for size in (0.05, 0.1, 0.3):
                    assert np.array_equal(
                        grid_mask(positions, size, ratio, seed),
                        loop_grid_mask(positions, size, ratio, seed),
                    ), (seed, ratio, size)

    def test_deterministic(self):
        scene = toy_room(seed=7)
        np.testing.assert_array_equal(
            grid_mask(scene.positions, 0.1, 0.3, seed=5), grid_mask(scene.positions, 0.1, 0.3, seed=5)
        )

    def test_parameter_validation(self):
        scene = toy_room(seed=8)
        with pytest.raises(ValueError):
            grid_mask(scene.positions, -0.1, 0.3, seed=0)
        with pytest.raises(ValueError):
            grid_mask(scene.positions, 0.1, 1.5, seed=0)


class TestAddNoise:
    def test_identity_when_disabled(self):
        view = full_view(toy_room(seed=9))
        noisy = noise_view(view, sigma=0.0, dropout=0.0, seed=0)
        np.testing.assert_array_equal(noisy.features, view.features)
        np.testing.assert_array_equal(noisy.source_indices, view.source_indices)

    def test_dropout_expectation(self):
        rng = np.random.default_rng(10)
        view = full_view(PointCloud(positions=rng.uniform(0, 1, (1000, 3))))
        noisy = noise_view(view, sigma=0.0, dropout=0.5, seed=3)
        assert abs(len(noisy.features) - 500) < 5 * np.sqrt(1000 * 0.25)  # 5 sigma binomial

    def test_noise_variance(self):
        rng = np.random.default_rng(11)
        view = full_view(PointCloud(positions=rng.uniform(0, 1, (10000, 3))))
        noisy = noise_view(view, sigma=0.01, dropout=0.0, seed=4)
        deltas = noisy.features[:, :3] - view.features[:, :3]
        var = deltas.var(axis=0)
        assert (np.abs(var - 1e-4) < 0.2 * 1e-4).all()
        # only the positions move
        np.testing.assert_array_equal(noisy.features[:, 3:], view.features[:, 3:])

    def test_parameter_validation(self):
        view = full_view(toy_room(seed=10))
        with pytest.raises(ValueError):
            noise_view(view, sigma=-1.0, dropout=0.0, seed=0)
        with pytest.raises(ValueError):
            noise_view(view, sigma=0.0, dropout=1.0, seed=0)

    def test_noise_view_keeps_frame_records(self):
        scene = toy_room(seed=11)
        views = make_views(scene, seed=12)
        view = views.global_views[1]
        before = {f.name: getattr(view, f.name).copy() for f in fields(view)}
        noisy = noise_view(view, sigma=0.01, dropout=0.2, seed=13)
        assert len(noisy.features) < len(view.features)
        np.testing.assert_array_equal(
            noisy.original_positions, scene.positions[noisy.source_indices]
        )
        # the stored jitter absorbs the perturbation: inversion still works
        np.testing.assert_allclose(
            noisy.invert_positions(), noisy.original_positions, atol=1e-6
        )
        # the input view is unchanged
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(view, name), value)
