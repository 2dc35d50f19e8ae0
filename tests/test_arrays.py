from dataclasses import replace

import numpy as np

from pointssl import CorrespondenceSet, PointCloud
from pointssl._arrays import frozen_array


def test_read_only_array_owning_its_memory_is_shared():
    a = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    a.flags.writeable = False
    assert np.shares_memory(frozen_array(a), a)
    assert np.shares_memory(PointCloud(a).positions, a)
    indices = np.arange(3, dtype=np.int64)
    indices.flags.writeable = False
    assert np.shares_memory(CorrespondenceSet(indices, indices).student_indices, indices)


def test_writable_input_is_copied():
    a = np.zeros((2, 3))
    indices = np.arange(3, dtype=np.int64)
    cloud, pairs = PointCloud(a), CorrespondenceSet(indices, indices)
    a[0, 0] = 5.0
    indices[0] = 5
    assert cloud.positions[0, 0] == 0.0 and pairs.student_indices[0] == 0
    assert not np.shares_memory(cloud.positions, a)
    assert not cloud.positions.flags.writeable


def test_read_only_view_of_a_writable_base_is_copied():
    base = np.zeros((4, 3))
    view = base[:2]
    view.flags.writeable = False
    out = frozen_array(view)
    base[0, 0] = 7.0
    assert out[0, 0] == 0.0 and not np.shares_memory(out, base)


def test_conversion_copy_is_adopted_and_lists_are_copied():
    ints = np.arange(6).reshape(2, 3)
    out = frozen_array(ints, np.float64)
    assert out.dtype == np.float64 and out.flags.owndata and not out.flags.writeable
    assert np.array_equal(frozen_array([[1.0, 2.0, 3.0]]), [[1.0, 2.0, 3.0]])


def test_replace_keeps_the_fields_it_does_not_change():
    cloud = PointCloud(np.zeros((3, 3)), colors=np.full((3, 3), 0.5))
    moved = replace(cloud, positions=cloud.positions + 1.0)
    assert moved.colors is cloud.colors
    assert np.array_equal(moved.positions, np.ones((3, 3)))
