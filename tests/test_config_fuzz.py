"""A config dict is rejected at construction or it runs.

TrainConfig.from_dict and PipelineConfig.from_dict get dicts of up to five
of their fields, with JSON-like values: null, booleans, short strings,
integers and finite floats in [-2, 40], lists, and nested objects for the
schedules and the views.  Each must return a config or raise ValueError or
TypeError, and a config it returns must run one train_step (or one
align_scene) on a small room.  Numbers stay below 40 so an accepted size
(a hidden width, k, the number of points kept) keeps the run small; NaN and
infinities are left out, as JSON has neither.  SceneSpec gets the same
values, and a spec it accepts must generate a room or name why it cannot.
"""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from pointssl import SceneSpec, TrainConfig, ViewConfig, generate_room, init_train_state, train_step
from pointssl.pipeline import PipelineConfig, align_scene

from conftest import toy_room

ROOM = toy_room(seed=3)
NUMBER = st.integers(-2, 40) | st.floats(-2.0, 40.0, allow_nan=False)
SCALAR = st.none() | st.booleans() | st.text(max_size=2) | NUMBER
VALUE = NUMBER | SCALAR  # numbers about twice as often as other scalars


def up_to_five_of(strategies: dict):
    return st.lists(st.sampled_from(sorted(strategies)), max_size=5, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: strategies[key] for key in keys})
    )


SCHEDULE = VALUE | up_to_five_of({
    "kind": st.sampled_from(["constant", "linear", "cosine", "step"]) | SCALAR,
    "start": VALUE,
    "end": VALUE,
})
TRAIN_FIELDS = {
    **{f.name: VALUE for f in fields(TrainConfig)},
    **{name: SCHEDULE for name in ("teacher_temperature", "laplacian_schedule",
                                   "ema_momentum", "weight_decay")},
    "hidden": VALUE | st.lists(VALUE, max_size=3),
    "laplacian_form": st.sampled_from(["pairwise", "huber_residual"]) | SCALAR,
    "views": SCALAR | up_to_five_of({f.name: VALUE for f in fields(ViewConfig)}),
}
PIPELINE_FIELDS = {f.name: VALUE for f in fields(PipelineConfig)}
SCENE_FIELDS = {
    **{f.name: VALUE for f in fields(SceneSpec)},
    "extents": VALUE | st.lists(NUMBER, max_size=4).map(tuple),
}
# Sparse by default: 40 m extents at up to 40 points/m² stay below 400,000 points.
SCENE_BASE = {"surface_density": 20.0}


def _accepted(from_dict, data):
    try:
        return from_dict(data)
    except (ValueError, TypeError):
        return None


@settings(max_examples=40, deadline=None)
@given(data=up_to_five_of(TRAIN_FIELDS))
def test_train_config_is_rejected_or_runs_a_step(data):
    config = _accepted(TrainConfig.from_dict, data)
    if config is not None:
        _, record = train_step(init_train_state(config), [ROOM])
        assert record.step == 0


@settings(max_examples=40, deadline=None)
@given(data=up_to_five_of(PIPELINE_FIELDS))
def test_pipeline_config_is_rejected_or_aligns(data):
    config = _accepted(PipelineConfig.from_dict, data)
    if config is not None:
        aligned, report, _ = align_scene(ROOM, config)
        assert report.error is None and aligned.normals is not None


@settings(max_examples=200, deadline=None)
@given(data=up_to_five_of(SCENE_FIELDS))
def test_scene_spec_is_rejected_or_generates_or_names_the_cause(data):
    spec = _accepted(lambda spec_fields: SceneSpec(**spec_fields), {**SCENE_BASE, **data})
    if spec is None:
        return
    try:
        cloud, truth = generate_room(spec)
    except ValueError as error:
        names = [f.name for f in fields(SceneSpec)] + ["dominant plane"]
        assert any(name in str(error) for name in names), error
    else:
        assert len(cloud) == len(truth.labels) > 0
