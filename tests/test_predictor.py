import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semsample.layout as layout_module
from semsample.layout import (
    BoundingBox,
    SceneAnnotation,
    VehicleClass,
    VehicleRecord,
    VisualLayout,
    encode_message,
    prediction_deviation,
    rasterize,
)
from semsample.predictor import (
    ConstantVelocityPredictor,
    DestinationState,
    Feedback,
    PredictorConfig,
)

from oracles import predict_layouts_oracle, rasterize_oracle

CFG = PredictorConfig(horizon=5, grid_width=120, grid_height=80)


def rec(tid, x, y=0.4, w=0.2, h=0.15, cls=VehicleClass.CAR):
    return VehicleRecord(tid, cls, BoundingBox(x, y, x + w, y + h))


def scene(*vehicles, index=0):
    return SceneAnnotation(index, tuple(vehicles))


class CountingPredictor(ConstantVelocityPredictor):
    """Records every prediction call for bookkeeping assertions."""

    def __init__(self, config):
        super().__init__(config)
        self.scene_calls = []
        self.layout_calls = []

    def predict_scenes(self, older, newer, gap, horizon):
        self.scene_calls.append((older, newer, gap, horizon))
        return super().predict_scenes(older, newer, gap, horizon)

    def predict_layouts(self, older, newer, gap, horizon):
        self.layout_calls.append((older, newer, gap, horizon))
        return super().predict_layouts(older, newer, gap, horizon)


# -- constant-velocity predictor -----------------------------------------------


def test_stationary_vehicle_predicts_identical_layouts():
    predictor = ConstantVelocityPredictor(CFG)
    sc = scene(rec(0, 0.3))
    layouts = predictor.predict_scenes(sc, sc, 1, 5)
    assert len(layouts) == 5
    reference = rasterize(sc, 120, 80)
    assert all(lay == reference for lay in layouts)


def test_linear_motion_extrapolates_shifted_boxes():
    # dyadic velocity keeps the box edges exactly representable, so the
    # extrapolated rasters must match a directly-shifted scene bit for bit
    v = 1 / 64
    older = scene(rec(0, 0.125))
    newer = scene(rec(0, 0.125 + v))
    predictor = ConstantVelocityPredictor(CFG)
    layouts = predictor.predict_scenes(older, newer, 1, 5)
    for k, lay in enumerate(layouts, start=1):
        expected = rasterize(scene(rec(0, 0.125 + v * (1 + k))), 120, 80)
        assert lay == expected


def test_empty_scenes_predict_empty_layouts():
    predictor = ConstantVelocityPredictor(CFG)
    layouts = predictor.predict_scenes(scene(), scene(), 1, 5)
    assert len(layouts) == 5
    assert all(not lay.grid.any() for lay in layouts)


def test_new_track_held_static():
    older = scene(rec(0, 0.1))
    newer = scene(rec(0, 0.15), rec(1, 0.6))
    layouts = ConstantVelocityPredictor(CFG).predict_scenes(older, newer, 1, 3)
    # track 1 has no motion evidence: its box must not move
    static = rasterize(scene(rec(1, 0.6)), 120, 80)
    for lay in layouts:
        region = lay.grid[:, 72:96]
        assert np.array_equal(region, static.grid[:, 72:96])


def test_track_leaving_frame_is_dropped():
    older = scene(rec(0, 0.70, w=0.2))
    newer = scene(rec(0, 0.85, w=0.15))  # moving right at the edge
    # 0.125 per interval is past the shipped speed guard, which would hold it;
    # a cap of 1 never binds
    unguarded = PredictorConfig(horizon=5, grid_width=120, grid_height=80, max_track_speed=1.0)
    layouts = ConstantVelocityPredictor(unguarded).predict_scenes(older, newer, 1, 5)
    assert layouts[0].grid.any()
    assert not layouts[-1].grid.any()  # fully clamped out by k=5


def test_implausible_velocity_rejected_when_capped():
    capped = PredictorConfig(horizon=3, max_track_speed=0.05)
    older = scene(rec(0, 0.1))
    newer = scene(rec(0, 0.6))  # jump of 0.5 per interval
    layouts = ConstantVelocityPredictor(capped).predict_scenes(older, newer, 1, 3)
    static = rasterize(scene(rec(0, 0.6)), 120, 80)
    assert all(lay == static for lay in layouts)


def test_linear_motion_deviation_stays_below_grid_bound():
    # pure in-frame linear motion, no codec in the loop: deviation against
    # the true future layouts stays within rasterization rounding
    v = 0.017
    predictor = ConstantVelocityPredictor(CFG)
    older = scene(rec(0, 0.10), rec(1, 0.45, y=0.6, cls=VehicleClass.VAN))
    newer = scene(rec(0, 0.10 + v), rec(1, 0.45 - v, y=0.6, cls=VehicleClass.VAN))
    layouts = predictor.predict_scenes(older, newer, 1, 5)
    for k, lay in enumerate(layouts, start=1):
        truth = rasterize(
            scene(
                rec(0, 0.10 + v * (1 + k)),
                rec(1, 0.45 - v * (1 + k), y=0.6, cls=VehicleClass.VAN),
            ),
            120,
            80,
        )
        assert prediction_deviation(truth, lay) <= 0.05


def test_layout_path_shifts_class_masks():
    base = np.zeros((20, 30), np.uint8)
    base[5:10, 2:8] = 1
    moved = np.zeros((20, 30), np.uint8)
    moved[5:10, 4:10] = 1  # +2 columns per interval
    cfg = PredictorConfig(horizon=3, grid_width=30, grid_height=20)
    layouts = ConstantVelocityPredictor(cfg).predict_layouts(
        VisualLayout(base), VisualLayout(moved), 1, 3
    )
    for k, lay in enumerate(layouts, start=1):
        expected = np.zeros((20, 30), np.uint8)
        left = 4 + 2 * k
        expected[5:10, left:left + 6] = 1
        assert np.array_equal(lay.grid, expected)


def test_layout_path_drops_pixels_outside_frame():
    base = np.zeros((10, 10), np.uint8)
    base[4:6, 5:8] = 2
    moved = np.zeros((10, 10), np.uint8)
    moved[4:6, 7:10] = 2
    cfg = PredictorConfig(horizon=3, grid_width=10, grid_height=10)
    layouts = ConstantVelocityPredictor(cfg).predict_layouts(
        VisualLayout(base), VisualLayout(moved), 1, 3
    )
    assert not layouts[-1].grid.any()


@st.composite
def layout_pairs(draw):
    """An older and a newer layout of one size, 120 x 80 or an odd 37 x 23,
    painted from overlapping class rectangles in random order.  The newer
    layout holds all four classes, each also as a single pixel painted
    last; the older may lack any of them.  Rectangles anywhere on the grid
    give centroid motions up to the grid's size per interval, so over the
    horizon shifts run past every edge, by more than the grid too."""
    width, height = draw(st.sampled_from([(120, 80), (37, 23)]))

    def paint(classes):
        grid = np.zeros((height, width), np.uint8)
        for _ in range(draw(st.integers(0, 6))):
            x1, x2 = sorted(draw(st.integers(0, width)) for _ in range(2))
            y1, y2 = sorted(draw(st.integers(0, height)) for _ in range(2))
            grid[y1:y2, x1:x2] = draw(st.sampled_from(classes))
        return grid

    newer = paint([1, 2, 3, 4])
    cells = draw(st.lists(st.integers(0, width * height - 1), min_size=4, max_size=4, unique=True))
    for cls, cell in zip((1, 2, 3, 4), cells):
        newer.flat[cell] = cls
    kept = draw(st.one_of(st.just([1, 2, 3, 4]), st.lists(st.sampled_from([1, 2, 3, 4]), unique=True)))
    older = paint(kept) if kept else np.zeros((height, width), np.uint8)
    return VisualLayout(older), VisualLayout(newer)


def corner_pair(width, height):
    """Each class a 2 x 2 block in one corner of the newer layout and in
    the opposite corner of the older, so the four classes move diagonally
    outwards by nearly the grid's size per interval: past all four edges,
    and from k = 2 on past the whole grid."""
    older, newer = np.zeros((2, height, width), np.uint8)
    for cls, (y, x) in zip((1, 2, 3, 4), [(0, 0), (0, width - 2), (height - 2, 0), (height - 2, width - 2)]):
        newer[y:y + 2, x:x + 2] = cls
        older[height - 2 - y:height - y, width - 2 - x:width - x] = cls
    return VisualLayout(older), VisualLayout(newer)


def edge_pair(width, height):
    """Classes 1 and 2 each on two opposite corners of the newer layout,
    and on one corner of the older, so that at k = 2 class 1 moves by
    exactly (height - 1, width - 1) and class 2 by (1 - height, width - 1):
    one pixel of each lands on the far corner, the rest leaves the grid."""
    older, newer = np.zeros((2, height, width), np.uint8)
    newer[0, 0] = newer[-1, -1] = older[0, 0] = 1
    newer[0, -1] = newer[-1, 0] = older[-1, 0] = 2
    return VisualLayout(older), VisualLayout(newer)


@given(layout_pairs(), st.integers(1, 3), st.integers(1, 12))
@example(corner_pair(120, 80), 1, 12)
@example(corner_pair(37, 23), 3, 12)
@example(edge_pair(120, 80), 1, 3)
@example(edge_pair(37, 23), 1, 3)
@settings(max_examples=60, deadline=None)
def test_every_layout_of_a_layout_round_equals_the_per_pixel_oracle(pair, gap, horizon):
    older, newer = pair
    height, width = newer.grid.shape
    config = PredictorConfig(horizon=horizon, grid_width=width, grid_height=height)
    round_ = ConstantVelocityPredictor(config).predict_layouts(older, newer, gap, horizon)
    want = predict_layouts_oracle(older, newer, gap, horizon)
    assert len(round_) == horizon
    for got, expected in zip(round_, want):
        np.testing.assert_array_equal(got.grid, expected)


def test_gap_must_be_positive():
    predictor = ConstantVelocityPredictor(CFG)
    sc = scene(rec(0, 0.2))
    with pytest.raises(ValueError):
        predictor.predict_scenes(sc, sc, 0, 3)


def test_a_layout_round_refuses_a_side_past_the_census_fields():
    """The census counts a row's cells in 16 bits."""
    predictor = ConstantVelocityPredictor(CFG)
    wide = VisualLayout(np.ones((1, 1 << 16), np.uint8))
    with pytest.raises(ValueError, match="layout sides must be < 65536"):
        predictor.predict_layouts(wide, wide, 1, 3)
    fits = VisualLayout(np.ones((2, (1 << 16) - 1), np.uint8))
    assert predictor.predict_layouts(fits, fits, 1, 1)[0] == fits


# -- destination state machine ----------------------------------------------------


def boot(x0=0.10, v=0.02, predictor=None, config=CFG):
    m_prev = encode_message(scene(rec(0, x0)))
    m_cur = encode_message(scene(rec(0, x0 + v)))
    return DestinationState.bootstrap(m_prev, m_cur, config, predictor)


def test_bootstrap_fills_queue_with_horizon_predictions():
    dest = boot()
    assert dest.queue_len == 5
    assert dest.t_hat == 0


def test_six_silent_steps_trigger_exactly_one_repredict():
    predictor = CountingPredictor(CFG)
    dest = boot(predictor=predictor)
    bootstrap_round = list(dest.pending)
    assert len(predictor.scene_calls) == 1  # bootstrap round
    shown = [dest.step(t, None)[0] for t in range(1, 7)]
    # one displayed layout per step: the bootstrap round in order, then the
    # head of the round chained from the layouts shown at t=4 and t=5
    assert shown[:5] == bootstrap_round
    assert shown[5] == ConstantVelocityPredictor(CFG).predict_layouts(shown[3], shown[4], 1, 5)[0]
    assert len(predictor.scene_calls) == 1
    assert len(predictor.layout_calls) == 1  # refilled once, at t=6
    assert dest.queue_len == 4


def test_case2b_uses_last_two_displayed_layouts_with_unit_gap():
    predictor = CountingPredictor(CFG)
    dest = boot(predictor=predictor)
    displayed = [dest.step(t, None)[0] for t in range(1, 7)]
    ((older, newer, gap, horizon),) = predictor.layout_calls
    assert gap == 1
    assert horizon == 5
    assert older == displayed[3]  # layouts shown at t=4 and t=5
    assert newer == displayed[4]


def test_reception_matching_prediction_gives_no_feedback():
    # motion of one quantization cell per interval is tracked exactly
    v = 1 / 32
    dest = boot(x0=0.125, v=v)
    dest.step(1, None)
    dest.step(2, None)
    msg = encode_message(scene(rec(0, 0.125 + v * 4)))
    displayed, feedback = dest.step(3, msg)
    assert feedback is Feedback.NONE
    assert dest.last_comparison is not None
    assert dest.last_comparison <= CFG.deviation_threshold
    assert dest.t_hat == 3


def test_reception_far_from_prediction_requests_resample():
    dest = boot(x0=0.10, v=0.02)
    dest.step(1, None)
    dest.step(2, None)
    msg = encode_message(scene(rec(0, 0.7)))  # scene jumped
    displayed, feedback = dest.step(3, msg)
    assert feedback is Feedback.REQUEST_RESAMPLE
    assert dest.last_comparison > CFG.deviation_threshold


def test_reception_displays_real_layout_and_repredicts():
    predictor = CountingPredictor(CFG)
    dest = boot(predictor=predictor)
    dest.step(1, None)
    dest.step(2, None)
    msg = encode_message(scene(rec(0, 0.16)))
    displayed, _ = dest.step(3, msg)
    from semsample.layout import decode_message

    assert displayed == rasterize(decode_message(msg), 120, 80)
    assert dest.queue_len == 5  # fresh round replaces the stale queue
    older, newer, gap, horizon = predictor.scene_calls[-1]
    assert gap == 3  # t=3 minus t_hat=0


def test_exactly_one_layout_displayed_per_interval():
    rng = np.random.default_rng(0)
    dest = boot()
    displayed = 0
    x = 0.14
    for t in range(1, 200):
        if rng.random() < 0.3:
            x = min(x + 0.01, 0.7)
            out, _ = dest.step(t, encode_message(scene(rec(0, x))))
        else:
            out, _ = dest.step(t, None)
        assert isinstance(out, VisualLayout)
        displayed += 1
        assert dest.queue_len <= CFG.horizon
    assert displayed == 199


def test_step_is_deterministic():
    a = boot()
    b = boot()
    msgs = [None, None, encode_message(scene(rec(0, 0.2))), None, None, None, None]
    outs_a = [a.step(t + 1, m) for t, m in enumerate(msgs)]
    outs_b = [b.step(t + 1, m) for t, m in enumerate(msgs)]
    for (la, fa), (lb, fb) in zip(outs_a, outs_b):
        assert la == lb
        assert fa == fb


def test_step_rejects_non_consecutive_interval():
    dest = boot()  # bootstrapped at t_hat = 0, so the next interval is 1
    msg = encode_message(scene(rec(0, 0.16)))
    with pytest.raises(ValueError):
        dest.step(3, msg)  # skips intervals 1 and 2
    with pytest.raises(ValueError):
        dest.step(0, None)  # the bootstrap interval again
    assert dest.queue_len == 5  # rejected calls leave the queue untouched
    dest.step(1, None)
    with pytest.raises(ValueError):
        dest.step(1, msg)  # repeated interval
    dest.step(2, msg)
    assert dest.t_hat == 2


def test_step_requires_bootstrap():
    dest = DestinationState(CFG)
    with pytest.raises(RuntimeError):
        dest.step(1, None)


# -- rounds built on pop ------------------------------------------------------------


def _counting_painters(monkeypatch):
    """Records every layout the predictor module paints: scenes through
    ``rasterize`` and predicted boxes through ``layout._paint``."""
    import semsample.predictor as predictor_module

    calls = []

    def counting(painter):
        def paint(*args, **kwargs):
            calls.append(args)
            return painter(*args, **kwargs)

        return paint

    monkeypatch.setattr(predictor_module, "rasterize", counting(rasterize))
    monkeypatch.setattr(predictor_module, "_paint", counting(layout_module._paint))
    return calls


@pytest.mark.parametrize("silent", range(CFG.horizon + 1))
def test_destination_rasterizes_only_the_predictions_it_pops(monkeypatch, silent):
    calls = _counting_painters(monkeypatch)
    dest = boot()
    assert len(calls) == 2  # the two bootstrap receptions, displayed
    for t in range(1, silent + 1):
        dest.step(t, None)
    assert len(calls) - 2 == silent


def test_fully_iterated_round_equals_hand_extrapolated_boxes(monkeypatch):
    # dyadic boxes and velocities keep every extrapolated edge exact
    older = scene(rec(0, 0.25, w=0.125), rec(2, 0.125, y=0.5, w=0.125))
    newer = scene(rec(0, 0.3125, w=0.125), rec(1, 0.625), rec(2, 0.0625, y=0.5, w=0.125))
    gap = 2  # track 0 moves +1/32 per interval, track 2 -1/32, track 1 is new
    velocity = {0: 1 / 32, 1: 0.0, 2: -1 / 32}
    calls = _counting_painters(monkeypatch)
    round_ = ConstantVelocityPredictor(CFG).predict_scenes(older, newer, gap, 5)
    assert calls == [] and len(round_) == 5  # nothing built yet
    got = list(round_)
    assert len(calls) == 5
    def clamp(v):
        return min(max(v, 0.0), 1.0)

    expected = []
    for k in range(1, 6):
        records = []
        for r in newer.vehicles:
            dx = k * velocity[r.track_id]
            b = r.box
            box = BoundingBox(clamp(b.b1 + dx), b.b2, clamp(b.b3 + dx), b.b4)
            records.append(VehicleRecord(r.track_id, r.vehicle_class, box))
        expected.append(rasterize(scene(*records), 120, 80))
    assert got == expected
    assert expected[4].grid[:, 0].any()  # track 2 reached the left edge, clamped
    assert round_[-1] is got[-1] and round_[0] is got[0]  # built once, kept
    assert len(calls) == 5
    with pytest.raises(IndexError):
        round_[5]


@st.composite
def dyadic_tracks(draw):
    """Two scenes ``gap`` intervals apart and each newer track's expected
    velocity.  Coordinates and velocities are multiples of 1/64, so every
    extrapolated edge is exact.  Boxes may overlap, sit at an edge or leave
    the frame within the horizon; a velocity above the speed cap is held
    static, as is a track whose older box would lie outside the frame."""
    # the edges, and the multiples of 1/8 that 120 pixels turn into edges
    # of whole pixels, so that empty boxes paint one pixel
    start = st.one_of(st.integers(0, 63), st.sampled_from([0, 8, 56, 63]))
    size = st.one_of(st.integers(0, 24), st.sampled_from([0, 8]))
    gap = draw(st.integers(1, 3))
    older, newer, velocity = [], [], {}
    for tid in range(draw(st.integers(0, 8))):
        x1, y1 = draw(start), draw(start)
        x2, y2 = min(x1 + draw(size), 64), min(y1 + draw(size), 64)
        cls = draw(st.sampled_from(list(VehicleClass)))
        newer.append(VehicleRecord(tid, cls, BoundingBox(x1 / 64, y1 / 64, x2 / 64, y2 / 64)))
        vx, vy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        ox1, oy1, ox2, oy2 = x1 - gap * vx, y1 - gap * vy, x2 - gap * vx, y2 - gap * vy
        velocity[tid] = (0.0, 0.0)
        if draw(st.integers(0, 3)) and min(ox1, oy1) >= 0 and max(ox2, oy2) <= 64:
            older.append(VehicleRecord(tid, cls, BoundingBox(ox1 / 64, oy1 / 64, ox2 / 64, oy2 / 64)))
            if max(abs(vx), abs(vy)) / 64 <= CFG.max_track_speed:
                velocity[tid] = (vx / 64, vy / 64)
    draw(st.randoms()).shuffle(older)  # pairing is by track id, not by order
    return scene(*older), scene(*newer), gap, velocity


@given(dyadic_tracks(), st.integers(1, 12), st.sampled_from([(120, 80), (37, 23)]))
@settings(max_examples=80, deadline=None)
def test_every_predicted_layout_equals_the_oracle_of_hand_extrapolated_records(tracks, horizon, size):
    older, newer, gap, velocity = tracks
    width, height = size
    config = PredictorConfig(horizon=horizon, grid_width=width, grid_height=height)
    round_ = ConstantVelocityPredictor(config).predict_scenes(older, newer, gap, horizon)
    for k, layout in enumerate(round_, start=1):
        records = []
        for r in newer.vehicles:
            vx, vy = velocity[r.track_id]
            b1, b2, b3, b4 = r.box.b1 + k * vx, r.box.b2 + k * vy, r.box.b3 + k * vx, r.box.b4 + k * vy
            if b3 <= 0 or b1 >= 1 or b4 <= 0 or b2 >= 1:
                continue  # fully out of frame
            box = BoundingBox(*(min(max(c, 0.0), 1.0) for c in (b1, b2, b3, b4)))
            records.append(VehicleRecord(r.track_id, r.vehicle_class, box))
        np.testing.assert_array_equal(layout.grid, rasterize_oracle(scene(*records), width, height))


def test_queue_counts_down_and_refills():
    dest = boot()
    counts = []
    for t in range(1, 8):
        counts.append(dest.queue_len)
        dest.step(t, None)
    # the bootstrap round runs out after t=5; t=6 chains a new round and pops it
    assert counts == [5, 4, 3, 2, 1, 0, 4]
    assert dest.queue_len == 3
    assert len(list(dest.pending)) == 3
    dest.step(8, encode_message(scene(rec(0, 0.2))))
    assert dest.queue_len == 5  # a reception starts a fresh round
