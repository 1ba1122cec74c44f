import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semsample.layout import (
    BoundingBox,
    MessageFormatError,
    SceneAnnotation,
    SemanticMessage,
    VehicleClass,
    VehicleRecord,
    VisualLayout,
    box_intersection_area,
    decode_message,
    encode_message,
    message_from_payload,
    penalized_deviation,
    prediction_deviation,
    rasterize,
    semantic_change,
)
from oracles import (
    pack_records_oracle,
    prediction_deviation_oracle,
    quantize_oracle,
    rasterize_oracle,
    semantic_change_oracle,
)


def car(tid, b1, b2, b3, b4, cls=VehicleClass.CAR):
    return VehicleRecord(tid, cls, BoundingBox(b1, b2, b3, b4))


def scene(*vehicles, index=0):
    return SceneAnnotation(index, tuple(vehicles))


# -- domain type invariants ----------------------------------------------


def test_bounding_box_rejects_inverted_extents():
    with pytest.raises(ValueError):
        BoundingBox(0.5, 0.0, 0.4, 1.0)
    with pytest.raises(ValueError):
        BoundingBox(0.0, 0.8, 1.0, 0.7)
    with pytest.raises(ValueError):
        BoundingBox(-0.1, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        BoundingBox(0.0, 0.0, 1.1, 0.5)


def test_scene_rejects_duplicate_track_ids():
    with pytest.raises(ValueError):
        scene(car(1, 0, 0, 0.5, 0.5), car(1, 0.5, 0.5, 1, 1))


def test_vehicle_class_is_raster_value():
    assert int(VehicleClass.CAR) == 1
    assert int(VehicleClass.OTHERS) == 4


# -- codec ----------------------------------------------------------------


def test_single_car_message_is_22_bits():
    msg = encode_message(scene(car(0, 0.25, 0.25, 0.5, 0.5)))
    assert msg.size_bits == 22
    assert msg.vehicle_count == 1
    assert msg.payload == pack_records_oracle([(1, 8, 8, 16, 16)])


def test_empty_scene_gives_empty_message():
    msg = encode_message(scene())
    assert msg.size_bits == 0
    assert msg.vehicle_count == 0
    assert msg.payload == b""
    assert decode_message(msg).vehicle_count == 0


def test_seven_vehicle_message_size():
    vehicles = [car(i, 0.1 * i, 0.1, 0.1 * i + 0.05, 0.2) for i in range(7)]
    assert encode_message(scene(*vehicles)).size_bits == 154


def test_vehicle_cap_enforced():
    vehicles = [
        VehicleRecord(i, VehicleClass.CAR, BoundingBox(0.0, 0.0, 1.0, 1.0))
        for i in range(65)
    ]
    with pytest.raises(ValueError):
        encode_message(scene(*vehicles))


def test_decode_known_payload():
    msg = SemanticMessage(
        payload=pack_records_oracle([(1, 8, 8, 16, 16)]), vehicle_count=1, size_bits=22
    )
    decoded = decode_message(msg)
    assert decoded.vehicles[0].vehicle_class == VehicleClass.CAR
    assert decoded.vehicles[0].box.as_tuple() == (
        0.265625,
        0.265625,
        0.515625,
        0.515625,
    )


def test_decode_assigns_payload_order_track_ids():
    msg = encode_message(scene(car(42, 0, 0, 0.3, 0.3), car(7, 0.5, 0.5, 0.9, 0.9)))
    decoded = decode_message(msg)
    assert [v.track_id for v in decoded.vehicles] == [0, 1]


def test_decode_rejects_bad_length_and_padding():
    with pytest.raises(MessageFormatError):
        message_from_payload(b"\x00")  # 8 bits cannot frame 22-bit records
    good = encode_message(scene(car(0, 0.2, 0.2, 0.4, 0.4)))
    corrupted = SemanticMessage(
        payload=good.payload[:-1] + bytes([good.payload[-1] | 1]),
        vehicle_count=1,
        size_bits=22,
    )
    with pytest.raises(MessageFormatError):
        decode_message(corrupted)


def test_message_from_payload_infers_count():
    msg = encode_message(scene(car(0, 0, 0, 1, 1), car(1, 0, 0, 1, 1)))
    rebuilt = message_from_payload(msg.payload)
    assert rebuilt == msg


@st.composite
def message_payloads(draw):
    count = draw(st.integers(0, 12))
    records = [
        (
            draw(st.integers(1, 4)),
            draw(st.integers(0, 31)),
            draw(st.integers(0, 31)),
            draw(st.integers(0, 31)),
            draw(st.integers(0, 31)),
        )
        for _ in range(count)
    ]
    # quantized corners must stay ordered for the decoded box to be valid
    records = [
        (c, min(q1, q3), min(q2, q4), max(q1, q3), max(q2, q4))
        for c, q1, q2, q3, q4 in records
    ]
    return pack_records_oracle(records), count


@given(message_payloads())
@settings(max_examples=300, deadline=None)
def test_roundtrip_decode_encode_is_identity(payload_count):
    payload, count = payload_count
    msg = message_from_payload(payload)
    assert msg.vehicle_count == count
    assert encode_message(decode_message(msg)).payload == payload


@given(
    st.lists(
        st.tuples(
            st.integers(1, 4),
            st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
        ),
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_quantization_error_bounded(raw):
    vehicles = [
        VehicleRecord(
            i,
            VehicleClass(cls),
            BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)),
        )
        for i, (cls, x1, y1, x2, y2) in enumerate(raw)
    ]
    original = scene(*vehicles)
    decoded = decode_message(encode_message(original))
    for before, after in zip(original.vehicles, decoded.vehicles):
        assert after.vehicle_class == before.vehicle_class
        for b, a in zip(before.box.as_tuple(), after.box.as_tuple()):
            assert abs(b - a) <= 1 / 32 + 1e-12
            assert quantize_oracle(b) == round(a * 32 - 0.5)


# -- rasterization ---------------------------------------------------------


def test_rasterize_empty_scene_all_zero():
    assert not rasterize(scene(), 120, 80).grid.any()


def test_rasterize_full_frame_bus():
    layout = rasterize(scene(car(0, 0, 0, 1, 1, VehicleClass.BUS)), 120, 80)
    assert (layout.grid == 2).all()


def test_rasterize_half_frame_car_block():
    layout = rasterize(scene(car(0, 0.0, 0.0, 0.5, 0.5)), 120, 80)
    assert (layout.grid[:40, :60] == 1).all()
    assert not layout.grid[40:, :].any()
    assert not layout.grid[:, 60:].any()


def test_rasterize_degenerate_box_paints_one_pixel():
    layout = rasterize(scene(car(0, 0.5, 0.5, 0.5, 0.5)), 120, 80)
    assert layout.grid.sum() == 1
    corner = rasterize(scene(car(0, 1.0, 1.0, 1.0, 1.0)), 120, 80)
    assert corner.grid[79, 119] == 1
    assert corner.grid.sum() == 1


def test_rasterize_overlap_list_order_wins():
    layout = rasterize(
        scene(
            car(0, 0.0, 0.0, 0.6, 0.6, VehicleClass.CAR),
            car(1, 0.4, 0.4, 1.0, 1.0, VehicleClass.VAN),
        ),
        40,
        40,
    )
    assert layout.grid[20, 20] == 3  # later vehicle overwrote the overlap


def test_rasterize_order_stable_for_disjoint_vehicles():
    a = car(0, 0.0, 0.0, 0.3, 0.3)
    b = car(1, 0.6, 0.6, 0.9, 0.9, VehicleClass.BUS)
    assert rasterize(scene(a, b), 60, 40) == rasterize(scene(b, a), 60, 40)


@given(
    st.lists(
        st.tuples(
            st.integers(1, 4),
            st.integers(0, 15), st.integers(0, 15),
            st.integers(0, 15), st.integers(0, 15),
        ),
        max_size=5,
    )
)
@settings(max_examples=100, deadline=None)
def test_rasterize_matches_pixel_oracle(raw):
    vehicles = [
        VehicleRecord(
            i,
            VehicleClass(cls),
            BoundingBox(min(a, c) / 16, min(b, d) / 16, max(a, c) / 16, max(b, d) / 16),
        )
        for i, (cls, a, b, c, d) in enumerate(raw)
    ]
    sc = scene(*vehicles)
    assert np.array_equal(rasterize(sc, 24, 16).grid, rasterize_oracle(sc, 24, 16))


def test_visual_layout_is_read_only():
    layout = rasterize(scene(), 8, 8)
    with pytest.raises(ValueError):
        layout.grid[0, 0] = 1


# -- box intersection ------------------------------------------------------


def test_intersection_identical_unit_boxes():
    box = BoundingBox(0, 0, 1, 1)
    assert box_intersection_area(box, box) == 1.0


def test_intersection_disjoint_is_zero():
    assert box_intersection_area(
        BoundingBox(0, 0, 0.4, 0.4), BoundingBox(0.5, 0.5, 1, 1)
    ) == 0.0


def test_intersection_quarter_overlap():
    assert box_intersection_area(
        BoundingBox(0, 0, 0.5, 0.5), BoundingBox(0.25, 0.25, 0.75, 0.75)
    ) == pytest.approx(0.0625, abs=0)


# -- semantic change -------------------------------------------------------


def test_semantic_change_identical_scenes():
    sc = scene(car(0, 0.1, 0.1, 0.4, 0.3), car(1, 0.5, 0.5, 0.8, 0.9))
    assert semantic_change(sc, sc) == 0.0


def test_semantic_change_disjoint_single_vehicle():
    a = scene(car(0, 0.0, 0.0, 0.2, 0.2))
    b = scene(car(0, 0.5, 0.5, 0.7, 0.7))
    assert semantic_change(a, b) == 0.5


def test_semantic_change_known_overlap():
    a = scene(car(0, 0.0, 0.0, 0.5, 0.5))
    b = scene(car(0, 0.25, 0.25, 0.75, 0.75))
    assert semantic_change(a, b) == float(Fraction(3, 7))


def test_semantic_change_unmatched_vehicles_count_half():
    a = scene(car(0, 0.1, 0.1, 0.2, 0.2), car(1, 0.3, 0.3, 0.4, 0.4))
    b = scene(car(0, 0.1, 0.1, 0.2, 0.2), car(2, 0.3, 0.3, 0.4, 0.4))
    assert semantic_change(a, b) == 1.0  # ids 1 and 2 each add 0.5


def test_semantic_change_zero_area_pair_contributes_zero():
    a = scene(car(0, 0.5, 0.5, 0.5, 0.5))
    b = scene(car(0, 0.7, 0.7, 0.7, 0.7))
    assert semantic_change(a, b) == 0.0


@st.composite
def random_scenes(draw):
    def one(index):
        n = draw(st.integers(0, 4))
        vehicles = []
        for i in range(n):
            x1 = draw(st.integers(0, 60)) / 64
            y1 = draw(st.integers(0, 60)) / 64
            w = draw(st.integers(0, 63 - int(x1 * 64))) / 64
            h = draw(st.integers(0, 63 - int(y1 * 64))) / 64
            vehicles.append(car(i, x1, y1, x1 + w, y1 + h))
        return scene(*vehicles, index=index)

    return one(0), one(1)


@given(random_scenes())
@settings(max_examples=200, deadline=None)
def test_semantic_change_matches_oracle_and_is_symmetric(pair):
    a, b = pair
    value = semantic_change(a, b)
    assert value == float(semantic_change_oracle(a, b))
    assert value == semantic_change(b, a)
    assert 0.0 <= value <= 0.5 * len(
        {v.track_id for v in a.vehicles} | {v.track_id for v in b.vehicles}
    ) + 1e-12


# coordinates that stress exact arithmetic: the smallest subnormal, other
# subnormals, the smallest normal, values near 1e-300, the grid's top edge
EDGE_COORDS = [0.0, 5e-324, 1.5e-323, 1e-310, 2.2250738585072014e-308, 1e-300,
               3.7e-300, 1e-30, 0.1, 0.5, 1 - 2**-53, 1.0]

coords = st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.sampled_from(EDGE_COORDS),
)


@st.composite
def arbitrary_boxes(draw):
    x1, x2 = sorted([draw(coords), draw(coords)])
    y1, y2 = sorted([draw(coords), draw(coords)])
    if draw(st.booleans()) and draw(st.booleans()):
        x2 = x1  # zero-area box
    return BoundingBox(x1, y1, x2, y2)


@st.composite
def arbitrary_scene_pairs(draw):
    """Up to 15 vehicles a scene; track ids drawn from 0..19, so the two
    scenes share some ids and not others.  A matched box is either fresh or
    the other scene's box with one coordinate nudged."""
    ids_a = draw(st.lists(st.integers(0, 19), max_size=15, unique=True))
    ids_b = draw(st.lists(st.integers(0, 19), max_size=15, unique=True))
    a = {tid: draw(arbitrary_boxes()) for tid in ids_a}
    b = {}
    for tid in ids_b:
        if tid in a and draw(st.booleans()):
            c = list(a[tid].as_tuple())
            k = draw(st.integers(0, 3))
            c[k] = draw(coords)
            b[tid] = BoundingBox(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
        else:
            b[tid] = draw(arbitrary_boxes())
    return (scene(*(car(t, *box.as_tuple()) for t, box in a.items()), index=0),
            scene(*(car(t, *box.as_tuple()) for t, box in b.items()), index=1))


@given(arbitrary_scene_pairs())
@settings(max_examples=300, deadline=None)
def test_semantic_change_matches_oracle_on_arbitrary_floats(pair):
    a, b = pair
    assert semantic_change(a, b) == float(semantic_change_oracle(a, b))


def test_semantic_change_subnormal_boxes_round_once():
    # a box of area 2**-2148 against a unit-width sliver: every term is exact
    # only with the subnormal coordinates kept as integers
    a = scene(car(0, 0.0, 0.0, 5e-324, 5e-324), car(1, 0.0, 0.0, 1.0, 1e-300))
    b = scene(car(0, 0.0, 0.0, 1.5e-323, 5e-324), car(1, 0.0, 0.0, 1.0, 2e-300))
    expected = Fraction(2, 6) + Fraction(1, 4)
    assert semantic_change(a, b) == float(expected) == float(semantic_change_oracle(a, b))


# -- prediction deviation ---------------------------------------------------


def _layout(array):
    return VisualLayout(np.asarray(array, dtype=np.uint8))


def test_prediction_deviation_identical_layouts():
    grid = np.zeros((8, 10), np.uint8)
    grid[2:5, 3:7] = 2
    assert prediction_deviation(_layout(grid), _layout(grid)) == 0.0


def test_prediction_deviation_disjoint_single_class():
    a = np.zeros((6, 6), np.uint8)
    b = np.zeros((6, 6), np.uint8)
    a[0, 0:3] = 1
    b[5, 0:3] = 1
    assert prediction_deviation(_layout(a), _layout(b)) == 0.5


def test_prediction_deviation_known_counts():
    # n = n' = 100, intersection 60 -> 80/400 = 0.2
    a = np.zeros((20, 20), np.uint8)
    b = np.zeros((20, 20), np.uint8)
    a[0:10, 0:10] = 1  # 100 pixels
    b[0:10, 4:14] = 1  # 100 pixels, 60 shared
    assert prediction_deviation(_layout(a), _layout(b)) == pytest.approx(0.2, abs=0)


def test_prediction_deviation_dimension_mismatch():
    with pytest.raises(ValueError):
        prediction_deviation(_layout(np.zeros((4, 4))), _layout(np.zeros((4, 5))))


def test_prediction_deviation_class_present_on_one_side_only():
    a = np.zeros((4, 4), np.uint8)
    b = np.zeros((4, 4), np.uint8)
    a[0, 0] = 1
    b[0, 0] = 1
    b[3, 3] = 4  # class 4 only in prediction
    assert prediction_deviation(_layout(a), _layout(b)) == 0.5


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_prediction_deviation_matches_pixel_oracle(data):
    shape = (6, 8)
    a = data.draw(st.lists(st.integers(0, 4), min_size=48, max_size=48))
    b = data.draw(st.lists(st.integers(0, 4), min_size=48, max_size=48))
    real = _layout(np.array(a).reshape(shape))
    pred = _layout(np.array(b).reshape(shape))
    assert prediction_deviation(real, pred) == float(
        prediction_deviation_oracle(real, pred)
    )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_prediction_deviation_matches_oracle_with_all_five_codes(data):
    h = data.draw(st.integers(1, 12))
    w = data.draw(st.integers(max(1, -(-5 // h)), 12))
    grids = []
    for _ in range(2):
        cells = data.draw(st.lists(st.integers(0, 4), min_size=h * w, max_size=h * w))
        spots = data.draw(st.permutations(range(h * w)))[:5]
        for code, spot in enumerate(spots):  # every code 0..4 appears
            cells[spot] = code
        grids.append(_layout(np.array(cells).reshape(h, w)))
    real, pred = grids
    assert prediction_deviation(real, pred) == float(prediction_deviation_oracle(real, pred))


def test_prediction_deviation_fault_confined_to_class_four():
    # classes 1-3 agree exactly; class 4 has n = n' = 3 with 2 shared pixels
    a = np.zeros((6, 6), np.uint8)
    a[0, 0:2] = 1
    a[1, 0:3] = 2
    a[2, 0] = 3
    b = a.copy()
    a[4, 0:3] = 4
    b[4, 0:2] = 4
    b[5, 5] = 4
    assert prediction_deviation(_layout(a), _layout(b)) == float(Fraction(1, 6))


# -- penalty ----------------------------------------------------------------


def test_penalized_deviation_below_threshold_unchanged():
    assert penalized_deviation(0.05, 0.07, 0.5) == 0.05


def test_penalized_deviation_above_threshold_shifted():
    assert penalized_deviation(0.10, 0.07, 0.5) == pytest.approx(0.6)


def test_penalized_deviation_capped_at_one():
    assert penalized_deviation(0.8, 0.07, 0.5) == 1.0


def test_penalized_deviation_rejects_negative():
    with pytest.raises(ValueError):
        penalized_deviation(-0.01, 0.07, 0.5)
