import hashlib
import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semsample.ingest import (
    MAX_CLIP_FRAMES,
    MAX_FRAME_GAP,
    ClipParseError,
    FootageClip,
    TrafficGenConfig,
    clip_to_json,
    generate_traffic,
    parse_clip_json,
    parse_detrac_xml,
)
from semsample.layout import VehicleClass

FIXTURE = (Path(__file__).parent / "fixtures" / "sample_detrac.xml").read_bytes()


# -- XML parser ----------------------------------------------------------------


def test_parse_fixture_boxes_normalized():
    clip = parse_detrac_xml(FIXTURE)
    assert clip.name == "MVI_fixture"
    assert len(clip) == 4  # frames 1,2,4 plus the filled gap at 3
    first = clip.frames[0].vehicles[0]
    assert first.track_id == 1
    assert first.vehicle_class == VehicleClass.CAR
    assert first.box.as_tuple() == pytest.approx(
        (48 / 960, 40 / 540, 144 / 960, 80 / 540)
    )


def test_parse_fills_a_frame_gap_up_to_the_cap():
    doc = f'<sequence><frame num="1"/><frame num="{1 + MAX_FRAME_GAP}"/></sequence>'
    clip = parse_detrac_xml(doc.encode())
    assert len(clip) == MAX_FRAME_GAP + 1


def test_parse_rejects_a_frame_gap_past_the_cap_without_building_it():
    doc = b'<sequence><frame num="1"/><frame num="1000001"/></sequence>'
    started = time.perf_counter()
    with pytest.raises(ClipParseError, match="frame 1000001: jump of 1000000 frames after frame 1"):
        parse_detrac_xml(doc)
    assert time.perf_counter() - started < 1.0  # fails before filling any gap


def test_parse_rejects_a_gap_one_past_the_cap():
    doc = f'<sequence><frame num="5"/><frame num="{6 + MAX_FRAME_GAP}"/></sequence>'
    with pytest.raises(ClipParseError, match=f"frame {6 + MAX_FRAME_GAP}"):
        parse_detrac_xml(doc.encode())


def _frames_doc(nums) -> bytes:
    return ("<sequence>" + "".join(f'<frame num="{n}"/>' for n in nums) + "</sequence>").encode()


def test_parse_rejects_a_long_span_of_small_gaps_without_building_it():
    # every jump is within MAX_FRAME_GAP, but the 200 frames span 199,001
    doc = _frames_doc(range(1, 200_001, 1000))
    assert len(doc) == 4108
    started = time.perf_counter()
    message = f"span {MAX_CLIP_FRAMES + 1} frames, past the cap of {MAX_CLIP_FRAMES}"
    with pytest.raises(ClipParseError, match=message):
        parse_detrac_xml(doc)
    assert time.perf_counter() - started < 1.0  # fails before filling any gap


def test_parse_accepts_a_span_exactly_at_the_clip_cap():
    nums = list(range(7, 7 + MAX_CLIP_FRAMES, MAX_FRAME_GAP)) + [6 + MAX_CLIP_FRAMES]
    clip = parse_detrac_xml(_frames_doc(nums))
    assert len(clip) == MAX_CLIP_FRAMES
    with pytest.raises(ClipParseError, match="past the cap"):
        parse_detrac_xml(_frames_doc(nums + [7 + MAX_CLIP_FRAMES]))


def test_parse_fixture_clamps_out_of_frame_box():
    clip = parse_detrac_xml(FIXTURE)
    bus = clip.frames[1].vehicles[1]
    assert bus.vehicle_class == VehicleClass.BUS
    assert bus.box.b3 == 1.0  # left+width = 1020 px clamped to the frame
    assert bus.box.b1 == pytest.approx(900 / 960)


def test_parse_fixture_fills_missing_frames_with_empty_scenes():
    clip = parse_detrac_xml(FIXTURE)
    assert clip.frames[2].vehicle_count == 0  # annotation skipped frame 3
    assert [f.frame_index for f in clip.frames] == [0, 1, 2, 3]


def test_parse_unknown_vehicle_type_maps_to_others():
    clip = parse_detrac_xml(FIXTURE)
    assert clip.frames[3].vehicles[0].vehicle_class == VehicleClass.OTHERS


def test_parse_empty_target_list():
    doc = b"""<sequence name="s"><frame num="1"><target_list/></frame></sequence>"""
    clip = parse_detrac_xml(doc)
    assert len(clip) == 1
    assert clip.frames[0].vehicle_count == 0


def test_parse_malformed_xml_reports_location():
    with pytest.raises(ClipParseError) as err:
        parse_detrac_xml(b"<sequence><frame num=")
    assert err.value.line is not None


def test_parse_missing_box_attribute_errors():
    doc = b"""<sequence name="s"><frame num="1"><target_list>
        <target id="1"><box left="1" top="1" width="5"/>
        <attribute vehicle_type="car"/></target>
    </target_list></frame></sequence>"""
    with pytest.raises(ClipParseError, match="missing attribute"):
        parse_detrac_xml(doc)


def test_parse_missing_vehicle_type_errors():
    doc = b"""<sequence name="s"><frame num="1"><target_list>
        <target id="1"><box left="1" top="1" width="5" height="5"/></target>
    </target_list></frame></sequence>"""
    with pytest.raises(ClipParseError, match="vehicle_type"):
        parse_detrac_xml(doc)


def test_parse_non_monotone_frames_error():
    doc = b"""<sequence name="s">
      <frame num="2"><target_list/></frame>
      <frame num="1"><target_list/></frame>
    </sequence>"""
    with pytest.raises(ClipParseError, match="non-monotone"):
        parse_detrac_xml(doc)


def test_parse_negative_extent_errors():
    doc = b"""<sequence name="s"><frame num="1"><target_list>
        <target id="1"><box left="10" top="10" width="-5" height="5"/>
        <attribute vehicle_type="car"/></target>
    </target_list></frame></sequence>"""
    message = r"^frame 1: target 1: negative box extent \(-5\.0, 5\.0\)$"
    with pytest.raises(ClipParseError, match=message):
        parse_detrac_xml(doc)


def test_parse_rejects_wrong_root():
    with pytest.raises(ClipParseError, match="sequence"):
        parse_detrac_xml(b"<video/>")


def _target_doc(frame_num="1", target_ids=("1",), left="1"):
    targets = "".join(
        f'<target id="{tid}"><box left="{left}" top="1" width="5" height="5"/>'
        f'<attribute vehicle_type="car"/></target>'
        for tid in target_ids
    )
    return (
        f'<sequence name="s"><frame num="{frame_num}"><target_list>'
        f"{targets}</target_list></frame></sequence>"
    ).encode()


@pytest.mark.parametrize(
    "doc, message",
    [
        (b'<?xml version="1.0" encoding="vtf-8"?><sequence/>', "unknown encoding"),
        (b'<?xml version="1.0" encoding="utf-7"?><sequence/>', "multi-byte"),
        (_target_doc(frame_num="1x"), "frame number '1x'"),
        (_target_doc(target_ids=("7a",)), "frame 1: target id '7a'"),
        (_target_doc(left="4x.0"), "frame 1: target 1 box"),
        (_target_doc(target_ids=("3", "3")), "frame 1: duplicate target id 3"),
    ],
)
def test_parse_bad_values_raise_clip_parse_error(doc, message):
    with pytest.raises(ClipParseError, match=message):
        parse_detrac_xml(doc)


@given(st.integers(0, len(FIXTURE) - 1), st.integers(1, 255))
@example(position=30, delta=1)  # encoding="vtf-8": unknown codec
@settings(max_examples=120, deadline=None)
def test_parser_fuzz_never_yields_invalid_boxes(position, delta):
    # flip one byte: the parser must either reject the document or still
    # produce only valid normalized boxes
    mutated = bytearray(FIXTURE)
    mutated[position] = (mutated[position] + delta) % 256
    try:
        clip = parse_detrac_xml(bytes(mutated))
    except ClipParseError:
        return
    for frame in clip.frames:
        for v in frame.vehicles:
            b = v.box
            assert 0.0 <= b.b1 <= b.b3 <= 1.0
            assert 0.0 <= b.b2 <= b.b4 <= 1.0


# -- clip JSON round trip --------------------------------------------------------


def test_clip_json_roundtrip():
    clip = parse_detrac_xml(FIXTURE)
    text = clip_to_json(clip)
    again = parse_clip_json(text)
    assert again == clip
    assert clip_to_json(again) == text


def test_clip_json_schema_shape():
    clip = parse_detrac_xml(FIXTURE)
    doc = json.loads(clip_to_json(clip))
    assert set(doc) == {"name", "frame_width", "frame_height", "frames"}
    row = doc["frames"][0][0]
    assert len(row) == 6  # [track_id, class, b1, b2, b3, b4]


def test_clip_json_rejects_garbage():
    with pytest.raises(ClipParseError):
        parse_clip_json("not json at all {")
    with pytest.raises(ClipParseError):
        parse_clip_json('{"name": "x"}')
    with pytest.raises(ClipParseError, match="^clip JSON nests too deeply to read$"):
        parse_clip_json("[" * 200000 + "]" * 200000)

    def clip(frames):
        return json.dumps({"name": "x", "frame_width": 960, "frame_height": 540, "frames": [[]] * frames})

    assert len(parse_clip_json(clip(MAX_CLIP_FRAMES))) == MAX_CLIP_FRAMES
    with pytest.raises(ClipParseError, match="20001 frames, past the cap of 20000"):
        parse_clip_json(clip(MAX_CLIP_FRAMES + 1))


def test_clip_invariant_frame_indices():
    from semsample.layout import SceneAnnotation

    with pytest.raises(ValueError):
        FootageClip("x", 960, 540, (SceneAnnotation(1),))


# -- synthetic generator ----------------------------------------------------------


def test_generator_zero_rate_gives_empty_frames():
    clip = generate_traffic(TrafficGenConfig(spawn_rate=0.0, seed=1), 50)
    assert len(clip) == 50
    assert all(f.vehicle_count == 0 for f in clip.frames)


def test_generator_deterministic_under_seed():
    cfg = TrafficGenConfig(seed=42)
    a = generate_traffic(cfg, 120)
    b = generate_traffic(cfg, 120)
    assert a == b


def test_generator_seed_changes_output():
    a = generate_traffic(TrafficGenConfig(seed=1, spawn_rate=0.2), 120)
    b = generate_traffic(TrafficGenConfig(seed=2, spawn_rate=0.2), 120)
    assert a != b


def test_generator_zero_jitter_motion_is_collinear():
    cfg = TrafficGenConfig(seed=3, spawn_rate=0.2, speed_jitter=0.0)
    clip = generate_traffic(cfg, 150)
    tracks = {}
    for t, frame in enumerate(clip.frames):
        for v in frame.vehicles:
            cx = (v.box.b1 + v.box.b3) / 2
            cy = (v.box.b2 + v.box.b4) / 2
            tracks.setdefault(v.track_id, []).append((t, cx, cy))
    checked = 0
    for points in tracks.values():
        interior = [
            (t, cx, cy)
            for t, cx, cy in points
            if 0.32 < cx < 0.68  # away from edge clamping
        ]
        if len(interior) < 3:
            continue
        (t0, x0, y0), (t1, x1, y1) = interior[0], interior[1]
        vx = (x1 - x0) / (t1 - t0)
        for t, cx, cy in interior[2:]:
            assert abs(cx - (x0 + vx * (t - t0))) < 1e-9
            assert abs(cy - y0) < 1e-9
        checked += 1
    assert checked > 0


def test_generator_track_ids_unique_and_never_reused():
    clip = generate_traffic(TrafficGenConfig(seed=9, spawn_rate=0.3), 300)
    seen_last = {}
    for t, frame in enumerate(clip.frames):
        ids = [v.track_id for v in frame.vehicles]
        assert len(ids) == len(set(ids))
        for tid in ids:
            last = seen_last.get(tid)
            assert last is None or last == t - 1  # no reappearing ids
            seen_last[tid] = t


def test_generator_conservation_of_vehicles():
    clip = generate_traffic(TrafficGenConfig(seed=10, spawn_rate=0.25), 200)
    alive = set()
    spawned = vanished = 0
    for frame in clip.frames:
        ids = {v.track_id for v in frame.vehicles}
        spawned += len(ids - alive)
        vanished += len(alive - ids)
        assert len(ids) == len(alive) + len(ids - alive) - len(alive - ids)
        alive = ids
    assert spawned >= vanished
    assert spawned > 0


def test_generator_boxes_valid_and_lane_bound():
    cfg = TrafficGenConfig(seed=11, spawn_rate=0.4, lanes=2)
    clip = generate_traffic(cfg, 200)
    for frame in clip.frames:
        for v in frame.vehicles:
            b = v.box
            assert 0.0 <= b.b1 <= b.b3 <= 1.0
            assert 0.0 <= b.b2 <= b.b4 <= 1.0


def _traffic_sha256(clip: FootageClip) -> str:
    h = hashlib.sha256()
    for frame in clip.frames:
        for v in frame.vehicles:
            h.update(struct.pack("<3q4d", frame.frame_index, v.track_id, int(v.vehicle_class),
                                 *v.box.as_tuple()))
    return h.hexdigest()


@pytest.mark.parametrize(
    "config, digest",
    [
        # train_small_dense's regime
        (dict(lanes=2, spawn_rate=0.5, seed=10),
         "d6dbc2fb2cecd55487ab71e5399f163f28e6f068e0a41ba0f193308fb26f2631"),
        (dict(lanes=2, spawn_rate=0.5, seed=11),
         "8cdbf4c71d1588c42563f76c6f192ad13c775ae71585be74ba01e2e1a10698c5"),
        (dict(lanes=2, spawn_rate=0.5, seed=12),
         "db793a65a79606e43614016242a34ef6a751276e6b5de5bb21da7d44b991f0ac"),
        # several spawn attempts per frame, most of them blocked
        (dict(lanes=3, spawn_rate=2.0, seed=13),
         "50f43b1a88dfbae91ae36409351b954ffbe8c587fe622b48d4ddafba315bd3a8"),
        # jitter past the speed: some steps clamp to standing still
        (dict(speed_mean=0.01, speed_jitter=0.015, spawn_rate=0.2, seed=14),
         "d0fab936be9597f7879461e48a0cea4a70258cb60c689ff58425920cdfbdb137"),
    ],
    ids=["dense-10", "dense-11", "dense-12", "3-lanes-spawn-2", "jitter-past-speed"],
)
def test_generator_output_is_pinned_bit_for_bit(config, digest):
    clip = generate_traffic(TrafficGenConfig(**config), 500)
    assert _traffic_sha256(clip) == digest
    if config.get("speed_jitter") == 0.015:  # some vehicle stands still for a frame
        boxes = [{v.track_id: v.box for v in f.vehicles} for f in clip.frames]
        assert any(box == now.get(tid) for before, now in zip(boxes, boxes[1:])
                   for tid, box in before.items())


def test_generator_config_validation():
    with pytest.raises(ValueError):
        TrafficGenConfig(class_mix=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        TrafficGenConfig(speed_mean=0.0)
    with pytest.raises(ValueError):
        TrafficGenConfig(lanes=0)
    with pytest.raises(ValueError):
        TrafficGenConfig(spawn_rate=-1.0)
