"""Scene stream sources: annotation XML parsing and synthetic traffic.

A footage clip is an ordered run of scenes, one per sensing interval, with
boxes normalized to [0,1].  Clips come from three places: tracking-benchmark
annotation XML (sequence/frame/target_list/target), the native JSON clip
format, or the built-in bidirectional-traffic generator used when no real
footage is available.
"""
from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .layout import BoundingBox, SceneAnnotation, VehicleClass, VehicleRecord

__all__ = [
    "FootageClip",
    "ClipParseError",
    "MAX_FRAME_GAP",
    "MAX_CLIP_FRAMES",
    "FRAME_WIDTH",
    "FRAME_HEIGHT",
    "parse_detrac_xml",
    "clip_to_json",
    "parse_clip_json",
    "TrafficGenConfig",
    "generate_traffic",
]

VEHICLE_TYPE_CODES = {
    "car": VehicleClass.CAR,
    "bus": VehicleClass.BUS,
    "van": VehicleClass.VAN,
    "others": VehicleClass.OTHERS,
}

# UA-DETRAC's source frame size in pixels: the default scale of annotation
# boxes, and the frame size recorded for generated traffic.
FRAME_WIDTH, FRAME_HEIGHT = 960, 540

# Frame numbers absent from an annotation file become empty scenes; a jump
# larger than this between consecutive frames is rejected instead, so a short
# document cannot expand into an arbitrarily long clip (1,000 frames is 40 s
# of footage at 25 fps).
MAX_FRAME_GAP = 1000

# The span of frame numbers in one document (last - first + 1, the length of
# the clip once its gaps are filled) is capped too: bounding each jump alone
# still lets 200 frames 1,000 apart expand into a 199,001-frame clip.
# 20,000 frames is 13 min 20 s at 25 fps, several times the length of a
# UA-DETRAC sequence (a few thousand frames at most), yet small enough that
# an adversarial document costs a fraction of a second and a few MiB.  The
# clip JSON reader and the traffic generator take no longer clip, so no
# episode runs past it.
MAX_CLIP_FRAMES = 20_000


class ClipParseError(ValueError):
    """Annotation input could not be parsed; carries a location when known."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class FootageClip:
    """A named, gap-free run of scenes with the source pixel dimensions."""

    name: str
    frame_width: int
    frame_height: int
    frames: tuple[SceneAnnotation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))
        for i, frame in enumerate(self.frames):
            if frame.frame_index != i:
                raise ValueError(
                    f"frame indices must increase by 1 from 0; frame {i} has "
                    f"index {frame.frame_index}"
                )

    def __len__(self) -> int:
        return len(self.frames)


def parse_detrac_xml(
    data: bytes | str,
    frame_width: int = FRAME_WIDTH,
    frame_height: int = FRAME_HEIGHT,
    name: Optional[str] = None,
) -> FootageClip:
    """Parse a tracking-annotation XML document into a clip.

    The recognized subset is ``sequence > frame(num) > target_list >
    target(id) > box(left, top, width, height) + attribute(vehicle_type)``.
    Boxes convert from pixel left/top/width/height to normalized corners;
    vehicle types outside the four known names map to "others".  Frame
    numbers absent from the document become empty scenes so the output is
    gap-free (consecutive frame numbers may differ by at most
    ``MAX_FRAME_GAP``, the first and last by less than ``MAX_CLIP_FRAMES``),
    and indices are rebased to start at 0.
    """
    if frame_width < 1 or frame_height < 1:
        raise ClipParseError(
            f"frame size must be at least 1x1 pixels, got {frame_width}x{frame_height}"
        )
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ClipParseError(f"malformed XML: {exc.msg}", line, col) from exc
    except (LookupError, ValueError) as exc:
        # the declared encoding is unknown to the codec registry, or one
        # expat cannot decode (multi-byte encodings)
        raise ClipParseError(f"unreadable XML: {exc}") from exc
    if root.tag != "sequence":
        raise ClipParseError(f"expected <sequence> root, got <{root.tag}>")
    clip_name = name or root.get("name") or "sequence"

    numbered: list[tuple[int, list[VehicleRecord]]] = []
    last_num = None
    for frame in root.iter("frame"):
        num_attr = frame.get("num")
        if num_attr is None:
            raise ClipParseError("frame element missing 'num' attribute")
        try:
            num = int(num_attr)
        except ValueError as exc:
            raise ClipParseError(f"frame number {num_attr!r} is not an integer") from exc
        if last_num is not None and num <= last_num:
            raise ClipParseError(f"non-monotone frame number {num} after {last_num}")
        if last_num is not None and num - last_num > MAX_FRAME_GAP:
            raise ClipParseError(
                f"frame {num}: jump of {num - last_num} frames after frame "
                f"{last_num} exceeds the cap of {MAX_FRAME_GAP}"
            )
        if numbered and num - numbered[0][0] + 1 > MAX_CLIP_FRAMES:
            raise ClipParseError(
                f"frame {num}: frames {numbered[0][0]}..{num} span "
                f"{num - numbered[0][0] + 1} frames, past the cap of {MAX_CLIP_FRAMES}"
            )
        last_num = num
        records: list[VehicleRecord] = []
        track_ids: set[int] = set()
        for target in frame.iter("target"):
            tid_attr = target.get("id")
            if tid_attr is None:
                raise ClipParseError(f"frame {num}: target missing 'id'")
            try:
                tid = int(tid_attr)
            except ValueError as exc:
                raise ClipParseError(
                    f"frame {num}: target id {tid_attr!r} is not an integer"
                ) from exc
            if tid in track_ids:
                raise ClipParseError(f"frame {num}: duplicate target id {tid}")
            track_ids.add(tid)
            box_el = target.find("box")
            if box_el is None:
                raise ClipParseError(f"frame {num}: target {tid_attr} has no <box>")
            try:
                left, top, width, height = (
                    float(box_el.attrib[key]) for key in ("left", "top", "width", "height"))
            except KeyError as exc:
                raise ClipParseError(
                    f"frame {num}: target {tid_attr} box missing attribute {exc}"
                ) from exc
            except ValueError as exc:
                raise ClipParseError(f"frame {num}: target {tid_attr} box: {exc}") from exc
            attr_el = target.find("attribute")
            vtype = None if attr_el is None else attr_el.get("vehicle_type")
            if vtype is None:
                raise ClipParseError(
                    f"frame {num}: target {tid_attr} missing vehicle_type attribute"
                )
            try:
                if width < 0 or height < 0:
                    raise ValueError(f"negative box extent ({width}, {height})")
                # out-of-frame parts are clamped into [0,1]; the box rejects a NaN
                box = BoundingBox(
                    min(max(left / frame_width, 0.0), 1.0),
                    min(max(top / frame_height, 0.0), 1.0),
                    min(max((left + width) / frame_width, 0.0), 1.0),
                    min(max((top + height) / frame_height, 0.0), 1.0),
                )
            except ValueError as exc:
                raise ClipParseError(f"frame {num}: target {tid_attr}: {exc}") from exc
            vclass = VEHICLE_TYPE_CODES.get(vtype.lower(), VehicleClass.OTHERS)
            records.append(VehicleRecord(tid, vclass, box))
        numbered.append((num, records))

    if not numbered:
        raise ClipParseError("sequence contains no frames")
    base = numbered[0][0]
    frames: list[SceneAnnotation] = []
    for num, records in numbered:
        while base + len(frames) < num:  # fill annotation gaps with empty scenes
            frames.append(SceneAnnotation(frame_index=len(frames)))
        frames.append(SceneAnnotation(frame_index=len(frames), vehicles=tuple(records)))
    return FootageClip(
        name=clip_name,
        frame_width=frame_width,
        frame_height=frame_height,
        frames=tuple(frames),
    )


def clip_to_json(clip: FootageClip) -> str:
    """Serialize a clip to the native JSON format.

    Frames are arrays of ``[track_id, class, b1, b2, b3, b4]`` rows; the
    frame index is the array position.
    """
    doc = {
        "name": clip.name,
        "frame_width": clip.frame_width,
        "frame_height": clip.frame_height,
        "frames": [
            [
                [v.track_id, int(v.vehicle_class), *v.box.as_tuple()]
                for v in frame.vehicles
            ]
            for frame in clip.frames
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def parse_clip_json(text: str) -> FootageClip:
    """Load a clip of at most ``MAX_CLIP_FRAMES`` frames from the native
    JSON format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ClipParseError(f"malformed clip JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ClipParseError("clip JSON nests too deeply to read") from exc
    try:
        if len(doc["frames"]) > MAX_CLIP_FRAMES:
            raise ValueError(f"{len(doc['frames'])} frames, past the cap of {MAX_CLIP_FRAMES}")
        frames = tuple(
            SceneAnnotation(
                frame_index=i,
                vehicles=tuple(
                    VehicleRecord(
                        track_id=int(row[0]),
                        vehicle_class=VehicleClass(int(row[1])),
                        box=BoundingBox(*map(float, row[2:6])),
                    )
                    for row in frame
                ),
            )
            for i, frame in enumerate(doc["frames"])
        )
        return FootageClip(
            name=str(doc["name"]),
            frame_width=int(doc["frame_width"]),
            frame_height=int(doc["frame_height"]),
            frames=frames,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ClipParseError(f"invalid clip JSON structure: {exc}") from exc


# Normalized (length, height) per class, sized like near-field surveillance
# footage; heights fit inside one lane band for up to 2 lanes per direction.
_CLASS_SIZES = {
    VehicleClass.CAR: (0.20, 0.15),
    VehicleClass.BUS: (0.30, 0.19),
    VehicleClass.VAN: (0.24, 0.17),
    VehicleClass.OTHERS: (0.16, 0.12),
}
_SPAWN_GAP = 0.03  # minimum clear space behind the entry edge
_MIN_VISIBLE = 0.30  # leaving vehicles drop once less than this fraction shows


@dataclass(frozen=True)
class TrafficGenConfig:
    """Parameters of the synthetic bidirectional-traffic source."""

    lanes: int = 1
    spawn_rate: float = 0.05
    speed_mean: float = 0.0125
    speed_jitter: float = 0.001
    class_mix: tuple[float, float, float, float] = (0.85, 0.05, 0.07, 0.03)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError("need at least one lane per direction")
        if self.spawn_rate < 0:
            raise ValueError("spawn_rate must be >= 0")
        if self.speed_mean <= 0:
            raise ValueError("speed_mean must be positive")
        if self.speed_jitter < 0:
            raise ValueError("speed_jitter must be >= 0")
        if len(self.class_mix) != 4 or any(p < 0 for p in self.class_mix):
            raise ValueError("class_mix must be 4 non-negative probabilities")
        if not math.isclose(sum(self.class_mix), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"class_mix must sum to 1, got {sum(self.class_mix)}")


@dataclass
class _Vehicle:
    track_id: int
    vehicle_class: VehicleClass
    lane: int  # lanes below config.lanes move toward x=1, the rest toward x=0
    speed: float
    length: float
    x1: float  # x extent; each move steps the leading edge, then the other
    x2: float
    y1: float  # y extent, clamped into [0,1] and fixed at spawn
    y2: float


def generate_traffic(config: TrafficGenConfig, num_frames: int, name: Optional[str] = None) -> FootageClip:
    """Generate a clip of bidirectional lane traffic.

    Vehicles enter at the frame edge, move with a per-vehicle constant speed
    plus bounded per-step jitter, and despawn once fully out of frame or,
    while leaving, once less than ``_MIN_VISIBLE`` of their length shows.
    Track ids are never reused.  Output is deterministic for a given config.
    ``num_frames`` is at most ``MAX_CLIP_FRAMES``.

    The draw order is fixed, and the tests' digests pin it: per frame, one
    jitter per active vehicle in track-id order, then the number of spawn
    attempts and, per attempt, the lane, the class and the speed.  ``active``
    stays in track-id order (survivors keep theirs, a spawn appends the next
    id), so each frame lists its vehicles in that order.
    """
    if not 0 <= num_frames <= MAX_CLIP_FRAMES:
        raise ValueError(f"num_frames must be in [0, {MAX_CLIP_FRAMES}], got {num_frames}")
    rng = np.random.default_rng(config.seed)
    n_lanes = 2 * config.lanes
    band = 1.0 / n_lanes
    active: list[_Vehicle] = []
    next_id = 0
    frames: list[SceneAnnotation] = []

    for t in range(num_frames):
        # move, then despawn slivers at the exit edge (little layout mass,
        # much churn); the array draw gives one scalar draw's doubles per vehicle
        jitters = rng.uniform(-config.speed_jitter, config.speed_jitter, len(active))
        survivors = []
        for veh, jitter in zip(active, jitters.tolist()):
            step = max(veh.speed + jitter, 0.0)
            if veh.lane < config.lanes:
                veh.x2 += step
                veh.x1 = veh.x2 - veh.length
                leaving = veh.x2 > 1.0
            else:
                veh.x1 -= step
                veh.x2 = veh.x1 + veh.length
                leaving = veh.x1 < 0.0
            visible = min(veh.x2, 1.0) - max(veh.x1, 0.0)
            if visible <= 0.0 or (leaving and visible < _MIN_VISIBLE * veh.length):
                continue
            survivors.append(veh)
        active = survivors
        # spawn attempts; an attempt in a blocked lane is dropped
        for _ in range(int(rng.poisson(config.spawn_rate))):
            lane = int(rng.integers(0, n_lanes))
            cls = VehicleClass(int(rng.choice(4, p=config.class_mix)) + 1)
            speed = config.speed_mean * float(rng.uniform(0.7, 1.3))
            length, height = _CLASS_SIZES[cls]
            if lane < config.lanes:
                x1, x2 = -length, 0.0
                blocked = any(v.lane == lane and v.x1 < length + _SPAWN_GAP for v in active)
            else:
                x1, x2 = 1.0, 1.0 + length
                blocked = any(v.lane == lane and v.x2 > 1.0 - length - _SPAWN_GAP for v in active)
            if blocked:
                continue
            y_center = (lane + 0.5) * band
            active.append(_Vehicle(next_id, cls, lane, speed, length, x1, x2,
                                   y1=max(y_center - height / 2.0, 0.0),
                                   y2=min(y_center + height / 2.0, 1.0)))
            next_id += 1
        # an active vehicle is in frame or at its entry edge, so x1 <= 1 and
        # x2 >= 0 and each needs clamping on one side only
        frames.append(SceneAnnotation(t, tuple(
            VehicleRecord(v.track_id, v.vehicle_class,
                          BoundingBox(max(v.x1, 0.0), v.y1, min(v.x2, 1.0), v.y2))
            for v in active)))

    return FootageClip(
        name=name or f"traffic-{config.seed}",
        frame_width=FRAME_WIDTH,
        frame_height=FRAME_HEIGHT,
        frames=tuple(frames),
    )
