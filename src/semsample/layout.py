"""Scene/layout domain types, the semantic packet codec, and semantic metrics.

A scene is a list of vehicles, each a (class, bounding box) pair.  Scenes are
shipped over the air as bit-packed packets (22 bits per vehicle), turned into
class-valued raster grids at the receiver, and compared with the two mismatch
metrics used throughout the simulator: the box-level semantic change degree
and the pixel-level prediction deviation.

Both metrics are evaluated in exact integer arithmetic: box coordinates are
scaled to a common power-of-two denominator, pixel classes are counted in one
confusion matrix, and the terms are summed as one unreduced fraction that is
rounded to float by a single correctly rounded division.  Results are
therefore the exact rational values rounded once, reproducible bit-for-bit
and checkable against brute-force oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable

import numpy as np

__all__ = [
    "VehicleClass",
    "BoundingBox",
    "VehicleRecord",
    "SceneAnnotation",
    "SemanticMessage",
    "VisualLayout",
    "CLASS_BITS",
    "COORD_BITS",
    "COORD_LEVELS",
    "RECORD_BITS",
    "MAX_VEHICLES",
    "MessageFormatError",
    "encode_message",
    "decode_message",
    "rasterize",
    "semantic_change",
    "prediction_deviation",
    "penalized_deviation",
]

CLASS_BITS = 2
COORD_BITS = 5
COORD_LEVELS = 1 << COORD_BITS  # 32 quantization levels, resolution 1/32
RECORD_BITS = CLASS_BITS + 4 * COORD_BITS  # 22 bits per vehicle
MAX_VEHICLES = 64  # payload framing cap, far above observed scene density


class VehicleClass(IntEnum):
    """Vehicle category; the integer value doubles as the raster pixel value."""

    CAR = 1
    BUS = 2
    VAN = 3
    OTHERS = 4


class MessageFormatError(ValueError):
    """Raised when a packet payload cannot be decoded."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in normalized coordinates, corners (b1,b2)-(b3,b4)."""

    b1: float
    b2: float
    b3: float
    b4: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.b1 <= self.b3 <= 1.0):
            raise ValueError(f"invalid x extent: b1={self.b1}, b3={self.b3}")
        if not (0.0 <= self.b2 <= self.b4 <= 1.0):
            raise ValueError(f"invalid y extent: b2={self.b2}, b4={self.b4}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.b1, self.b2, self.b3, self.b4)


@dataclass(frozen=True)
class VehicleRecord:
    """One vehicle in a scene.  track_id identifies the vehicle across frames."""

    track_id: int
    vehicle_class: VehicleClass
    box: BoundingBox

    def __post_init__(self) -> None:
        object.__setattr__(self, "vehicle_class", VehicleClass(self.vehicle_class))


@dataclass(frozen=True)
class SceneAnnotation:
    """All vehicles sensed in one frame (one sensing time interval)."""

    frame_index: int
    vehicles: tuple[VehicleRecord, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {self.frame_index}")
        ids = [v.track_id for v in self.vehicles]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate track_id within a scene")

    @property
    def vehicle_count(self) -> int:
        return len(self.vehicles)


@dataclass(frozen=True)
class SemanticMessage:
    """Bit-packed layout packet: 22 bits per vehicle, zero-padded to bytes."""

    payload: bytes
    vehicle_count: int
    size_bits: int

    def __post_init__(self) -> None:
        if self.size_bits != RECORD_BITS * self.vehicle_count:
            raise ValueError("size_bits must equal 22 * vehicle_count")
        if len(self.payload) != _payload_bytes(self.vehicle_count):
            raise ValueError("payload length inconsistent with vehicle_count")


class VisualLayout:
    """Class-valued raster grid; 0 is background, 1..4 are vehicle classes.

    The grid array is made read-only so layouts can be shared freely.
    """

    __slots__ = ("grid",)

    def __init__(self, grid: np.ndarray):
        grid = np.ascontiguousarray(grid, dtype=np.uint8)
        if grid.ndim != 2:
            raise ValueError("layout grid must be 2-D (height x width)")
        if grid.size and grid.max() > len(VehicleClass):
            raise ValueError("layout cells must be in 0..4")
        grid.setflags(write=False)
        self.grid = grid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VisualLayout):
            return NotImplemented
        return self.grid.shape == other.grid.shape and bool(
            np.array_equal(self.grid, other.grid)
        )

    def __repr__(self) -> str:
        height, width = self.grid.shape
        return f"VisualLayout({width}x{height}, {int((self.grid > 0).sum())} px)"


def _payload_bytes(vehicle_count: int) -> int:
    return (RECORD_BITS * vehicle_count + 7) // 8


def _quantize(coord: float) -> int:
    # floor to the 1/32 grid, clamped so coord == 1.0 maps to the top cell
    return min(int(math.floor(coord * COORD_LEVELS)), COORD_LEVELS - 1)


def _dequantize(level: int) -> float:
    # cell-center convention halves the worst-case quantization error
    return (level + 0.5) / COORD_LEVELS


def encode_message(scene: SceneAnnotation) -> SemanticMessage:
    """Pack a scene into a semantic packet (22 bits per vehicle, MSB first)."""
    count = scene.vehicle_count
    if count > MAX_VEHICLES:
        raise ValueError(f"scene has {count} vehicles, cap is {MAX_VEHICLES}")
    if count == 0:
        return SemanticMessage(payload=b"", vehicle_count=0, size_bits=0)
    bits = 0
    for rec in scene.vehicles:
        word = (rec.vehicle_class - 1) & 0b11
        for coord in rec.box.as_tuple():
            word = (word << COORD_BITS) | _quantize(coord)
        bits = (bits << RECORD_BITS) | word
    total_bits = RECORD_BITS * count
    pad = (-total_bits) % 8
    payload = (bits << pad).to_bytes(_payload_bytes(count), "big")
    return SemanticMessage(payload=payload, vehicle_count=count, size_bits=total_bits)


def decode_message(msg: SemanticMessage) -> SceneAnnotation:
    """Unpack a semantic packet into a scene.

    Coordinates come back on cell centers of the 1/32 grid.  Decoded records
    carry synthetic track_ids in payload order; frame_index is set to 0 (the
    wire format carries no timestamp, timing belongs to the caller).
    """
    if msg.size_bits % RECORD_BITS != 0:
        raise MessageFormatError(f"size_bits {msg.size_bits} not divisible by 22")
    count = msg.size_bits // RECORD_BITS
    if len(msg.payload) != _payload_bytes(count):
        raise MessageFormatError("payload length does not match size_bits")
    if count == 0:
        return SceneAnnotation(frame_index=0, vehicles=())
    bits = int.from_bytes(msg.payload, "big")
    pad = 8 * len(msg.payload) - msg.size_bits
    if bits & ((1 << pad) - 1):
        raise MessageFormatError("nonzero padding bits")
    bits >>= pad
    vehicles = []
    for i in range(count):
        shift = RECORD_BITS * (count - 1 - i)
        word = (bits >> shift) & ((1 << RECORD_BITS) - 1)
        levels = []
        for j in range(4):
            levels.append((word >> (COORD_BITS * (3 - j))) & (COORD_LEVELS - 1))
        cls = VehicleClass(((word >> (4 * COORD_BITS)) & 0b11) + 1)
        box = BoundingBox(*(_dequantize(q) for q in levels))
        vehicles.append(VehicleRecord(track_id=i, vehicle_class=cls, box=box))
    return SceneAnnotation(frame_index=0, vehicles=tuple(vehicles))


def _pixel_rect(box: BoundingBox, width: int, height: int) -> tuple[int, int, int, int]:
    # [floor(b1*W), ceil(b3*W)) x [floor(b2*H), ceil(b4*H)), clamped to the
    # grid and forced non-empty so degenerate boxes keep at least one pixel
    x1 = min(int(math.floor(box.b1 * width)), width - 1)
    y1 = min(int(math.floor(box.b2 * height)), height - 1)
    x2 = min(max(int(math.ceil(box.b3 * width)), x1 + 1), width)
    y2 = min(max(int(math.ceil(box.b4 * height)), y1 + 1), height)
    return x1, y1, x2, y2


def rasterize(scene: SceneAnnotation, width: int, height: int) -> VisualLayout:
    """Paint a scene into a class-valued grid.

    Vehicles are painted in list order, so later vehicles overwrite earlier
    ones where boxes overlap.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    grid = np.zeros((height, width), dtype=np.uint8)
    for rec in scene.vehicles:
        x1, y1, x2, y2 = _pixel_rect(rec.box, width, height)
        grid[y1:y2, x1:x2] = int(rec.vehicle_class)
    return VisualLayout(grid)


def _box_mismatch(a: BoundingBox, b: BoundingBox) -> tuple[int, int]:
    """(A + A' - 2I, 2 (A + A' - I)) for a matched pair of boxes, in integers.

    Every float is a dyadic rational, so scaling the eight coordinates to
    their largest power-of-two denominator makes both areas and the
    intersection exact integers.  The ratio ranges over [0, 1/2]: 0 only for
    an exact match (or two empty boxes), 1/2 only for disjoint boxes.
    """
    ratios = [c.as_integer_ratio() for c in (*a.as_tuple(), *b.as_tuple())]
    scale = max(d for _, d in ratios)
    a1, a2, a3, a4, b1, b2, b3, b4 = [n * (scale // d) for n, d in ratios]
    area_a = (a3 - a1) * (a4 - a2)
    area_b = (b3 - b1) * (b4 - b2)
    w = min(a3, b3) - max(a1, b1)
    h = min(a4, b4) - max(a2, b2)
    inter = w * h if w > 0 and h > 0 else 0
    return area_a + area_b - 2 * inter, 2 * (area_a + area_b - inter)


def _ratio_sum(terms: Iterable[tuple[int, int]]) -> float:
    """Sum of p / q over integer pairs, rounded once to the nearest float.

    The sum is kept as one unreduced fraction; int true division rounds it
    correctly.  Terms with p == 0 add nothing and may have q == 0 (two empty
    boxes: no spatial evidence).
    """
    num, den = 0, 1
    for p, q in terms:
        if p:
            num = num * q + p * den
            den *= q
    return num / den


def semantic_change(current: SceneAnnotation, last_sampled: SceneAnnotation) -> float:
    """Accumulated box mismatch between a scene and the last sampled scene.

    Vehicles are matched by track_id; a vehicle present in only one of the
    two scenes counts as fully disjoint and contributes 1/2.
    """
    cur = {v.track_id: v.box for v in current.vehicles}
    old = {v.track_id: v.box for v in last_sampled.vehicles}
    matched = cur.keys() & old.keys()
    terms = [_box_mismatch(cur[tid], old[tid]) for tid in matched]
    terms.append((len(cur) + len(old) - 2 * len(matched), 2))
    return _ratio_sum(terms)


def prediction_deviation(real: VisualLayout, predicted: VisualLayout) -> float:
    """Per-class pixel mismatch between the true and the predicted layout.

    For each of the four classes the occupied pixel counts of both layouts
    (n, n') and their intersection i give the term (n + n' - 2i) / (2 (n + n')):
    the box ratio on pixels, 1/2 when the masks are disjoint.  Classes absent
    from both layouts contribute 0.  All counts come from one 5x5 confusion
    matrix of (real, predicted) cell codes.
    """
    if real.grid.shape != predicted.grid.shape:
        raise ValueError(
            f"layout dimensions differ: {real.grid.shape} vs {predicted.grid.shape}"
        )
    codes = real.grid.ravel() * 5 + predicted.grid.ravel()
    # cells that are background in both layouts (code 0) carry no term
    confusion = np.bincount(codes[codes != 0], minlength=25).reshape(5, 5)
    # rows are real classes, columns predicted ones; drop the background
    n = (confusion.sum(axis=1) + confusion.sum(axis=0))[1:]
    p = n - 2 * confusion.diagonal()[1:]
    return _ratio_sum(zip(p.tolist(), (2 * n).tolist()))


def penalized_deviation(deviation: float, threshold: float, penalty: float) -> float:
    """Deviation with the over-threshold penalty applied, capped at 1."""
    if deviation < 0:
        raise ValueError(f"deviation must be >= 0, got {deviation}")
    if deviation <= threshold:
        return deviation
    return min(deviation + penalty, 1.0)
