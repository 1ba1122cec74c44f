"""Destination-side predictive frame interpolation.

While the source stays silent, the destination keeps displaying something:
a queue of predicted layouts is popped once per sensing interval, refilled
either from the two most recently received scenes (after a reception) or
from the two most recently displayed layouts (when the queue runs dry
mid-silence).

The predictor extrapolates constant velocity.  It works on annotations when
it has them (per-track box velocity) and falls back to per-class centroid
shift when only raster layouts are available.  A round computes its
velocities (or class shifts) at once, but paints each layout only when it is
first popped or indexed: the next reception usually comes within one or two
intervals and replaces the rest of the round unseen.  A scene round paints
each extrapolated box straight into the grid with the pixel rectangles of
:func:`~semsample.layout.rasterize`, making no box, record or scene.

A layout round reads each input layout once, in a class census: a cell of
class c becomes a 64-bit word with a 1 in its 16-bit field c - 1, so summing
the words along each row and down each column counts every class in that row
or column at once.  From these counts come each class's pixel count and its
exact integer sums of row and column numbers; their quotients are the
centroid that ``ndarray.mean`` gives over the pixels' coordinates, bit for
bit, since numpy's float64 sum of those integers is exact and both round the
quotient once.  A predicted layout is the newer layout's class masks copied
in ascending class order, each shifted by whole rows and columns as a pair
of slices, with no per-pixel index arrays.
"""
from __future__ import annotations

import enum
import operator
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .layout import (
    SceneAnnotation,
    SemanticMessage,
    VehicleClass,
    VisualLayout,
    _paint,
    decode_message,
    prediction_deviation,
    rasterize,
)
from .ingest import MAX_CLIP_FRAMES

__all__ = [
    "PredictorConfig",
    "PredictedRound",
    "ConstantVelocityPredictor",
    "Feedback",
    "DestinationState",
]

# Layouts are painted from 5-bit box coordinates, 32 levels an axis, so a
# 4,096-cell side already gives each level 128 cells; a larger grid adds
# only memory (a 4,096 x 4,096 layout is 16 MiB, and a round keeps up to
# ``horizon`` of them).  The class census needs sides below 2**16.
MAX_GRID_SIDE = 4096


@dataclass(frozen=True)
class PredictorConfig:
    """Prediction horizon, grid dimensions and the resample threshold.

    ``max_track_speed`` (normalized units per interval) rejects implausible
    per-track velocities: decoded scenes carry positional track ids, so an
    entry or exit can pair unrelated vehicles, and the implied jump would
    otherwise whip predictions across the frame.  Rejected tracks are held
    static like freshly appeared ones.  A cap of 1 never binds: box centres
    lie in [0, 1], so a centre moves at most 1 / gap per interval.
    """

    horizon: int = 5
    grid_width: int = 120
    grid_height: int = 80
    deviation_threshold: float = 0.07
    max_track_speed: float = 0.04

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        # a round holds a slot per interval, and an episode runs at most
        # MAX_CLIP_FRAMES intervals, so a longer round is never used up
        if self.horizon > MAX_CLIP_FRAMES:
            raise ValueError(f"horizon must be <= {MAX_CLIP_FRAMES}, the longest clip, got {self.horizon!r}")
        if self.grid_width < 1 or self.grid_height < 1:
            raise ValueError("grid dimensions must be positive")
        if self.grid_width > MAX_GRID_SIDE or self.grid_height > MAX_GRID_SIDE:
            raise ValueError(f"grid dimensions must be <= {MAX_GRID_SIDE}, "
                             f"got {self.grid_width!r} x {self.grid_height!r}")
        if self.max_track_speed <= 0:
            raise ValueError("max_track_speed must be positive")


class PredictedRound(Sequence):
    """The unpopped layouts of one prediction round, built on first access.

    ``build(k)`` makes the layout for the k-th interval after the round's
    newer input, k = 1 .. horizon; each is built once and kept until popped.
    Index 0 is the next layout :meth:`popleft` returns.
    """

    def __init__(self, horizon: int, build: Optional[Callable[[int], VisualLayout]]):
        self._build = build
        self._layouts: list[Optional[VisualLayout]] = [None] * horizon
        self._popped = 0

    def __len__(self) -> int:
        return len(self._layouts) - self._popped

    def __getitem__(self, index: int) -> VisualLayout:
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("prediction round index out of range")
        k = self._popped + i
        layout = self._layouts[k]
        if layout is None:
            layout = self._layouts[k] = self._build(k + 1)
        return layout

    def popleft(self) -> VisualLayout:
        layout = self[0]
        self._layouts[self._popped] = None
        self._popped += 1
        return layout


class Feedback(enum.Enum):
    NONE = "none"
    REQUEST_RESAMPLE = "request_resample"


class ConstantVelocityPredictor:
    """Linear extrapolation of per-track boxes or per-class pixel masks.

    Both methods predict the next ``horizon`` layouts from two past
    observations ``gap`` intervals apart: :meth:`predict_scenes` from two
    annotated scenes, :meth:`predict_layouts` from two raster layouts.  They
    return a :class:`PredictedRound` that paints each layout when it is first
    read.
    """

    def __init__(self, config: PredictorConfig):
        self.config = config

    def predict_scenes(self, older, newer, gap, horizon):
        if gap < 1:
            raise ValueError("gap between the two inputs must be >= 1")
        old = {v.track_id: v.box for v in older.vehicles}
        cap = self.config.max_track_speed
        tracks = []  # (class code, b1..b4 of the newer box, vx, vy) in paint order
        for rec in newer.vehicles:
            b = rec.box
            a = old.get(rec.track_id)
            vx = vy = 0.0  # no motion evidence yet
            if a is not None:
                # track the box center and hold the newer box's size: corner
                # coordinates quantize independently on the wire, and
                # extrapolating them separately turns that noise into boxes
                # that steadily inflate or collapse
                vx = ((b.b1 + b.b3) - (a.b1 + a.b3)) / (2.0 * gap)
                vy = ((b.b2 + b.b4) - (a.b2 + a.b4)) / (2.0 * gap)
                if max(abs(vx), abs(vy)) > cap:
                    vx = vy = 0.0  # implausible pairing
            tracks.append((int(rec.vehicle_class), b.b1, b.b2, b.b3, b.b4, vx, vy))
        width, height = self.config.grid_width, self.config.grid_height

        def build(k: int) -> VisualLayout:
            boxes = []
            for code, b1, b2, b3, b4, vx, vy in tracks:
                dx, dy = k * vx, k * vy
                b1, b2, b3, b4 = b1 + dx, b2 + dy, b3 + dx, b4 + dy
                if b3 <= 0.0 or b1 >= 1.0 or b4 <= 0.0 or b2 >= 1.0:
                    continue  # fully out of frame: drop the track
                # clamped into the frame; a kept box has b1 < 1, b2 < 1,
                # b3 > 0 and b4 > 0 already
                boxes.append((code, max(b1, 0.0), max(b2, 0.0), min(b3, 1.0), min(b4, 1.0)))
            return _paint(boxes, width, height)

        return PredictedRound(horizon, build)

    def predict_layouts(self, older, newer, gap, horizon):
        """Shift each class's pixel mask of ``newer`` by its centroid's
        motion since ``older``, rounded to whole cells; a class absent
        from ``older`` holds still, and pixels shifted off the grid drop.
        Classes paint in ascending code, so higher codes win overlaps."""
        if gap < 1:
            raise ValueError("gap between the two inputs must be >= 1")
        if older.grid.shape != newer.grid.shape:
            raise ValueError("layout dimensions differ")
        height, width = newer.grid.shape
        if max(height, width) >= 1 << 16:
            raise ValueError(f"layout sides must be < 65536, got {width} x {height}")
        new_counts, new_rows, new_cols = _class_census(newer.grid)
        old_counts, old_rows, old_cols = _class_census(older.grid)
        shifts = []
        for code in range(1, len(VehicleClass) + 1):
            n, n_old = new_counts[code - 1], old_counts[code - 1]
            if n == 0:
                continue
            dr = dc = 0.0  # class just appeared: hold static
            if n_old:
                dr = (new_rows[code - 1] / n - old_rows[code - 1] / n_old) / gap
                dc = (new_cols[code - 1] / n - old_cols[code - 1] / n_old) / gap
            shifts.append((code, newer.grid == code, dr, dc))

        def build(k: int) -> VisualLayout:
            grid = np.zeros((height, width), dtype=np.uint8)
            for code, mask, dr, dc in shifts:
                # round() rounds half to even, as np.rint does
                r, c = round(k * dr), round(k * dc)
                if -height < r < height and -width < c < width:
                    np.copyto(grid[max(r, 0):height + min(r, 0), max(c, 0):width + min(c, 0)], code,
                              where=mask[max(-r, 0):height - max(r, 0), max(-c, 0):width - max(c, 0)])
            return VisualLayout._painted(grid)

        return PredictedRound(horizon, build)


# the census's word for each cell code: background adds nothing, class c
# adds 1 to the 16-bit field c - 1
_CENSUS_WORDS = np.array([0, 1, 1 << 16, 1 << 32, 1 << 48], dtype="<u8")


def _class_census(grid: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Each class's pixel count, sum of row indices and sum of column
    indices, as lists of exact integers for classes 1..4.

    A row's field counts at most ``width`` cells and a column's at most
    ``height``, so sides below 2**16 never carry out of a field."""
    words = _CENSUS_WORDS.take(grid)
    per_row = np.add.reduce(words, axis=1).astype("<u8", copy=False).view("<u2").reshape(-1, 4)
    per_col = np.add.reduce(words, axis=0).astype("<u8", copy=False).view("<u2").reshape(-1, 4)
    rows, cols = np.arange(grid.shape[0]), np.arange(grid.shape[1])
    return (np.add.reduce(per_row, axis=0, dtype=np.intp).tolist(),
            (rows @ per_row).tolist(), (cols @ per_col).tolist())


class DestinationState:
    """Destination bookkeeping: what to display each interval, and when to
    ask the source to sample again.

    Single-owner mutable state; advance it from one logical thread only.
    """

    def __init__(
        self,
        config: PredictorConfig,
        predictor: Optional[ConstantVelocityPredictor] = None,
    ):
        self.config = config
        self.predictor = predictor or ConstantVelocityPredictor(config)
        self.pending = PredictedRound(0, None)  # one round, its popped layouts gone
        self._last_displayed: deque[VisualLayout] = deque(maxlen=2)
        self._last_received: Optional[tuple[SceneAnnotation, int]] = None
        self._last_t: Optional[int] = None  # last interval advanced
        self.last_comparison: Optional[float] = None

    @classmethod
    def bootstrap(
        cls,
        first_message: SemanticMessage,
        second_message: SemanticMessage,
        config: PredictorConfig,
        predictor: Optional[ConstantVelocityPredictor] = None,
    ) -> "DestinationState":
        """Case 1: two consecutive initial receptions prime the queue; the
        second is interval 0."""
        state = cls(config, predictor)
        older = decode_message(first_message)
        newer = decode_message(second_message)
        for scene in (older, newer):
            state._last_displayed.append(
                rasterize(scene, config.grid_width, config.grid_height)
            )
        state._last_received = (newer, 0)
        state._last_t = 0
        state.pending = state.predictor.predict_scenes(older, newer, 1, config.horizon)
        return state

    @property
    def t_hat(self) -> int:
        """Timestamp of the most recently received sample."""
        if self._last_received is None:
            raise RuntimeError("destination not bootstrapped")
        return self._last_received[1]

    @property
    def queue_len(self) -> int:
        return len(self.pending)

    def upcoming(self) -> VisualLayout:
        """The predicted layout that the next :meth:`step` pops: what the
        destination displays at the next interval if nothing arrives, and
        what a reception there is compared with.

        When the queue is empty this first builds the Case 2b round into
        ``pending``, so ``step`` pops this same object and builds no round.
        """
        if self._last_received is None:
            raise RuntimeError("destination not bootstrapped (Case 1 missing)")
        if not self.pending:
            # Case 2b: chain a new round from the last two displayed layouts
            older, newer = self._last_displayed[0], self._last_displayed[1]
            self.pending = self.predictor.predict_layouts(older, newer, 1, self.config.horizon)
        return self.pending[0]

    def step(
        self, t: int, received: Optional[SemanticMessage] = None
    ) -> tuple[VisualLayout, Feedback]:
        """Advance one sensing interval; returns the displayed layout and a
        flag that, when set, asks the source to sample at t+1.

        Call once per interval, silent or not: ``t`` must be exactly one more
        than the interval of the previous call (interval 1 right after
        :meth:`bootstrap`), otherwise ``ValueError`` is raised.  Each
        call pops one predicted layout, so a skipped interval would compare
        a reception with the prediction made for an earlier interval.

        Exactly one layout is displayed per call for any reception pattern.
        """
        if self._last_received is None:
            raise RuntimeError("destination not bootstrapped (Case 1 missing)")
        if t != self._last_t + 1:
            raise ValueError(
                f"step expects interval t={self._last_t + 1}, got t={t}; "
                "call step once per sensing interval"
            )
        predicted = self.upcoming()
        self.pending.popleft()
        feedback = Feedback.NONE
        self.last_comparison = None
        if received is None:
            displayed = predicted  # Case 2a
        else:
            # Case 3: display the real layout, compare against the prediction
            scene = decode_message(received)
            displayed = rasterize(scene, self.config.grid_width, self.config.grid_height)
            deviation = prediction_deviation(displayed, predicted)
            self.last_comparison = deviation
            prev_scene, prev_time = self._last_received
            gap = t - prev_time
            self.pending = self.predictor.predict_scenes(prev_scene, scene, gap, self.config.horizon)
            self._last_received = (scene, t)
            if deviation > self.config.deviation_threshold:
                feedback = Feedback.REQUEST_RESAMPLE
        self._last_displayed.append(displayed)
        self._last_t = t
        return displayed, feedback
