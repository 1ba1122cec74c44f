"""The episode environment: clips, channel, destination and policies glued
into one decision loop.

An episode starts with two bootstrap transmissions (the destination needs two
consecutive layouts to prime its predictor), then runs T decision steps.  At
each step the policy sees the current observation and picks transmit/skip;
transmitting costs closed-form expected energy, skipping displays a predicted
layout and is scored by its deviation from the true one.  A destination
resample request forces the next step's action to transmit.

The observation ends in d_hat_t, the deviation that skipping would score:
the destination is deterministic given what was sent, so the source mirrors
it, asks it for the layout it would display (``DestinationState.upcoming``)
and compares that with the rasterized real scene.  The step reuses both, so
a skip costs no second rasterization or deviation.

``SamplingEnv.play`` is the one episode loop: training and evaluation both
iterate it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Protocol, Sequence

import numpy as np

from .agent import (
    DEVIATION_SCALE,
    RewardConfig,
    SacNetworks,
    StateScaling,
    Transition,
    reward,
    select_action,
)
from .channel import FadingParams, LinkBudget, expected_energy
from .ingest import FootageClip
from .layout import (
    RECORD_BITS,
    SceneAnnotation,
    encode_message,
    penalized_deviation,
    prediction_deviation,
    rasterize,
    semantic_change,
)
from .predictor import DestinationState, Feedback, PredictorConfig

__all__ = [
    "EpisodeConfig",
    "StepTrace",
    "EpisodeMetrics",
    "METRIC_COLUMNS",
    "SamplingPolicy",
    "PeriodicPolicy",
    "NeverSamplePolicy",
    "DeviationPolicy",
    "AgentPolicy",
    "SamplingEnv",
    "run_episode",
    "compare_policies",
]


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything one episode needs besides the clip itself."""

    steps: int = 150
    link: LinkBudget = field(default_factory=LinkBudget)
    fading_m: float = 6.0
    fading_m_s: float = 6.0
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    scaling: StateScaling = field(default_factory=StateScaling)
    energy_scale: float = field(kw_only=True)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError("episodes need at least 2 steps")

    def fading(self) -> FadingParams:
        return self.link.fading(self.fading_m, self.fading_m_s)


@dataclass(frozen=True, slots=True)
class StepTrace:
    """Everything that happened in one decision step.

    ``deviation`` is the skipped interval's deviation that the reward
    scores, None on a transmission; ``display_deviation`` is the deviation
    of the layout the destination displays from the real one on every
    interval, a transmission's decoded packet included.
    """

    t: int
    action: int
    forced: bool
    packet_bits: int
    energy_j: float
    deviation: Optional[float]
    display_deviation: float
    penalized: Optional[float]
    case3_deviation: Optional[float]
    reward: float
    chi: float
    queue_len: int


@dataclass
class EpisodeMetrics:
    """Per-episode aggregates plus the optional per-step trace.

    ``mean_deviation`` averages the deviation of the displayed prediction
    over the skipped intervals, as the reward scores it.
    ``mean_display_deviation`` averages the deviation of the displayed
    layout from the real one over every interval, a transmitted one showing
    its decoded packet: the reconstruction accuracy.
    """

    cumulative_reward: float = 0.0
    total_energy_j: float = 0.0
    bootstrap_energy_j: float = 0.0
    mean_deviation: float = 0.0
    mean_display_deviation: float = 0.0
    sample_count: int = 0
    steps: int = 0
    truncated: bool = False
    trace: Optional[list[StepTrace]] = None


# the EpisodeMetrics fields that curves.csv and comparison.csv report
METRIC_COLUMNS = ("cumulative_reward", "total_energy_j", "mean_deviation", "mean_display_deviation",
                  "sample_count")


class SamplingPolicy(Protocol):
    """Decides, per decision step, whether to transmit."""

    def decide(self, features: np.ndarray, t: int) -> int:
        """``t`` is the environment's sensing-interval index, 1 at the first step."""


class PeriodicPolicy:
    """Samples whenever t is a multiple of the period (t counts from the
    bootstrap interval at 0, so the first in-episode sample lands at
    t = period)."""

    def __init__(self, period: int):
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period

    def decide(self, features: np.ndarray, t: int) -> int:
        return int(t % self.period == 0)


class NeverSamplePolicy:
    def decide(self, features: np.ndarray, t: int) -> int:
        return 0


class DeviationPolicy:
    """Transmits when d_hat_t, the deviation the destination will show if
    the source stays silent, is above ``threshold``: the causal threshold
    rule of remote estimation.  It reads d_hat_t back from the state's last
    feature, exactly, since ``DEVIATION_SCALE`` is a power of two."""

    def __init__(self, threshold: float):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"deviation threshold must be in [0, 1], got {threshold!r}")
        self.threshold = threshold

    def decide(self, features: np.ndarray, t: int) -> int:
        return int(features[-1] / DEVIATION_SCALE > self.threshold)


class AgentPolicy:
    """Wraps trained networks; greedy for evaluation, stochastic for rollout."""

    def __init__(
        self,
        nets: SacNetworks,
        mode: str = "greedy",
        rng: Optional[np.random.Generator] = None,
    ):
        self.nets = nets
        self.mode = mode
        self.rng = rng

    def decide(self, features: np.ndarray, t: int) -> int:
        return select_action(features, self.nets, self.mode, self.rng)


class SamplingEnv:
    """MDP wrapper over clips, channel and destination.

    ``reset(new_scene=True)`` draws a fresh clip and start offset from the
    seeded stream; ``reset(new_scene=False)`` replays the previous choice, so
    blocks of episodes can share one initial scene.  ``play`` is the one loop
    that drives ``reset`` and ``step`` through an episode.
    """

    def __init__(
        self,
        config: EpisodeConfig,
        clips: Sequence[FootageClip],
        record_trace: bool = False,
    ):
        if not clips:
            raise ValueError("need at least one clip")
        self.config = config
        self.clips = list(clips)
        self.fading = config.fading()
        self.scaling = config.scaling
        self.state_dim = config.scaling.state_dim
        self.record_trace = record_trace
        scene_ss = np.random.SeedSequence(config.seed).spawn(1)[0]
        self._scene_rng = np.random.default_rng(scene_ss)
        self._clip_index: Optional[int] = None
        self._offset: Optional[int] = None
        self.metrics: Optional[EpisodeMetrics] = None

    # -- episode lifecycle ---------------------------------------------------

    def reset(self, new_scene: bool = True) -> np.ndarray:
        if new_scene or self._clip_index is None:
            self._clip_index = int(self._scene_rng.integers(0, len(self.clips)))
            clip = self.clips[self._clip_index]
            # prefer offsets that leave room for a full episode (bootstrap
            # pair + T steps); short clips start at 0 and get truncated
            max_offset = len(clip) - (self.config.steps + 2)
            if len(clip) < 3:
                raise ValueError(f"clip {clip.name!r} too short for an episode")
            if max_offset < 0:
                self._offset = 0
            else:
                self._offset = int(self._scene_rng.integers(0, max_offset + 1))
        clip = self.clips[self._clip_index]
        offset = self._offset
        horizon = min(self.config.steps, len(clip) - offset - 2)
        self._truncated = horizon < self.config.steps
        self._horizon = horizon
        self._clip = clip
        self._t = 1
        msg_prev = encode_message(clip.frames[offset])
        msg_cur = encode_message(clip.frames[offset + 1])
        link = self.config.link
        bootstrap_energy_j = (
            expected_energy(msg_prev.size_bits, link, self.fading)
            + expected_energy(msg_cur.size_bits, link, self.fading)
        )
        self.destination = DestinationState.bootstrap(msg_prev, msg_cur, self.config.predictor)
        self._window = np.zeros(self.scaling.window + 1, dtype=np.float64)
        self._pending_force = False
        self.metrics = EpisodeMetrics(
            total_energy_j=bootstrap_energy_j,
            bootstrap_energy_j=bootstrap_energy_j,
            truncated=self._truncated,
            trace=[] if self.record_trace else None,
        )
        self._dev_sum = 0.0
        self._dev_count = 0
        self._display_dev_sum = 0.0
        return self._observe()

    def _frame(self, t: int) -> SceneAnnotation:
        return self._clip.frames[self._offset + 1 + t]

    def _observe(self) -> np.ndarray:
        scene = self._frame(self._t)
        # chi_t against the scene of t_hat, the destination's last reception
        chi = semantic_change(scene, self._frame(self.destination.t_hat))
        w = self._window  # shifted in place: features() copies it
        w[1:] = w[:-1]
        w[0] = chi
        # d_hat_t: the real layout against the one the destination pops at
        # t; step reuses both for this interval
        grid = self.config.predictor
        self._real = rasterize(scene, grid.grid_width, grid.grid_height)
        self._dev_hat = prediction_deviation(self._real, self.destination.upcoming())
        return self.scaling.features(RECORD_BITS * scene.vehicle_count, w, self._dev_hat)

    def step(self, action: int) -> tuple[np.ndarray, float, bool, dict]:
        if self.metrics is None:
            raise RuntimeError("call reset() before step()")
        t = self._t
        if t > self._horizon:
            raise RuntimeError("episode already finished")
        forced = self._pending_force
        a = 1 if forced else int(action)
        scene = self._frame(t)
        packet_bits = RECORD_BITS * scene.vehicle_count
        cfg = self.config
        chi = float(self._window[0])  # chi_t, observed for this interval
        if a == 1:
            msg = encode_message(scene)
            energy = expected_energy(packet_bits, cfg.link, self.fading)
            displayed, feedback = self.destination.step(t, msg)
            shown = prediction_deviation(self._real, displayed)
            r = reward(1, energy * cfg.energy_scale, 0.0, cfg.reward)
            deviation = None
            penalized = None
            case3 = self.destination.last_comparison
            self.metrics.sample_count += 1
            self.metrics.total_energy_j += energy
        else:
            # the destination displays the layout d_hat_t was measured on
            _, feedback = self.destination.step(t, None)
            deviation = shown = self._dev_hat
            penalized = penalized_deviation(
                deviation, cfg.reward.deviation_threshold, cfg.reward.penalty
            )
            r = reward(0, 0.0, penalized, cfg.reward)
            energy = 0.0
            case3 = None
            self._dev_sum += deviation
            self._dev_count += 1
        self._pending_force = feedback is Feedback.REQUEST_RESAMPLE
        self._display_dev_sum += shown
        self.metrics.cumulative_reward += r
        self.metrics.steps += 1
        if self.metrics.trace is not None:
            self.metrics.trace.append(
                StepTrace(
                    t=t,
                    action=a,
                    forced=forced,
                    packet_bits=packet_bits,
                    energy_j=energy,
                    deviation=deviation,
                    display_deviation=shown,
                    penalized=penalized,
                    case3_deviation=case3,
                    reward=r,
                    chi=chi,
                    queue_len=self.destination.queue_len,
                )
            )
        self._t += 1
        done = self._t > self._horizon
        if done:
            self.metrics.mean_deviation = (
                self._dev_sum / self._dev_count if self._dev_count else 0.0
            )
            self.metrics.mean_display_deviation = self._display_dev_sum / self.metrics.steps
            next_features = np.zeros(self.state_dim, dtype=np.float64)
        else:
            next_features = self._observe()
        info = {"action": a, "forced": forced, "sampled": a == 1}
        return next_features, r, done, info

    def play(self, decide: Callable[[np.ndarray, int], int], *,
             new_scene: bool = True) -> Iterator[Transition]:
        """Play one episode: reset, then step each interval t with
        ``decide(features, t)``.  Yields one ``Transition`` per step with the
        executed action, which a forced resample makes 1; the last is terminal,
        with a zero next state.  Once exhausted, ``metrics`` holds the record."""
        state = self.reset(new_scene=new_scene)
        done = False
        while not done:
            next_state, r, done, info = self.step(decide(state, self._t))
            yield Transition(state, info["action"], r, next_state, done)
            state = next_state


def run_episode(
    config: EpisodeConfig,
    clip: FootageClip,
    policy: SamplingPolicy,
    record_trace: bool = True,
) -> tuple[EpisodeMetrics, list[Transition]]:
    """Play one episode of ``clip`` under a policy in a fresh environment;
    returns its metrics and its transitions."""
    env = SamplingEnv(config, [clip], record_trace=record_trace)
    transitions = list(env.play(policy.decide))
    return env.metrics, transitions


def compare_policies(
    config: EpisodeConfig,
    clips: Sequence[FootageClip],
    policies: dict[str, SamplingPolicy],
    seed: Optional[int] = None,
    record_trace: bool = False,
    on_result=None,
) -> list[dict]:
    """Evaluate every policy on every clip under shared per-clip seeds.

    Returns one row per (clip, policy) with its episode's ``METRIC_COLUMNS``.
    When ``on_result`` is given it is called with (clip_name, policy_name,
    metrics) after each episode, e.g. to archive traces.
    """
    if not clips:
        raise ValueError("need at least one clip")
    if not policies:
        raise ValueError("need at least one policy")
    base_seed = config.seed if seed is None else seed
    rows = []
    for clip_idx, clip in enumerate(clips):
        clip_seed = int(
            np.random.SeedSequence([base_seed, clip_idx]).generate_state(1)[0]
        )
        clip_config = replace(config, seed=clip_seed)
        for name, policy in policies.items():
            metrics, _ = run_episode(clip_config, clip, policy, record_trace=record_trace)
            if on_result is not None:
                on_result(clip.name, name, metrics)
            rows.append({"clip": clip.name, "policy": name,
                         **{column: getattr(metrics, column) for column in METRIC_COLUMNS}})
    return rows
