import copy
import dataclasses
import pickle

import numpy as np
import pytest

from semsample import agent, layout, predictor, simulator
from semsample.config import default_config, resolve_config
from semsample.ingest import FootageClip, TrafficGenConfig, generate_traffic
from semsample.layout import BoundingBox, SceneAnnotation, VehicleClass, VehicleRecord, VisualLayout
from semsample.predictor import DestinationState, PredictorConfig
from semsample.simulator import (
    DeviationPolicy,
    EpisodeConfig,
    PeriodicPolicy,
    SamplingEnv,
    run_episode,
)

from oracles import (
    prediction_deviation_oracle,
    quantized_scene_oracle,
    rasterize_oracle,
    semantic_change_oracle,
)

# the energy scale that the shipped config resolves to
ENERGY_SCALE = resolve_config(default_config())["energy"]["scale"]


def _recorder(fn, calls):
    def wrapped(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    return wrapped


@pytest.fixture
def dense_episode(monkeypatch):
    """One 60-step episode on dense two-lane traffic over a 24x16 grid, with
    every metric call the simulator and the destination make recorded."""
    chi_calls, dev_calls, case3_calls = [], [], []
    monkeypatch.setattr(simulator, "semantic_change", _recorder(simulator.semantic_change, chi_calls))
    monkeypatch.setattr(simulator, "prediction_deviation",
                        _recorder(simulator.prediction_deviation, dev_calls))
    monkeypatch.setattr(predictor, "prediction_deviation",
                        _recorder(predictor.prediction_deviation, case3_calls))
    clip = generate_traffic(TrafficGenConfig(lanes=2, spawn_rate=0.5, seed=7), 200, "dense")
    config = EpisodeConfig(steps=60, predictor=PredictorConfig(grid_width=24, grid_height=16),
                           energy_scale=ENERGY_SCALE, seed=5)
    metrics, _ = run_episode(config, clip, PeriodicPolicy(4), record_trace=True)
    return metrics, chi_calls, dev_calls, case3_calls


def _split_deviation_calls(trace, dev_calls):
    """The simulator's deviation calls per step: d_hat_t, observed before
    the step, then, on a transmission, the decoded packet's against the
    real layout."""
    calls = iter(dev_calls)
    return [(next(calls), next(calls) if step.action else None) for step in trace]


def test_episode_is_dense_and_mixes_transmits_and_skips(dense_episode):
    metrics, chi_calls, dev_calls, _ = dense_episode
    assert metrics.steps == 60 and not metrics.truncated
    assert 0 < metrics.sample_count < 60
    # one d_hat per step, one reconstruction deviation per transmission
    assert len(dev_calls) == 60 + metrics.sample_count
    vehicles = [len(args[0].vehicles) for args, _ in chi_calls]
    assert sum(vehicles) / len(vehicles) > 5


def test_every_chi_equals_the_exact_oracle(dense_episode):
    metrics, chi_calls, _, _ = dense_episode
    assert len(chi_calls) == metrics.steps
    for step, (args, result) in zip(metrics.trace, chi_calls):
        assert step.chi == result == float(semantic_change_oracle(*args))


def test_every_deviation_equals_the_pixel_oracle(dense_episode):
    metrics, _, dev_calls, case3_calls = dense_episode
    per_step = _split_deviation_calls(metrics.trace, dev_calls)
    # a skip is scored by the d_hat observed for it, on the same layouts
    assert [step.deviation for step in metrics.trace if step.action == 0] == [
        d_hat[1] for step, (d_hat, _) in zip(metrics.trace, per_step) if step.action == 0]
    shown = [d_hat[1] if shown is None else shown[1] for d_hat, shown in per_step]
    assert metrics.mean_display_deviation == sum(shown) / len(shown)
    assert case3_calls  # the destination compared receptions with predictions
    for args, result in dev_calls + case3_calls:
        assert result == float(prediction_deviation_oracle(*args))


def test_total_energy_is_bootstrap_plus_step_energies(dense_episode):
    metrics = dense_episode[0]
    total = metrics.bootstrap_energy_j
    for step in metrics.trace:
        total += step.energy_j
    assert metrics.bootstrap_energy_j > 0
    assert metrics.total_energy_j == total
    assert sum(step.energy_j > 0 for step in metrics.trace) == metrics.sample_count


@pytest.mark.parametrize("frames, truncated", [(40, True), (52, False)])
def test_a_clip_shorter_than_the_horizon_truncates_the_episode(frames, truncated):
    # an episode needs steps + 2 frames: the bootstrap pair, then one per step
    clip = generate_traffic(TrafficGenConfig(spawn_rate=0.3, seed=2), frames, "short")
    config = EpisodeConfig(steps=50, predictor=PredictorConfig(grid_width=24, grid_height=16),
                           energy_scale=ENERGY_SCALE)
    metrics, _ = run_episode(config, clip, PeriodicPolicy(3), record_trace=True)
    assert metrics.truncated is truncated
    assert metrics.steps == len(metrics.trace) == min(50, frames - 2)
    assert [step.t for step in metrics.trace] == list(range(1, metrics.steps + 1))


# a full episode, and one truncated to 38 steps by a 40-frame clip; period 5
# leaves skips that a resample request forces to transmit in both
@pytest.mark.parametrize("frames, steps", [(200, 60), (40, 50)])
def test_play_yields_one_transition_per_interval_in_order(frames, steps):
    clip = generate_traffic(TrafficGenConfig(lanes=2, spawn_rate=0.5, seed=7), frames, "dense")
    config = EpisodeConfig(steps=steps, predictor=PredictorConfig(grid_width=24, grid_height=16),
                           energy_scale=ENERGY_SCALE, seed=5)
    env = SamplingEnv(config, [clip], record_trace=True)
    policy, asked = PeriodicPolicy(5), []

    def decide(features, t):
        asked.append((features, t))
        return policy.decide(features, t)

    transitions = list(env.play(decide))
    metrics = env.metrics
    assert metrics.truncated is (frames - 2 < steps)
    assert metrics.steps == len(transitions) == min(steps, frames - 2)
    assert [t for _, t in asked] == list(range(1, metrics.steps + 1))
    assert all(tr.state is features for tr, (features, _) in zip(transitions, asked))

    assert [tr.action for tr in transitions] == [step.action for step in metrics.trace]
    assert [tr.reward for tr in transitions] == [step.reward for step in metrics.trace]
    forced_skips = [tr.action for tr, step in zip(transitions, metrics.trace)
                    if step.forced and step.t % 5]
    assert forced_skips and all(action == 1 for action in forced_skips)

    for tr, following in zip(transitions, transitions[1:]):
        assert np.array_equal(tr.next_state, following.state)
    assert [tr.terminal for tr in transitions] == [False] * (metrics.steps - 1) + [True]
    assert np.array_equal(transitions[-1].next_state, np.zeros(env.state_dim))

    again, returned = run_episode(config, clip, policy, record_trace=True)
    assert again.cumulative_reward == metrics.cumulative_reward
    assert len(returned) == len(transitions)
    for got, want in zip(returned, transitions):
        assert (got.action, got.reward, got.terminal) == (want.action, want.reward, want.terminal)
        assert np.array_equal(got.state, want.state)
        assert np.array_equal(got.next_state, want.next_state)


def test_replayed_episodes_read_kept_packets_and_trace_as_fresh_environments_do():
    """A block of episodes on one scene reads each frame's packet and decoded
    scene as kept by the episodes before it; each must trace as a fresh
    environment does over a fresh copy of the clip, with nothing kept."""
    clip = generate_traffic(TrafficGenConfig(lanes=2, spawn_rate=0.5, seed=7), 120, "dense")
    config = EpisodeConfig(steps=40, predictor=PredictorConfig(grid_width=24, grid_height=16),
                           energy_scale=ENERGY_SCALE, seed=5)
    env = SamplingEnv(config, [clip], record_trace=True)
    for k, period in enumerate((3, 2, 5, 3, 1)):
        for _ in env.play(PeriodicPolicy(period).decide, new_scene=k == 0):
            pass
        fresh_clip = FootageClip(clip.name, clip.frame_width, clip.frame_height,
                                 tuple(layout.SceneAnnotation(f.frame_index, f.vehicles)
                                       for f in clip.frames))
        metrics, _ = run_episode(config, fresh_clip, PeriodicPolicy(period), record_trace=True)
        assert env.metrics.trace == metrics.trace and env.metrics == metrics
    kept = [f for f in clip.frames if f._message is not None]
    assert kept and all(f._message._scene is not None for f in kept)
    for frame in kept:
        packet = layout.encode_message(layout.SceneAnnotation(frame.frame_index, frame.vehicles))
        assert frame._message == packet
        assert frame._message._scene == layout.decode_message(packet)


def test_the_slotted_records_survive_deepcopy_and_pickle_and_traces_keep_their_key_order():
    clip = generate_traffic(TrafficGenConfig(lanes=2, spawn_rate=0.5, seed=7), 120, "dense")
    config = EpisodeConfig(steps=40, predictor=PredictorConfig(grid_width=24, grid_height=16),
                           energy_scale=ENERGY_SCALE, seed=5)
    env = SamplingEnv(config, [clip], record_trace=True)
    policy = PeriodicPolicy(3)
    steps = env.play(policy.decide)
    transitions = [next(steps) for _ in range(10)]
    scene = clip.frames[3]
    records = [scene, scene.vehicles[0], scene.vehicles[0].box, layout.encode_message(scene),
               *env.metrics.trace]
    assert scene.vehicles and env.metrics.trace
    for record in records + transitions:
        assert not hasattr(record, "__dict__")  # slotted
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)
    for copied in (copy.deepcopy(records), pickle.loads(pickle.dumps(records))):
        assert copied == records and all(a is not b for a, b in zip(copied, records))
    for copied in (copy.deepcopy(transitions), pickle.loads(pickle.dumps(transitions))):
        for a, b in zip(copied, transitions):
            assert (a.action, a.reward, a.terminal) == (b.action, b.reward, b.terminal)
            assert np.array_equal(a.state, b.state) and np.array_equal(a.next_state, b.next_state)
    # ``evaluate --traces`` writes each step's fields in this order
    assert list(dataclasses.asdict(env.metrics.trace[0])) == [
        "t", "action", "forced", "packet_bits", "energy_j", "deviation", "penalized",
        "case3_deviation", "reward", "chi", "queue_len"]
    # a copy of the environment mid-episode, sharing its clips, plays on as
    # the original does
    twin = copy.deepcopy(env, {id(env.clips): env.clips, id(env._clip): env._clip})
    for t in range(11, 31):
        a, b = env.step(policy.decide(None, t)), twin.step(policy.decide(None, t))
        assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]
    assert twin.metrics.trace == env.metrics.trace and len(env.metrics.trace) == 30


# -- the destination's deviation d_hat, and the reconstruction accuracy -------

HAND_GRID = PredictorConfig(grid_width=24, grid_height=16)


def _hand_clip(frames=32):
    """A car drifting right, a bus drifting left faster, and a van that
    enters at frame 12 and jumps at frame 20, so that the destination's
    predictions drift, a reception can miss its prediction, and the queue
    runs dry between receptions."""
    scenes = []
    for i in range(frames):
        vehicles = [VehicleRecord(0, VehicleClass.CAR, BoundingBox(0.05 + 0.013 * i, 0.40, 0.25 + 0.013 * i, 0.55)),
                    VehicleRecord(1, VehicleClass.BUS, BoundingBox(0.74 - 0.021 * i, 0.05, 0.94 - 0.021 * i, 0.30))]
        if i >= 12:
            x = 0.30 + 0.01 * (i - 12) + (0.25 if i >= 20 else 0.0)
            vehicles.append(VehicleRecord(2, VehicleClass.VAN, BoundingBox(x, 0.70, x + 0.15, 0.85)))
        scenes.append(SceneAnnotation(i, tuple(vehicles)))
    return FootageClip("hand", 1920, 1080, tuple(scenes))


def _hand_config(clip):
    # as many steps as the clip holds past its bootstrap pair: offset 0
    return EpisodeConfig(steps=len(clip) - 2, predictor=HAND_GRID, energy_scale=ENERGY_SCALE, seed=3)


def _real_layout(scene):
    return VisualLayout(rasterize_oracle(scene, HAND_GRID.grid_width, HAND_GRID.grid_height))


def _play_beside_a_mirror(clip, policy):
    """Play ``policy`` over the clip.  Beside the environment a second
    destination, bootstrapped from the same packets, receives what the
    source sends; before each step a copy of it is stepped silently to show
    the layout the destination would display, and the oracles rasterize the
    real frame and measure the deviation.  Returns the environment and, per step, (t, features, the
    policy's choice, the oracle's d_hat_t)."""
    env = SamplingEnv(_hand_config(clip), [clip], record_trace=True)
    mirror = DestinationState.bootstrap(layout.encode_message(clip.frames[0]),
                                        layout.encode_message(clip.frames[1]), HAND_GRID)
    seen = []

    def decide(features, t):
        shown, _ = copy.deepcopy(mirror).step(t, None)
        d_hat = float(prediction_deviation_oracle(_real_layout(clip.frames[t + 1]), shown))
        choice = policy.decide(features, t)
        seen.append((t, features, choice, d_hat))
        return choice

    for transition in env.play(decide):
        t = seen[-1][0]
        mirror.step(t, layout.encode_message(clip.frames[t + 1]) if transition.action else None)
    return env, seen


@pytest.mark.parametrize("policy", [PeriodicPolicy(4), PeriodicPolicy(7), simulator.NeverSamplePolicy()],
                         ids=["periodic-4", "periodic-7", "never"])
def test_each_observed_d_hat_is_the_oracle_deviation_of_the_layout_the_destination_would_show(policy):
    clip = _hand_clip()
    env, seen = _play_beside_a_mirror(clip, policy)
    trace = env.metrics.trace
    assert len(seen) == env.metrics.steps == 30
    for t, features, _, d_hat in seen:
        assert features[-1] == d_hat * agent.DEVIATION_SCALE
    # a skip is scored by the d_hat observed for it
    for (_, _, _, d_hat), step in zip(seen, trace):
        assert step.deviation == (None if step.action else d_hat)
    d_hats = [d_hat for *_, d_hat in seen]
    assert min(d_hats) < 0.07 < max(d_hats)
    # with 5 predictions a round, a gap of 6 or more silent steps empties
    # the queue: d_hat's own observation builds the chained round (Case 2b)
    chained = any(before.queue_len == 0 for before in trace[:-1])
    assert chained is (policy.decide(None, 4) == 0)


@pytest.mark.parametrize("from_step", [1, 7])
def test_the_deviation_rule_transmits_exactly_when_d_hat_is_above_its_threshold(from_step):
    """The threshold is a d_hat the rule meets, so one step sits exactly on
    it and must stay silent."""
    clip = _hand_clip()
    _, probe = _play_beside_a_mirror(clip, simulator.NeverSamplePolicy())
    theta = probe[from_step - 1][3]
    env, seen = _play_beside_a_mirror(clip, DeviationPolicy(theta))
    choices = [choice for _, _, choice, _ in seen]
    assert choices == [int(d_hat > theta) for *_, d_hat in seen]
    assert any(d_hat == theta for *_, d_hat in seen)
    assert 0 < sum(choices) < len(choices)
    for choice, step in zip(choices, env.metrics.trace):
        assert step.action == (1 if step.forced else choice)


def test_the_deviation_rule_refuses_a_threshold_outside_0_to_1():
    for theta in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError, match="deviation threshold must be in"):
            DeviationPolicy(theta)


@pytest.mark.parametrize("period", [1, 3])
def test_every_interval_deviation_is_each_sent_frames_quantization_error_and_each_skips_deviation(period):
    """periodic:1 sends every frame, so its every-interval deviation is the
    mean of each frame's quantization error; periodic:3 mixes those with
    the skipped intervals' deviations."""
    clip = _hand_clip()
    metrics, _ = run_episode(_hand_config(clip), clip, PeriodicPolicy(period), record_trace=True)
    shown = []
    for step, frame in zip(metrics.trace, clip.frames[2:]):
        if step.action:
            decoded = rasterize_oracle(quantized_scene_oracle(frame), HAND_GRID.grid_width, HAND_GRID.grid_height)
            shown.append(float(prediction_deviation_oracle(_real_layout(frame), VisualLayout(decoded))))
        else:
            shown.append(step.deviation)
    assert max(shown) > 0
    assert metrics.mean_display_deviation == sum(shown) / len(shown)
    skipped = [step.deviation for step in metrics.trace if not step.action]
    assert metrics.mean_deviation == (sum(skipped) / len(skipped) if skipped else 0.0)
    assert (metrics.sample_count == metrics.steps == 30) is (period == 1)
