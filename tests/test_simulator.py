import numpy as np
import pytest

from semsample import predictor, simulator
from semsample.config import default_config, resolve_config
from semsample.ingest import TrafficGenConfig, generate_traffic
from semsample.predictor import PredictorConfig
from semsample.simulator import EpisodeConfig, PeriodicPolicy, SamplingEnv, run_episode

from oracles import prediction_deviation_oracle, semantic_change_oracle

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


def test_episode_is_dense_and_mixes_transmits_and_skips(dense_episode):
    metrics, chi_calls, dev_calls, _ = dense_episode
    assert metrics.steps == 60 and not metrics.truncated
    assert 0 < metrics.sample_count < 60
    assert len(dev_calls) == 60 - metrics.sample_count
    vehicles = [len(args[0].vehicles) for args, _ in chi_calls]
    assert sum(vehicles) / len(vehicles) > 5


def test_every_chi_equals_the_exact_oracle(dense_episode):
    metrics, chi_calls, _, _ = dense_episode
    assert len(chi_calls) == metrics.steps
    for step, (args, result) in zip(metrics.trace, chi_calls):
        assert step.chi == result == float(semantic_change_oracle(*args))


def test_every_deviation_equals_the_pixel_oracle(dense_episode):
    metrics, _, dev_calls, case3_calls = dense_episode
    skipped = [step.deviation for step in metrics.trace if step.action == 0]
    assert skipped == [result for _, result in dev_calls]
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
