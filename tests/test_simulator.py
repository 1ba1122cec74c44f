import pytest

from semsample import predictor, simulator
from semsample.ingest import TrafficGenConfig, generate_traffic
from semsample.predictor import PredictorConfig
from semsample.simulator import EpisodeConfig, PeriodicPolicy, run_episode

from oracles import prediction_deviation_oracle, semantic_change_oracle


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
    config = EpisodeConfig(steps=60, predictor=PredictorConfig(grid_width=24, grid_height=16), seed=5)
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
