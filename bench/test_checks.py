"""Each output check of the benchmark accepts the program's output and
rejects a perturbed copy of it."""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from semsample import agent, channel, config, ingest, layout, simulator

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def resolved():
    return config.resolve_config(config.default_config())


@pytest.fixture(scope="module")
def clip():
    return ingest.generate_traffic(ingest.TrafficGenConfig(lanes=2, spawn_rate=0.5, seed=4), 120, "dense")


@pytest.fixture(scope="module")
def periodic_episode(resolved, clip):
    cfg = dataclasses.replace(config.build_episode_config(resolved, seed=3), steps=60)
    metrics, _ = simulator.run_episode(cfg, clip, simulator.PeriodicPolicy(4), record_trace=True)
    assert metrics.sample_count > 0 and any(s.forced for s in metrics.trace)
    return metrics


def _fails(metrics, resolved, trace=None, period=4):
    return checks.episode_failures(metrics.trace if trace is None else trace, metrics, resolved, period)


def test_packet_energy_matches_the_program(resolved):
    link = config.build_link(resolved)
    fading = link.fading(resolved["channel"]["m"], resolved["channel"]["m_s"])
    for bits in (22, 66, 22 * 16):
        assert math.isclose(checks.packet_energy_j(bits, resolved["channel"]),
                            channel.expected_energy(bits, link, fading), rel_tol=1e-12)


def test_episode_checks_accept_the_program(periodic_episode, resolved):
    assert _fails(periodic_episode, resolved) == []


def test_energy_check_rejects_one_extra_packet(periodic_episode, resolved):
    extra = checks.packet_energy_j(22, resolved["channel"])
    bad = dataclasses.replace(periodic_episode, total_energy_j=periodic_episode.total_energy_j + extra)
    assert any("total energy" in f for f in _fails(bad, resolved))


def test_energy_check_rejects_a_wrong_packet_energy(periodic_episode, resolved):
    trace = list(periodic_episode.trace)
    i = next(i for i, s in enumerate(trace) if s.action == 1)
    trace[i] = dataclasses.replace(trace[i], energy_j=trace[i].energy_j * (1 + 1e-6))
    assert any("packet energy" in f for f in _fails(periodic_episode, resolved, trace))


def test_bootstrap_check_rejects_a_partial_record(periodic_episode, resolved):
    half = 0.5 * checks.packet_energy_j(22, resolved["channel"])
    bad = dataclasses.replace(periodic_episode, bootstrap_energy_j=periodic_episode.bootstrap_energy_j + half,
                              total_energy_j=periodic_episode.total_energy_j + half)
    assert any("bootstrap" in f for f in _fails(bad, resolved))


def test_deviation_check_rejects_a_deviation_off_by_1e_3(periodic_episode, resolved):
    bad = dataclasses.replace(periodic_episode, mean_deviation=periodic_episode.mean_deviation + 1e-3)
    assert any("mean_deviation" in f for f in _fails(bad, resolved))
    trace = list(periodic_episode.trace)
    i = next(i for i, s in enumerate(trace) if s.action == 0)
    trace[i] = dataclasses.replace(trace[i], deviation=trace[i].deviation + 1e-3)
    assert any("mean_deviation" in f for f in _fails(periodic_episode, resolved, trace))


def test_sample_count_check_rejects_one_more_sample(periodic_episode, resolved):
    bad = dataclasses.replace(periodic_episode, sample_count=periodic_episode.sample_count + 1)
    assert any("sample_count" in f for f in _fails(bad, resolved))


def test_reward_check_rejects_a_changed_reward(periodic_episode, resolved):
    bad = dataclasses.replace(periodic_episode, cumulative_reward=periodic_episode.cumulative_reward + 1e-6)
    assert any("cumulative reward" in f for f in _fails(bad, resolved))
    trace = list(periodic_episode.trace)
    trace[5] = dataclasses.replace(trace[5], reward=trace[5].reward + 1e-6)
    assert any("recomputed" in f for f in _fails(periodic_episode, resolved, trace))


def test_periodic_check_rejects_a_missed_period(periodic_episode, resolved):
    trace = list(periodic_episode.trace)
    i = next(i for i, s in enumerate(trace) if s.t % 4 == 0 and not s.forced)
    trace[i] = dataclasses.replace(trace[i], action=0, energy_j=0.0, deviation=0.0)
    assert any("periodic:4" in f for f in _fails(periodic_episode, resolved, trace))
    assert any("periodic:5" in f for f in _fails(periodic_episode, resolved, period=5))


def test_resample_check_rejects_an_unrequested_forced_step(periodic_episode, resolved):
    trace = list(periodic_episode.trace)
    i = next(i for i, s in enumerate(trace) if i and s.action == 1 and not s.forced)
    trace[i] = dataclasses.replace(trace[i], forced=True)
    assert any("resample rule" in f for f in _fails(periodic_episode, resolved, trace))


def test_row_and_rerun_checks_reject_a_changed_row(periodic_episode):
    row = {"clip": "dense", "policy": "periodic:4", **{k: getattr(periodic_episode, k) for k in
           ("cumulative_reward", "total_energy_j", "mean_deviation", "sample_count")}}
    assert checks.row_failures(row, periodic_episode) == []
    bad = dict(row, mean_deviation=row["mean_deviation"] + 1e-3)
    assert checks.row_failures(bad, periodic_episode)
    assert checks.same_rows([row, row], [row, row], "rows") == []
    assert checks.same_rows([row, row], [row, bad], "rows")
    assert checks.same_rows([row, row], [row], "rows")


def test_finite_loss_check_rejects_nan():
    assert checks.finite_losses([(1.0, -2.0, 0.5)]) == []
    assert checks.finite_losses([(1.0, -2.0, 0.5), (1.0, math.nan, 0.5)])


def _tiny_nets(dtype="float64"):
    cfg = agent.SacConfig(widths=(8, 8), batch_size=16, dtype=dtype)
    nets = agent.SacNetworks(5, cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    batch = agent.Batch(states=rng.random((16, 5)), actions=rng.integers(0, 2, 16),
                        rewards=rng.normal(size=16), next_states=rng.random((16, 5)),
                        terminals=rng.random(16) < 0.2)
    return nets, cfg, batch


def test_soft_update_check_rejects_a_wrong_target():
    nets, cfg, _ = _tiny_nets("float32")
    nets.q1.weights[0] += 0.5  # targets and sources differ
    old = [p.copy() for p in nets.target_q1.parameters()]
    agent.soft_update(nets.target_q1, nets.q1, cfg.tau)
    new, src = nets.target_q1.parameters(), nets.q1.parameters()
    assert checks.soft_update_failures(new, src, old, cfg.tau) == []
    new[0][0, 0] += 1e-4 * abs(new[0][0, 0]) + 1e-6
    assert checks.soft_update_failures(new, src, old, cfg.tau)


@pytest.mark.parametrize("which", ["critic", "actor", "temperature"])
def test_gradient_check_accepts_analytic_and_rejects_perturbed(which):
    nets, cfg, batch = _tiny_nets()
    if which == "critic":
        _, g1, g2 = agent.critic_loss_and_grads(nets, batch)
        params = nets.q1.parameters() + nets.q2.parameters()
        grads = [a for pair in g1 + g2 for a in pair]
        loss = lambda: agent.critic_loss_and_grads(nets, batch)[0]  # noqa: E731
    elif which == "actor":
        _, ga = agent.actor_loss_and_grads(nets, batch)
        params = nets.actor.parameters()
        grads = [a for pair in ga for a in pair]
        loss = lambda: agent.actor_loss_and_grads(nets, batch)[0]  # noqa: E731
    else:
        nets.log_temperature = 0.3
        _, g = agent.temperature_loss_and_grad(nets, batch, cfg.target_entropy)
        log_t = np.array([nets.log_temperature])
        params, grads = [log_t], [np.array([g])]

        def loss():
            nets.log_temperature = float(log_t[0])
            return agent.temperature_loss_and_grad(nets, batch, cfg.target_entropy)[0]

    assert checks.gradient_failures(params, grads, loss, np.random.default_rng(2), which, per_array=3) == []
    off = [g + 1e-2 * (np.abs(g) + np.sqrt(np.mean(g**2))) for g in grads]
    assert checks.gradient_failures(params, off, loss, np.random.default_rng(2), which, per_array=3)


@pytest.fixture(scope="module")
def layout_samples(clip):
    frames = [f for f in clip.frames if f.vehicle_count][:4]
    grids = [layout.rasterize(f, 120, 80) for f in frames]
    return {
        "prediction_deviation": [((grids[0], grids[1]), layout.prediction_deviation(grids[0], grids[1]))],
        "semantic_change": [((frames[2], frames[0]), layout.semantic_change(frames[2], frames[0]))],
        "rasterize": [((frames[3], 120, 80), grids[3])],
    }


def test_layout_check_rejects_a_perturbed_value(layout_samples):
    oracles = checks.load_oracles(ROOT)
    assert checks.layout_failures(layout_samples, oracles) == []
    for key in ("prediction_deviation", "semantic_change"):
        (args, value), = layout_samples[key]
        bad = dict(layout_samples, **{key: [(args, value + 1e-3)]})
        assert any(key in f for f in checks.layout_failures(bad, oracles))
    (args, grid), = layout_samples["rasterize"]
    flipped = grid.grid.copy()
    flipped[0, 0] = (flipped[0, 0] + 1) % 5
    bad = dict(layout_samples, rasterize=[(args, layout.VisualLayout(flipped))])
    assert any("rasterize" in f for f in checks.layout_failures(bad, oracles))


def test_clip_check_rejects_a_lost_vehicle(clip):
    parsed = ingest.parse_detrac_xml(workloads.detrac_xml(clip, 960, 540), 960, 540, "dense")
    assert checks.clip_failures(clip, parsed, 960, 540) == []
    i = next(i for i, f in enumerate(parsed.frames) if f.vehicle_count)
    frames = list(parsed.frames)
    frames[i] = dataclasses.replace(frames[i], vehicles=frames[i].vehicles[1:])
    assert checks.clip_failures(clip, dataclasses.replace(parsed, frames=tuple(frames)), 960, 540)
