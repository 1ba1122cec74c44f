import base64
import dataclasses
import gc
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from semsample import agent
from semsample.agent import (
    ReplayMemory,
    SacConfig,
    SacNetworks,
    StateScaling,
    Trainer,
    Transition,
    temperature_loss_and_grad,
)
from semsample.config import default_config, resolve_config
from semsample.ingest import TrafficGenConfig, generate_traffic
from semsample.nets import Adam, Mlp
from semsample.predictor import PredictorConfig
from semsample.simulator import EpisodeConfig, SamplingEnv

import oracles


def test_state_features_scale_bits_and_chi_and_end_in_the_destinations_deviation():
    scaling = StateScaling(window=4, chi_cap=8.0)
    chi = np.array([4.0, 2.0, 0.0, 8.0, 1.0])
    features = scaling.features(44, chi, 0.125)
    assert features.shape == (4 + 3,) == (scaling.state_dim,)
    assert features.dtype == np.float64
    assert features[0] == 44 / 1408
    np.testing.assert_array_equal(features[1:-1], [0.5, 0.25, 0.0, 1.0, 0.125])
    assert features[-1] == 0.125 * agent.DEVIATION_SCALE == 0.5
    # the scale is a power of two, so every deviation reads back exactly
    assert math.frexp(agent.DEVIATION_SCALE)[0] == 0.5
    for deviation in (0.0, 1 / 3, 0.07, 0.0700000000000001, 5e-324, 1.0):
        assert scaling.features(44, chi, deviation)[-1] / agent.DEVIATION_SCALE == deviation
    with pytest.raises(ValueError, match="chi window must have length 5"):
        scaling.features(44, np.zeros(4), 0.0)


def test_the_default_state_is_eleven_features_and_a_paper_net_104402_parameters():
    assert StateScaling().window == 8 and StateScaling().state_dim == 11
    dims = (StateScaling().state_dim, *SacConfig().widths, SacNetworks.N_ACTIONS)
    assert Mlp(dims, np.random.default_rng(0), np.float32).flat.size == 104_402
    # still two lanes at the paper's widths and batch
    assert SacConfig().batch_size * 104_402 > agent.THREADED_WORK


class TwoArrayRing:
    """Reference ring that stores every state and next state in full."""

    def __init__(self, capacity, state_dim, rng):
        self.capacity = capacity
        self.rng = rng
        self.states = np.zeros((capacity, state_dim), np.float32)
        self.next_states = np.zeros((capacity, state_dim), np.float32)
        self.actions = np.zeros(capacity, np.int8)
        self.rewards = np.zeros(capacity, np.float32)
        self.terminals = np.zeros(capacity, bool)
        self.head = 0
        self.size = 0

    def push(self, tr):
        i = self.head
        self.states[i] = tr.state
        self.next_states[i] = tr.next_state
        self.actions[i] = tr.action
        self.rewards[i] = tr.reward
        self.terminals[i] = tr.terminal
        self.head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size, dtype):
        idx = self.rng.choice(self.size, size=batch_size, replace=False)
        return (self.states[idx].astype(dtype), self.actions[idx].astype(np.int64),
                self.rewards[idx].astype(dtype), self.next_states[idx].astype(dtype),
                self.terminals[idx])


def _stream(rng, n, dim):
    """Transitions as a trainer makes them: each state is the previous next
    state, except after a terminal step (zeros, then a reset) and at breaks
    without a terminal: a new stream, or a next state of -0.0 followed by a
    state of +0.0, equal as numbers but not as bits."""
    state = rng.random(dim)
    for k in range(n):
        terminal = k % 9 == 8
        next_state = np.zeros(dim) if terminal else rng.random(dim)
        if k in (4, 15):
            next_state[0] = -0.0
        yield Transition(state, int(rng.integers(0, 2)), float(rng.normal()), next_state, terminal)
        if terminal or k in (12, 20):
            state = rng.random(dim)
        elif k == 15:
            state = next_state.copy()
            state[0] = 0.0
        else:
            state = next_state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_replay_memory_matches_two_array_ring(dtype):
    capacity, dim = 7, 5
    memory = ReplayMemory(capacity, dim, np.random.default_rng(3))
    reference = TwoArrayRing(capacity, dim, np.random.default_rng(3))
    for k, tr in enumerate(_stream(np.random.default_rng(11), 30, dim)):
        memory.push(tr)
        reference.push(tr)
        assert len(memory) == reference.size
        batch_size = min(len(memory), 1 + k % 5)
        batch = memory.sample(batch_size, dtype)
        expected = reference.sample(batch_size, dtype)
        got = (batch.states, batch.actions, batch.rewards, batch.next_states, batch.terminals)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            assert g.tobytes() == e.tobytes()


def test_replay_memory_capacity_one_keeps_the_last_transition():
    memory = ReplayMemory(1, 2, np.random.default_rng(0))
    memory.push(Transition(np.array([1.0, 2.0]), 1, 0.5, np.array([3.0, 4.0])))
    memory.push(Transition(np.array([3.0, 4.0]), 0, 0.25, np.array([5.0, 6.0]), True))
    batch = memory.sample(1)
    assert batch.states.tolist() == [[3.0, 4.0]]
    assert batch.next_states.tolist() == [[5.0, 6.0]]
    assert batch.terminals.tolist() == [True]


def test_replay_memory_rejects_oversized_batch():
    memory = ReplayMemory(4, 2, np.random.default_rng(0))
    memory.push(Transition(np.zeros(2), 0, 0.0, np.ones(2)))
    with pytest.raises(ValueError):
        memory.sample(2)


# -- trainer ---------------------------------------------------------------

# the energy scale that the shipped config resolves to
ENERGY_SCALE = resolve_config(default_config())["energy"]["scale"]
SMALL_SAC = SacConfig(widths=(32, 32), batch_size=16, memory_capacity=200, warmup_transitions=16)


def _trainer(record_trace=False, config=SMALL_SAC):
    clip = generate_traffic(TrafficGenConfig(spawn_rate=0.3, seed=4), 80, "small")
    episode = EpisodeConfig(
        steps=30,
        predictor=PredictorConfig(grid_width=24, grid_height=16),
        scaling=StateScaling(window=10),
        energy_scale=ENERGY_SCALE,
        seed=2,
    )
    return Trainer(SamplingEnv(episode, [clip], record_trace=record_trace), config, seed=3,
                   scene_refresh_every=20)


def _fill_memory(trainer, n):
    rng = np.random.default_rng(0)
    dim = trainer.env.state_dim
    for _ in range(n):
        trainer.memory.push(Transition(rng.random(dim), int(rng.integers(0, 2)),
                                       float(rng.normal()), rng.random(dim)))


def test_train_returns_the_environments_episode_records():
    trainer = _trainer(record_trace=True)
    records = [trainer.run_episode(episode) for episode in range(2)]
    assert len(records) == 2 and records[0] is not records[1]
    assert records[-1] is trainer.env.metrics
    assert trainer.gradient_steps > 0  # the second episode trained
    for metrics in records:
        assert metrics.steps == len(metrics.trace) == 30
        energy = metrics.bootstrap_energy_j
        reward = 0.0
        for step in metrics.trace:
            energy += step.energy_j
            reward += step.reward
        assert metrics.bootstrap_energy_j > 0
        assert metrics.total_energy_j == energy
        assert metrics.cumulative_reward == reward
        assert metrics.sample_count == sum(step.action for step in metrics.trace)


def test_first_update_moves_log_temperature_by_one_adam_step(monkeypatch):
    trainer = _trainer()
    _fill_memory(trainer, 16)
    batches = []
    sample = trainer.memory.sample

    def recording(*args):
        batches.append(sample(*args))
        return batches[-1]

    monkeypatch.setattr(trainer.memory, "sample", recording)
    # the loss reads the actor and the temperature from before the update
    before = SacNetworks.from_dict(trainer.nets.to_dict(), SMALL_SAC)
    trainer.update()
    after = trainer.nets.log_temperature
    assert isinstance(after, float)
    _, g = temperature_loss_and_grad(before, batches[0], SMALL_SAC.target_entropy)
    step = SMALL_SAC.temperature_lr * g / (abs(g) + 1e-8)
    assert g != 0
    assert after - before.log_temperature == pytest.approx(-step, rel=1e-9)
    # a first step's size hardly depends on |g|; its first moment does
    assert trainer.opt_temperature.m == (1.0 - 0.9) * g


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_the_temperature_loss_on_a_given_policy_equals_its_own_pass_bit_for_bit(dtype):
    config = dataclasses.replace(SMALL_SAC, dtype=dtype)
    trainer = _trainer(config=config)
    _fill_memory(trainer, 16)
    nets, batch = trainer.nets, trainer.memory.sample(16, np.dtype(dtype))
    nets.log_temperature = 0.3
    own = temperature_loss_and_grad(nets, batch, config.target_entropy)
    terms = agent._policy_terms(nets.actor.forward(batch.states))
    given = agent._temperature_loss(nets, *terms, config.target_entropy)
    assert [x.hex() for x in given] == [x.hex() for x in own]
    # the given terms are the ones read: equal logits have entropy log 2
    uniform = agent._temperature_loss(nets, *agent._policy_terms(np.zeros((16, 2), np.dtype(dtype))),
                                      config.target_entropy)
    want = math.exp(0.3) * (math.log(2) - config.target_entropy)
    assert uniform == pytest.approx((want, want), rel=1e-6)


def test_the_loss_cores_equal_a_plain_python_oracle():
    """The critic, actor and temperature cores on a hand-built float64
    batch: gamma 0.9, one terminal row, and twin critics and target
    critics that each hold the min on some rows."""
    config = SacConfig(widths=(4,), batch_size=4, memory_capacity=4, warmup_transitions=0,
                       gamma=0.9, dtype="float64")
    nets = SacNetworks(3, config, np.random.default_rng(0))
    nets.log_temperature = math.log(0.7)
    actions = np.array([0, 1, 1, 0])
    rewards = np.array([0.5, -1.25, 2.0, 0.75])
    terminals = np.array([False, True, False, False])
    batch = agent.Batch(np.zeros((4, 3)), actions, rewards, np.zeros((4, 3)), terminals)
    q = np.array([[[1.0, 2.0], [0.5, -0.5], [3.0, 1.5], [-1.0, 0.25]],
                  [[1.5, 1.0], [0.25, 0.0], [2.5, 2.0], [-0.5, -0.75]]])
    next_q = np.array([[[0.8, 1.2], [2.0, 1.0], [0.3, 0.9], [1.1, -0.4]],
                       [[1.0, 0.7], [1.5, 1.4], [0.6, 0.2], [0.9, -0.1]]])
    logits = np.array([[0.1, 0.6], [-1.2, 0.3], [0.9, -0.4], [0.5, 0.5]])
    next_logits = np.array([[0.2, -0.3], [1.0, 0.5], [-0.7, 0.4], [0.0, 2.0]])
    for pair in (q, next_q):
        assert (pair[0] < pair[1]).any() and (pair[1] < pair[0]).any()

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    theta = nets.temperature
    y = oracles.soft_bellman_targets_oracle(rewards.tolist(), terminals.tolist(), *next_q.tolist(),
                                            next_logits.tolist(), theta, 0.9)
    loss, d_q = agent._critic_loss(nets, batch, q, next_q, *agent._policy_terms(next_logits))
    want_loss, want_d_q = oracles.critic_loss_oracle(q.tolist(), actions.tolist(), y)
    close(loss, want_loss)
    close(d_q, want_d_q)
    terms = agent._policy_terms(logits)
    loss, d_logits = agent._actor_loss(nets, *terms, q)
    want_loss, want_d_logits = oracles.actor_loss_oracle(logits.tolist(), *q.tolist(), theta)
    close(loss, want_loss)
    close(d_logits, want_d_logits)
    close(agent._temperature_loss(nets, *terms, 0.3), oracles.temperature_loss_oracle(logits.tolist(), theta, 0.3))


def test_load_networks_restarts_every_optimizer():
    trainer = _trainer()
    _fill_memory(trainer, 16)
    for _ in range(3):
        trainer.update()
    optimizers = [trainer.opt_trained, trainer.opt_temperature]
    assert [opt.t for opt in optimizers] == [3, 3]
    trainer.load_networks(SacNetworks.from_dict(trainer.nets.to_dict(), SMALL_SAC))
    optimizers = [trainer.opt_trained, trainer.opt_temperature]
    assert [opt.t for opt in optimizers] == [0, 0]
    # one optimizer over [actor | q1 | q2]
    assert optimizers[0].m.size == 3 * trainer.nets.q1.flat.size
    for opt in optimizers:
        assert not opt.m.any() and not opt.v.any()


# -- flat parameter storage ------------------------------------------------

def _assert_views_of_flat(net):
    """Every weight and bias is the view of ``net.flat`` at its offset in the
    layout w0, b0, w1, b1, ..., so writing each one in place with its own
    offsets makes ``flat`` count up.  Overwrites the parameters."""
    assert net.flat.ndim == 1 and net.flat.flags.c_contiguous and net.flat.dtype == net.dtype
    offset = 0
    for a in net.parameters():
        assert np.shares_memory(a, net.flat)
        assert a.ctypes.data == net.flat.ctypes.data + offset * net.flat.itemsize
        a[...] = np.arange(offset, offset + a.size).reshape(a.shape)
        offset += a.size
    np.testing.assert_array_equal(net.flat, np.arange(offset))


# each net's and each stack's first member in SacNetworks' one vector
# [target_q1 | target_q2 | actor | q1 | q2]
ONE_VECTOR_LAYOUT = {"target_q1": 0, "target_q2": 1, "actor": 2, "q1": 3, "q2": 4,
                     "next_state": 0, "trained": 2, "target_critics": 0, "critics": 3}


def _assert_views_of_one_vector(nets):
    """Every named net and stack of ``nets`` views the one vector
    ``nets.stacked.flat`` at its offset, and so does each layer of each
    member, at the offset of the plain net of that member.  Overwrites the
    parameters."""
    vector, size = nets.stacked.flat, nets.actor.flat.size
    assert nets.stacked.n_stacked == 5 and vector.size == 5 * size
    _assert_views_of_flat(nets.stacked.substack(slice(0, 1)))  # flat's own layout, from its start
    plain = {first: getattr(nets, name) for name, first in ONE_VECTOR_LAYOUT.items() if name in SacNetworks.NETWORKS}
    for name, first in ONE_VECTOR_LAYOUT.items():
        net = getattr(nets, name)
        assert net.flat.ctypes.data == vector.ctypes.data + first * size * vector.itemsize, name
        assert net.flat.size == max(net.n_stacked, 1) * size and np.shares_memory(net.flat, vector)
        for k in range(net.n_stacked):
            for stacked, own in zip(net.parameters(), plain[first + k].parameters()):
                assert stacked[k].ctypes.data == own.ctypes.data, (name, k)
    for name in SacNetworks.NETWORKS:
        _assert_views_of_flat(getattr(nets, name))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mlp_weights_and_biases_are_views_of_flat(dtype):
    net = Mlp((5, 4, 3, 2), np.random.default_rng(0), dtype)
    clone = net.copy()
    loaded = Mlp.from_arrays(net.to_arrays())
    for other in (clone, loaded):
        assert not np.shares_memory(other.flat, net.flat)
        assert other.flat.tobytes() == net.flat.tobytes()
    for each in (net, clone, loaded):
        _assert_views_of_flat(each)


def test_loaded_networks_keep_their_views_through_updates():
    trainer = _trainer()
    _fill_memory(trainer, 16)
    loaded = SacNetworks.from_dict(trainer.nets.to_dict(), SMALL_SAC)
    trainer.load_networks(loaded)
    before = loaded.stacked.flat.copy()
    trainer.update()
    # the update stepped and blended the loaded vector
    assert trainer.nets is loaded and not np.array_equal(loaded.stacked.flat, before)
    _assert_views_of_one_vector(trainer.nets)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_flat_updates_equal_per_array_adam_and_soft_updates(dtype):
    """Five updates on the flat vectors equal, bit for bit, the three losses'
    gradients on a copy of the networks followed by per-array Adam steps
    and per-array soft updates, and return the losses of that copy."""
    config = dataclasses.replace(SMALL_SAC, dtype=dtype)
    trainer = _trainer(config=config)
    _fill_memory(trainer, 16)
    ref = SacNetworks.from_dict(trainer.nets.to_dict(), config)
    # one Adam per parameter array
    opts = {name: [Adam(p, lr) for p in getattr(ref, name).parameters()]
            for name, lr in (("q1", config.critic_lr), ("q2", config.critic_lr),
                             ("actor", config.actor_lr))}
    opt_t = Adam(np.zeros(()), config.temperature_lr)
    batches = []
    sample = trainer.memory.sample

    def recording(*args):
        batches.append(sample(*args))
        return batches[-1]

    trainer.memory.sample = recording

    def step(name, grads):
        for opt, p, g in zip(opts[name], getattr(ref, name).parameters(), [a for pair in grads for a in pair]):
            opt.step(p, g)

    for _ in range(5):
        losses = trainer.update()
        batch = batches[-1]
        # every loss reads the networks as they were before the update
        c_loss, g1, g2 = agent.critic_loss_and_grads(ref, batch)
        a_loss, ga = agent.actor_loss_and_grads(ref, batch)
        t_loss, g_log_t = temperature_loss_and_grad(ref, batch, config.target_entropy)
        assert [x.hex() for x in losses] == [x.hex() for x in (c_loss, a_loss, t_loss)]
        step("q1", g1)
        step("q2", g2)
        step("actor", ga)
        log_t = np.array(ref.log_temperature)
        opt_t.step(log_t, np.array(g_log_t))
        ref.log_temperature = float(log_t)
        for target, source in ((ref.target_q1, ref.q1), (ref.target_q2, ref.q2)):
            for tp, sp in zip(target.parameters(), source.parameters()):
                tp *= 1.0 - config.tau
                tp += config.tau * sp

        assert trainer.nets.log_temperature == ref.log_temperature
        for name in SacNetworks.NETWORKS:
            for got, want in zip(getattr(trainer.nets, name).parameters(), getattr(ref, name).parameters()):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        # the three nets share one optimizer over [actor | q1 | q2]: each
        # net's moments are its range of the joint ones
        size = ref.actor.flat.size
        ranges = {name: slice(k * size, (k + 1) * size) for k, name in enumerate(("actor", "q1", "q2"))}
        flat_opt = trainer.opt_trained
        for name, per_array in opts.items():
            assert all(flat_opt.t == opt.t for opt in per_array)
            assert np.array_equal(flat_opt.m[ranges[name]], np.concatenate([opt.m.ravel() for opt in per_array]))
            assert np.array_equal(flat_opt.v[ranges[name]], np.concatenate([opt.v.ravel() for opt in per_array]))


# -- stacked twin critics --------------------------------------------------

# the paper's critic on a 150-wide chi window, the widest state measured
PAPER_DIMS = (StateScaling(window=150).state_dim, *SacConfig().widths, SacNetworks.N_ACTIONS)


def _twins(dtype, dims=(7, 16, 8, 3)):
    rng = np.random.default_rng(5)
    return Mlp(dims, rng, dtype), Mlp(dims, rng, dtype)


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 64, 1024])
def test_stacked_passes_equal_each_members_own_pass_bit_for_bit(dtype, rows):
    """Stacks of two, three and five members, and a contiguous slice of
    the five, as SacNetworks views its stacks, give each member's own bits
    forward and backward; so does a pass on one member's views of a stack,
    as the two lanes run them (an int index, so no view is strided)."""
    # 1,024 rows at the paper's widths is training's case
    dims = PAPER_DIMS if rows == 1024 else (7, 16, 8, 3)
    rng = np.random.default_rng(5)
    nets = [Mlp(dims, rng, dtype) for _ in range(5)]
    x = rng.normal(size=(rows, dims[0]))
    grad_out = rng.normal(size=(5, rows, dims[-1]))
    # batch 1 goes in as one 1-D state, as select_action passes it
    x_in = x[0] if rows == 1 else x
    own = []  # each net's own output, cache and gradients
    for j, net in enumerate(nets):
        out, cache = net.forward_cached(x_in)
        kept = [_bits(a) for a in cache]  # backward consumes its cache
        own.append((_bits(out), kept, [(_bits(dw), _bits(db)) for dw, db in net.backward(cache, grad_out[j])]))
    five, _ = Mlp.stack(nets)
    stacks = [(Mlp.stack(nets[:2]), range(2)), (Mlp.stack(nets[:3]), range(3)), ((five, None), range(5))]
    for stacked, members in [(s, m) for (s, _), m in stacks] + [(five.substack(slice(2, 5)), range(2, 5))]:
        assert stacked.n_stacked == len(members)
        out, cache = stacked.forward_cached(x_in)
        assert out.shape == (len(members), rows, dims[-1])
        for j, n in enumerate(members):
            assert _bits(out[j]) == own[n][0]
            assert _bits(cache[0]) == own[n][1][0]
            assert [_bits(c[j]) for c in cache[1:]] == own[n][1][1:]
        grads = stacked.backward(cache, grad_out[members.start:members.stop])
        for j, n in enumerate(members):
            assert [(_bits(dw[j]), _bits(db[j])) for dw, db in grads] == own[n][2]
        # one member's views, in buffers of its own
        for j, n in enumerate(members):
            weights, biases = agent._member(stacked, j)
            hidden = [np.empty((rows, d), stacked.dtype) for d in dims[1:-1]]
            out, cache = agent._forward(x.astype(stacked.dtype), weights, biases, hidden)
            assert [_bits(c) for c in cache[1:]] == own[n][1][1:]
            masks = [np.empty((rows, d), bool) for d in dims[1:-1]]
            member_grads = agent._backward(cache, grad_out[n].astype(stacked.dtype), weights, masks)
            assert [(_bits(dw), _bits(db)) for dw, db in member_grads] == own[n][2]
    # the plain nets that Mlp.stack returns view their members
    for (_, plain), members in stacks[:2]:
        for member, n in zip(plain, members):
            assert _bits(member.forward(x)) == _bits(nets[n].forward(x))


# every plain net and every stacked net of SacNetworks
NETS_AND_STACKS = (*SacNetworks.NETWORKS, "stacked", "next_state", "trained", "critics", "target_critics")

# above the gate at the paper's widths: 128 rows x 105,002 parameters per net
PAPER_SAC = SacConfig(batch_size=128, memory_capacity=200, warmup_transitions=16)
OUT_OF_REACH = 1 << 62


def _update_bits(trainer, updates):
    """The losses of ``updates`` updates, then every flat, every Adam
    moment and step count and the log temperature, as bits, and the pass
    buffers each net holds."""
    losses = [trainer.update() for _ in range(updates)]
    nets = trainer.nets
    return (np.array(losses).tobytes(),
            _bits(nets.stacked.flat),
            [(opt.t, _bits(opt.m), _bits(opt.v)) for opt in (trainer.opt_trained, trainer.opt_temperature)],
            nets.log_temperature.hex(),
            [sorted(getattr(nets, name)._buffers) for name in NETS_AND_STACKS])


def test_laned_updates_at_the_papers_widths_equal_serial_updates_bit_for_bit(monkeypatch):
    """Two lanes against one: at the paper's widths above the gate, and at
    32-32 widths in float32 and float64 with the gate forced to 0."""
    submit = ThreadPoolExecutor.submit
    for config, gate in ((PAPER_SAC, agent.THREADED_WORK), (SMALL_SAC, 0),
                         (dataclasses.replace(SMALL_SAC, dtype="float64"), 0)):
        runs = {}
        for threaded_work in (gate, OUT_OF_REACH):
            handoffs = []

            def counted(executor, *args, **kwargs):
                handoffs.append(1)
                return submit(executor, *args, **kwargs)

            monkeypatch.setattr(agent, "THREADED_WORK", threaded_work)
            monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
            trainer = _trainer(config=config)
            assert trainer.nets.actor.dims == (13, *config.widths, 2)
            _fill_memory(trainer, 160)
            runs[threaded_work] = _update_bits(trainer, 6)
            # phase 1, phase 2, each layer but the first of the actor's
            # backward, the first layer's beside the actor's Adam step: 6 at
            # the paper's widths
            per_update = trainer.nets.actor.n_layers + 2
            assert len(handoffs) == (0 if threaded_work == OUT_OF_REACH else per_update * 6)
            monkeypatch.undo()
        laned, serial = runs.values()
        assert laned == serial


def test_an_update_runs_six_forward_passes_on_two_lanes_and_two_on_one(monkeypatch):
    """Each loss reads the passes the update began with: the actor on the
    next states and on the states, and the target critics and the critics
    on theirs.  On two lanes one member per pass: 6 forward passes, the
    critics' 2 backward passes (the actor's is split by layer), and Adam
    steps in 5 parts, each critic's, the actor's two and the temperature's.
    On one lane a stack per pass: the next-state stack's and the trained
    stack's forward passes, the trained stack's backward, and 2 Adam parts,
    the trained vector's and the temperature's."""
    counted_calls = (("semsample.agent._forward", agent._forward), ("semsample.nets._forward", agent._forward),
                     ("semsample.agent._backward", agent._backward),
                     ("semsample.nets.Adam._step_part", Adam._step_part))
    for threaded_work, per_update in ((0, (6, 2, 5)), (OUT_OF_REACH, (2, 1, 2))):
        calls = {"_forward": 0, "_backward": 0, "_step_part": 0}

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        monkeypatch.setattr(agent, "THREADED_WORK", threaded_work)
        trainer = _trainer()
        _fill_memory(trainer, 16)
        for target, real in counted_calls:
            monkeypatch.setattr(target, counting(real.__name__, real))
        for _ in range(3):
            trainer.update()
        assert tuple(calls.values()) == tuple(3 * n for n in per_update)
        monkeypatch.undo()


def test_laned_updates_with_fast_thread_switches_equal_serial_updates(monkeypatch):
    """Two laned trainers, each driven from its own thread, so four threads
    share the cores, against one trainer's updates on one lane."""
    monkeypatch.setattr(agent, "THREADED_WORK", OUT_OF_REACH)
    trainer = _trainer(config=PAPER_SAC)
    _fill_memory(trainer, 160)
    want = _update_bits(trainer, 4)
    monkeypatch.undo()
    trainers = [_trainer(config=PAPER_SAC) for _ in range(2)]
    results: list = []

    def drive(trainer):
        try:
            _fill_memory(trainer, 160)
            results.append(_update_bits(trainer, 4) == want)
        except Exception as exc:  # reported by the assertion below
            results.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        drivers = [threading.Thread(target=drive, args=(trainer,)) for trainer in trainers]
        for driver in drivers:
            driver.start()
        for driver in drivers:
            driver.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(driver.is_alive() for driver in drivers)
    assert results == [True, True]


def test_a_lanes_error_is_raised_after_its_helper_has_finished():
    """Two lanes raise the calling thread's error after the helper has
    finished; one lane runs ``here`` and then ``there`` on the calling
    thread, so ``here``'s error ends the run."""
    for two in (True, False):
        lanes = agent._Lanes(two)
        helper_done = []

        def slow_failure():
            try:
                time.sleep(0.05)
                raise RuntimeError("the helper's")
            finally:
                helper_done.append(True)

        def failure():
            raise ValueError("the caller's")

        with pytest.raises(ValueError, match="the caller's"):
            lanes.run(failure, slow_failure)
        assert helper_done == ([True] if two else [])
        with pytest.raises(RuntimeError, match="the helper's"):
            lanes.run(lambda: None, slow_failure)
        assert helper_done == ([True, True] if two else [True])
        done = []
        lanes.run(lambda: done.append((0, threading.current_thread())),
                  lambda: done.append((1, threading.current_thread())))
        if two:
            assert sorted(k for k, _ in done) == [0, 1]
            assert dict(done)[0] is threading.current_thread() is not dict(done)[1]
        else:
            assert done == [(0, threading.current_thread()), (1, threading.current_thread())]


def test_a_trainers_one_helper_thread_ends_when_the_trainer_is_collected():
    """Above the gate a trainer starts one helper thread at its first
    update; below it, none."""
    for config, n_helpers in ((PAPER_SAC, 1), (SMALL_SAC, 0)):
        before = set(threading.enumerate())
        baseline = len(before)
        trainer = _trainer(config=config)
        laned = config.batch_size * trainer.nets.actor.flat.size > agent.THREADED_WORK
        assert laned == bool(n_helpers)
        _fill_memory(trainer, 128)
        # no thread starts before the first update
        assert not set(threading.enumerate()) - before
        for _ in range(2):
            trainer.update()
        helpers = set(threading.enumerate()) - before
        assert len(helpers) == n_helpers
        del trainer
        gc.collect()
        for helper in helpers:
            helper.join(timeout=10)
            assert not helper.is_alive()
        assert threading.active_count() <= baseline


def test_stacked_net_is_its_members_flats_end_to_end():
    nets = _twins(np.float32)
    stacked, (first, second) = Mlp.stack(nets)
    assert stacked.flat.tobytes() == nets[0].flat.tobytes() + nets[1].flat.tobytes()
    assert not any(np.shares_memory(stacked.flat, n.flat) for n in nets)  # a copy
    assert [w.shape for w in stacked.weights] == [(2, 7, 16), (2, 16, 8), (2, 8, 3)]
    assert [b.shape for b in stacked.biases] == [(2, 1, 16), (2, 1, 8), (2, 1, 3)]
    for net in (stacked, first, second):
        assert all(np.shares_memory(p, stacked.flat) for p in net.parameters())
    # writes through a member's views reach the stacked net, and back
    first.weights[1][2, 3] = 7.0
    second.biases[0][4] = -3.0
    assert stacked.weights[1][0, 2, 3] == 7.0 and stacked.biases[0][1, 0, 4] == -3.0
    stacked.flat[-1] = 11.0
    assert second.biases[-1][-1] == 11.0
    assert first.flat.tobytes() + second.flat.tobytes() == stacked.flat.tobytes()
    for member in (first, second):
        _assert_views_of_flat(member)
    clone = stacked.copy()
    assert clone.n_stacked == 2 and clone.flat.tobytes() == stacked.flat.tobytes()
    assert not np.shares_memory(clone.flat, stacked.flat)
    assert all(np.shares_memory(p, clone.flat) for p in clone.parameters())
    # a contiguous slice of a stack's members views their part of flat
    five, plain = Mlp.stack([*nets, *_twins(np.float32), nets[0]])
    middle = five.substack(slice(1, 4))
    assert middle.n_stacked == 3 and not middle._buffers
    assert middle.flat.tobytes() == b"".join(n.flat.tobytes() for n in plain[1:4])
    assert middle.flat.ctypes.data == plain[1].flat.ctypes.data
    middle.weights[0][1, 2, 3] = 5.0
    assert plain[2].weights[0][2, 3] == five.weights[0][2, 2, 3] == 5.0
    with pytest.raises(ValueError):
        five.substack(slice(0, 5, 2))  # not contiguous
    with pytest.raises(ValueError):
        Mlp.stack([nets[0], Mlp((7, 16, 3), np.random.default_rng(0))])
    with pytest.raises(ValueError):
        agent.soft_update(stacked, first, 0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_adam_step_and_soft_update_on_the_stack_equal_per_member_steps(dtype):
    nets = _twins(dtype)
    targets = [Mlp(n.dims, np.random.default_rng(9 + i), dtype) for i, n in enumerate(nets)]
    stacked, _ = Mlp.stack(nets)
    stacked_target, _ = Mlp.stack(targets)
    rng = np.random.default_rng(7)
    grads = [rng.normal(size=n.flat.size).astype(dtype) for n in nets]
    # each member's range at its own rate
    size = nets[0].flat.size
    joint = Adam(stacked.flat, ((slice(None, size), 1e-3), (slice(size, None), 3e-3)))
    own = [Adam(n.flat, lr) for n, lr in zip(nets, (1e-3, 3e-3))]
    for t in range(3):
        if t == 1:  # in parts, the first across the ranges' boundary
            bias = joint._count_step()
            for part in (slice(None, size + 5), slice(size + 5, None)):
                joint._step_part(bias, stacked.flat, np.concatenate(grads), part)
        else:
            joint.step(stacked.flat, np.concatenate(grads))
        for opt, net, g in zip(own, nets, grads):
            opt.step(net.flat, g)
        agent.soft_update(stacked_target, stacked, 0.2)
        for target, net in zip(targets, nets):
            agent.soft_update(target, net, 0.2)
    assert stacked.flat.tobytes() == b"".join(n.flat.tobytes() for n in nets)
    assert stacked_target.flat.tobytes() == b"".join(t.flat.tobytes() for t in targets)
    assert joint.m.tobytes() == b"".join(opt.m.tobytes() for opt in own)
    assert joint.v.tobytes() == b"".join(opt.v.tobytes() for opt in own)


def test_sac_critics_are_stacked_and_the_named_twins_view_them():
    nets = SacNetworks(5, SMALL_SAC, np.random.default_rng(0))
    for doc_nets in (nets, SacNetworks.from_dict(nets.to_dict(), SMALL_SAC)):
        for stacked, members in ((doc_nets.critics, ("q1", "q2")),
                                 (doc_nets.target_critics, ("target_q1", "target_q2")),
                                 (doc_nets.next_state, ("target_q1", "target_q2", "actor")),
                                 (doc_nets.trained, ("actor", "q1", "q2"))):
            assert stacked.n_stacked == len(members)
            assert stacked.flat.tobytes() == b"".join(getattr(doc_nets, t).flat.tobytes() for t in members)
            assert all(np.shares_memory(getattr(doc_nets, t).flat, stacked.flat) for t in members)
        assert not np.shares_memory(doc_nets.critics.flat, doc_nets.target_critics.flat)
        # a write through a plain net shows in every stack that holds it
        doc_nets.q1.weights[1][2, 3] = 7.0
        assert doc_nets.critics.weights[1][0, 2, 3] == doc_nets.trained.weights[1][1, 2, 3] == 7.0
        assert doc_nets.stacked.weights[1][3, 2, 3] == 7.0
        doc_nets.trained.biases[0][0, 0, 4] = -3.0
        assert doc_nets.actor.biases[0][4] == doc_nets.next_state.biases[0][2, 0, 4] == -3.0
        _assert_views_of_one_vector(doc_nets)


# -- packed snapshot -------------------------------------------------------

@pytest.mark.parametrize("dtype, stored", [(np.float32, "<f4"), (np.float64, "<f8")])
def test_a_net_packs_its_flat_as_little_endian_base64_and_reads_back_bit_for_bit(dtype, stored):
    net = Mlp((5, 4, 3, 2), np.random.default_rng(0), dtype)
    doc = json.loads(json.dumps(net.to_arrays()))
    assert doc["dtype"] == np.dtype(dtype).name and doc["stored"] == stored
    assert base64.b64decode(doc["flat"]) == net.flat.astype(stored).tobytes()
    loaded = Mlp.from_arrays(doc)
    assert loaded.dtype == net.dtype and loaded.dims == net.dims
    assert _bits(loaded.flat) == _bits(net.flat)


def test_every_snapshot_net_reads_back_bit_for_bit_the_stacked_members_too():
    trainer = _trainer()
    _fill_memory(trainer, 16)
    for _ in range(3):
        trainer.update()
    doc = json.loads(json.dumps(trainer.nets.to_dict()))
    assert doc["version"] == 3
    loaded = SacNetworks.from_dict(doc, SMALL_SAC)
    for name in SacNetworks.NETWORKS:  # every net is a view of the one vector
        assert _bits(getattr(loaded, name).flat) == _bits(getattr(trainer.nets, name).flat)
    assert loaded.log_temperature == trainer.nets.log_temperature
    # the document of nets that each own their parameters, in the keys'
    # order: the views pack the same bytes
    nets = trainer.nets
    own = {name: getattr(nets, name).copy() for name in SacNetworks.NETWORKS}
    assert all(own[name].n_stacked == 0 and own[name].flat.base is None for name in own)
    want = {"format": "semsample-sac-snapshot", "version": 3, "package_version": agent._pkg_version,
            "state_dim": nets.state_dim, "widths": list(SMALL_SAC.widths), "dtype": SMALL_SAC.dtype,
            "log_temperature": nets.log_temperature, **{name: own[name].to_arrays() for name in SacNetworks.NETWORKS}}
    assert json.dumps(nets.to_dict()) == json.dumps(want)
    assert json.dumps(loaded.to_dict()) == json.dumps(want)


def test_a_float32_net_read_as_float64_gets_the_float32_values_exactly():
    net = Mlp((5, 4, 3, 2), np.random.default_rng(0), np.float32)
    doc = {**net.to_arrays(), "dtype": "float64"}
    loaded = Mlp.from_arrays(doc)
    assert _bits(loaded.flat) == _bits(net.flat.astype(np.float64))


# -- reused buffers --------------------------------------------------------

@pytest.mark.parametrize("stacked", [False, True])
def test_a_later_forward_leaves_an_earlier_output_unchanged(stacked):
    net = Mlp.stack(_twins(np.float32))[0] if stacked else _twins(np.float32)[0]
    rng = np.random.default_rng(1)
    first = net.forward(rng.normal(size=(8, 7)))
    kept = first.copy()
    second = net.forward(rng.normal(size=(8, 7)))
    assert _bits(first) == _bits(kept) and not np.shares_memory(first, second)


def test_a_second_loss_call_leaves_the_first_calls_gradients_unchanged():
    trainer = _trainer()
    _fill_memory(trainer, 32)
    nets = trainer.nets
    batches = [trainer.memory.sample(16) for _ in range(2)]
    for loss_and_grads in (lambda b: agent.critic_loss_and_grads(nets, b)[1:],
                           lambda b: agent.actor_loss_and_grads(nets, b)[1:]):
        first = [a for grads in loss_and_grads(batches[0]) for pair in grads for a in pair]
        kept = [a.copy() for a in first]
        loss_and_grads(batches[1])
        assert [_bits(a) for a in first] == [_bits(a) for a in kept]


def test_a_warm_update_allocates_a_small_transient_peak():
    """At widths 64-64 and batch 256 on 153 features (a 150-wide chi
    window), the fresh arrays of one update are mainly the batch (313
    KiB); the passes run in the nets' buffers and the backward writes the
    gradients into the trainer's."""
    clip = generate_traffic(TrafficGenConfig(spawn_rate=0.3, seed=4), 80, "small")
    episode = EpisodeConfig(steps=30, predictor=PredictorConfig(grid_width=24, grid_height=16),
                            scaling=StateScaling(window=150), energy_scale=ENERGY_SCALE, seed=2)
    config = SacConfig(widths=(64, 64), batch_size=256, memory_capacity=512, warmup_transitions=256)
    trainer = Trainer(SamplingEnv(episode, [clip]), config, seed=3, scene_refresh_every=20)
    assert trainer.env.state_dim == 153
    _fill_memory(trainer, 256)
    for _ in range(2):
        trainer.update()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trainer.update()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 600 * 1024


def test_a_warm_update_shares_the_critics_buffers_and_keeps_no_deltas():
    trainer = _trainer()
    _fill_memory(trainer, 32)
    for _ in range(2):
        trainer.update()
    nets = trainer.nets
    # every pass of an update runs in the trained stack's buffers, which
    # the next-state stack shares, as the target critics share the critics'
    assert nets.next_state._buffers is nets.trained._buffers
    assert nets.target_critics._buffers is nets.critics._buffers
    buffer_sets = [key for buffers in {id(getattr(nets, name)._buffers): getattr(nets, name)._buffers
                                       for name in NETS_AND_STACKS}.values() for key in buffers]
    assert sorted(buffer_sets) == [("act", 16), ("mask", 16)]
    assert set(nets.trained._buffers) == {("act", 16), ("mask", 16)}


def _start(a):
    return a.__array_interface__["data"][0]


def test_a_laned_update_keeps_one_mask_block_per_member():
    """Each member's ReLU masks are views at the start of its own block of
    rows x the widest hidden layer, so the two lanes, which backpropagate
    different members at once, never write the same mask byte."""
    trainer = _trainer(config=PAPER_SAC)
    assert trainer.lane_count == 2
    _fill_memory(trainer, 160)
    trainer.update()
    trained = trainer.nets.trained
    rows, hidden = PAPER_SAC.batch_size, trained.dims[1:-1]
    masks = trained._buffers_for("mask", rows)
    assert [m.shape for m in masks] == [(trained.n_stacked, rows, d) for d in hidden]
    members = [[m[k] for m in masks] for k in range(trained.n_stacked)]
    for views in members:
        assert {_start(v) for v in views} == {_start(views[0])}
        assert all(np.shares_memory(v, views[0]) for v in views)
    for j, k in itertools.combinations(range(trained.n_stacked), 2):
        assert not any(np.shares_memory(a, b) for a in members[j] for b in members[k])
    block = rows * max(hidden)
    assert [_start(views[0]) - _start(members[0][0]) for views in members] == [
        k * block for k in range(trained.n_stacked)]
    assert masks[0].base.nbytes == trained.n_stacked * block


def test_adam_step_leaves_its_gradient_and_a_part_step_in_a_copy_gives_the_textbook_bits():
    """``step`` copies its gradient; ``_step_part`` writes its scratch into
    the gradient it is handed, beside one float scratch array of its own."""
    rng = np.random.default_rng(4)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for dtype in (np.float32, np.float64):
        start = rng.normal(size=7).astype(dtype)
        public, part, ref = start.copy(), start.copy(), start.copy()
        opts = Adam(public, 1e-3), Adam(part, 1e-3)
        assert [a.dtype.kind for a in opts[1]._scratch] == ["f", "b"]
        m, v = np.zeros_like(ref), np.zeros_like(ref)
        for t in range(1, 4):
            g = rng.normal(size=7).astype(dtype)
            kept = g.copy()
            opts[0].step(public, g)
            assert _bits(g) == _bits(kept)
            opts[1]._step_part(opts[1]._count_step(), part, g.copy())
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            ref -= 1e-3 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert _bits(public) == _bits(part) == _bits(ref)


def test_adam_flushes_subnormal_moments_after_a_textbook_step():
    for dtype in (np.float32, np.float64):
        tiny = np.finfo(dtype).tiny
        # a stopped gradient: the moments hold subnormals, normals and zeros
        m = np.array([tiny / 4, -tiny / 2, tiny * 2, -0.3, 0.0], dtype)
        v = np.array([tiny / 8, tiny / 2, tiny * 1.5, 0.2, 0.0], dtype)
        param = np.array([0.5, -1.5, 2.0, 0.25, -0.75], dtype)
        opt = Adam(param, 1e-3)
        opt.t = 5
        opt.m[...] = m
        opt.v[...] = v
        ref = param.copy()
        opt.step(param, np.zeros(5, dtype))
        m *= opt.beta1
        v *= opt.beta2
        ref -= 1e-3 * (m / (1.0 - opt.beta1**6)) / (np.sqrt(v / (1.0 - opt.beta2**6)) + opt.eps)
        assert _bits(param) == _bits(ref)
        for got, want in ((opt.m, m), (opt.v, v)):
            assert not np.any((got != 0) & (np.abs(got) < tiny))
            # a flushed negative entry reads +0.0, as a written 0 does
            assert _bits(got) == _bits(np.where(np.abs(want) < tiny, dtype(0), want))


def test_adam_equals_the_textbook_step_with_fresh_temporaries_bit_for_bit():
    rng = np.random.default_rng(2)
    for dtype in (np.float32, np.float64):
        params = [rng.normal(size=(4, 3)).astype(dtype), np.array(0.5, dtype)]
        ref = [p.copy() for p in params]
        opts = [Adam(p, 1e-3) for p in params]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 4):
            grads = [rng.normal(size=p.shape).astype(dtype) for p in params]
            for opt, p, g in zip(opts, params, grads):
                opt.step(p, g)
            for p, g, mi, vi in zip(ref, grads, m, v):
                mi *= b1
                mi += (1.0 - b1) * g
                vi *= b2
                vi += (1.0 - b2) * np.square(g)
                p -= 1e-3 * (mi / (1.0 - b1**t)) / (np.sqrt(vi / (1.0 - b2**t)) + eps)
            assert [_bits(p) for p in params] == [_bits(p) for p in ref]


def test_soft_update_in_blocks_equals_the_one_pass_blend_bit_for_bit():
    rng = np.random.default_rng(3)
    source, target = (Mlp((200, 100, 2), rng) for _ in range(2))
    assert source.flat.size > agent.SOFT_UPDATE_BLOCK
    ref = target.flat.copy()
    ref *= 1.0 - 0.2
    ref += 0.2 * source.flat
    agent.soft_update(target, source, 0.2)
    assert _bits(target.flat) == _bits(ref)
