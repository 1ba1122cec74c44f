import base64
import dataclasses
import gc
import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from semsample import agent, nets as nets_module
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


def test_state_features_scale_bits_and_chi_and_end_in_the_gain_feature():
    scaling = StateScaling(window=4, chi_cap=8.0)
    chi = np.array([4.0, 2.0, 0.0, 8.0, 1.0])
    features = scaling.features(44, chi)
    assert features.shape == (4 + 3,) == (scaling.state_dim,)
    assert features.dtype == np.float64
    assert features[0] == 44 / 1408
    np.testing.assert_array_equal(features[1:-1], [0.5, 0.25, 0.0, 1.0, 0.125])
    assert features[-1] == 1.0
    with pytest.raises(ValueError, match="chi window must have length 5"):
        scaling.features(44, np.zeros(4))


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

    def recording(nets, batch, target_entropy):
        batches.append(batch)
        return temperature_loss_and_grad(nets, batch, target_entropy)

    monkeypatch.setattr(agent, "temperature_loss_and_grad", recording)
    before = trainer.nets.log_temperature
    trainer.update()
    after = trainer.nets.log_temperature
    assert isinstance(after, float)
    # the actor is not touched after its step, so re-evaluating the loss at
    # the old temperature gives the gradient the update used
    trainer.nets.log_temperature = before
    _, g = temperature_loss_and_grad(trainer.nets, batches[0], SMALL_SAC.target_entropy)
    step = SMALL_SAC.temperature_lr * g / (abs(g) + 1e-8)
    assert g != 0
    assert after - before == pytest.approx(-step, rel=1e-9)


def test_load_networks_restarts_every_optimizer():
    trainer = _trainer()
    _fill_memory(trainer, 16)
    for _ in range(3):
        trainer.update()
    optimizers = [trainer.opt_critics, trainer.opt_actor, trainer.opt_temperature]
    assert [opt.t for opt in optimizers] == [3, 3, 3]
    trainer.load_networks(SacNetworks.from_dict(trainer.nets.to_dict(), SMALL_SAC))
    optimizers = [trainer.opt_critics, trainer.opt_actor, trainer.opt_temperature]
    assert [opt.t for opt in optimizers] == [0, 0, 0]
    assert optimizers[0].m[0].size == 2 * trainer.nets.q1.flat.size
    for opt in optimizers:
        assert not any(m.any() for m in opt.m) and not any(v.any() for v in opt.v)


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
    trainer.load_networks(SacNetworks.from_dict(trainer.nets.to_dict(), SMALL_SAC))
    trainer.update()
    for name in SacNetworks.NETWORKS:
        _assert_views_of_flat(getattr(trainer.nets, name))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_flat_updates_equal_per_array_adam_and_soft_updates(dtype):
    """Five updates on the flat vectors equal, bit for bit, per-array Adam
    steps and per-array soft updates on a copy of the networks."""
    config = dataclasses.replace(SMALL_SAC, dtype=dtype)
    trainer = _trainer(config=config)
    _fill_memory(trainer, 16)
    ref = SacNetworks.from_dict(trainer.nets.to_dict(), config)
    opts = {name: Adam(getattr(ref, name).parameters(), lr)
            for name, lr in (("q1", config.critic_lr), ("q2", config.critic_lr),
                             ("actor", config.actor_lr))}
    opt_t = Adam([np.zeros(())], config.temperature_lr)
    batches = []
    sample = trainer.memory.sample

    def recording(*args):
        batches.append(sample(*args))
        return batches[-1]

    trainer.memory.sample = recording

    def step(name, grads):
        opts[name].step(getattr(ref, name).parameters(), [a for pair in grads for a in pair])

    for _ in range(5):
        trainer.update()
        batch = batches[-1]
        _, g1, g2 = agent.critic_loss_and_grads(ref, batch)
        step("q1", g1)
        step("q2", g2)
        step("actor", agent.actor_loss_and_grads(ref, batch)[1])
        _, g_log_t = temperature_loss_and_grad(ref, batch, config.target_entropy)
        log_t = np.array(ref.log_temperature)
        opt_t.step([log_t], [np.array(g_log_t)])
        ref.log_temperature = float(log_t)
        for target, source in ((ref.target_q1, ref.q1), (ref.target_q2, ref.q2)):
            for tp, sp in zip(target.parameters(), source.parameters()):
                tp *= 1.0 - config.tau
                tp += config.tau * sp

        assert trainer.nets.log_temperature == ref.log_temperature
        for name in SacNetworks.NETWORKS:
            for got, want in zip(getattr(trainer.nets, name).parameters(), getattr(ref, name).parameters()):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        # the twins share one optimizer over [q1.flat | q2.flat]: each
        # member's moments are its half of the joint ones
        halves = {"q1": slice(None, ref.q1.flat.size), "q2": slice(ref.q1.flat.size, None),
                  "actor": slice(None)}
        for name, opt in opts.items():
            flat_opt = trainer.opt_actor if name == "actor" else trainer.opt_critics
            assert flat_opt.t == opt.t
            half = halves[name]
            assert np.array_equal(flat_opt.m[0][half], np.concatenate([m.ravel() for m in opt.m]))
            assert np.array_equal(flat_opt.v[0][half], np.concatenate([v.ravel() for v in opt.v]))


# -- stacked twin critics --------------------------------------------------

# the paper's critic on the default config's features
PAPER_DIMS = (StateScaling().state_dim, *SacConfig().widths, SacNetworks.N_ACTIONS)


def _twins(dtype, dims=(7, 16, 8, 3)):
    rng = np.random.default_rng(5)
    return Mlp(dims, rng, dtype), Mlp(dims, rng, dtype)


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 64, 1024])
def test_stacked_passes_equal_each_members_own_pass_bit_for_bit(dtype, rows):
    # 1,024 rows at the paper's widths is above the gate, so the members run
    # on two threads; the small cases stay serial
    dims = PAPER_DIMS if rows == 1024 else (7, 16, 8, 3)
    nets = _twins(dtype, dims)
    stacked, members = Mlp.stack(nets)
    assert stacked._threaded(rows) == (rows == 1024)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(rows, dims[0]))
    grad_out = rng.normal(size=(2, rows, dims[-1]))
    # batch 1 goes in as one 1-D state, as select_action passes it
    out, cache = stacked.forward_cached(x[0] if rows == 1 else x)
    assert out.shape == (2, rows, dims[-1])
    own_passes = [own.forward_cached(x[0] if rows == 1 else x) for own in nets]
    for j, (own_out, own_cache) in enumerate(own_passes):
        assert _bits(out[j]) == _bits(own_out)
        assert _bits(cache[0]) == _bits(own_cache[0])
        for got, want in zip(cache[1:], own_cache[1:]):
            assert _bits(got[j]) == _bits(want)
    # backward consumes its cache, so the caches are compared before it runs
    grads = stacked.backward(cache, grad_out)
    for j, (own, (_, own_cache)) in enumerate(zip(nets, own_passes)):
        for (dw, db), (own_dw, own_db) in zip(grads, own.backward(own_cache, grad_out[j])):
            assert _bits(dw[j]) == _bits(own_dw) and _bits(db[j]) == _bits(own_db)
        assert _bits(members[j].forward(x)) == _bits(own.forward(x))


def _member_bits(nets, x, grad_out):
    """Each member's own serial output and gradients, as bits."""
    bits = []
    for own, g in zip(nets, grad_out):
        out, cache = own.forward_cached(x)
        bits.append((_bits(out), [(_bits(dw), _bits(db)) for dw, db in own.backward(cache, g)]))
    return bits


def _stacked_bits(stacked, x, grad_out):
    """A stacked net's forward and backward, split into its members' bits."""
    out, cache = stacked.forward_cached(x)
    grads = stacked.backward(cache, grad_out)
    return [(_bits(out[j]), [(_bits(dw[j]), _bits(db[j])) for dw, db in grads])
            for j in range(stacked.n_stacked)]


def test_threaded_passes_with_fast_thread_switches_equal_the_members_own_passes():
    """Two stacked nets, each driven from its own thread, so four threads
    share the cores; each alternates two row counts above the gate, so the
    pass buffers of each are reused."""
    nets = _twins(np.float32, PAPER_DIMS)
    rng = np.random.default_rng(8)
    inputs = {rows: (rng.normal(size=(rows, PAPER_DIMS[0])), rng.normal(size=(2, rows, PAPER_DIMS[-1])))
              for rows in (64, 96)}
    want = {rows: _member_bits(nets, x, g) for rows, (x, g) in inputs.items()}
    stacks = [Mlp.stack(nets)[0] for _ in range(2)]
    assert all(stacked._threaded(rows) for stacked in stacks for rows in inputs)
    results: list = []

    def drive(stacked):
        try:
            for i in range(30):
                rows = (64, 96)[i % 2]
                results.append(_stacked_bits(stacked, *inputs[rows]) == want[rows])
        except Exception as exc:  # reported by the assertion below
            results.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        drivers = [threading.Thread(target=drive, args=(stacked,)) for stacked in stacks]
        for driver in drivers:
            driver.start()
        for driver in drivers:
            driver.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(driver.is_alive() for driver in drivers)
    assert results == [True] * 60


def test_a_threaded_pass_raises_the_serial_error_after_its_helper_has_finished(monkeypatch):
    nets = _twins(np.float32, PAPER_DIMS)
    stacked, _ = Mlp.stack(nets)
    rng = np.random.default_rng(9)
    x, grad_out = rng.normal(size=(1024, PAPER_DIMS[0])), rng.normal(size=(2, 1024, PAPER_DIMS[-1]))
    wide = rng.normal(size=(1024, PAPER_DIMS[0] + 1))
    assert stacked._threaded(1024)
    with pytest.raises(ValueError) as serial:
        nets[0].forward_cached(wide)
    caller, helper_done, real_forward = threading.get_ident(), [], nets_module._forward

    def slow_on_the_helper(*args):
        if threading.get_ident() == caller:
            return real_forward(*args)
        try:
            time.sleep(0.05)
            return real_forward(*args)
        finally:
            helper_done.append(True)

    monkeypatch.setattr(nets_module, "_forward", slow_on_the_helper)
    with pytest.raises(ValueError) as threaded:
        stacked.forward_cached(wide)
    assert helper_done == [True]
    assert str(threaded.value) == str(serial.value)
    monkeypatch.undo()
    assert _stacked_bits(stacked, x, grad_out) == _member_bits(nets, x, grad_out)


def test_a_trainers_one_helper_thread_ends_when_the_trainer_is_collected():
    config = SacConfig(batch_size=128, memory_capacity=200, warmup_transitions=16)
    before = set(threading.enumerate())
    baseline = len(before)
    trainer = _trainer(config=config)
    assert config.widths == SacConfig().widths and trainer.nets.critics._threaded(128)
    _fill_memory(trainer, 128)
    # no thread starts before the first threaded pass
    assert not set(threading.enumerate()) - before
    trainer.update()
    # the critics and their targets share one helper
    helpers = set(threading.enumerate()) - before
    assert len(helpers) == 1
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
    joint = Adam([stacked.flat], 1e-3)
    own = [Adam([n.flat], 1e-3) for n in nets]
    for _ in range(3):
        joint.step([stacked.flat], [np.concatenate(grads)])
        for opt, net, g in zip(own, nets, grads):
            opt.step([net.flat], [g])
        agent.soft_update(stacked_target, stacked, 0.2)
        for target, net in zip(targets, nets):
            agent.soft_update(target, net, 0.2)
    assert stacked.flat.tobytes() == b"".join(n.flat.tobytes() for n in nets)
    assert stacked_target.flat.tobytes() == b"".join(t.flat.tobytes() for t in targets)
    assert joint.m[0].tobytes() == b"".join(opt.m[0].tobytes() for opt in own)
    assert joint.v[0].tobytes() == b"".join(opt.v[0].tobytes() for opt in own)


def test_sac_critics_are_stacked_and_the_named_twins_view_them():
    nets = SacNetworks(5, SMALL_SAC, np.random.default_rng(0))
    for doc_nets in (nets, SacNetworks.from_dict(nets.to_dict(), SMALL_SAC)):
        for stacked, twins in ((doc_nets.critics, ("q1", "q2")),
                               (doc_nets.target_critics, ("target_q1", "target_q2"))):
            assert stacked.n_stacked == 2
            assert stacked.flat.tobytes() == b"".join(getattr(doc_nets, t).flat.tobytes() for t in twins)
            assert all(np.shares_memory(getattr(doc_nets, t).flat, stacked.flat) for t in twins)
        assert not np.shares_memory(doc_nets.critics.flat, doc_nets.target_critics.flat)


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
    assert doc["version"] == 2
    loaded = SacNetworks.from_dict(doc, SMALL_SAC)
    for name in SacNetworks.NETWORKS:  # q1 and target_q2 are views of stacked nets
        assert _bits(getattr(loaded, name).flat) == _bits(getattr(trainer.nets, name).flat)
    assert loaded.log_temperature == trainer.nets.log_temperature


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
    """At widths 64-64 and batch 256 on the default 153 features, the
    fresh arrays of one update are the batch (313 KiB) and the gradients
    (110 KiB); the passes run in the nets' buffers."""
    clip = generate_traffic(TrafficGenConfig(spawn_rate=0.3, seed=4), 80, "small")
    episode = EpisodeConfig(steps=30, predictor=PredictorConfig(grid_width=24, grid_height=16),
                            energy_scale=ENERGY_SCALE, seed=2)
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
    assert nets.target_critics._buffers is nets.critics._buffers
    assert set(nets.critics._buffers) == {("act", 16), ("mask", 16)}
    for name in ("actor", "critics", "target_critics", *SacNetworks.NETWORKS[1:]):
        assert {kind for kind, _ in getattr(nets, name)._buffers} <= {"act", "mask"}, name


def test_adam_flushes_subnormal_moments_after_a_textbook_step():
    for dtype in (np.float32, np.float64):
        tiny = np.finfo(dtype).tiny
        # a stopped gradient: the moments hold subnormals, normals and zeros
        m = np.array([tiny / 4, -tiny / 2, tiny * 2, -0.3, 0.0], dtype)
        v = np.array([tiny / 8, tiny / 2, tiny * 1.5, 0.2, 0.0], dtype)
        params = [np.array([0.5, -1.5, 2.0, 0.25, -0.75], dtype)]
        opt = Adam(params, 1e-3)
        opt.t = 5
        opt.m[0][...] = m
        opt.v[0][...] = v
        ref = params[0].copy()
        opt.step(params, [np.zeros(5, dtype)])
        m *= opt.beta1
        v *= opt.beta2
        ref -= 1e-3 * (m / (1.0 - opt.beta1**6)) / (np.sqrt(v / (1.0 - opt.beta2**6)) + opt.eps)
        assert _bits(params[0]) == _bits(ref)
        for got, want in ((opt.m[0], m), (opt.v[0], v)):
            assert not np.any((got != 0) & (np.abs(got) < tiny))
            assert np.array_equal(got, np.where(np.abs(want) < tiny, 0, want))


def test_adam_equals_the_textbook_step_with_fresh_temporaries_bit_for_bit():
    rng = np.random.default_rng(2)
    for dtype in (np.float32, np.float64):
        params = [rng.normal(size=(4, 3)).astype(dtype), np.array(0.5, dtype)]
        ref = [p.copy() for p in params]
        opt = Adam(params, 1e-3)
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 4):
            grads = [rng.normal(size=p.shape).astype(dtype) for p in params]
            opt.step(params, grads)
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
