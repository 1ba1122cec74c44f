import numpy as np
import pytest

from semsample.agent import ReplayMemory, Transition


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
