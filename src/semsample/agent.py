"""The semantic sampling agent: a discrete soft actor-critic.

The agent observes the pending packet size, a sliding window of semantic
change values and the average channel gain, and decides once per sensing
interval whether to transmit.  Because the action space is binary, every
expectation over actions in the actor, critic and temperature losses is a
two-term sum evaluated exactly; no sampling estimator is involved.  All
gradients are analytic (see :mod:`semsample.nets`) and are checked against
finite differences in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from . import __version__ as _pkg_version
from .nets import Adam, Mlp

__all__ = [
    "RewardConfig",
    "reward",
    "AgentState",
    "StateScaling",
    "Transition",
    "ReplayMemory",
    "SacConfig",
    "SacNetworks",
    "softmax",
    "log_softmax",
    "critic_loss_and_grads",
    "actor_loss_and_grads",
    "temperature_loss_and_grad",
    "soft_update",
    "select_action",
    "Environment",
    "EpisodeStats",
    "Trainer",
    "TrainingDiverged",
]

MAX_PACKET_BITS = 64 * 22  # framing cap times record size


@dataclass(frozen=True)
class RewardConfig:
    """Reward weights and the deviation penalty parameters."""

    w1: float = 10.0
    w2: float = -6.0
    w3: float = 1.0
    w4: float = 2.0
    deviation_threshold: float = 0.07
    penalty: float = 0.5


def reward(action: int, energy_j: float, penalized_dev: float, cfg: RewardConfig) -> float:
    """Immediate reward: energy cost when sampling, deviation cost when not.

    ``energy_j`` is in joules and enters the sampling branch in millijoules,
    so that typical per-packet energies land near w1 * E ~ 0.1.
    """
    if action == 1:
        if energy_j < 0:
            raise ValueError("energy must be >= 0")
        return cfg.w2 * math.log(1.0 + cfg.w1 * energy_j * 1e3)
    if not 0.0 <= penalized_dev <= 1.0:
        raise ValueError(f"penalized deviation must be in [0,1], got {penalized_dev}")
    return cfg.w3 - math.exp(cfg.w4 * penalized_dev - 1.0)


@dataclass(frozen=True)
class AgentState:
    """Raw observation: packet bits, change-degree window, average gain.

    ``chi_window`` holds [chi_t, chi_{t-1}, ...] with zero padding before
    history exists.  ``gap`` (intervals since the last sample) is an optional
    extra feature, disabled by default.
    """

    packet_bits: int
    chi_window: np.ndarray
    gain: float
    gap: int = 0


@dataclass(frozen=True)
class StateScaling:
    """Feature scaling so the networks see inputs roughly in [0, 1]."""

    window: int = 150
    chi_cap: float = 16.0
    gain_nominal: float = 1.0
    include_gap: bool = False
    gap_cap: float = 25.0

    @property
    def state_dim(self) -> int:
        return self.window + 3 + (1 if self.include_gap else 0)

    def features(self, state: AgentState) -> np.ndarray:
        if state.chi_window.shape != (self.window + 1,):
            raise ValueError(
                f"chi window must have length {self.window + 1}, got {state.chi_window.shape}"
            )
        parts = [
            np.array([state.packet_bits / MAX_PACKET_BITS], dtype=np.float64),
            np.asarray(state.chi_window, dtype=np.float64) / self.chi_cap,
            np.array([state.gain / self.gain_nominal], dtype=np.float64),
        ]
        if self.include_gap:
            parts.append(np.array([min(state.gap, self.gap_cap) / self.gap_cap]))
        return np.concatenate(parts)


@dataclass(frozen=True)
class Transition:
    """One interaction step; states are stored as feature vectors.

    ``terminal`` marks the last step of the episode horizon, where the
    bootstrap value of the next state is taken as zero.
    """

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool = False


@dataclass
class Batch:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray


class ReplayMemory:
    """FIFO ring of transitions with uniform no-replacement batch sampling.

    Feature vectors are stored as float32 to halve the footprint; batches
    are cast to the caller's dtype on the way out.  Each state is stored
    once: the next state of slot i is the state of slot i + 1, the
    following push.  A next state that differs from it (zeros at a
    terminal step, a new stream after a reset) is kept aside, as is the
    next state of the newest slot.
    """

    def __init__(self, capacity: int, state_dim: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.rng = rng
        self._states = np.zeros((self.capacity, state_dim), dtype=np.float32)
        self._actions = np.zeros(self.capacity, dtype=np.int8)
        self._rewards = np.zeros(self.capacity, dtype=np.float32)
        self._terminals = np.zeros(self.capacity, dtype=bool)
        self._aside: dict[int, np.ndarray] = {}  # slot -> its next state
        self._has_aside = np.zeros(self.capacity, dtype=bool)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        i = self._head
        self._states[i] = transition.state
        if self._size:
            prev = (i - 1) % self.capacity
            # compare bits, so that a -0.0 is not read back as 0.0
            if self._aside[prev].tobytes() == self._states[i].tobytes():
                del self._aside[prev]
                self._has_aside[prev] = False
        self._actions[i] = transition.action
        self._rewards[i] = transition.reward
        self._terminals[i] = transition.terminal
        self._aside[i] = np.array(transition.next_state, dtype=np.float32)
        self._has_aside[i] = True
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, dtype=np.float32) -> Batch:
        if batch_size > self._size:
            raise ValueError(f"cannot sample {batch_size} from {self._size} stored")
        idx = self.rng.choice(self._size, size=batch_size, replace=False)
        next_states = self._states[(idx + 1) % self.capacity]
        for row in np.flatnonzero(self._has_aside[idx]):
            next_states[row] = self._aside[int(idx[row])]
        return Batch(
            states=self._states[idx].astype(dtype),
            actions=self._actions[idx].astype(np.int64),
            rewards=self._rewards[idx].astype(dtype),
            next_states=next_states.astype(dtype),
            terminals=self._terminals[idx],
        )


@dataclass(frozen=True)
class SacConfig:
    """Hyperparameters of the discrete soft actor-critic."""

    widths: tuple[int, ...] = (300, 200, 200)
    batch_size: int = 1024
    memory_capacity: int = 100_000
    actor_lr: float = 1e-5
    critic_lr: float = 2e-5
    temperature_lr: float = 1e-5
    tau: float = 0.2
    gamma: float = 1.0
    target_entropy: float = -1.0
    initial_temperature: float = 1.0
    warmup_transitions: int = 2000
    adam_betas: tuple[float, float] = (0.9, 0.999)
    dtype: str = "float32"


class SacNetworks:
    """Actor, twin critics with soft-updated targets, and the temperature."""

    N_ACTIONS = 2

    def __init__(self, state_dim: int, config: SacConfig, rng: np.random.Generator):
        dims = (state_dim, *config.widths, self.N_ACTIONS)
        dtype = np.dtype(config.dtype)
        # twin critics draw independent initial weights: identically
        # initialized twins would stay identical and defeat the min() guard
        self.actor = Mlp(dims, rng, dtype)
        self.q1 = Mlp(dims, rng, dtype)
        self.q2 = Mlp(dims, rng, dtype)
        self.target_q1 = self.q1.copy()
        self.target_q2 = self.q2.copy()
        self.log_temperature = float(math.log(config.initial_temperature))
        self.state_dim = state_dim
        self.config = config

    @property
    def temperature(self) -> float:
        return math.exp(self.log_temperature)

    def action_probs(self, states: np.ndarray) -> np.ndarray:
        return softmax(self.actor.forward(states))

    def to_dict(self) -> dict:
        return {
            "format": "semsample-sac-snapshot",
            "version": 1,
            "package_version": _pkg_version,
            "state_dim": self.state_dim,
            "widths": list(self.config.widths),
            "dtype": self.config.dtype,
            "log_temperature": self.log_temperature,
            "actor": self.actor.to_arrays(),
            "q1": self.q1.to_arrays(),
            "q2": self.q2.to_arrays(),
            "target_q1": self.target_q1.to_arrays(),
            "target_q2": self.target_q2.to_arrays(),
        }

    @classmethod
    def from_dict(cls, doc: dict, config: SacConfig) -> "SacNetworks":
        if doc.get("format") != "semsample-sac-snapshot" or doc.get("version") != 1:
            raise ValueError("unrecognized snapshot format")
        nets = object.__new__(cls)
        nets.state_dim = int(doc["state_dim"])
        nets.config = config
        nets.actor = Mlp.from_arrays(doc["actor"])
        nets.q1 = Mlp.from_arrays(doc["q1"])
        nets.q2 = Mlp.from_arrays(doc["q2"])
        nets.target_q1 = Mlp.from_arrays(doc["target_q1"])
        nets.target_q2 = Mlp.from_arrays(doc["target_q2"])
        nets.log_temperature = float(doc["log_temperature"])
        expected = (nets.state_dim, *config.widths, cls.N_ACTIONS)
        if nets.actor.dims != expected:
            raise ValueError(
                f"snapshot shapes {nets.actor.dims} incompatible with config {expected}"
            )
        return nets


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _policy_terms(nets: SacNetworks, states: np.ndarray):
    logits, cache = nets.actor.forward_cached(states)
    logp = log_softmax(logits)
    probs = np.exp(logp)
    return probs, logp, cache


def critic_targets(nets: SacNetworks, batch: Batch) -> np.ndarray:
    """Soft Bellman targets: reward plus the entropy-regularized value of the
    next state under the current policy and the min of the target critics."""
    probs, logp, _ = _policy_terms(nets, batch.next_states)
    q_next = np.minimum(
        nets.target_q1.forward(batch.next_states),
        nets.target_q2.forward(batch.next_states),
    )
    v_next = (probs * (q_next - nets.temperature * logp)).sum(axis=1)
    cont = (~batch.terminals).astype(v_next.dtype)
    return batch.rewards + nets.config.gamma * cont * v_next


def critic_loss_and_grads(nets: SacNetworks, batch: Batch):
    """Half mean squared Bellman error for both critics (shared targets).

    Returns (loss, grads_q1, grads_q2); the loss is the sum of the two
    critic losses and targets are treated as constants.
    """
    y = critic_targets(nets, batch)
    n = batch.states.shape[0]
    rows = np.arange(n)
    loss = 0.0
    grads = []
    for q in (nets.q1, nets.q2):
        out, cache = q.forward_cached(batch.states)
        diff = out[rows, batch.actions] - y
        loss += float(0.5 * np.mean(diff**2))
        d_out = np.zeros_like(out)
        d_out[rows, batch.actions] = diff / n
        grads.append(q.backward(cache, d_out))
    return loss, grads[0], grads[1]


def actor_loss_and_grads(nets: SacNetworks, batch: Batch):
    """Expected (temperature * log pi - min Q) under the policy, with the
    expectation over the two actions computed exactly.  Critics are constant.
    """
    probs, logp, cache = _policy_terms(nets, batch.states)
    q_min = np.minimum(nets.q1.forward(batch.states), nets.q2.forward(batch.states))
    f = nets.temperature * logp - q_min
    per_state = (probs * f).sum(axis=1, keepdims=True)
    loss = float(per_state.mean())
    n = batch.states.shape[0]
    # d/dlogits of sum_a pi_a (T log pi_a - Q_a) = pi_b (f_b - E_pi[f])
    d_logits = probs * (f - per_state) / n
    grads = nets.actor.backward(cache, d_logits)
    return loss, grads


def temperature_loss_and_grad(nets: SacNetworks, batch: Batch, target_entropy: float):
    """Temperature loss T * (H(pi) - target H), pi treated as constant.

    Returns (loss, gradient w.r.t. log temperature); descending on the log
    keeps the temperature positive.
    """
    probs, logp, _ = _policy_terms(nets, batch.states)
    entropy = float(-(probs * logp).sum(axis=1).mean())
    theta = nets.temperature
    loss = theta * (entropy - target_entropy)
    grad_log_theta = theta * (entropy - target_entropy)
    return loss, grad_log_theta


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """Blend target parameters toward the source: target = tau*source + (1-tau)*target."""
    t_params = target.parameters()
    s_params = source.parameters()
    for tp, sp in zip(t_params, s_params):
        if tp.shape != sp.shape:
            raise ValueError(f"shape mismatch {tp.shape} vs {sp.shape}")
        tp *= 1.0 - tau
        tp += tau * sp


def select_action(
    features: np.ndarray,
    nets: SacNetworks,
    mode: str = "stochastic",
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Pick an action from the policy: sample it, or take the argmax."""
    probs = nets.action_probs(features)[0]
    if mode == "greedy":
        return int(np.argmax(probs))
    if mode == "stochastic":
        if rng is None:
            raise ValueError("stochastic selection needs an rng")
        return int(rng.random() < probs[1])
    raise ValueError(f"unknown mode {mode!r}")


class Environment(Protocol):
    """MDP contract the trainer drives (implemented by the simulator)."""

    state_dim: int

    def reset(self, new_scene: bool = True) -> np.ndarray: ...

    def step(self, action: int) -> tuple[np.ndarray, float, bool, dict]: ...


@dataclass
class EpisodeStats:
    episode: int
    cumulative_reward: float
    total_energy_j: float
    mean_deviation: float
    sample_count: int


class TrainingDiverged(RuntimeError):
    """A loss became non-finite; training aborted."""


class Trainer:
    """Runs episodes against an environment, one gradient step per env step.

    The scene is re-randomized every ``scene_refresh_every`` episodes; within
    a block every episode replays the same initial scene.
    """

    def __init__(
        self,
        env: Environment,
        config: SacConfig,
        seed: int = 0,
        scene_refresh_every: int = 20,
    ):
        self.env = env
        self.config = config
        self.scene_refresh_every = scene_refresh_every
        root = np.random.SeedSequence(seed)
        init_ss, action_ss, replay_ss = root.spawn(3)
        self.nets = SacNetworks(env.state_dim, config, np.random.default_rng(init_ss))
        self.action_rng = np.random.default_rng(action_ss)
        self.memory = ReplayMemory(
            config.memory_capacity, env.state_dim, np.random.default_rng(replay_ss)
        )
        betas = config.adam_betas
        self.opt_q1 = Adam(self.nets.q1.parameters(), config.critic_lr, betas)
        self.opt_q2 = Adam(self.nets.q2.parameters(), config.critic_lr, betas)
        self.opt_actor = Adam(self.nets.actor.parameters(), config.actor_lr, betas)
        self._temp_m = 0.0
        self._temp_v = 0.0
        self._temp_t = 0
        self.gradient_steps = 0
        self.episodes_trained = 0

    def load_networks(self, nets: SacNetworks) -> None:
        """Adopt previously trained networks (optimizer state starts fresh)."""
        if nets.state_dim != self.env.state_dim:
            raise ValueError(
                f"snapshot state_dim {nets.state_dim} != env state_dim {self.env.state_dim}"
            )
        cfg = self.config
        self.nets = nets
        self.opt_q1 = Adam(nets.q1.parameters(), cfg.critic_lr, cfg.adam_betas)
        self.opt_q2 = Adam(nets.q2.parameters(), cfg.critic_lr, cfg.adam_betas)
        self.opt_actor = Adam(nets.actor.parameters(), cfg.actor_lr, cfg.adam_betas)
        self._temp_m = self._temp_v = 0.0
        self._temp_t = 0

    def update(self) -> tuple[float, float, float]:
        """One gradient step on a sampled batch; returns the three losses."""
        cfg = self.config
        dtype = np.dtype(cfg.dtype)
        batch = self.memory.sample(cfg.batch_size, dtype)
        c_loss, g1, g2 = critic_loss_and_grads(self.nets, batch)
        self._apply(self.opt_q1, self.nets.q1, g1)
        self._apply(self.opt_q2, self.nets.q2, g2)
        a_loss, ga = actor_loss_and_grads(self.nets, batch)
        self._apply(self.opt_actor, self.nets.actor, ga)
        t_loss, g_log_t = temperature_loss_and_grad(self.nets, batch, cfg.target_entropy)
        self._temp_step(g_log_t)
        soft_update(self.nets.target_q1, self.nets.q1, cfg.tau)
        soft_update(self.nets.target_q2, self.nets.q2, cfg.tau)
        self.gradient_steps += 1
        if not (math.isfinite(c_loss) and math.isfinite(a_loss) and math.isfinite(t_loss)):
            raise TrainingDiverged(
                f"non-finite loss at gradient step {self.gradient_steps}: "
                f"critic={c_loss}, actor={a_loss}, temperature={t_loss}"
            )
        return c_loss, a_loss, t_loss

    @staticmethod
    def _apply(opt: Adam, net: Mlp, grads) -> None:
        flat = []
        for dw, db in grads:
            flat.append(dw)
            flat.append(db)
        opt.step(net.parameters(), flat)

    def _temp_step(self, grad: float) -> None:
        # scalar Adam on log temperature
        b1, b2 = self.config.adam_betas
        self._temp_t += 1
        self._temp_m = b1 * self._temp_m + (1 - b1) * grad
        self._temp_v = b2 * self._temp_v + (1 - b2) * grad * grad
        m_hat = self._temp_m / (1 - b1**self._temp_t)
        v_hat = self._temp_v / (1 - b2**self._temp_t)
        self.nets.log_temperature -= (
            self.config.temperature_lr * m_hat / (math.sqrt(v_hat) + 1e-8)
        )

    def run_episode(self, episode_index: int) -> EpisodeStats:
        new_scene = episode_index % self.scene_refresh_every == 0
        state = self.env.reset(new_scene=new_scene)
        total_reward = 0.0
        total_energy = 0.0
        dev_sum = 0.0
        dev_count = 0
        samples = 0
        done = False
        while not done:
            action = select_action(state, self.nets, "stochastic", self.action_rng)
            next_state, r, done, info = self.env.step(action)
            executed = int(info.get("action", action))
            self.memory.push(Transition(state, executed, r, next_state, done))
            if len(self.memory) >= max(self.config.warmup_transitions, self.config.batch_size):
                self.update()
            state = next_state
            total_reward += r
            total_energy += float(info.get("energy_j", 0.0))
            if info.get("deviation") is not None:
                dev_sum += float(info["deviation"])
                dev_count += 1
            samples += int(info.get("sampled", False))
        total_energy += float(getattr(self.env, "bootstrap_energy_j", 0.0))
        self.episodes_trained += 1
        return EpisodeStats(
            episode=episode_index,
            cumulative_reward=total_reward,
            total_energy_j=total_energy,
            mean_deviation=dev_sum / dev_count if dev_count else 0.0,
            sample_count=samples,
        )

    def train(self, episodes: int, start_episode: int = 0) -> list[EpisodeStats]:
        """Run ``episodes`` episodes and return the per-episode curves."""
        curves = []
        for ep in range(start_episode, start_episode + episodes):
            curves.append(self.run_episode(ep))
        return curves
