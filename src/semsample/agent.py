"""The semantic sampling agent: a discrete soft actor-critic.

The agent observes the pending packet size, a sliding window of semantic
change values and a constant gain feature, and decides once per sensing
interval whether to transmit.  Because the action space is binary, every
expectation over actions in the actor, critic and temperature losses is a
two-term sum evaluated exactly; no sampling estimator is involved.  All
gradients are analytic (see :mod:`semsample.nets`) and are checked against
finite differences in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__ as _pkg_version
from .layout import MAX_VEHICLES, RECORD_BITS
from .nets import Adam, Mlp

if TYPE_CHECKING:
    from .simulator import EpisodeMetrics, SamplingEnv

__all__ = [
    "RewardConfig",
    "reward",
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
    "Trainer",
    "TrainingDiverged",
]

MAX_PACKET_BITS = MAX_VEHICLES * RECORD_BITS  # framing cap times record size

# version 2 packs each net's weights as raw little-endian bytes in base64
SNAPSHOT_VERSION = 2

# ReplayMemory allocates all its rows up front: 1M rows of the default
# 153-feature float32 state are 0.6 GB, ten times the paper's 100k memory.
MAX_MEMORY_CAPACITY = 1_000_000


@dataclass(frozen=True)
class RewardConfig:
    """Reward weights and the deviation penalty parameters."""

    w1: float = 10.0
    w2: float = -6.0
    w3: float = 1.0
    w4: float = 2.0
    deviation_threshold: float = 0.07
    penalty: float = 0.5

    def __post_init__(self):
        # a negative w1 can take the log of a negative number, a negative
        # penalty can push a penalized deviation below 0
        if self.w1 < 0:
            raise ValueError(f"w1 must be >= 0, got {self.w1!r}")
        if self.penalty < 0:
            raise ValueError(f"penalty must be >= 0, got {self.penalty!r}")
        # a skipped step takes exp(w4 * deviation - 1) with a deviation of at
        # most 1, so exp(w4 - 1) is its largest value
        try:
            bounded = math.isfinite(math.exp(self.w4 - 1.0))
        except OverflowError:
            bounded = False
        if not bounded:
            raise ValueError(f"w4 must keep exp(w4 - 1) finite, got {self.w4!r}")


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
class StateScaling:
    """Feature scaling so the networks see inputs roughly in [0, 1]."""

    window: int = 150
    chi_cap: float = 8.0

    def __post_init__(self):
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window!r}")
        if not 0 < self.chi_cap < math.inf:
            raise ValueError(f"chi_cap must be > 0, got {self.chi_cap!r}")

    @property
    def state_dim(self) -> int:
        return self.window + 3

    def features(self, packet_bits: int, chi_window: np.ndarray) -> np.ndarray:
        """[bits / MAX_PACKET_BITS, chi window / chi_cap, gain feature].

        ``chi_window`` holds [chi_t, chi_{t-1}, ...] with zero padding before
        history exists.  The gain feature is the average gain over itself,
        the constant 1.0: the agent does not observe the channel.
        """
        if chi_window.shape != (self.window + 1,):
            raise ValueError(
                f"chi window must have length {self.window + 1}, got {chi_window.shape}"
            )
        return np.concatenate((
            [packet_bits / MAX_PACKET_BITS],
            np.asarray(chi_window, dtype=np.float64) / self.chi_cap,
            [1.0],
        ))


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
            # the fancy-indexed gathers are copies already
            states=self._states[idx].astype(dtype, copy=False),
            actions=self._actions[idx].astype(np.int64),
            rewards=self._rewards[idx].astype(dtype, copy=False),
            next_states=next_states.astype(dtype, copy=False),
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
    dtype: str = "float32"

    def __post_init__(self):
        try:
            float_dtype = np.dtype(self.dtype).kind == "f"
        except TypeError:
            float_dtype = False
        rules = (
            ("widths", all(w >= 1 for w in self.widths), "must all be >= 1"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("memory_capacity", max(self.batch_size, self.warmup_transitions)
             <= self.memory_capacity <= MAX_MEMORY_CAPACITY,
             f"must be >= batch_size and >= warmup_transitions, and <= {MAX_MEMORY_CAPACITY}"),
            ("actor_lr", 0 < self.actor_lr < math.inf, "must be > 0"),
            ("critic_lr", 0 < self.critic_lr < math.inf, "must be > 0"),
            ("temperature_lr", 0 < self.temperature_lr < math.inf, "must be > 0"),
            ("tau", 0 < self.tau <= 1, "must be in (0, 1]"),
            ("gamma", 0 <= self.gamma <= 1, "must be in [0, 1]"),
            ("initial_temperature", 0 < self.initial_temperature < math.inf, "must be > 0"),
            ("warmup_transitions", self.warmup_transitions >= 0, "must be >= 0"),
            ("dtype", float_dtype, "must be a float type"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ValueError(f"{key} {rule}, got {getattr(self, key)!r}")


class SacNetworks:
    """Actor, twin critics with soft-updated targets, and the temperature.

    The twin critics run as one stacked net, ``critics``, and their targets
    as ``target_critics`` (see :meth:`Mlp.stack`); ``q1``, ``q2``,
    ``target_q1`` and ``target_q2`` are plain nets viewing their halves.
    The target critics share the critics' pass buffers: nothing reads their
    hidden activations, and the critics' own pass overwrites them next.
    They share the critics' helper thread too: when a batch's work per
    critic is above ``nets.THREADED_WORK``, as at the paper's widths and
    batch, each stacked pass runs ``q2``'s half on that one helper while
    the calling thread runs ``q1``'s (see :mod:`semsample.nets`).
    """

    N_ACTIONS = 2
    NETWORKS = ("actor", "q1", "q2", "target_q1", "target_q2")

    def __init__(self, state_dim: int, config: SacConfig, rng: np.random.Generator):
        dims = (state_dim, *config.widths, self.N_ACTIONS)
        dtype = np.dtype(config.dtype)
        # twin critics draw independent initial weights: identically
        # initialized twins would stay identical and defeat the min() guard
        self.actor = Mlp(dims, rng, dtype)
        q1 = Mlp(dims, rng, dtype)
        q2 = Mlp(dims, rng, dtype)
        self._stack_critics(q1, q2, q1, q2)
        self.log_temperature = float(math.log(config.initial_temperature))
        self.state_dim = state_dim
        self.config = config

    def _stack_critics(self, q1: Mlp, q2: Mlp, target_q1: Mlp, target_q2: Mlp) -> None:
        """Copy the twins and their targets into the two stacked nets, which
        share one set of pass buffers and one helper thread."""
        self.critics, (self.q1, self.q2) = Mlp.stack([q1, q2])
        self.target_critics, (self.target_q1, self.target_q2) = Mlp.stack([target_q1, target_q2])
        self.target_critics._buffers = self.critics._buffers
        self.target_critics._helper = self.critics._helper

    @property
    def temperature(self) -> float:
        return math.exp(self.log_temperature)

    def action_probs(self, states: np.ndarray) -> np.ndarray:
        return softmax(self.actor.forward(states))

    def to_dict(self) -> dict:
        return {
            "format": "semsample-sac-snapshot",
            "version": SNAPSHOT_VERSION,
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
        """Inverse of :meth:`to_dict`.  A document that is not an object, or
        has a missing key, a wrong type or a shape that disagrees with the
        config raises ``ValueError``."""
        if not isinstance(doc, dict):
            raise ValueError(f"snapshot must be a JSON object, got {type(doc).__name__}")
        if doc.get("format") != "semsample-sac-snapshot":
            raise ValueError("unrecognized snapshot format")
        if doc.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"snapshot version {doc.get('version')!r} is not supported; "
                             f"this reader takes version {SNAPSHOT_VERSION}")
        nets = object.__new__(cls)
        nets.config = config
        try:
            nets.state_dim = int(doc["state_dim"])
            nets.log_temperature = float(doc["log_temperature"])
            expected = (nets.state_dim, *config.widths, cls.N_ACTIONS)
            loaded = []
            for name in cls.NETWORKS:
                net = Mlp.from_arrays(doc[name])
                if net.dims != expected:
                    raise ValueError(
                        f"{name} shapes {net.dims} incompatible with config {expected}"
                    )
                loaded.append(net)
            nets.actor = loaded[0]
            nets._stack_critics(*loaded[1:])
        except KeyError as exc:
            raise ValueError(f"malformed snapshot: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed snapshot: {exc}") from exc
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
    q1_next, q2_next = nets.target_critics.forward(batch.next_states)
    q_next = np.minimum(q1_next, q2_next)
    v_next = (probs * (q_next - nets.temperature * logp)).sum(axis=1)
    cont = (~batch.terminals).astype(v_next.dtype)
    return batch.rewards + nets.config.gamma * cont * v_next


def critic_loss_and_grads(nets: SacNetworks, batch: Batch):
    """Half mean squared Bellman error for both critics (shared targets).

    Returns (loss, grads_q1, grads_q2); the loss is the sum of the two
    critic losses and targets are treated as constants.  Both critics make
    one stacked forward and one stacked backward pass.
    """
    y = critic_targets(nets, batch)
    n = batch.states.shape[0]
    rows = np.arange(n)
    out, cache = nets.critics.forward_cached(batch.states)
    diff = out[:, rows, batch.actions] - y
    loss = 0.0
    for d in diff:
        loss += float(0.5 * np.mean(d**2))
    d_out = np.zeros_like(out)
    d_out[:, rows, batch.actions] = diff / n
    grads = nets.critics.backward(cache, d_out)
    return loss, [(dw[0], db[0]) for dw, db in grads], [(dw[1], db[1]) for dw, db in grads]


def actor_loss_and_grads(nets: SacNetworks, batch: Batch):
    """Expected (temperature * log pi - min Q) under the policy, with the
    expectation over the two actions computed exactly.  Critics are constant.
    """
    probs, logp, cache = _policy_terms(nets, batch.states)
    q1, q2 = nets.critics.forward(batch.states)
    q_min = np.minimum(q1, q2)
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


# soft_update blends in blocks of this many values, so its temporary
# tau * source stays small
SOFT_UPDATE_BLOCK = 1 << 14


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """Blend target parameters toward the source: target = tau*source + (1-tau)*target."""
    if target.dims != source.dims or target.n_stacked != source.n_stacked:
        raise ValueError(f"shape mismatch {target.dims} vs {source.dims}")
    target.flat *= 1.0 - tau
    for start in range(0, target.flat.size, SOFT_UPDATE_BLOCK):
        block = slice(start, start + SOFT_UPDATE_BLOCK)
        target.flat[block] += tau * source.flat[block]


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


class TrainingDiverged(RuntimeError):
    """A loss became non-finite; training aborted."""


class Trainer:
    """Runs episodes against an environment, one gradient step per env step.

    Each episode iterates the environment's one episode loop,
    ``SamplingEnv.play``.  The scene is re-randomized every
    ``scene_refresh_every`` episodes; within a block every episode replays
    the same initial scene.
    """

    def __init__(
        self,
        env: SamplingEnv,
        config: SacConfig,
        seed: int = 0,
        *,
        scene_refresh_every: int,
    ):
        if scene_refresh_every < 1:
            raise ValueError(f"scene_refresh_every must be >= 1, got {scene_refresh_every}")
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
        self._build_optimizers()
        self.gradient_steps = 0
        self.episodes_trained = 0

    def _build_optimizers(self) -> None:
        cfg = self.config
        # Adam is elementwise, so one step over [q1.flat | q2.flat] equals
        # a step on each twin with the shared lr and step count
        self.opt_critics = Adam([self.nets.critics.flat], cfg.critic_lr)
        self.opt_actor = Adam([self.nets.actor.flat], cfg.actor_lr)
        # the log temperature stays a float on the networks; its optimizer
        # steps a 0-d copy of it
        self.opt_temperature = Adam([np.zeros(())], cfg.temperature_lr)
        # the gradient vector each net's step gathers its layers' gradients into
        self._flat_grads = {self.opt_critics: np.empty_like(self.nets.critics.flat),
                            self.opt_actor: np.empty_like(self.nets.actor.flat)}

    def load_networks(self, nets: SacNetworks) -> None:
        """Adopt previously trained networks (optimizer state starts fresh)."""
        if nets.state_dim != self.env.state_dim:
            raise ValueError(
                f"snapshot state_dim {nets.state_dim} != env state_dim {self.env.state_dim}"
            )
        self.nets = nets
        self._build_optimizers()

    def update(self) -> tuple[float, float, float]:
        """One gradient step on a sampled batch; returns the three losses."""
        cfg = self.config
        dtype = np.dtype(cfg.dtype)
        batch = self.memory.sample(cfg.batch_size, dtype)
        c_loss, g1, g2 = critic_loss_and_grads(self.nets, batch)
        self._apply(self.opt_critics, self.nets.critics, g1 + g2)
        del g1, g2  # fresh arrays: free them before the actor's pass makes its own
        a_loss, ga = actor_loss_and_grads(self.nets, batch)
        self._apply(self.opt_actor, self.nets.actor, ga)
        t_loss, g_log_t = temperature_loss_and_grad(self.nets, batch, cfg.target_entropy)
        log_t = np.array(self.nets.log_temperature)
        self.opt_temperature.step([log_t], [np.array(g_log_t)])
        self.nets.log_temperature = float(log_t)
        soft_update(self.nets.target_critics, self.nets.critics, cfg.tau)
        self.gradient_steps += 1
        if not (math.isfinite(c_loss) and math.isfinite(a_loss) and math.isfinite(t_loss)):
            raise TrainingDiverged(
                f"non-finite loss at gradient step {self.gradient_steps}: "
                f"critic={c_loss}, actor={a_loss}, temperature={t_loss}"
            )
        return c_loss, a_loss, t_loss

    def _apply(self, opt: Adam, net: Mlp, grads) -> None:
        """One Adam step on ``net.flat`` with the [(dW, db), ...] of backward,
        the members' lists end to end for a stacked net."""
        flat_grad = np.concatenate([np.ravel(a) for pair in grads for a in pair], out=self._flat_grads[opt])
        opt.step([net.flat], [flat_grad])

    def _decide(self, features: np.ndarray, t: int) -> int:
        return select_action(features, self.nets, "stochastic", self.action_rng)

    def run_episode(self, episode_index: int) -> EpisodeMetrics:
        """Play one stochastic episode, updating after every step once the
        replay memory is warm; returns the environment's episode record."""
        new_scene = episode_index % self.scene_refresh_every == 0
        for transition in self.env.play(self._decide, new_scene=new_scene):
            self.memory.push(transition)
            if len(self.memory) >= max(self.config.warmup_transitions, self.config.batch_size):
                self.update()
        self.episodes_trained += 1
        return self.env.metrics
