"""The semantic sampling agent: a discrete soft actor-critic.

The agent observes the pending packet size, a sliding window of semantic
change values and d_hat, the deviation the destination will show if the
source stays silent, and decides once per sensing interval whether to
transmit.  The source can compute d_hat because it mirrors the
destination, which is deterministic given what was sent.  Because the
action space is binary, every expectation over actions in the actor,
critic and temperature losses is a two-term sum evaluated exactly; no
sampling estimator is involved.  All gradients are analytic (see
:mod:`semsample.nets`) and are checked against finite differences in the
test suite.

Every loss of an update reads the parameters as they were when the update
began (Haarnoja et al. 2018): the actor loss takes the critics' values from
the critic loss's own pass, and the temperature loss takes the actor loss's
probabilities and log pi (Christodoulou 2019), so an update runs each net
forward once per batch it reads, six passes in all, and the policy's
log-softmax once per batch.

Each loss is a core, a private function of the nets' outputs that returns
the loss and its gradient at those outputs.  The public
``critic_loss_and_grads``, ``actor_loss_and_grads`` and
``temperature_loss_and_grad`` run the nets' passes, the core and the
net's backward; they are the reference the trainer is tested against.

All five nets live in one parameter vector, ``[target_q1 | target_q2 |
actor | q1 | q2]``, so the actor and the twins, which share one shape,
run as stacked nets (see :class:`SacNetworks`): both targets and the actor
on the next states, and the actor and both critics on the states.  One
Adam steps ``[actor | q1 | q2]``, each net at its own learning rate.

Each update runs one schedule, on the calling thread or, at the paper's
widths and batch, on two lanes with a helper thread the trainer owns (see
:class:`Trainer`).  On one lane it makes two stacked forward passes, one
stacked backward, one Adam step and one soft update.  On two, the twin
critics' passes and steps run side by side, the actor's two forward
passes beside them, and each layer of the actor's backward as its weight
gradient beside the delta it passes down.  No pass is split by rows, so
two lanes give the bits of one.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import __version__ as _pkg_version
from .ingest import MAX_CLIP_FRAMES
from .layout import MAX_VEHICLES, RECORD_BITS
from .nets import Adam, Mlp, _backward, _forward, _layer_delta, _layer_grads

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

# version 2 packs each net's weights as raw little-endian bytes in base64;
# version 3 keeps that packing for nets whose last state feature is the
# destination's deviation d_hat, where version 2's read a constant 1.0
SNAPSHOT_VERSION = 3

# Trainer.update runs on two lanes when its work per net, batch rows x
# parameters of one net, is above this.  Handing work to the helper thread
# and waiting for it costs 0.15-0.2 ms (2-core x86-64 VM, 1 BLAS thread),
# so a two-member pass runs faster split only from about 5 M: at 32-32
# widths 3.1 M (512 rows) took 0.86 ms split against 0.66 ms serial, and at
# the paper's widths 9.4 M (64 rows) 1.31 ms against 1.56 ms and 150 M
# (1,024 rows) 9.8 ms against 19.5.
THREADED_WORK = 1 << 23

# A hidden layer wider than this is refused: 4,096 units are 13 times the
# paper's widest layer (300), and a net of two such layers already holds
# 16.8 M weights on the default 11-feature state, 0.34 GB for the five nets
# in float32.
MAX_WIDTH = 4096

# ReplayMemory allocates all its rows up front: 1M rows of the default
# 11-feature float32 state and next state are 88 MB, and 1.2 GB at a
# 150-wide chi window; ten times the paper's 100k memory.
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


# d_hat, a deviation in [0, 1], enters the state times this.  It is a
# power of two, so the product is exact and a policy reads d_hat back bit
# for bit (see simulator.DeviationPolicy).  Chosen on the validation clips
# of configs/probe-valid.json: x4, x8 and x16 gave a mean reward of +14.28,
# +13.75 and +13.97 over training seeds 1-6 at a window of 8, a tie within
# the 5-19 spread across seeds.
DEVIATION_SCALE = 4.0


@dataclass(frozen=True)
class StateScaling:
    """Feature scaling so the networks see inputs roughly in [0, 1]."""

    window: int = 8
    chi_cap: float = 8.0

    def __post_init__(self):
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window!r}")
        # an episode runs at most MAX_CLIP_FRAMES steps, so a longer window
        # would only ever hold zero padding
        if self.window > MAX_CLIP_FRAMES:
            raise ValueError(f"window must be <= {MAX_CLIP_FRAMES}, the longest clip, got {self.window!r}")
        if not 0 < self.chi_cap < math.inf:
            raise ValueError(f"chi_cap must be > 0, got {self.chi_cap!r}")

    @property
    def state_dim(self) -> int:
        return self.window + 3

    def features(self, packet_bits: int, chi_window: np.ndarray, deviation: float) -> np.ndarray:
        """[bits / MAX_PACKET_BITS, chi window / chi_cap, d_hat * DEVIATION_SCALE].

        ``chi_window`` holds [chi_t, chi_{t-1}, ...] with zero padding before
        history exists.  ``deviation`` is d_hat_t, the deviation the
        destination will show at t if the source stays silent: the source
        mirrors the deterministic destination, so it knows the layout the
        destination would display and compares it with the real one.
        """
        if chi_window.shape != (self.window + 1,):
            raise ValueError(
                f"chi window must have length {self.window + 1}, got {chi_window.shape}"
            )
        return np.concatenate((
            [packet_bits / MAX_PACKET_BITS],
            np.asarray(chi_window, dtype=np.float64) / self.chi_cap,
            [deviation * DEVIATION_SCALE],
        ))


@dataclass(frozen=True, slots=True)
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
    are cast to the caller's dtype on the way out.  Each slot keeps its
    state and its next state in two arrays of rows.
    """

    def __init__(self, capacity: int, state_dim: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.rng = rng
        self._states = np.zeros((self.capacity, state_dim), dtype=np.float32)
        self._next_states = np.zeros((self.capacity, state_dim), dtype=np.float32)
        self._actions = np.zeros(self.capacity, dtype=np.int8)
        self._rewards = np.zeros(self.capacity, dtype=np.float32)
        self._terminals = np.zeros(self.capacity, dtype=bool)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        i = self._head
        self._states[i] = transition.state
        self._next_states[i] = transition.next_state
        self._actions[i] = transition.action
        self._rewards[i] = transition.reward
        self._terminals[i] = transition.terminal
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, dtype=np.float32) -> Batch:
        if batch_size > self._size:
            raise ValueError(f"cannot sample {batch_size} from {self._size} stored")
        idx = self.rng.choice(self._size, size=batch_size, replace=False)
        return Batch(
            # the fancy-indexed gathers are copies already
            states=self._states[idx].astype(dtype, copy=False),
            actions=self._actions[idx].astype(np.int64),
            rewards=self._rewards[idx].astype(dtype, copy=False),
            next_states=self._next_states[idx].astype(dtype, copy=False),
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
            ("widths", all(w <= MAX_WIDTH for w in self.widths), f"must all be <= {MAX_WIDTH}"),
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

    All five nets live in one parameter vector laid out ``[target_q1 |
    target_q2 | actor | q1 | q2]``, viewed as the five-member stacked net
    ``stacked`` (see :meth:`Mlp.stack`).  Its members 0-2, both targets
    and the actor, form the stack ``next_state``, which runs on the next
    states, and its members 2-4, the actor and the twins, the stack
    ``trained``, which runs on the states and which an update steps as one
    vector.  ``actor``, ``q1``, ``q2``, ``target_q1`` and ``target_q2`` are
    plain nets viewing their member, and ``critics`` and
    ``target_critics`` two-member stacks viewing the twins and their
    targets, so a write through any of them shows in all that hold it.
    The next-state stack shares the trained stack's pass buffers, and the
    target critics the critics': nothing reads the hidden activations of
    the targets' passes, and the other stack's own pass overwrites them
    next.
    """

    N_ACTIONS = 2
    NETWORKS = ("actor", "q1", "q2", "target_q1", "target_q2")

    def __init__(self, state_dim: int, config: SacConfig, rng: np.random.Generator):
        dims = (state_dim, *config.widths, self.N_ACTIONS)
        dtype = np.dtype(config.dtype)
        # twin critics draw independent initial weights: identically
        # initialized twins would stay identical and defeat the min() guard
        actor = Mlp(dims, rng, dtype)
        q1 = Mlp(dims, rng, dtype)
        q2 = Mlp(dims, rng, dtype)
        self._stack(actor, q1, q2, q1, q2)
        self.log_temperature = float(math.log(config.initial_temperature))
        self.state_dim = state_dim
        self.config = config

    def _stack(self, actor: Mlp, q1: Mlp, q2: Mlp, target_q1: Mlp, target_q2: Mlp) -> None:
        """Copy the five nets into the one vector and view it."""
        self.stacked, (self.target_q1, self.target_q2, self.actor, self.q1, self.q2) = Mlp.stack(
            [target_q1, target_q2, actor, q1, q2])
        self.next_state = self.stacked.substack(slice(0, 3))
        self.trained = self.stacked.substack(slice(2, 5))
        self.target_critics = self.stacked.substack(slice(0, 2))
        self.critics = self.stacked.substack(slice(3, 5))
        self.next_state._buffers = self.trained._buffers
        self.target_critics._buffers = self.critics._buffers

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
            nets._stack(*loaded)
        except KeyError as exc:
            raise ValueError(f"malformed snapshot: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed snapshot: {exc}") from exc
        return nets


# The arithmetic below calls the ufuncs' reduce where ndarray.max, .sum
# and .mean would: the same reductions, without the methods' Python
# wrappers, which cost more than the arithmetic at small batches.  A mean
# is the sum over all entries divided by their count, as ndarray.mean
# computes it.

def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def _policy_terms(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probs, log pi) of the actor's logits."""
    logp = log_softmax(logits)
    return np.exp(logp), logp


def _critic_loss(nets: SacNetworks, batch: Batch, q: np.ndarray, next_q: np.ndarray,
                 next_probs: np.ndarray, next_logp: np.ndarray) -> tuple[float, np.ndarray]:
    """Half mean squared Bellman error of both critics' outputs ``q``
    against shared soft Bellman targets: the reward plus the
    entropy-regularized value of the next state under the policy's
    ``next_probs`` and ``next_logp`` (see :func:`_policy_terms`) and the
    min of the target critics' ``next_q``.  Returns the sum of the two
    losses and its gradient at ``q``; the targets are constants."""
    q_next = np.minimum(next_q[0], next_q[1])
    v_next = np.add.reduce(next_probs * (q_next - nets.temperature * next_logp), axis=1)
    cont = (~batch.terminals).astype(v_next.dtype)
    y = batch.rewards + nets.config.gamma * cont * v_next
    n = len(batch.actions)
    rows = np.arange(n)
    diff = q[:, rows, batch.actions] - y
    loss = 0.0
    for d in diff:  # per critic: one reduce of both along axis 1 rounds differently
        loss += float(0.5 * (np.add.reduce(d**2) / n))
    d_q = np.zeros_like(q)
    d_q[:, rows, batch.actions] = diff / n
    return loss, d_q


def _actor_loss(nets: SacNetworks, probs: np.ndarray, logp: np.ndarray,
                q: np.ndarray) -> tuple[float, np.ndarray]:
    """Expected (temperature * log pi - min Q) under the policy, the
    expectation over the two actions computed exactly.  Returns the loss
    and its gradient at the actor's logits; the critics' ``q`` are
    constants."""
    q_min = np.minimum(q[0], q[1])
    f = nets.temperature * logp - q_min
    per_state = np.add.reduce(probs * f, axis=1, keepdims=True)
    n = len(probs)
    loss = float(np.add.reduce(per_state, axis=None) / n)
    # d/dlogits of sum_a pi_a (T log pi_a - Q_a) = pi_b (f_b - E_pi[f])
    return loss, probs * (f - per_state) / n


def _temperature_loss(nets: SacNetworks, probs: np.ndarray, logp: np.ndarray,
                      target_entropy: float) -> tuple[float, float]:
    """Temperature loss T * (H(pi) - target H), pi a constant.  Returns the
    loss and its gradient w.r.t. log T, which is the loss itself;
    descending on the log keeps the temperature positive."""
    entropy = float(-(np.add.reduce(np.add.reduce(probs * logp, axis=1)) / len(probs)))
    loss = nets.temperature * (entropy - target_entropy)
    return loss, loss


def critic_loss_and_grads(nets: SacNetworks, batch: Batch):
    """The critic loss (see :func:`_critic_loss`) and its gradients.

    Returns (loss, grads_q1, grads_q2).  Both critics make one stacked
    forward and one stacked backward pass.
    """
    next_logits = nets.actor.forward(batch.next_states)
    next_q = nets.target_critics.forward(batch.next_states)
    q, cache = nets.critics.forward_cached(batch.states)
    loss, d_q = _critic_loss(nets, batch, q, next_q, *_policy_terms(next_logits))
    grads = nets.critics.backward(cache, d_q)
    return loss, [(dw[0], db[0]) for dw, db in grads], [(dw[1], db[1]) for dw, db in grads]


def actor_loss_and_grads(nets: SacNetworks, batch: Batch):
    """The actor loss (see :func:`_actor_loss`) and the actor's gradients."""
    logits, cache = nets.actor.forward_cached(batch.states)
    loss, d_logits = _actor_loss(nets, *_policy_terms(logits), nets.critics.forward(batch.states))
    return loss, nets.actor.backward(cache, d_logits)


def temperature_loss_and_grad(nets: SacNetworks, batch: Batch, target_entropy: float):
    """The temperature loss (see :func:`_temperature_loss`) of the actor's
    policy on the states, and its gradient w.r.t. log temperature."""
    return _temperature_loss(nets, *_policy_terms(nets.actor.forward(batch.states)), target_entropy)


# soft_update blends in blocks of this many values, so its temporary
# tau * source stays small
SOFT_UPDATE_BLOCK = 1 << 14


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """Blend target parameters toward the source: target = tau*source + (1-tau)*target."""
    if target.dims != source.dims or target.n_stacked != source.n_stacked:
        raise ValueError(f"shape mismatch {target.dims} vs {source.dims}")
    _blend(target.flat, source.flat, tau)


def _blend(target: np.ndarray, source: np.ndarray, tau: float) -> None:
    """target = tau*source + (1-tau)*target, elementwise on flat vectors, so
    the parts of a vector give the bits of the whole."""
    target *= 1.0 - tau
    for start in range(0, target.size, SOFT_UPDATE_BLOCK):
        block = slice(start, start + SOFT_UPDATE_BLOCK)
        target[block] += tau * source[block]


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


class _Lanes:
    """One lane, the calling thread, or two: the calling thread and one
    helper thread, a one-worker executor whose thread starts at the first
    :meth:`run` and ends when the lanes are collected.

    The lanes also name each lane's members in each phase of
    :meth:`Trainer.update`, as indexes into the stacks of
    :class:`SacNetworks`: an int for one member, ``slice(None)`` for all.

    - ``forwards``, phase 1: per lane, the (stack, member, slot) of each
      forward pass.  Stack 0 is the next-state stack, on the next states,
      stack 1 the trained stack, on the states; the slot is the member of
      the trained stack's pass buffers that the pass runs in.
    - ``backwards``, phase 2: per lane, the (trained member, critic
      member) pairs whose backward and step it runs, with the blend of the
      critic member's target.
    - ``split``, phase 3: the (trained member, slot) of each backward that
      the lanes split by layer, each layer's gradients on one lane beside
      the delta it passes down, into the slot's buffers, on the other.

    On one lane, lane 0 runs each stack whole and lane 1 nothing.  On two,
    lane k runs critic k and target critic k, lane 0 the actor on the next
    states and lane 1 on the states, and phase 3 splits the actor's
    backward.
    """

    def __init__(self, two: bool):
        self._helper = ThreadPoolExecutor(1, thread_name_prefix="semsample-lane") if two else None
        self.count = 2 if two else 1
        if two:
            # lane 0 runs its passes in critic 0's slot, one after another;
            # the actor's deltas go there too, free after phase 2
            self.forwards = (((0, 2, 1), (0, 0, 1), (1, 1, 1)), ((1, 0, 0), (0, 1, 2), (1, 2, 2)))
            self.backwards = (((1, 0),), ((2, 1),))
            self.split = ((0, 1),)
        else:
            every = slice(None)
            self.forwards = (((0, every, every), (1, every, every)), ())
            self.backwards = (((every, every),), ())
            self.split = ()

    def run(self, here: Callable[[], object], there: Callable[[], object]) -> None:
        """``here()`` on the calling thread while the helper runs
        ``there()``; one lane runs them in turn.  Waits for the helper
        before returning or raising, and raises the calling thread's
        exception first."""
        if self._helper is None:
            here()
            there()
            return
        helper = self._helper.submit(there)
        try:
            here()
        finally:
            wait([helper])
        helper.result()


def _member(net: Mlp, k: int | slice) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The weights and biases of member ``k`` of a stacked net, or of all
    of them for ``slice(None)``, as views."""
    return [w[k] for w in net.weights], [b[k] for b in net.biases]


def _entries(net: Mlp, k: int | slice) -> slice:
    """The entries of member ``k`` of a stacked net in its ``flat``, or all
    of them for ``slice(None)``."""
    if isinstance(k, slice):
        return k
    size = net.flat.size // net.n_stacked
    return slice(k * size, (k + 1) * size)


def _grad_views(net: Mlp, flat_grad: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The [(dW, db), ...] of a stacked net's ``backward`` as views of
    ``flat_grad``, laid out as ``net.flat``."""
    view = net._new(flat_grad, net.n_stacked)
    return [(w, b[:, 0]) for w, b in zip(view.weights, view.biases)]


class Trainer:
    """Runs episodes against an environment, one gradient step per env step.

    Each episode iterates the environment's one episode loop,
    ``SamplingEnv.play``.  The scene is re-randomized every
    ``scene_refresh_every`` episodes; within a block every episode replays
    the same initial scene.

    An update runs one schedule on one lane or two.  When a batch's work
    per net, rows x parameters, is above :data:`THREADED_WORK`, as at the
    paper's widths and batch, the lanes are the calling thread and the
    trainer's one helper thread, which starts at the first update and ends
    when the trainer is collected; below it, the calling thread alone.
    Every loss reads the parameters as they were when the update began, so
    each net runs forward once per batch it reads.  One Adam steps the
    trained vector ``[actor | q1 | q2]``, each net at its own learning
    rate.  Each lane runs only work whose result the other lane does not
    read, in three phases that each end when both lanes have (the lanes
    name each lane's members, see :class:`_Lanes`):

    1. The forward passes, all in the trained stack's pass buffers.  On
       one lane, the next-state stack on the next states, then the trained
       stack on the states.  On two, lane k runs target critic k and
       critic k, and the actor runs on the next states on lane 0 and on
       the states on lane 1.

       The phase ends with the critic and actor loss cores, which map the
       outputs to the output delta ``[d_logits; d_q1; d_q2]``; nothing in
       them reads a net's new parameters.
    2. The backward, the Adam step and the soft update.  On one lane, one
       backward of the trained stack into the flat gradient, one step of
       the whole vector and one blend of both targets.  On two, lane k runs
       critic k's backward, its range of the step and target critic k's
       blend.  Nothing after the soft update reads the targets.
    3. On two lanes, each of the actor's layers above the first computes
       dW and db on one lane while the other passes the delta down, into
       critic 0's pass buffers, free by then, so that the activations dW
       reads stay whole.  Then lane 0 computes the first layer's dW and db
       and steps that layer's entries of the actor's range while lane 1
       steps the rest.  On one lane the phase has no member.

    The temperature loss core then takes the probabilities and log pi that
    the actor loss core read, of the actor's pass on the states in phase 1.

    A member's pass makes the BLAS calls of its part of the stacked pass,
    and a step is elementwise, so two lanes give the bits of one; no pass
    is split by rows (see :mod:`semsample.nets`).  The lanes call only
    numpy and private functions.
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
        self._lanes = _Lanes(config.batch_size * self.nets.actor.flat.size > THREADED_WORK)
        self._build_optimizers()
        self.gradient_steps = 0
        self.episodes_trained = 0

    @property
    def lane_count(self) -> int:
        """The lanes an update runs on, 1 or 2."""
        return self._lanes.count

    def _build_optimizers(self) -> None:
        cfg, trained = self.config, self.nets.trained
        # Adam is elementwise, so one step over [actor | q1 | q2] at the
        # actor's and the critics' rates equals a step on each net with its
        # own rate and the shared step count
        actor = self.nets.actor.flat.size
        self.opt_trained = Adam(trained.flat, ((slice(None, actor), cfg.actor_lr),
                                               (slice(actor, None), cfg.critic_lr)))
        # the log temperature stays a float on the networks; its optimizer
        # steps a 0-d copy of it
        self.opt_temperature = Adam(np.zeros(()), cfg.temperature_lr)
        # the gradient vector of the step, laid out as trained.flat, and its
        # layers as views of it, which the backward fills
        self._grad = np.empty_like(trained.flat)
        self._grads = _grad_views(trained, self._grad)

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
        batch = self.memory.sample(cfg.batch_size, np.dtype(cfg.dtype))
        c_loss, a_loss, (probs, logp) = self._critics_and_actor_on_lanes(batch)
        t_loss, g_log_t = _temperature_loss(self.nets, probs, logp, cfg.target_entropy)
        log_t = np.array(self.nets.log_temperature)
        self.opt_temperature.step(log_t, np.array(g_log_t))
        self.nets.log_temperature = float(log_t)
        self.gradient_steps += 1
        if not (math.isfinite(c_loss) and math.isfinite(a_loss) and math.isfinite(t_loss)):
            raise TrainingDiverged(
                f"non-finite loss at gradient step {self.gradient_steps}: "
                f"critic={c_loss}, actor={a_loss}, temperature={t_loss}"
            )
        return c_loss, a_loss, t_loss

    def _critics_and_actor_on_lanes(self, batch: Batch) -> tuple[float, float, tuple]:
        """Phases 1-3 of an update (see the class docstring): the critics'
        and the actor's losses and steps, and the soft update.  Returns the
        critic and actor losses and the (probs, log pi) the actor loss
        read."""
        nets, lanes, tau = self.nets, self._lanes, self.config.tau
        trained, critics, targets = nets.trained, nets.critics, nets.target_critics
        states = batch.states
        stacks, inputs = (nets.next_state, trained), (batch.next_states, states)
        rows = states.shape[0]
        hidden = trained._buffers_for("act", rows)  # the next-state stack's too
        masks = trained._buffers_for("mask", rows)
        # each stack's outputs: [target q1; target q2; actor logits] on the
        # next states, [actor logits; q1; q2] on the states
        outs = np.empty((2, trained.n_stacked, rows, trained.dims[-1]), trained.dtype)

        def forwards(lane: int) -> None:
            for stack, k, slot in lanes.forwards[lane]:
                _forward(inputs[stack], *_member(stacks[stack], k), [h[slot] for h in hidden], outs[stack][k])

        lanes.run(partial(forwards, 0), partial(forwards, 1))

        next_out, out = outs
        opt, grad, grads = self.opt_trained, self._grad, self._grads
        # the output delta [d_logits; d_q1; d_q2], which phases 2 and 3
        # pass back
        delta = np.empty_like(out)
        # the actor's logits on the next states and on the states sit side
        # by side in outs: one log-softmax serves both losses
        probs, logp = _policy_terms(outs.reshape(-1, rows, trained.dims[-1])[2:4])
        c_loss, delta[1:] = _critic_loss(nets, batch, out[1:], next_out[:2], probs[0], logp[0])
        terms = probs[1], logp[1]
        a_loss, delta[0] = _actor_loss(nets, *terms, out[1:])

        bias = opt._count_step()

        def backwards(lane: int) -> None:
            for k, c in lanes.backwards[lane]:
                _backward([states, *(h[k] for h in hidden)], delta[k], _member(trained, k)[0],
                          [m[k] for m in masks], [(dw[k], db[k]) for dw, db in grads])
                opt._step_part(bias, trained.flat, grad, _entries(trained, k))
                part = _entries(critics, c)
                _blend(targets.flat[part], critics.flat[part], tau)

        lanes.run(partial(backwards, 0), partial(backwards, 1))

        def first_layer_and_step(d: np.ndarray, layer_grads: tuple, part: slice) -> None:
            _layer_grads(states, d, *layer_grads)
            opt._step_part(bias, trained.flat, grad, part)

        for k, slot in lanes.split:
            weights = _member(trained, k)[0]
            member_grads = [(dw[k], db[k]) for dw, db in grads]
            d = delta[k]
            for i in range(trained.n_layers - 1, 0, -1):
                lanes.run(partial(_layer_grads, hidden[i - 1][k], d, *member_grads[i]),
                          partial(_layer_delta, hidden[i - 1][k], d, weights[i], masks[i - 1][k],
                                  hidden[i - 1][slot]))
                d = hidden[i - 1][slot]
            # the first layer's entries of the step wait for its dW; the
            # rest of the member's steps beside it
            member = _entries(trained, k)
            cut = member.start + weights[0].size + weights[0].shape[-1]
            lanes.run(partial(first_layer_and_step, d, member_grads[0], slice(member.start, cut)),
                      partial(opt._step_part, bias, trained.flat, grad, slice(cut, member.stop)))
        return c_loss, a_loss, terms

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
