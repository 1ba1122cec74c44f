"""The benchmark's workloads: set-up, a closed loop of decision steps, checks.

One caller drives the package's public API the way ``semsample train`` and
``semsample evaluate`` do, and starts the next decision step only when the
last one has returned.  In training a decision step is one environment step
plus its SAC update; in evaluation it is one environment step of the policy
sweep.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Optional

import numpy as np

from semsample import agent, config, ingest, simulator

import checks

DENSE_CLIP = {"frames": 500, "lanes": 2, "spawn_rate": 0.5}  # other generator settings default
DENSE_CLIPS = 3
GRADIENT_BATCH = 64  # rows of the replay batch the finite-difference check uses
VEHICLE_TYPES = {1: "car", 2: "bus", 3: "van", 4: "others"}


class Stopwatch:
    """Adds up the time spent inside its ``with`` blocks."""

    def __init__(self):
        self.seconds = 0.0

    @contextlib.contextmanager
    def __call__(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0


@dataclasses.dataclass
class Phase:
    """What one closed-loop phase did."""

    step_s: list  # wall time of every decision step
    elapsed_s: float  # wall time of the phase
    log: list  # outputs that an identical run must reproduce exactly
    failed: int = 0
    fails: list = dataclasses.field(default_factory=list)  # failed steps and checks made during the phase


def merged(phases: list) -> Phase:
    """Consecutive phases of one run as one."""
    return Phase([t for p in phases for t in p.step_s], sum(p.elapsed_s for p in phases),
                 [x for p in phases for x in p.log], sum(p.failed for p in phases),
                 [f for p in phases for f in p.fails])


def snapshot_doc(nets, resolved: dict, episodes: int) -> dict:
    """The snapshot document in the format ``semsample train`` writes."""
    doc = nets.to_dict()
    doc["trained_episodes"] = episodes
    doc["state"] = dict(resolved["state"])
    return doc


def detrac_xml(clip, frame_width: int, frame_height: int) -> bytes:
    """A clip as tracking-benchmark annotation XML: 1-based frame numbers and
    target ids, pixel left/top/width/height boxes."""
    root = ET.Element("sequence", name=clip.name)
    for frame in clip.frames:
        el = ET.SubElement(root, "frame", density=str(frame.vehicle_count), num=str(frame.frame_index + 1))
        targets = ET.SubElement(el, "target_list")
        for v in frame.vehicles:
            b = v.box
            target = ET.SubElement(targets, "target", id=str(v.track_id + 1))
            ET.SubElement(target, "box", left=repr(b.b1 * frame_width), top=repr(b.b2 * frame_height),
                          width=repr((b.b3 - b.b1) * frame_width), height=repr((b.b4 - b.b2) * frame_height))
            ET.SubElement(target, "attribute", orientation="0", speed="0", trajectory_length="0",
                          truncation_ratio="0", vehicle_type=VEHICLE_TYPES[int(v.vehicle_class)])
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def vehicles_per_frame(clips) -> float:
    frames = [f.vehicle_count for clip in clips for f in clip.frames]
    return sum(frames) / len(frames)


# -- training ---------------------------------------------------------------


class TrainingRun:
    """Environment and trainer as ``cmd_train`` builds them, stepped one
    decision at a time with the same calls as ``Trainer.run_episode``.
    The environment records its per-step trace for the episode checks."""

    def __init__(self, resolved: dict, clips, seed: int, tracer=None):
        self.resolved = resolved
        self.tracer = tracer
        self.clips = clips
        self.sac_cfg = config.build_sac_config(resolved)
        self.env = simulator.SamplingEnv(config.build_episode_config(resolved, seed=seed), clips, record_trace=True)
        self.trainer = agent.Trainer(self.env, self.sac_cfg, seed=seed,
                                     scene_refresh_every=int(resolved["training"]["scene_refresh_every"]))
        self.update_from = max(self.sac_cfg.warmup_transitions, self.sac_cfg.batch_size)
        self.episode = 0
        self.obs: Optional[np.ndarray] = None
        self.finished: list = []  # EpisodeMetrics of every completed episode
        self.losses: list = []
        self.steps = 0
        self.generated = None  # dense workload: the clips as generated, before the XML round trip

    def step(self) -> tuple:
        tr = self.trainer
        if self.tracer is not None:
            self.tracer.request = self.steps
        if self.obs is None:
            self.obs = self.env.reset(new_scene=self.episode % tr.scene_refresh_every == 0)
        action = agent.select_action(self.obs, tr.nets, "stochastic", tr.action_rng)
        nxt, r, done, info = self.env.step(action)
        executed = int(info["action"])
        tr.memory.push(agent.Transition(self.obs, executed, r, nxt, done))
        losses = tr.update() if len(tr.memory) >= self.update_from else None
        if losses is not None:
            self.losses.append(losses)
        self.steps += 1
        if done:
            self.finished.append(self.env.metrics)
            self.episode += 1
            tr.episodes_trained += 1
            self.obs = None
        else:
            self.obs = nxt
        return executed, r, losses

    def warm_up(self) -> None:
        """Fill the replay memory up to the step that makes the first update."""
        while len(self.trainer.memory) + 1 < self.update_from:
            self.step()


class Training:
    """Both training workloads; they differ in agent settings and clips."""

    def __init__(self, name: str, nominal_steps_per_s: float, setup_reps: int, snapshot_reps: int):
        self.name = name
        self.nominal_steps_per_s = nominal_steps_per_s
        self.setup_reps = setup_reps
        self.snapshot_reps = snapshot_reps

    def setup(self, seed: int, out_dir: Path, tracer=None) -> tuple[TrainingRun, float]:
        """Returns the run and the seconds the package spent setting it up
        (writing the annotation XML is the benchmark's work and not counted)."""
        package = Stopwatch()
        with package():
            resolved = config.default_config()
            resolved["seed"] = seed
            generated = None
            if self.name == "train_small_dense":
                resolved["agent"].update(widths=[32, 32], batch_size=64, warmup_transitions=64)
                # a fresh scene every episode, so a run covers many stretches of
                # traffic and its vehicles per frame vary little from seed to seed
                resolved["training"]["scene_refresh_every"] = 1
                generated = [
                    ingest.generate_traffic(ingest.TrafficGenConfig(lanes=DENSE_CLIP["lanes"],
                                                                    spawn_rate=DENSE_CLIP["spawn_rate"],
                                                                    seed=10 * seed + i),
                                            DENSE_CLIP["frames"], f"dense-{seed}-{i}")
                    for i in range(DENSE_CLIPS)
                ]
        if generated is not None:
            resolved["train_clips"] = []
            for clip in generated:
                path = out_dir / f"{clip.name}.xml"
                path.write_bytes(detrac_xml(clip, clip.frame_width, clip.frame_height))
                resolved["train_clips"].append({"kind": "detrac", "path": path.name,
                                                "frame_width": clip.frame_width, "frame_height": clip.frame_height})
        with package():
            resolved = config.resolve_config(resolved)
            clips = config.build_clips(resolved["train_clips"], out_dir)
        for entry in resolved["train_clips"]:
            if entry["kind"] == "detrac":
                (out_dir / entry["path"]).unlink()
        with package():
            run = TrainingRun(resolved, clips, seed, tracer)
            run.warm_up()
        run.generated = generated
        return run, package.seconds

    def trace_rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.nominal_steps_per_s))

    def run(self, run: TrainingRun, seconds: Optional[float] = None, rounds: Optional[int] = None) -> Phase:
        """Decision steps until ``seconds`` have passed, or ``rounds`` steps."""
        times, log = [], []
        phase = Phase(times, 0.0, log)
        clock = time.perf_counter
        start = clock()
        while (len(times) < rounds) if rounds is not None else (clock() - start < seconds):
            t0 = clock()
            try:
                out = run.step()
            except Exception as exc:  # the loop state is undefined after a failed step
                phase.failed += 1
                phase.fails.append(f"step {run.steps}: {exc!r}")
                break
            times.append(clock() - t0)
            log.append(out)
        phase.elapsed_s = clock() - start
        return phase

    def snapshot(self, run: TrainingRun):
        return run.trainer.nets, run.sac_cfg, run.resolved, run.trainer.episodes_trained

    def check(self, run: TrainingRun, phase: Phase, rng: np.random.Generator) -> list[str]:
        fails = phase.fails + checks.finite_losses(run.losses)
        for i, metrics in enumerate(run.finished):
            fails += [f"episode {i}: {f}" for f in
                      checks.episode_failures(metrics.trace, metrics, run.resolved)]
        if run.generated is not None:
            for generated, parsed in zip(run.generated, run.clips):
                fails += checks.clip_failures(generated, parsed, generated.frame_width, generated.frame_height)
        fails += gradient_check(run, rng)
        nets = run.trainer.nets
        old = [p.copy() for p in nets.target_q1.parameters() + nets.target_q2.parameters()]
        run.trainer.update()
        fails += checks.soft_update_failures(nets.target_q1.parameters() + nets.target_q2.parameters(),
                                             nets.q1.parameters() + nets.q2.parameters(), old, run.sac_cfg.tau)
        return fails

    def info(self, run: TrainingRun) -> dict:
        return {"clips": [c.name for c in run.clips], "vehicles_per_frame": vehicles_per_frame(run.clips),
                "episodes_completed": len(run.finished), "widths": list(run.sac_cfg.widths),
                "batch_size": run.sac_cfg.batch_size}


def _flat(grads) -> list:
    return [a for pair in grads for a in pair]


def gradient_check(run: TrainingRun, rng: np.random.Generator) -> list[str]:
    """Critic, actor and temperature gradients of a float64 copy of the nets
    against central differences, on one replay batch."""
    cfg64 = dataclasses.replace(run.sac_cfg, dtype="float64")
    doc = run.trainer.nets.to_dict()
    for key in ("actor", "q1", "q2", "target_q1", "target_q2"):
        doc[key]["dtype"] = "float64"
    nets = agent.SacNetworks.from_dict(doc, cfg64)
    batch = run.trainer.memory.sample(min(GRADIENT_BATCH, cfg64.batch_size), np.float64)
    _, g1, g2 = agent.critic_loss_and_grads(nets, batch)
    fails = checks.gradient_failures(nets.q1.parameters() + nets.q2.parameters(), _flat(g1) + _flat(g2),
                                     lambda: agent.critic_loss_and_grads(nets, batch)[0], rng, "critic")
    _, ga = agent.actor_loss_and_grads(nets, batch)
    fails += checks.gradient_failures(nets.actor.parameters(), _flat(ga),
                                      lambda: agent.actor_loss_and_grads(nets, batch)[0], rng, "actor")
    _, g_log_t = agent.temperature_loss_and_grad(nets, batch, cfg64.target_entropy)
    log_t = np.array([nets.log_temperature])

    def temperature_loss() -> float:
        nets.log_temperature = float(log_t[0])
        return agent.temperature_loss_and_grad(nets, batch, cfg64.target_entropy)[0]

    fails += checks.gradient_failures([log_t], [np.array([g_log_t])], temperature_loss, rng, "temperature")
    return fails


# -- evaluation -------------------------------------------------------------


@dataclasses.dataclass
class EvalRun:
    resolved: dict
    seed: int
    sac_cfg: agent.SacConfig
    episode_cfg: simulator.EpisodeConfig
    clips: list
    nets: agent.SacNetworks
    policies: dict
    tracer: object = None
    sweeps: int = 0


class _Clocked:
    """Stamps the start of every decision step of the wrapped policy."""

    def __init__(self, policy, stamps: list, tracer):
        self.policy, self.stamps, self.tracer = policy, stamps, tracer

    def decide(self, features: np.ndarray, t: int) -> int:
        self.stamps.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.request += 1
        return self.policy.decide(features, t)


class EvaluateSweep:
    """The default ``semsample evaluate`` sweep with a seeded untrained agent."""

    name = "evaluate_sweep"
    nominal_sweeps_per_s = 0.35
    setup_reps = 4
    snapshot_reps = 5

    def setup(self, seed: int, out_dir: Path, tracer=None) -> tuple[EvalRun, float]:
        """Config, clips and seeded nets, then the snapshot load that
        ``cmd_evaluate`` makes; writing the snapshot is not counted."""
        package = Stopwatch()
        with package():
            resolved = config.default_config()
            resolved["seed"] = seed
            resolved = config.resolve_config(resolved)
            clips = config.build_clips(resolved["eval_clips"], out_dir)
            sac_cfg = config.build_sac_config(resolved)
            episode_cfg = config.build_episode_config(resolved, seed=seed)
            nets = agent.SacNetworks(episode_cfg.scaling.state_dim, sac_cfg, np.random.default_rng(seed))
        path = out_dir / f"eval-snapshot-{seed}.json"
        path.write_text(json.dumps(snapshot_doc(nets, resolved, 0), separators=(",", ":")))
        with package():
            loaded = agent.SacNetworks.from_dict(json.loads(path.read_text()), sac_cfg)
            policies = {}
            for spec in resolved["eval_policies"]:
                if spec == "agent":
                    policies[spec] = simulator.AgentPolicy(loaded, mode="greedy")
                else:
                    policies[spec] = simulator.PeriodicPolicy(int(spec.split(":", 1)[1]))
        path.unlink()
        return EvalRun(resolved, seed, sac_cfg, episode_cfg, clips, loaded, policies, tracer), package.seconds

    def trace_rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.nominal_sweeps_per_s))

    def run(self, run: EvalRun, seconds: Optional[float] = None, rounds: Optional[int] = None) -> Phase:
        """Whole sweeps until ``seconds`` of sweeping, or ``rounds`` sweeps.
        Each sweep's episodes are checked between sweeps, off the clock."""
        times, log = [], []
        phase = Phase(times, 0.0, log)
        stamps: list = []
        episodes: list = []

        def on_result(clip_name, policy_name, metrics):
            stamps.append(time.perf_counter())
            times.extend(np.diff(stamps).tolist())
            stamps.clear()
            episodes.append((clip_name, policy_name, metrics))

        clocked = {spec: _Clocked(p, stamps, run.tracer) for spec, p in run.policies.items()}
        while (run.sweeps < rounds) if rounds is not None else (phase.elapsed_s < seconds):
            done_before = len(times)
            t0 = time.perf_counter()
            try:
                rows = simulator.compare_policies(run.episode_cfg, run.clips, clocked, seed=run.seed,
                                                  record_trace=True, on_result=on_result)
            except Exception as exc:  # the whole sweep is one round
                phase.failed += sweep_steps(run)
                del times[done_before:]
                phase.fails.append(f"sweep {run.sweeps}: {exc!r}")
                break
            phase.elapsed_s += time.perf_counter() - t0
            run.sweeps += 1
            log.append(rows)
            phase.fails += sweep_failures(rows, episodes, run.resolved)
            episodes.clear()
        return phase

    def snapshot(self, run: EvalRun):
        return run.nets, run.sac_cfg, run.resolved, 0

    def check(self, run: EvalRun, phase: Phase, rng: np.random.Generator) -> list[str]:
        fails = list(phase.fails)
        for i, rows in enumerate(phase.log[1:], 1):
            fails += checks.same_rows(phase.log[0], rows, f"sweep {i} vs sweep 0")
        return fails

    def info(self, run: EvalRun) -> dict:
        return {"clips": [c.name for c in run.clips], "vehicles_per_frame": vehicles_per_frame(run.clips),
                "policies": list(run.policies), "sweeps": run.sweeps}


def sweep_steps(run: EvalRun) -> int:
    steps = run.episode_cfg.steps
    return len(run.policies) * sum(min(steps, len(clip) - 2) for clip in run.clips)


def sweep_failures(rows: list, episodes: list, resolved: dict) -> list[str]:
    fails = []
    if len(rows) != len(episodes):
        return [f"{len(rows)} rows for {len(episodes)} episodes"]
    for row, (clip_name, policy_name, metrics) in zip(rows, episodes):
        period = int(policy_name.split(":", 1)[1]) if policy_name.startswith("periodic:") else None
        fails += checks.row_failures(row, metrics)
        fails += [f"{clip_name}/{policy_name}: {f}" for f in
                  checks.episode_failures(metrics.trace, metrics, resolved, period)]
    return fails


WORKLOADS = {
    "train_default": Training("train_default", nominal_steps_per_s=5.0, setup_reps=4, snapshot_reps=5),
    "train_small_dense": Training("train_small_dense", nominal_steps_per_s=125.0, setup_reps=6, snapshot_reps=25),
    "evaluate_sweep": EvaluateSweep(),
}


def snapshot_cycle(nets, sac_cfg, resolved: dict, episodes: int, path: Path) -> tuple[int, float, list[str]]:
    """Write the snapshot in the CLI's format and read it back; returns its
    size in bytes, the seconds taken and whether it read back bit-identical."""
    t0 = time.perf_counter()
    text = json.dumps(snapshot_doc(nets, resolved, episodes), separators=(",", ":"))
    path.write_text(text)
    loaded = agent.SacNetworks.from_dict(json.loads(path.read_text()), sac_cfg)
    seconds = time.perf_counter() - t0
    fails = []
    for key in ("actor", "q1", "q2", "target_q1", "target_q2"):
        a, b = getattr(nets, key), getattr(loaded, key)
        if not all(np.array_equal(x, y) for x, y in zip(a.parameters(), b.parameters())):
            fails.append(f"snapshot: {key} does not read back bit-identical")
    if loaded.log_temperature != nets.log_temperature:
        fails.append("snapshot: temperature does not read back")
    return len(text.encode()), seconds, fails
