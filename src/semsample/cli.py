"""Command-line front end.

Four subcommands: ``train`` (learn a sampling policy on configured clips),
``evaluate`` (compare a snapshot against periodic baselines and the
deviation-threshold rule), ``channel-check``
(closed form vs Monte Carlo vs quadrature self-validation of the channel
math) and ``ingest`` (annotation XML to native clip JSON).

Exit codes are stable: 0 success, 2 usage/config error, 3 runtime failure
(divergence or failed self-check).  Every run that writes files also writes a
manifest with content digests, so reruns are diffable.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .agent import SacNetworks, Trainer, TrainingDiverged
from .channel import (
    expected_energy,
    moment,
    pdf,
    rate_bits_per_s,
    sample_gain,
    transmission_duration,
)
from .config import (
    ConfigError,
    build_clips,
    build_episode_config,
    build_link,
    build_sac_config,
    config_digest,
    default_config,
    load_config,
    resolve_config,
)
from .ingest import (
    FRAME_HEIGHT,
    FRAME_WIDTH,
    ClipParseError,
    clip_to_json,
    parse_detrac_xml,
)
from .layout import RECORD_BITS
from .simulator import (
    METRIC_COLUMNS,
    AgentPolicy,
    DeviationPolicy,
    NeverSamplePolicy,
    PeriodicPolicy,
    SamplingEnv,
    compare_policies,
)

log = logging.getLogger("semsample")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# channel-check holds about 32 bytes a draw at its peak (both gamma draws,
# their quotient and its reciprocal), so 10 M draws take about 0.33 GB; the
# default of 1 M already puts the Monte Carlo lines well inside their 2%
# tolerance.
MAX_DRAWS = 10_000_000

CURVE_COLUMNS = ("episode", *METRIC_COLUMNS)
COMPARISON_COLUMNS = ("clip", "policy", *METRIC_COLUMNS)


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextlib.contextmanager
def _phase(phase_s: dict[str, float], name: str):
    """Record the wall time of the ``with`` block in ``phase_s[name]``,
    also when it raises."""
    start = time.monotonic()
    try:
        yield
    finally:
        phase_s[name] = time.monotonic() - start


# the thread-count functions, "get" or "set" in place of {}, of
# scipy-openblas (64- and 32-bit ints) and of a plain OpenBLAS
OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                           "openblas_{}_num_threads")


def _openblas_function(kind: str):
    """The ``kind`` ("get" or "set") thread-count function of the first
    OpenBLAS this process has loaded that exports one, or None when none
    does (or the process map cannot be read, as off Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in OPENBLAS_THREAD_SYMBOLS:
            function = getattr(handle, symbol.format(kind), None)
            if function is not None:
                return function
    return None


def _blas_threads() -> Optional[int]:
    """The thread count of the loaded OpenBLAS, or None when no OpenBLAS
    with a thread-count getter is loaded."""
    getter = _openblas_function("get")
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def _share_cores_between_lanes(lane_count: int) -> None:
    """On two lanes, set the loaded OpenBLAS to half the CPUs, at least 1,
    for the rest of the process, unless ``OPENBLAS_NUM_THREADS`` chose a
    count; with no OpenBLAS thread-count setter, change nothing.  Both
    lanes call BLAS at once: on a 2-core x86-64 VM a paper-width update
    took 14.8-15.3 ms on two lanes at 1 BLAS thread, and 19.7-19.9 ms at
    OpenBLAS's default of 2."""
    if lane_count != 2 or "OPENBLAS_NUM_THREADS" in os.environ:
        return
    setter = _openblas_function("set")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(max(1, (os.cpu_count() or 1) // 2))


def _write_manifest(out_dir: Path, command: str, digest: str, seed: int, outputs: list[Path],
                    started: float, phase_s: dict[str, float], status: str = "ok") -> Path:
    """The run's record: its outputs' digests, the wall time of the whole
    command and of each phase, and what sets its speed, the BLAS library,
    its thread count and the CPU count (none changes the outputs)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": command,
        "status": status,
        "package_version": __version__,
        "config_sha256": digest,
        "seed": seed,
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
        "wall_clock_s": time.monotonic() - started,
        "phase_s": phase_s,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "cpu_count": os.cpu_count(),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _file_safe(name: str) -> str:
    return name.replace(":", "-").replace("/", "-")


def _load_config_arg(path: Optional[str]) -> dict:
    if path is None:
        return resolve_config(default_config())
    return resolve_config(load_config(path))


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def _build_policy(spec: str, nets: Optional[SacNetworks]):
    if spec == "agent":
        if nets is None:
            raise ConfigError("policy 'agent' needs a snapshot")
        return AgentPolicy(nets, mode="greedy")
    if spec == "never":
        return NeverSamplePolicy()
    if spec.startswith("periodic:"):
        try:
            return PeriodicPolicy(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad periodic policy spec {spec!r}") from exc
    if spec.startswith("deviation:"):
        try:
            return DeviationPolicy(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad deviation policy spec {spec!r}: "
                              "want deviation:THETA, THETA in [0, 1]") from exc
    raise ConfigError(f"unknown policy spec {spec!r}")


def _read_snapshot(path: str, resolved: dict) -> tuple[SacNetworks, dict]:
    """Read a snapshot written by ``train``: its networks and its document.

    A malformed snapshot raises ``ValueError``; one whose ``state`` settings
    differ from the config's raises ``ConfigError``, since its networks were
    trained on differently scaled features.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise ValueError(f"snapshot {path} nests too deeply to read") from exc
    nets = SacNetworks.from_dict(doc, build_sac_config(resolved))
    snap_state = doc.get("state")
    if snap_state is not None and snap_state != resolved["state"]:
        raise ConfigError(
            f"snapshot state settings {snap_state} differ from config {resolved['state']}"
        )
    return nets, doc


def _snapshot_doc(trainer: Trainer, resolved: dict, episodes: int) -> dict:
    doc = trainer.nets.to_dict()
    doc["trained_episodes"] = episodes
    doc["state"] = dict(resolved["state"])
    return doc


def cmd_train(args: argparse.Namespace) -> int:
    started = time.monotonic()
    resolved = _load_config_arg(args.config)
    if args.seed is not None:
        resolved["seed"] = args.seed
    if args.episodes is not None:
        resolved["training"]["episodes"] = args.episodes
    episodes = resolved["training"]["episodes"]
    if episodes < 0:
        raise ConfigError(f"training.episodes (or --episodes) must be >= 0, got {episodes}")
    seed = resolved["seed"]
    digest = config_digest(resolved)

    sac_cfg = build_sac_config(resolved)
    phase_s: dict[str, float] = {}
    with _phase(phase_s, "build_clips"):
        clips = build_clips(resolved["train_clips"], args.base_dir)
    episode_cfg = build_episode_config(resolved, seed=seed)
    env = SamplingEnv(episode_cfg, clips)
    trainer = Trainer(env, sac_cfg, seed=seed,
                      scene_refresh_every=resolved["training"]["scene_refresh_every"])
    start_episode = 0
    if args.resume:
        nets, doc = _read_snapshot(args.resume, resolved)
        trainer.load_networks(nets)
        start_episode = doc.get("trained_episodes", 0)
        if type(start_episode) is not int or start_episode < 0:
            raise ConfigError(f"snapshot trained_episodes {start_episode!r} is not a count")
        log.info("resumed from %s at episode %d", args.resume, start_episode)

    _share_cores_between_lanes(trainer.lane_count)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.info("training %d episodes (seed %d) on %d clips", episodes, seed, len(clips))
    curves_path = out_dir / "curves.csv"
    rows = []
    try:
        with _phase(phase_s, "train"):
            for episode in range(start_episode, start_episode + episodes):
                metrics = trainer.run_episode(episode)
                log.debug("episode %d reward %.3f temperature %.6g", episode, metrics.cumulative_reward,
                          trainer.nets.temperature)
                rows.append({"episode": episode, **{c: getattr(metrics, c) for c in METRIC_COLUMNS}})
    except TrainingDiverged as exc:
        # a record of the finished episodes, but no snapshot: the last step
        # may have left non-finite weights
        _write_csv(curves_path, CURVE_COLUMNS, rows)
        _write_manifest(out_dir, "train", digest, seed, [curves_path], started, phase_s, status="diverged")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    snapshot_path = out_dir / "snapshot.json"
    snapshot_path.write_text(json.dumps(
        _snapshot_doc(trainer, resolved, start_episode + episodes),
        separators=(",", ":"),
    ))
    _write_csv(curves_path, CURVE_COLUMNS, rows)
    _write_manifest(out_dir, "train", digest, seed, [snapshot_path, curves_path], started, phase_s)
    print(f"trained {episodes} episodes -> {snapshot_path}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    resolved = _load_config_arg(args.config)
    if args.seed is not None:
        resolved["seed"] = args.seed
    seed = resolved["seed"]
    digest = config_digest(resolved)

    nets, _ = _read_snapshot(args.snapshot, resolved)

    phase_s: dict[str, float] = {}
    with _phase(phase_s, "build_clips"):
        clips = build_clips(resolved["eval_clips"], args.base_dir)
    if not clips:
        raise ConfigError("no clips to evaluate")
    # a clip's rows in comparison.csv and its trace files are told apart
    # by its name alone
    seen: dict[str, str] = {}
    for clip in clips:
        safe = _file_safe(clip.name)
        if safe in seen:
            raise ConfigError(f"eval_clips {seen[safe]!r} and {clip.name!r} clash in comparison.csv or in "
                              "trace file names; give each clip a distinct name")
        seen[safe] = clip.name

    episode_cfg = build_episode_config(resolved, seed=seed)
    policies = {spec: _build_policy(spec, nets) for spec in resolved["eval_policies"]}

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    def on_result(clip_name: str, policy_name: str, metrics) -> None:
        safe = _file_safe(f"trace_{clip_name}_{policy_name}")
        path = out_dir / f"{safe}.jsonl"
        with path.open("w") as fh:
            for step in metrics.trace:
                fh.write(json.dumps(dataclasses.asdict(step), separators=(",", ":")) + "\n")
        outputs.append(path)

    with _phase(phase_s, "evaluate"):
        rows = compare_policies(episode_cfg, clips, policies, seed=seed, record_trace=args.traces,
                                on_result=on_result if args.traces else None)
    comparison_path = out_dir / "comparison.csv"
    _write_csv(comparison_path, COMPARISON_COLUMNS, rows)
    outputs.append(comparison_path)
    _write_manifest(out_dir, "evaluate", digest, seed, outputs, started, phase_s)
    print(f"evaluated {len(policies)} policies on {len(clips)} clips -> {comparison_path}")
    return EXIT_OK


def _check_line(name: str, value: float, reference: float, tolerance: float,
                failures: list[str]) -> None:
    rel = abs(value - reference) / max(abs(reference), 1e-300)
    status = "ok" if rel <= tolerance else "FAIL"
    if status == "FAIL":
        failures.append(name)
    print(f"  {name}: {value:.9g} vs {reference:.9g} (rel err {rel:.3g}, tol {tolerance:g}) {status}")


def cmd_channel_check(args: argparse.Namespace) -> int:
    from scipy.integrate import quad  # only this command integrates, so only it loads scipy

    if not 1 <= args.draws <= MAX_DRAWS:
        raise ConfigError(f"--draws must be >= 1 and <= {MAX_DRAWS}, got {args.draws}")
    resolved = _load_config_arg(args.config)
    if args.m is not None:
        resolved["channel"]["m"] = args.m
    if args.m_s is not None:
        resolved["channel"]["m_s"] = args.m_s
    link = build_link(resolved)
    fading = link.fading(resolved["channel"]["m"], resolved["channel"]["m_s"])
    bits = RECORD_BITS  # one vehicle record
    # resolve_config checked the closed forms at the config's shapes, not
    # at the overrides
    try:
        inv_closed = moment(fading, -1)
        e_closed = expected_energy(bits, link, fading)
    except OverflowError as exc:
        raise ConfigError(f"the channel settings with m={fading.m!r} and m_s={fading.m_s!r} "
                          "give an inverse gain moment too large for a float") from exc

    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    draws = sample_gain(fading, rng, size=args.draws)
    failures: list[str] = []

    print(f"channel self-check: m={fading.m}, m_s={fading.m_s}, g_bar={fading.g_bar:.6g}")
    # integrate over x = g / g_bar: the pdf's mass sits near g_bar, which is
    # about 1e-11 on the default link and invisible to quad over g in [0, inf)
    g_bar = fading.g_bar

    def x_quad(f) -> float:
        return quad(lambda x: f(x) * g_bar * pdf(fading, g_bar * x), 0.0, np.inf, limit=200)[0]

    norm = x_quad(lambda x: 1.0)
    _check_line("pdf normalization (quadrature)", norm, 1.0, 1e-6, failures)

    mean_closed = moment(fading, 1)
    mean_quad = g_bar * x_quad(lambda x: x)
    _check_line("mean: closed form vs g_bar", mean_closed, fading.g_bar, 1e-9, failures)
    _check_line("mean: quadrature vs closed form", mean_quad, mean_closed, 1e-6, failures)
    _check_line("mean: Monte Carlo vs closed form", float(draws.mean()), mean_closed, 0.02, failures)

    inv_quad = x_quad(lambda x: 1.0 / x) / g_bar
    _check_line("inverse moment: quadrature vs closed form", inv_quad, inv_closed, 1e-6, failures)
    _check_line("inverse moment: Monte Carlo vs closed form",
                float((1.0 / draws).mean()), inv_closed, 0.02, failures)
    print(f"  E[1/g] * g_bar = {inv_closed * fading.g_bar:.9g}")

    delta = transmission_duration(bits, link)
    e_moment = delta * link.snr_threshold * link.noise_power_w * inv_closed
    e_mc = delta * link.snr_threshold * link.noise_power_w * float((1.0 / draws).mean())
    print(f"  rate = {rate_bits_per_s(link):.6g} bit/s, delta({bits} bit) = {delta:.6g} s")
    _check_line("energy: closed form vs moment identity", e_closed, e_moment, 1e-12, failures)
    _check_line("energy: Monte Carlo vs closed form", e_mc, e_closed, 0.02, failures)

    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return EXIT_RUNTIME
    print("all channel checks passed")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    started = time.monotonic()
    path = Path(args.xml)
    try:
        data = path.read_bytes()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    clip = parse_detrac_xml(data, frame_width=args.width, frame_height=args.height,
                            name=args.name or path.stem)
    out_path = Path(args.out) if args.out else path.with_suffix(".json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(clip_to_json(clip))
    histogram = {1: 0, 2: 0, 3: 0, 4: 0}
    total = 0
    for frame in clip.frames:
        for vehicle in frame.vehicles:
            histogram[int(vehicle.vehicle_class)] += 1
            total += 1
    print(f"clip {clip.name!r}: {len(clip)} frames, {total} vehicle records")
    print(f"  class histogram: car={histogram[1]} bus={histogram[2]} "
          f"van={histogram[3]} others={histogram[4]}")
    print(f"  wrote {out_path} (sha256 {_sha256(out_path)[:16]}...)")
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semsample",
        description="agent-driven semantic sampling simulator",
    )
    parser.add_argument("--version", action="version", version=f"semsample {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the sampling agent")
    p_train.add_argument("--config", help="experiment config JSON")
    p_train.add_argument("--episodes", type=int, help="override training.episodes")
    p_train.add_argument("--seed", type=int, help="override the config seed")
    p_train.add_argument("--out", default="runs/train", help="output directory")
    p_train.add_argument(
        "--resume",
        help="snapshot whose networks to continue from; the optimizer moments, "
        "the replay memory (so the warm-up repeats) and the random streams "
        "restart",
    )
    p_train.add_argument("--base-dir", default=None, help="base dir for clip paths")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="compare policies on clips")
    p_eval.add_argument("--config", help="experiment config JSON")
    p_eval.add_argument("--snapshot", required=True, help="trained model snapshot")
    p_eval.add_argument("--seed", type=int, help="override the config seed")
    p_eval.add_argument("--out", default="runs/eval", help="output directory")
    p_eval.add_argument("--traces", action="store_true", help="write per-step traces")
    p_eval.add_argument("--base-dir", default=None, help="base dir for clip paths")
    p_eval.set_defaults(func=cmd_evaluate)

    p_check = sub.add_parser("channel-check", help="validate the channel math")
    p_check.add_argument("--config", help="experiment config JSON")
    p_check.add_argument("--m", type=float, help="override multipath shape")
    p_check.add_argument("--m-s", dest="m_s", type=float, help="override shadowing shape")
    p_check.add_argument("--draws", type=int, default=1_000_000, help="Monte Carlo draws")
    p_check.add_argument("--seed", type=int, help="Monte Carlo seed")
    p_check.set_defaults(func=cmd_channel_check)

    p_ingest = sub.add_parser("ingest", help="convert annotation XML to clip JSON")
    p_ingest.add_argument("xml", help="annotation XML file")
    p_ingest.add_argument("--out", help="output clip JSON path")
    p_ingest.add_argument("--width", type=int, default=FRAME_WIDTH, help="source frame width")
    p_ingest.add_argument("--height", type=int, default=FRAME_HEIGHT, help="source frame height")
    p_ingest.add_argument("--name", help="clip name override")
    p_ingest.set_defaults(func=cmd_ingest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    level = os.environ.get("SEMSAMPLE_LOG", "WARNING")
    # a name logging does not know is a usage error, not a traceback
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: SEMSAMPLE_LOG must name a logging level such as WARNING or DEBUG, got {level!r}",
              file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ClipParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
