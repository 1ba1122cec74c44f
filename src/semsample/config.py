"""Declarative experiment configuration.

One JSON document drives training, evaluation and the channel self-check;
every field has a default, so a config file only lists what it changes.
Unknown keys are rejected to catch typos early.  The resolved document (all
defaults filled in, the energy scale resolved to a number) is what gets
hashed into run manifests.
"""
from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path
from typing import Any, Optional

from .agent import RewardConfig, SacConfig, StateScaling
from .channel import LinkBudget, expected_energy
from .ingest import (
    FootageClip,
    TrafficGenConfig,
    generate_traffic,
    parse_clip_json,
    parse_detrac_xml,
)
from .predictor import PredictorConfig
from .simulator import EpisodeConfig

__all__ = [
    "ConfigError",
    "default_config",
    "load_config",
    "resolve_config",
    "config_digest",
    "build_link",
    "build_episode_config",
    "build_sac_config",
    "build_clips",
]


class ConfigError(ValueError):
    """Configuration file is invalid."""


DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "channel": {
        "m": 6.0,
        "m_s": 6.0,
        "bandwidth_hz": 1000.0,
        "snr_threshold_db": 15.0,
        "noise_psd_dbm_hz": -90.0,
        "distance_m": 100.0,
    },
    "reward": {
        "w1": 10.0,
        "w2": -6.0,
        "w3": 1.0,
        "w4": 2.0,
        "deviation_threshold": 0.07,
        "penalty": 0.5,
    },
    "energy": {
        # "auto" anchors the reward-facing energy of a reference packet
        # (anchor_bits) to anchor_mj millijoules; any float is used as-is
        "scale": "auto",
        "anchor_mj": 0.015,
        "anchor_bits": 66,
    },
    "predictor": {
        "horizon": 5,
        "grid_width": 120,
        "grid_height": 80,
        "deviation_threshold": 0.07,
        "max_track_speed": 0.04,
    },
    "episode": {"steps": 150},
    "state": {"window": 150, "chi_cap": 8.0},
    "agent": {
        "widths": [300, 200, 200],
        "batch_size": 1024,
        "memory_capacity": 100000,
        "actor_lr": 1e-5,
        "critic_lr": 2e-5,
        "temperature_lr": 1e-5,
        "tau": 0.2,
        "gamma": 1.0,
        "target_entropy": -1.0,
        "initial_temperature": 1.0,
        "warmup_transitions": 2000,
        "dtype": "float32",
    },
    "training": {"episodes": 1000, "scene_refresh_every": 20},
    "train_clips": [
        {"kind": "generate", "name": "train-sparse", "frames": 500, "lanes": 1,
         "spawn_rate": 0.030, "speed_mean": 0.010, "speed_jitter": 0.0008,
         "class_mix": [0.85, 0.05, 0.07, 0.03], "seed": 101},
        {"kind": "generate", "name": "train-busy", "frames": 500, "lanes": 1,
         "spawn_rate": 0.040, "speed_mean": 0.0125, "speed_jitter": 0.001,
         "class_mix": [0.80, 0.07, 0.08, 0.05], "seed": 102},
        {"kind": "generate", "name": "train-fast", "frames": 500, "lanes": 1,
         "spawn_rate": 0.035, "speed_mean": 0.018, "speed_jitter": 0.0015,
         "class_mix": [0.85, 0.03, 0.09, 0.03], "seed": 103},
    ],
    "eval_clips": [
        {"kind": "generate", "name": "eval-sparse", "frames": 400, "lanes": 1,
         "spawn_rate": 0.030, "speed_mean": 0.010, "speed_jitter": 0.0008,
         "class_mix": [0.85, 0.05, 0.07, 0.03], "seed": 201},
        {"kind": "generate", "name": "eval-busy", "frames": 400, "lanes": 1,
         "spawn_rate": 0.040, "speed_mean": 0.0125, "speed_jitter": 0.001,
         "class_mix": [0.80, 0.07, 0.08, 0.05], "seed": 202},
        {"kind": "generate", "name": "eval-fast", "frames": 400, "lanes": 1,
         "spawn_rate": 0.035, "speed_mean": 0.018, "speed_jitter": 0.0015,
         "class_mix": [0.85, 0.03, 0.09, 0.03], "seed": 203},
    ],
    "eval_policies": ["agent", "periodic:4", "periodic:5", "periodic:6", "periodic:7"],
}

_CLIP_KEYS = {
    "generate": {"kind", "name", "frames", "lanes", "spawn_rate", "speed_mean",
                 "speed_jitter", "class_mix", "seed"},
    "file": {"kind", "path"},
    "detrac": {"kind", "path", "frame_width", "frame_height"},
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base and path in ("", "channel", "reward", "energy", "predictor",
                                        "episode", "state", "agent", "training"):
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | Path) -> dict:
    """Read a config file and merge it over the defaults (unresolved)."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULTS, doc)


def resolve_config(cfg: dict) -> dict:
    """Fill derived values (currently the auto energy scale) and validate."""
    out = copy.deepcopy(cfg)
    link = build_link(out)
    scale = out["energy"]["scale"]
    if scale == "auto":
        ref = expected_energy(
            float(out["energy"]["anchor_bits"]),
            link,
            link.fading(out["channel"]["m"], out["channel"]["m_s"]),
        )
        out["energy"]["scale"] = (out["energy"]["anchor_mj"] * 1e-3) / ref
    elif not isinstance(scale, (int, float)) or scale <= 0:
        raise ConfigError(f"energy.scale must be 'auto' or a positive number, got {scale!r}")
    for clip in out["train_clips"] + out["eval_clips"]:
        kind = clip.get("kind")
        if kind not in _CLIP_KEYS:
            raise ConfigError(f"unknown clip kind {kind!r}")
        extra = set(clip) - _CLIP_KEYS[kind]
        if extra:
            raise ConfigError(f"unknown clip keys {sorted(extra)} for kind {kind!r}")
    return out


def config_digest(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_link(cfg: dict) -> LinkBudget:
    ch = cfg["channel"]
    try:
        return LinkBudget(
            bandwidth_hz=float(ch["bandwidth_hz"]),
            snr_threshold_db=float(ch["snr_threshold_db"]),
            noise_psd_dbm_hz=float(ch["noise_psd_dbm_hz"]),
            distance_m=float(ch["distance_m"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid channel settings: {exc}") from exc


def build_episode_config(resolved: dict, seed: Optional[int] = None) -> EpisodeConfig:
    link = build_link(resolved)
    st = resolved["state"]
    rw = resolved["reward"]
    pr = resolved["predictor"]
    try:
        return EpisodeConfig(
            steps=int(resolved["episode"]["steps"]),
            link=link,
            fading_m=float(resolved["channel"]["m"]),
            fading_m_s=float(resolved["channel"]["m_s"]),
            predictor=PredictorConfig(
                horizon=int(pr["horizon"]),
                grid_width=int(pr["grid_width"]),
                grid_height=int(pr["grid_height"]),
                deviation_threshold=float(pr["deviation_threshold"]),
                max_track_speed=(
                    None if pr["max_track_speed"] is None
                    else float(pr["max_track_speed"])
                ),
            ),
            reward=RewardConfig(
                w1=float(rw["w1"]),
                w2=float(rw["w2"]),
                w3=float(rw["w3"]),
                w4=float(rw["w4"]),
                deviation_threshold=float(rw["deviation_threshold"]),
                penalty=float(rw["penalty"]),
            ),
            scaling=StateScaling(window=int(st["window"]), chi_cap=float(st["chi_cap"])),
            energy_scale=float(resolved["energy"]["scale"]),
            seed=int(resolved["seed"] if seed is None else seed),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_sac_config(resolved: dict) -> SacConfig:
    ag = resolved["agent"]
    try:
        return SacConfig(
            widths=tuple(int(w) for w in ag["widths"]),
            batch_size=int(ag["batch_size"]),
            memory_capacity=int(ag["memory_capacity"]),
            actor_lr=float(ag["actor_lr"]),
            critic_lr=float(ag["critic_lr"]),
            temperature_lr=float(ag["temperature_lr"]),
            tau=float(ag["tau"]),
            gamma=float(ag["gamma"]),
            target_entropy=float(ag["target_entropy"]),
            initial_temperature=float(ag["initial_temperature"]),
            warmup_transitions=int(ag["warmup_transitions"]),
            dtype=str(ag["dtype"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid agent settings: {exc}") from exc


def build_clips(entries: list[dict], base_dir: Optional[Path] = None) -> list[FootageClip]:
    """Materialize clip specs: generated traffic, native JSON, or XML files."""
    base = Path(base_dir) if base_dir else Path.cwd()
    clips: list[FootageClip] = []
    for entry in entries:
        kind = entry["kind"]
        if kind == "generate":
            gen = TrafficGenConfig(
                lanes=int(entry.get("lanes", 1)),
                spawn_rate=float(entry.get("spawn_rate", 0.06)),
                speed_mean=float(entry.get("speed_mean", 0.0125)),
                speed_jitter=float(entry.get("speed_jitter", 0.001)),
                class_mix=tuple(entry.get("class_mix", (0.85, 0.05, 0.07, 0.03))),
                seed=int(entry.get("seed", 0)),
            )
            clips.append(
                generate_traffic(gen, int(entry.get("frames", 400)), entry.get("name"))
            )
        elif kind == "file":
            path = base / entry["path"]
            clips.append(parse_clip_json(path.read_text()))
        elif kind == "detrac":
            path = base / entry["path"]
            clips.append(
                parse_detrac_xml(
                    path.read_bytes(),
                    frame_width=int(entry.get("frame_width", 960)),
                    frame_height=int(entry.get("frame_height", 540)),
                    name=path.stem,
                )
            )
        else:
            raise ConfigError(f"unknown clip kind {kind!r}")
    return clips
