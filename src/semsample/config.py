"""Declarative experiment configuration.

One JSON document drives training, evaluation and the channel self-check;
every field has a default, so a config file only lists what it changes.
Each default is written once: ``seed`` and the ``channel``, ``reward``,
``predictor``, ``episode``, ``state`` and ``agent`` sections are read from
the field defaults of the dataclasses they build; only ``energy``,
``training``, the clips and ``eval_policies`` are written here.
``DEFAULTS`` is also the schema: ``resolve_config`` checks every value
against the JSON type of its default before anything else runs, and names
the dotted key of the first mismatch.  An integer setting takes only an
integer (not a bool, not 2.5); a float setting takes an integer or a finite
float; strings, lists and objects must match their default, list items are
checked against the default's first item, and each clip entry against the
keys of its own kind.  Unknown keys are rejected to catch typos early.  Two
keys take one more type: ``predictor.max_track_speed`` may be ``null``
(no speed guard) and ``energy.scale`` may be a number in place of
``"auto"``.  Values pass through unconverted, so the resolved document (all
defaults filled in, the energy scale resolved to a number) is what gets
hashed into run manifests, and each section goes whole to its dataclass.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Optional

from .agent import RewardConfig, SacConfig, StateScaling
from .channel import LinkBudget, expected_energy
from .ingest import (
    FRAME_HEIGHT,
    FRAME_WIDTH,
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


def _defaults(cls) -> dict[str, Any]:
    """The init fields of a config dataclass that have a default, as JSON."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.init and f.default is not MISSING}


_EPISODE = _defaults(EpisodeConfig)  # steps, fading_m, fading_m_s, seed

DEFAULTS: dict[str, Any] = {
    "seed": _EPISODE["seed"],
    "channel": {"m": _EPISODE["fading_m"], "m_s": _EPISODE["fading_m_s"],
                **_defaults(LinkBudget)},
    "reward": _defaults(RewardConfig),
    "energy": {
        # "auto" anchors the reward-facing energy of a reference packet
        # (anchor_bits) to anchor_mj millijoules; any float is used as-is
        "scale": "auto",
        "anchor_mj": 0.015,
        "anchor_bits": 66,
    },
    "predictor": _defaults(PredictorConfig),
    "episode": {"steps": _EPISODE["steps"]},
    "state": _defaults(StateScaling),
    "agent": _defaults(SacConfig),
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

# The entry each clip kind is checked against: its keys and their types.  A
# generate entry's traffic keys default to TrafficGenConfig's, a detrac
# entry's frame size to parse_detrac_xml's; "kind" and "path" are required.
_CLIP_KINDS = {
    "generate": DEFAULTS["train_clips"][0],
    "file": {"kind": "file", "path": ""},
    "detrac": {"kind": "detrac", "path": "", "frame_width": FRAME_WIDTH,
               "frame_height": FRAME_HEIGHT},
}

# The keys that take one more type than their default's
_ALSO = {"predictor.max_track_speed": None, "energy.scale": 1.0}

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def _fits(value: Any, default: Any) -> bool:
    if isinstance(default, float):
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is type(default)


def _check(value: Any, default: Any, where: str) -> None:
    """Raise ``ConfigError`` unless ``value`` has the JSON type of ``default``.

    Objects may only hold the default's keys, list items are checked against
    the default's first item, and a clip entry against its own kind's entry.
    """
    types = (default, _ALSO[where]) if where in _ALSO else (default,)
    if not any(_fits(value, t) for t in types):
        names = " or ".join(_TYPE_NAMES[type(t)] for t in types)
        raise ConfigError(f"{where} must be {names}, got {json.dumps(value)}")
    if isinstance(value, dict):
        if "kind" in default:
            kind = value.get("kind")
            if not isinstance(kind, str) or kind not in _CLIP_KINDS:
                raise ConfigError(f"{where}.kind must be one of {sorted(_CLIP_KINDS)}, "
                                  f"got {json.dumps(kind)}")
            default = _CLIP_KINDS[kind]
            if "path" in default and "path" not in value:
                raise ConfigError(f"{where}.path is required for a {kind!r} clip")
        for key, item in value.items():
            inner = f"{where}.{key}" if where else key
            if key not in default:
                raise ConfigError(f"unknown config key {inner!r}")
            _check(item, default[key], inner)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check(item, default[0], f"{where}[{i}]")


def _merge(base: dict, override: dict) -> dict:
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


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
    return _merge(default_config(), doc)


def resolve_config(cfg: dict) -> dict:
    """Check every value against ``DEFAULTS``, then fill the auto energy scale."""
    _check(cfg, DEFAULTS, "")
    out = copy.deepcopy(cfg)
    link = build_link(out)
    energy = out["energy"]
    if energy["anchor_bits"] < 1:
        raise ConfigError(f"energy.anchor_bits must be >= 1, got {energy['anchor_bits']!r}")
    if energy["anchor_mj"] <= 0:
        raise ConfigError(f"energy.anchor_mj must be a positive number, got {energy['anchor_mj']!r}")
    scale = energy["scale"]
    if scale == "auto":
        ref = expected_energy(
            energy["anchor_bits"],
            link,
            link.fading(out["channel"]["m"], out["channel"]["m_s"]),
        )
        energy["scale"] = (energy["anchor_mj"] * 1e-3) / ref
    elif isinstance(scale, str) or scale <= 0:
        raise ConfigError(f"energy.scale must be 'auto' or a positive number, got {scale!r}")
    return out


def config_digest(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_link(cfg: dict) -> LinkBudget:
    return LinkBudget(**{k: v for k, v in cfg["channel"].items() if k not in ("m", "m_s")})


def build_episode_config(resolved: dict, seed: Optional[int] = None) -> EpisodeConfig:
    return EpisodeConfig(
        **resolved["episode"],
        link=build_link(resolved),
        fading_m=resolved["channel"]["m"],
        fading_m_s=resolved["channel"]["m_s"],
        predictor=PredictorConfig(**resolved["predictor"]),
        reward=RewardConfig(**resolved["reward"]),
        scaling=StateScaling(**resolved["state"]),
        energy_scale=resolved["energy"]["scale"],
        seed=resolved["seed"] if seed is None else seed,
    )


def build_sac_config(resolved: dict) -> SacConfig:
    return SacConfig(**{**resolved["agent"], "widths": tuple(resolved["agent"]["widths"])})


def build_clips(entries: list[dict], base_dir: Optional[Path] = None) -> list[FootageClip]:
    """Materialize clip specs: generated traffic, native JSON, or XML files."""
    base = Path(base_dir) if base_dir else Path.cwd()
    clips: list[FootageClip] = []
    for entry in entries:
        spec = dict(entry)
        kind = spec.pop("kind")
        if kind == "generate":
            frames, name = spec.pop("frames", 400), spec.pop("name", None)
            if "class_mix" in spec:
                spec["class_mix"] = tuple(spec["class_mix"])
            clips.append(generate_traffic(TrafficGenConfig(**spec), frames, name))
        elif kind == "file":
            clips.append(parse_clip_json((base / spec["path"]).read_text()))
        elif kind == "detrac":
            path = base / spec.pop("path")
            clips.append(parse_detrac_xml(path.read_bytes(), name=path.stem, **spec))
        else:
            raise ConfigError(f"unknown clip kind {kind!r}")
    return clips
