import json
import math
from pathlib import Path

import pytest

from semsample import config
from semsample.agent import RewardConfig, SacConfig, StateScaling
from semsample.channel import LinkBudget, expected_energy
from semsample.ingest import TrafficGenConfig, generate_traffic
from semsample.predictor import PredictorConfig
from semsample.simulator import EpisodeConfig

NAN, INF = json.loads("NaN"), json.loads("Infinity")


def _nodes(doc, path=()):
    """(path, default) of every value in a defaults document, root excluded."""
    if path:
        yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


NODES = list(_nodes(config.DEFAULTS))
LEAVES = [(path, d) for path, d in NODES if not isinstance(d, (dict, list))]


def _with(path, value):
    cfg = config.default_config()
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cfg


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _refused(path, value):
    with pytest.raises(config.ConfigError) as info:
        config.resolve_config(_with(path, value))
    return str(info.value)


def test_every_leaf_is_walked():
    assert len(LEAVES) == 117
    assert {type(d) for _, d in LEAVES} == {int, float, str}


@pytest.mark.parametrize("path", [p for p, _ in NODES], ids=_dotted)
def test_null_is_refused_with_the_dotted_key(path):
    assert _refused(path, None).startswith(f"{_dotted(path)} must be ")


@pytest.mark.parametrize("path", [p for p, d in LEAVES if type(d) is int], ids=_dotted)
def test_int_keys_refuse_a_bool_and_a_fraction(path):
    assert _refused(path, True) == f"{_dotted(path)} must be an integer, got true"
    assert _refused(path, 2.5) == f"{_dotted(path)} must be an integer, got 2.5"
    assert _refused(path, 8.0) == f"{_dotted(path)} must be an integer, got 8.0"


@pytest.mark.parametrize("path", [p for p, d in LEAVES if type(d) is float], ids=_dotted)
def test_float_keys_take_an_int_as_it_is(path):
    value = math.ceil(_at(config.DEFAULTS, path))
    resolved = config.resolve_config(_with(path, value))
    assert type(_at(resolved, path)) is int and _at(resolved, path) == value
    assert _refused(path, False).startswith(f"{_dotted(path)} must be a finite number")


@pytest.mark.parametrize("path", [p for p, d in LEAVES if type(d) is not str], ids=_dotted)
def test_nan_and_infinity_are_refused(path):
    for value, shown in ((NAN, "NaN"), (INF, "Infinity"), (-INF, "-Infinity")):
        message = _refused(path, value)
        assert message.startswith(f"{_dotted(path)} must be ") and message.endswith(f"got {shown}")


@pytest.mark.parametrize("path", [p for p, d in LEAVES if type(d) is str], ids=_dotted)
def test_string_keys_refuse_a_number(path):
    if path == ("energy", "scale"):
        assert config.resolve_config(_with(path, 2))["energy"]["scale"] == 2
        assert _refused(path, NAN) == "energy.scale must be a string or a finite number, got NaN"
        assert _refused(path, [2]) == 'energy.scale must be a string or a finite number, got [2]'
    elif path[-1] == "kind":
        kinds = "['detrac', 'file', 'generate']"
        assert _refused(path, 1) == f"{_dotted(path)} must be one of {kinds}, got 1"
    else:
        assert _refused(path, 1) == f"{_dotted(path)} must be a string, got 1"


@pytest.mark.parametrize("path, value, message", [
    (("agent",), 5, "agent must be an object, got 5"),
    (("train_clips",), {"kind": "generate"}, 'train_clips must be a list, got {"kind": "generate"}'),
    (("agent", "widths"), [16, "8"], 'agent.widths[1] must be an integer, got "8"'),
    (("channel", "bandwidth_hz"), "1000", 'channel.bandwidth_hz must be a finite number, got "1000"'),
    (("train_clips", 0, "frames"), None, "train_clips[0].frames must be an integer, got null"),
])
def test_objects_and_lists_must_match_their_default(path, value, message):
    assert _refused(path, value) == message


GENERATE = {"kind": "generate", "name": "g"}
FILE = {"kind": "file", "path": "clip.json"}
DETRAC = {"kind": "detrac", "path": "clip.xml", "frame_width": 1920, "frame_height": 1080}


@pytest.mark.parametrize("entry", [GENERATE, FILE, DETRAC, config.DEFAULTS["eval_clips"][2]])
def test_each_clip_kind_accepts_its_own_keys(entry):
    resolved = config.resolve_config(_with(("eval_clips",), [entry]))
    assert resolved["eval_clips"] == [entry]


@pytest.mark.parametrize("entry, message", [
    ({**GENERATE, "path": "clip.json"}, "unknown config key 'eval_clips[0].path'"),
    ({**FILE, "frames": 10}, "unknown config key 'eval_clips[0].frames'"),
    ({**FILE, "frame_width": 960}, "unknown config key 'eval_clips[0].frame_width'"),
    ({**DETRAC, "spawn_rate": 0.1}, "unknown config key 'eval_clips[0].spawn_rate'"),
    ({**DETRAC, "frame_width": 960.0}, "eval_clips[0].frame_width must be an integer, got 960.0"),
    ({"kind": "video", "path": "x"}, "eval_clips[0].kind must be one of ['detrac', 'file', 'generate'], got \"video\""),
    ({"path": "x"}, "eval_clips[0].kind must be one of ['detrac', 'file', 'generate'], got null"),
    ({"kind": "file"}, "eval_clips[0].path is required for a 'file' clip"),
    ({"kind": "detrac"}, "eval_clips[0].path is required for a 'detrac' clip"),
])
def test_a_clip_entry_refuses_another_kinds_keys(entry, message):
    assert _refused(("eval_clips",), [entry]) == message


def test_a_generate_entry_without_traffic_keys_gets_the_generator_defaults():
    clips = config.build_clips([GENERATE])
    assert clips == [generate_traffic(TrafficGenConfig(), 400, "g")]


def test_the_default_config_builds_these_dataclasses():
    resolved = config.resolve_config(config.default_config())
    link = LinkBudget(bandwidth_hz=1000.0, snr_threshold_db=15.0, noise_psd_dbm_hz=-90.0,
                      distance_m=100.0)
    assert config.build_link(resolved) == link
    assert resolved["energy"]["scale"] == 0.015e-3 / expected_energy(66, link, link.fading(6.0, 6.0))
    assert config.build_episode_config(resolved) == EpisodeConfig(
        steps=150,
        link=link,
        fading_m=6.0,
        fading_m_s=6.0,
        predictor=PredictorConfig(horizon=5, grid_width=120, grid_height=80,
                                  deviation_threshold=0.07, max_track_speed=0.04),
        reward=RewardConfig(w1=10.0, w2=-6.0, w3=1.0, w4=2.0, deviation_threshold=0.07,
                            penalty=0.5),
        scaling=StateScaling(window=8, chi_cap=8.0),
        energy_scale=resolved["energy"]["scale"],
        seed=0,
    )
    assert config.build_episode_config(resolved, seed=7).seed == 7
    assert config.build_sac_config(resolved) == SacConfig(
        widths=(300, 200, 200), batch_size=1024, memory_capacity=100000, actor_lr=1e-5,
        critic_lr=2e-5, temperature_lr=1e-5, tau=0.2, gamma=1.0, target_entropy=-1.0,
        initial_temperature=1.0, warmup_transitions=2000, dtype="float32",
    )
    assert config.build_clips(resolved["eval_clips"]) == [
        generate_traffic(TrafficGenConfig(lanes=1, spawn_rate=0.030, speed_mean=0.010,
                                          speed_jitter=0.0008,
                                          class_mix=(0.85, 0.05, 0.07, 0.03), seed=201),
                         400, "eval-sparse"),
        generate_traffic(TrafficGenConfig(lanes=1, spawn_rate=0.040, speed_mean=0.0125,
                                          speed_jitter=0.001,
                                          class_mix=(0.80, 0.07, 0.08, 0.05), seed=202),
                         400, "eval-busy"),
        generate_traffic(TrafficGenConfig(lanes=1, spawn_rate=0.035, speed_mean=0.018,
                                          speed_jitter=0.0015,
                                          class_mix=(0.85, 0.03, 0.09, 0.03), seed=203),
                         400, "eval-fast"),
    ]


def test_the_dataclass_defaults_are_the_shipped_config():
    resolved = config.resolve_config(config.default_config())
    episode = config.build_episode_config(resolved)
    assert RewardConfig() == episode.reward
    assert PredictorConfig() == episode.predictor
    assert StateScaling() == episode.scaling
    assert SacConfig() == config.build_sac_config(resolved)
    assert EpisodeConfig(energy_scale=episode.energy_scale) == episode


def test_the_resolved_configs_are_pinned():
    # manifests record these digests as config_sha256; a change here is a
    # change of the experiment that every run of the default config does
    assert config.config_digest(config.resolve_config(config.default_config())) == (
        "1494795c0300808f3058e198f32d556b11db267ce33465f244dbc2fae2642079")
    digest_config = Path(__file__).parents[1] / "bench" / "digest_config.json"
    assert config.config_digest(config.resolve_config(config.load_config(digest_config))) == (
        "4c303c9136e73b20ecc420773ebfb1e8137fc0fe0599a55f840b2d993b1b8a69")


CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_every_checked_in_config_resolves_and_builds_its_clips(path):
    resolved = config.resolve_config(config.load_config(path))
    config.build_episode_config(resolved)
    config.build_sac_config(resolved)
    for key in ("train_clips", "eval_clips"):
        assert config.build_clips(resolved[key], path.parent)


def test_the_probe_configs_differ_only_in_their_eval_clips():
    """Both carry the probe protocol's training settings, so one snapshot
    serves both clip sets: validation clips with generator seeds 301-303 and
    the shipped eval clips."""
    valid, held_out = (config.resolve_config(config.load_config(Path(__file__).parents[1] / "configs" / name))
                       for name in ("probe-valid.json", "probe-eval.json"))
    assert {k: v for k, v in valid.items() if k != "eval_clips"} == {
        k: v for k, v in held_out.items() if k != "eval_clips"}
    assert held_out["eval_clips"] == config.DEFAULTS["eval_clips"]
    assert [c["seed"] for c in valid["eval_clips"]] == [301, 302, 303]
    assert [{**c, "seed": 0, "name": ""} for c in valid["eval_clips"]] == [
        {**c, "seed": 0, "name": ""} for c in held_out["eval_clips"]]
    assert valid["agent"] == {**config.DEFAULTS["agent"], "widths": [32, 32], "batch_size": 64,
                              "warmup_transitions": 64, "actor_lr": 3e-4, "critic_lr": 3e-4,
                              "temperature_lr": 3e-4, "tau": 0.005, "gamma": 0.9, "target_entropy": 0.3}
    assert valid["training"]["episodes"] == 200


def test_resolving_leaves_the_input_and_the_defaults_alone():
    cfg = config.default_config()
    resolved = config.resolve_config(cfg)
    assert cfg == config.DEFAULTS and cfg["energy"]["scale"] == "auto"
    assert config.resolve_config(resolved) == resolved
