import argparse
import base64
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semsample import agent, cli, config
from semsample.simulator import StepTrace

FIXTURE_XML = Path(__file__).parent / "fixtures" / "sample_detrac.xml"

# small nets and short episodes, so a train -> evaluate -> resume round trip
# runs in a few seconds
TINY = {
    "agent": {"widths": [16, 16], "batch_size": 8, "warmup_transitions": 8},
    "predictor": {"grid_width": 24, "grid_height": 16},
    "episode": {"steps": 12},
    "training": {"episodes": 2},
    "eval_policies": ["agent", "periodic:4"],
}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _rows(path):
    lines = path.read_text().splitlines()
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def test_channel_check_passes_on_the_default_config(capsys):
    assert cli.main(["channel-check"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "all channel checks passed" in out


def test_channel_check_with_few_draws_fails_the_monte_carlo_lines(capsys):
    assert cli.main(["channel-check", "--draws", "10"]) == cli.EXIT_RUNTIME
    # only the three Monte Carlo lines fail; quadrature and closed forms agree
    assert capsys.readouterr().err == (
        "FAILED: mean: Monte Carlo vs closed form, inverse moment: Monte Carlo vs "
        "closed form, energy: Monte Carlo vs closed form\n"
    )


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_channel_check_with_no_draws_gives_exit_2(capsys, draws):
    assert cli.main(["channel-check", "--draws", draws]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: --draws must be >= 1, got {draws}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--m", "inf", "multipath shape m must be > 1 and < 2**53, got inf"),
    ("--m", "1e308", "multipath shape m must be > 1 and < 2**53, got 1e+308"),
    ("--m-s", "nan", "shadowing shape m_s must be > 1 and < 2**53, got nan"),
])
def test_channel_check_with_a_shape_out_of_range_gives_exit_2(capsys, flag, value, message):
    assert cli.main(["channel-check", flag, value]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# the config passes on its own shapes; the override makes E[1/g] overflow
@pytest.mark.parametrize("flag, value, shapes", [
    ("--m", "1.0000001", "m=1.0000001 and m_s=6.0"),
    ("--m-s", "1.0000001", "m=6.0 and m_s=1.0000001"),
])
def test_channel_check_with_an_override_that_overflows_a_moment_gives_exit_2(
        tmp_path, capsys, flag, value, shapes):
    config = _write(tmp_path / "config.json", {"channel": {"distance_m": 1e80}})
    assert cli.main(["channel-check", "--config", config, "--draws", "1000"]) == cli.EXIT_OK
    capsys.readouterr()
    argv = ["channel-check", "--config", config, flag, value, "--draws", "1000"]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (f"error: the channel settings with {shapes} give an inverse gain "
                            "moment too large for a float\n")
    assert captured.out == ""


def test_importing_the_cli_loads_no_scipy_and_channel_check_still_passes():
    """Only channel-check and ``channel.pdf`` use scipy, and import it when
    called; a fresh interpreter shows what importing the CLI loads.  Nor
    does importing start a thread: a stacked net starts its helper at its
    first threaded pass."""
    src = Path(cli.__file__).resolve().parents[1]
    script = ("import sys, threading; import semsample.cli as cli; "
              "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
              "print(threading.active_count()); "
              "sys.exit(cli.main(['channel-check']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == cli.EXIT_OK, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["[]", "1"]
    assert lines[-1] == "all channel checks passed" and "FAIL" not in done.stdout


@pytest.mark.parametrize("doc, message", [
    ({"bogus": 1}, "unknown config key 'bogus'"),
    ({"agent": {"widths": [8], "bogus": 1}}, "unknown config key 'agent.bogus'"),
    ({"energy": {"scale": -1}}, "energy.scale must be 'auto' or a positive number"),
    ({"energy": {"mode": "expected"}}, "unknown config key 'energy.mode'"),
    ({"state": {"include_gap": False}}, "unknown config key 'state.include_gap'"),
    ({"agent": {"widths": [16, 0]}}, "widths must all be >= 1"),
    ({"agent": {"widths": 5}}, "agent.widths must be a list, got 5"),
    ({"agent": {"batch_size": None}}, "agent.batch_size must be an integer, got null"),
    ({"agent": {"batch_size": 0}}, "batch_size must be >= 1"),
    ({"agent": {"memory_capacity": 7, "batch_size": 8, "warmup_transitions": 0}},
     "memory_capacity must be >= batch_size"),
    ({"agent": {"memory_capacity": 8, "batch_size": 8, "warmup_transitions": 9}},
     "memory_capacity must be >= batch_size and >= warmup_transitions"),
    ({"agent": {"actor_lr": 0}}, "actor_lr must be > 0"),
    ({"agent": {"critic_lr": -1e-5}}, "critic_lr must be > 0"),
    ({"agent": {"temperature_lr": 0}}, "temperature_lr must be > 0"),
    ({"agent": {"tau": 5}}, "tau must be in (0, 1]"),
    ({"agent": {"tau": 0}}, "tau must be in (0, 1]"),
    ({"agent": {"gamma": 1.5}}, "gamma must be in [0, 1]"),
    ({"agent": {"initial_temperature": 0}}, "initial_temperature must be > 0"),
    ({"agent": {"warmup_transitions": -1}}, "warmup_transitions must be >= 0"),
    ({"agent": {"dtype": "int32"}}, "dtype must be a float type, got 'int32'"),
    ({"agent": {"dtype": "no-such-type"}}, "dtype must be a float type"),
    ({"training": {"episodes": -1}}, "training.episodes (or --episodes) must be >= 0, got -1"),
    ({"training": {"scene_refresh_every": 0}}, "scene_refresh_every must be >= 1, got 0"),
    ({"training": {"episodes": None}}, "training.episodes must be an integer, got null"),
    ({"agent": {"widths": [16.7, 8.2]}}, "agent.widths[0] must be an integer, got 16.7"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"state": {"window": True}}, "state.window must be an integer, got true"),
    ({"eval_policies": "agent"}, 'eval_policies must be a list, got "agent"'),
    ({"agent": {"memory_capacity": 1000000000000}},
     "memory_capacity must be >= batch_size and >= warmup_transitions, and <= 1000000, "
     "got 1000000000000"),
    ({"energy": {"anchor_bits": 0}}, "energy.anchor_bits must be >= 1, got 0"),
    ({"state": {"window": -5}}, "window must be >= 0, got -5"),
    ({"state": {"chi_cap": 0}}, "chi_cap must be > 0, got 0"),
    ({"state": {"chi_cap": -8}}, "chi_cap must be > 0, got -8"),
    ({"reward": {"penalty": -2}}, "penalty must be >= 0, got -2"),
    ({"reward": {"w1": -1e9}}, "w1 must be >= 0, got -1000000000.0"),
    ({"energy": {"anchor_mj": 0}}, "energy.anchor_mj must be a positive number, got 0"),
    ({"channel": {"m": 1e308}}, "multipath shape m must be > 1 and < 2**53, got 1e+308"),
    ({"channel": {"m_s": 1e308}}, "shadowing shape m_s must be > 1 and < 2**53, got 1e+308"),
    ({"channel": {"snr_threshold_db": 4000}}, "snr_threshold_db 4000 gives a linear SNR threshold of inf"),
    ({"channel": {"snr_threshold_db": -4000}}, "snr_threshold_db -4000 gives a linear SNR threshold of 0.0"),
    ({"channel": {"noise_psd_dbm_hz": 4000}}, "noise_psd_dbm_hz 4000 gives a noise power of inf"),
    ({"channel": {"noise_psd_dbm_hz": -4000}}, "noise_psd_dbm_hz -4000 gives a noise power of 0.0"),
    ({"reward": {"w4": 1e9}}, "w4 must keep exp(w4 - 1) finite, got 1000000000.0"),
    ({"predictor": {"max_track_speed": None}}, "predictor.max_track_speed must be a finite number, got null"),
    ({"channel": {"distance_m": 1e86}}, "distance_m 1e+86 gives a path-loss gain of 0.0"),
    # a subnormal gain has no finite reciprocal for the inverse moment
    ({"channel": {"distance_m": 1e83}}, "distance_m 1e+83 gives a path-loss gain of 2.45470894e-316"),
    ({"channel": {"snr_threshold_db": -160}},
     "snr_threshold_db -160 and bandwidth_hz 1000.0 give a rate of 0.0 bit/s"),
    ({"channel": {"bandwidth_hz": 1e308, "snr_threshold_db": 3000}},
     "snr_threshold_db 3000 and bandwidth_hz 1e+308 give a rate of inf bit/s"),
    ({"channel": {"snr_threshold_db": 300, "noise_psd_dbm_hz": 3000, "distance_m": 1}},
     "the channel settings give an energy.anchor_bits packet an expected energy of inf J"),
    ({"channel": {"snr_threshold_db": 300, "noise_psd_dbm_hz": 3000, "distance_m": 1},
      "energy": {"scale": 1.0}},
     "the channel settings give an energy.anchor_bits packet an expected energy of inf J"),
])
def test_a_bad_config_gives_exit_2(tmp_path, capsys, doc, message):
    config = _write(tmp_path / "config.json", doc)
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_negative_episodes_flag_gives_exit_2(tmp_path, capsys):
    config = _write(tmp_path / "config.json", TINY)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", config, "--episodes", "-3", "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: training.episodes (or --episodes) must be >= 0, got -3\n"
    assert not out.exists()


def test_a_directory_as_snapshot_gives_exit_2(tmp_path, capsys):
    config = _write(tmp_path / "config.json", TINY)
    argv = ["evaluate", "--config", config, "--snapshot", str(tmp_path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_train_evaluate_resume_round_trip(tmp_path):
    config = _write(tmp_path / "config.json", TINY)
    first, evaluation, resumed = tmp_path / "first", tmp_path / "eval", tmp_path / "resumed"
    assert cli.main(["train", "--config", config, "--out", str(first)]) == cli.EXIT_OK
    snapshot = first / "snapshot.json"
    assert json.loads(snapshot.read_text())["trained_episodes"] == 2
    assert [r["episode"] for r in _rows(first / "curves.csv")] == ["0", "1"]

    assert cli.main(["evaluate", "--config", config, "--snapshot", str(snapshot),
                     "--out", str(evaluation)]) == cli.EXIT_OK
    rows = _rows(evaluation / "comparison.csv")
    assert {r["policy"] for r in rows} == {"agent", "periodic:4"}

    assert cli.main(["train", "--config", config, "--resume", str(snapshot),
                     "--episodes", "3", "--out", str(resumed)]) == cli.EXIT_OK
    assert [r["episode"] for r in _rows(resumed / "curves.csv")] == ["2", "3", "4"]
    assert json.loads((resumed / "snapshot.json").read_text())["trained_episodes"] == 5


def test_a_diverged_training_run_leaves_its_curves_and_a_manifest(tmp_path, capsys, monkeypatch):
    config = _write(tmp_path / "config.json", TINY)
    one = tmp_path / "one"
    assert cli.main(["train", "--config", config, "--episodes", "1", "--out", str(one)]) == cli.EXIT_OK
    assert json.loads((one / "manifest.json").read_text())["status"] == "ok"
    capsys.readouterr()

    # updates start once the memory holds 8 transitions, so episode 0 makes
    # 12 - 8 + 1 = 5 of them and the 6th critic loss is episode 1's first
    real, calls = agent.critic_loss_and_grads, []

    def nan_from_the_6th_call(nets, batch):
        calls.append(None)
        loss, g1, g2 = real(nets, batch)
        return (math.nan if len(calls) >= 6 else loss), g1, g2

    monkeypatch.setattr(agent, "critic_loss_and_grads", nan_from_the_6th_call)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", config, "--episodes", "3", "--out", str(out)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at gradient step 6: critic=nan")
    assert len(err.splitlines()) == 1
    assert len(calls) == 6
    assert (out / "curves.csv").read_text() == (one / "curves.csv").read_text()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "diverged"
    assert list(manifest["outputs"]) == ["curves.csv"]
    assert sorted(p.name for p in out.iterdir()) == ["curves.csv", "manifest.json"]


def test_each_manifest_records_its_phase_times_the_blas_and_the_cpu_count(tmp_path, capsys, monkeypatch):
    config = _write(tmp_path / "config.json", TINY)
    train, evaluation, diverged = tmp_path / "train", tmp_path / "eval", tmp_path / "diverged"
    assert cli.main(["train", "--config", config, "--episodes", "1", "--out", str(train)]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--config", config, "--snapshot", str(train / "snapshot.json"),
                     "--out", str(evaluation)]) == cli.EXIT_OK
    real = agent.critic_loss_and_grads
    monkeypatch.setattr(agent, "critic_loss_and_grads", lambda nets, batch: (math.nan, *real(nets, batch)[1:]))
    assert cli.main(["train", "--config", config, "--episodes", "1", "--out", str(diverged)]) == cli.EXIT_RUNTIME
    capsys.readouterr()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    for out, phases in ((train, ["build_clips", "train"]),
                        (evaluation, ["build_clips", "evaluate"]),
                        (diverged, ["build_clips", "train"])):
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["phase_s"]) == phases
        assert all(0 <= s <= manifest["wall_clock_s"] for s in manifest["phase_s"].values())
        assert sum(manifest["phase_s"].values()) <= manifest["wall_clock_s"]
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert manifest["cpu_count"] == os.cpu_count()


def test_fixed_seed_runs_write_byte_identical_outputs(tmp_path):
    config = _write(tmp_path / "config.json", TINY)
    for run in ("a", "b"):
        assert cli.main(["train", "--config", config, "--seed", "5",
                         "--out", str(tmp_path / run / "train")]) == cli.EXIT_OK
    for name in ("curves.csv", "snapshot.json"):
        a, b = (tmp_path / run / "train" / name for run in ("a", "b"))
        assert a.read_bytes() == b.read_bytes(), name

    snapshot = str(tmp_path / "a" / "train" / "snapshot.json")
    for run in ("a", "b"):
        assert cli.main(["evaluate", "--config", config, "--snapshot", snapshot, "--seed", "5",
                         "--out", str(tmp_path / run / "eval")]) == cli.EXIT_OK
    a, b = (tmp_path / run / "eval" / "comparison.csv" for run in ("a", "b"))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["evaluate", "resume"])
def test_a_snapshot_trained_on_other_state_settings_gives_exit_2(tmp_path, capsys, command):
    config = _write(tmp_path / "config.json", TINY)
    assert cli.main(["train", "--config", config, "--episodes", "1",
                     "--out", str(tmp_path / "first")]) == cli.EXIT_OK
    capsys.readouterr()
    other = _write(tmp_path / "other.json", {**TINY, "state": {"chi_cap": 1.0}})
    snapshot = str(tmp_path / "first" / "snapshot.json")
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--config", other, "--snapshot", snapshot, "--out", str(out)]
    else:
        argv = ["train", "--config", other, "--resume", snapshot, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: snapshot state settings {'window': 150, 'chi_cap': 8.0} "
                          "differ from config {'window': 150, 'chi_cap': 1.0}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({"format": "semsample-sac-snapshot", "version": 2}, "missing key 'state_dim'"),
    ([1, 2], "snapshot must be a JSON object, got list"),
    ({"format": "semsample-sac-snapshot", "version": 2, "state_dim": "many",
      "log_temperature": 0.0}, "invalid literal"),
])
@pytest.mark.parametrize("command", ["evaluate", "resume"])
def test_a_malformed_snapshot_gives_exit_2(tmp_path, capsys, doc, message, command):
    config = _write(tmp_path / "config.json", TINY)
    snapshot = _write(tmp_path / "snapshot.json", doc)
    out = str(tmp_path / "out")
    if command == "evaluate":
        argv = ["evaluate", "--config", config, "--snapshot", snapshot, "--out", out]
    else:
        argv = ["train", "--config", config, "--resume", snapshot, "--out", out]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


def test_a_snapshot_with_bad_shapes_or_episode_count_gives_exit_2(tmp_path, capsys):
    config = _write(tmp_path / "config.json", TINY)
    assert cli.main(["train", "--config", config, "--episodes", "1",
                     "--out", str(tmp_path / "first")]) == cli.EXIT_OK
    doc = json.loads((tmp_path / "first" / "snapshot.json").read_text())
    capsys.readouterr()

    q2 = doc["q2"]
    truncated = base64.b64encode(base64.b64decode(q2["flat"])[:-4]).decode()  # drop the last value
    for i, (net, message) in enumerate([
        ({**q2, "flat": truncated}, "network flat holds 11076 bytes, dims (153, 16, 16, 2) need 11080 as <f4"),
        ({**q2, "flat": q2["flat"][:-2] + "!="}, "network flat is not base64"),
        ({**q2, "stored": "<i4"}, "network stored type '<i4' is not a little-endian float type"),
        ({**q2, "stored": ">f4"}, "network stored type '>f4' is not a little-endian float type"),
        ({**q2, "stored": "float32"}, "network stored type 'float32' is not a little-endian float type"),
    ]):
        snapshot = _write(tmp_path / f"bad_net_{i}.json", {**doc, "q2": net})
        assert cli.main(["evaluate", "--config", config, "--snapshot", snapshot,
                         "--out", str(tmp_path / "eval")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: malformed snapshot: ") and message in err
        assert len(err.splitlines()) == 1

    snapshot = _write(tmp_path / "version_1.json", {**doc, "version": 1})
    assert cli.main(["evaluate", "--config", config, "--snapshot", snapshot,
                     "--out", str(tmp_path / "eval")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: snapshot version 1 is not supported; this reader takes version 2\n")

    narrow = {**TINY, "agent": {**TINY["agent"], "widths": [8, 8]}}
    assert cli.main(["evaluate", "--config", _write(tmp_path / "narrow.json", narrow),
                     "--snapshot", str(tmp_path / "first" / "snapshot.json"),
                     "--out", str(tmp_path / "eval")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "actor shapes (153, 16, 16, 2) incompatible with config (153, 8, 8, 2)" in err

    doc["trained_episodes"] = "1"
    snapshot = _write(tmp_path / "bad_count.json", doc)
    assert cli.main(["train", "--config", config, "--resume", snapshot,
                     "--out", str(tmp_path / "resumed")]) == cli.EXIT_USAGE
    assert "trained_episodes '1' is not a count" in capsys.readouterr().err


@pytest.mark.parametrize("width, height", [("0", "540"), ("-960", "540"), ("960", "0")])
def test_ingest_with_no_frame_size_gives_exit_2(tmp_path, capsys, width, height):
    out = tmp_path / "clip.json"
    argv = ["ingest", str(FIXTURE_XML), "--width", width, "--height", height, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: frame size must be at least 1x1 pixels, got {width}x{height}\n"
    assert not out.exists()


def test_a_detrac_clip_with_no_frame_width_gives_exit_2(tmp_path, capsys):
    clip = {"kind": "detrac", "path": str(FIXTURE_XML), "frame_width": 0, "frame_height": 540}
    config = _write(tmp_path / "config.json", {**TINY, "train_clips": [clip]})
    out = tmp_path / "out"
    assert cli.main(["train", "--config", config, "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: frame size must be at least 1x1 pixels, got 0x540\n"
    assert not out.exists()


def test_evaluate_traces_hold_every_step_of_every_row(tmp_path):
    config = _write(tmp_path / "config.json", TINY)
    train, out = tmp_path / "train", tmp_path / "eval"
    assert cli.main(["train", "--config", config, "--episodes", "1", "--out", str(train)]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--config", config, "--snapshot", str(train / "snapshot.json"),
                     "--traces", "--out", str(out)]) == cli.EXIT_OK
    rows = _rows(out / "comparison.csv")
    names = [f"trace_{r['clip']}_{r['policy'].replace(':', '-')}.jsonl" for r in rows]
    assert sorted(p.name for p in out.glob("trace_*.jsonl")) == sorted(names)
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert set(outputs) == {"comparison.csv", *names}

    fields = [f.name for f in dataclasses.fields(StepTrace)]
    for row, name in zip(rows, names):
        steps = [json.loads(line) for line in (out / name).read_text().splitlines()]
        assert [step["t"] for step in steps] == list(range(1, TINY["episode"]["steps"] + 1))
        assert all(list(step) == fields for step in steps)
        total = 0.0
        for step in steps:
            total += step["reward"]
        assert total == float(row["cumulative_reward"])


def test_the_flags_of_each_subcommand_are_pinned():
    parser = cli._make_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: [s for a in p._actions for s in a.option_strings]
             for name, p in [("", parser), *sub.choices.items()]}
    assert flags == {
        "": ["-h", "--help", "--version"],
        "train": ["-h", "--help", "--config", "--episodes", "--seed", "--out", "--resume",
                  "--base-dir"],
        "evaluate": ["-h", "--help", "--config", "--snapshot", "--seed", "--out", "--traces",
                     "--base-dir"],
        "channel-check": ["-h", "--help", "--config", "--m", "--m-s", "--draws", "--seed"],
        "ingest": ["-h", "--help", "--out", "--width", "--height", "--name"],
    }


@pytest.fixture(scope="module")
def tiny_snapshot(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    argv = ["train", "--config", _write(root / "config.json", TINY), "--episodes", "1",
            "--out", str(root / "train")]
    assert cli.main(argv) == cli.EXIT_OK
    return str(root / "train" / "snapshot.json")


def _evaluate_with(tmp_path, snapshot, spec):
    path = _write(tmp_path / "config.json", {**TINY, "eval_policies": [spec]})
    return cli.main(["evaluate", "--config", path, "--snapshot", snapshot,
                     "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("spec", ["agent", "periodic:3", "never"])
def test_each_policy_spec_writes_a_row_per_clip(tmp_path, tiny_snapshot, spec):
    assert _evaluate_with(tmp_path, tiny_snapshot, spec) == cli.EXIT_OK
    rows = _rows(tmp_path / "out" / "comparison.csv")
    assert [r["policy"] for r in rows] == [spec] * len(config.DEFAULTS["eval_clips"])


@pytest.mark.parametrize("spec, message", [
    ("always", "unknown policy spec 'always'"),
    ("periodic:0", "bad periodic policy spec 'periodic:0'"),
    ("periodic:x", "bad periodic policy spec 'periodic:x'"),
    ("bogus", "unknown policy spec 'bogus'"),
])
def test_a_bad_policy_spec_gives_exit_2(tmp_path, capsys, tiny_snapshot, spec, message):
    assert _evaluate_with(tmp_path, tiny_snapshot, spec) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_takes_its_clips_from_the_config_only(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["evaluate", "--snapshot", "snapshot.json", "--clips", "x.json",
                  "--out", str(tmp_path / "out")])
    assert info.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments: --clips x.json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
