"""Output checks of the benchmark, computed apart from the program.

Each check takes what the program produced and returns a list of failure
messages; an empty list means the output is correct.  The closed forms here
(packet energy, reward, the periodic schedule, the resample rule) are written
from the paper's formulas and the configuration, not by calling the package,
so a fault in the package cannot hide itself.  Traces are read by attribute
name only (``t``, ``action``, ``forced``, ``packet_bits``, ``energy_j``,
``deviation``, ``reward``, ``case3_deviation``).
"""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

REL_TOL = 1e-9  # sums accumulated in a different order than the program's


def _close(value: float, reference: float, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return abs(value - reference) <= rel * abs(reference) + abs_tol


def packet_energy_j(bits: float, channel: dict) -> float:
    """Mean energy of one packet under SNR-holding power control:
    delta * Theta * sigma^2 * m * m_s / ((m - 1) (m_s - 1) g_bar), with the
    airtime, threshold, noise power and path-loss gain derived from the
    channel settings of the configuration."""
    bandwidth = float(channel["bandwidth_hz"])
    theta = 10.0 ** (float(channel["snr_threshold_db"]) / 10.0)
    delta = bits / (bandwidth * math.log2(1.0 + theta))
    noise_dbm = float(channel["noise_psd_dbm_hz"]) + 10.0 * math.log10(bandwidth)
    sigma2 = 10.0 ** ((noise_dbm - 30.0) / 10.0)
    pathloss_db = 35.3 + 37.6 * math.log10(float(channel["distance_m"]))
    g_bar = 10.0 ** (-pathloss_db / 10.0)
    m, m_s = float(channel["m"]), float(channel["m_s"])
    return delta * theta * sigma2 * m * m_s / ((m - 1.0) * (m_s - 1.0) * g_bar)


def paper_reward(action: int, energy_j: float, deviation: Optional[float], resolved: dict) -> float:
    """Reward of one step: w2 ln(1 + w1 E[mJ]) when sampling, else
    w3 - exp(w4 D - 1) with D the deviation plus the over-threshold penalty."""
    rw = resolved["reward"]
    if action == 1:
        energy_mj = energy_j * float(resolved["energy"]["scale"]) * 1e3
        return rw["w2"] * math.log(1.0 + rw["w1"] * energy_mj)
    d = float(deviation)
    if d > rw["deviation_threshold"]:
        d = min(d + rw["penalty"], 1.0)
    return rw["w3"] - math.exp(rw["w4"] * d - 1.0)


def episode_failures(trace: Sequence, metrics, resolved: dict, period: Optional[int] = None) -> list[str]:
    """Check one episode's aggregates against its own per-step trace.

    ``metrics`` carries ``total_energy_j``, ``bootstrap_energy_j``,
    ``sample_count``, ``mean_deviation``, ``cumulative_reward`` and
    ``steps``.  With ``period`` set, the episode ran ``periodic:period``.
    """
    fails: list[str] = []
    if not trace:
        return ["empty trace"]
    unit = packet_energy_j(1.0, resolved["channel"])
    boot_bits = metrics.bootstrap_energy_j / unit
    if boot_bits < -1e-6 or abs(boot_bits / 22.0 - round(boot_bits / 22.0)) > 1e-6:
        fails.append(f"bootstrap energy {metrics.bootstrap_energy_j!r} is not a whole number of 22-bit records")
    resample_at = float(resolved["predictor"]["deviation_threshold"])
    energy = metrics.bootstrap_energy_j
    reward_sum = 0.0
    devs: list[float] = []
    transmits = 0
    prev = None
    for step in trace:
        where = f"t={step.t}"
        if step.t != (1 if prev is None else prev.t + 1):
            fails.append(f"{where}: intervals not consecutive")
        want_forced = prev is not None and prev.action == 1 and (
            prev.case3_deviation is not None and prev.case3_deviation > resample_at
        )
        if bool(step.forced) != want_forced:
            fails.append(f"{where}: forced={step.forced}, the resample rule gives {want_forced}")
        if step.forced and step.action != 1:
            fails.append(f"{where}: forced step did not transmit")
        if period is not None and step.action != int(step.t % period == 0 or step.forced):
            fails.append(f"{where}: periodic:{period} gave action {step.action}")
        if step.action == 1:
            transmits += 1
            want = packet_energy_j(step.packet_bits, resolved["channel"])
            if not _close(step.energy_j, want):
                fails.append(f"{where}: packet energy {step.energy_j!r}, closed form {want!r}")
            energy += want
        else:
            if step.energy_j != 0.0:
                fails.append(f"{where}: silent step spent {step.energy_j!r} J")
            devs.append(step.deviation)
        r = paper_reward(step.action, step.energy_j, step.deviation, resolved)
        if not _close(step.reward, r, 1e-12, 1e-12):
            fails.append(f"{where}: reward {step.reward!r}, recomputed {r!r}")
        reward_sum += r
        prev = step
    if metrics.steps != len(trace):
        fails.append(f"steps {metrics.steps} but {len(trace)} traced")
    if metrics.sample_count != transmits:
        fails.append(f"sample_count {metrics.sample_count} but {transmits} transmits")
    if not _close(metrics.total_energy_j, energy):
        fails.append(f"total energy {metrics.total_energy_j!r}, bootstrap plus packets {energy!r}")
    mean_dev = sum(devs) / len(devs) if devs else 0.0
    if not _close(metrics.mean_deviation, mean_dev):
        fails.append(f"mean_deviation {metrics.mean_deviation!r}, mean of steps {mean_dev!r}")
    if not _close(metrics.cumulative_reward, reward_sum):
        fails.append(f"cumulative reward {metrics.cumulative_reward!r}, recomputed {reward_sum!r}")
    return fails


def row_failures(row: dict, metrics) -> list[str]:
    """A comparison row must report the episode it came from."""
    fails = []
    for key in ("cumulative_reward", "total_energy_j", "mean_deviation", "sample_count"):
        if row[key] != getattr(metrics, key):
            fails.append(f"{row['clip']}/{row['policy']}: row {key} {row[key]!r} != episode {getattr(metrics, key)!r}")
    return fails


def same_rows(reference: Sequence, other: Sequence, what: str) -> list[str]:
    """Two runs of the same inputs must give identical outputs."""
    if len(reference) != len(other):
        return [f"{what}: {len(reference)} vs {len(other)} entries"]
    for i, (a, b) in enumerate(zip(reference, other)):
        if a != b:
            return [f"{what}: entry {i} differs: {a!r} vs {b!r}"]
    return []


def finite_losses(losses: Sequence[Sequence[float]]) -> list[str]:
    for i, triple in enumerate(losses):
        if not all(math.isfinite(x) for x in triple):
            return [f"update {i}: non-finite loss {triple!r}"]
    return []


def soft_update_failures(new_targets: Sequence[np.ndarray], sources: Sequence[np.ndarray],
                         old_targets: Sequence[np.ndarray], tau: float) -> list[str]:
    """After an update every target parameter is tau * q + (1 - tau) * old."""
    fails = []
    for i, (new, src, old) in enumerate(zip(new_targets, sources, old_targets)):
        src64, old64 = src.astype(np.float64), old.astype(np.float64)
        want = tau * src64 + (1.0 - tau) * old64
        scale = max(float(np.max(np.abs(src64))), float(np.max(np.abs(old64))), 1e-30)
        err = float(np.max(np.abs(new.astype(np.float64) - want)))
        # rounding of tau, 1 - tau, two products and a sum in the net's dtype
        if err > 4 * float(np.finfo(new.dtype).eps) * scale:
            fails.append(f"target array {i}: off tau*q + (1-tau)*old by {err:.3g}")
    return fails


def gradient_failures(params: Sequence[np.ndarray], analytic: Sequence[np.ndarray],
                      loss_fn: Callable[[], float], rng: np.random.Generator,
                      what: str, per_array: int = 2, h: float = 1e-6) -> list[str]:
    """Compare sampled analytic gradient entries with central differences.

    ``params`` are float64 arrays that ``loss_fn`` reads in place.  A ReLU
    kink between w - h and w + h makes the two one-sided slopes disagree by
    at least as much as the central difference misses; such entries are
    skipped, and at least half of the sampled entries must be smooth.
    """
    fails: list[str] = []
    base = loss_fn()
    roundoff = 64 * np.finfo(np.float64).eps * max(1.0, abs(base)) / h
    checked = skipped = 0
    for k, (p, g) in enumerate(zip(params, analytic)):
        flat_p = p.reshape(-1)
        flat_g = np.asarray(g, dtype=np.float64).reshape(-1)
        scale = float(np.sqrt(np.mean(flat_g**2)))
        for i in rng.choice(flat_p.size, size=min(per_array, flat_p.size), replace=False):
            orig = flat_p[i]
            flat_p[i] = orig + h
            hi = loss_fn()
            flat_p[i] = orig - h
            lo = loss_fn()
            flat_p[i] = orig
            central = (hi - lo) / (2 * h)
            miss = abs(central - flat_g[i])
            if miss <= 1e-4 * (abs(flat_g[i]) + scale) + roundoff:
                checked += 1
            elif abs((hi - base) - (base - lo)) / h >= miss:
                skipped += 1
            else:
                fails.append(f"{what} array {k} entry {i}: analytic {flat_g[i]:.9g}, finite difference {central:.9g}")
    if skipped > checked:
        fails.append(f"{what}: {skipped} of {checked + skipped} sampled entries sit on a ReLU kink")
    return fails


def load_oracles(root: Path):
    """The repository's pure-Python oracles, ``tests/oracles.py``."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layout_failures(samples: dict, oracles) -> list[str]:
    """Calls captured from the run against the pure-Python oracles."""
    fails = []
    for (real, predicted), value in samples.get("prediction_deviation", []):
        want = float(oracles.prediction_deviation_oracle(real, predicted))
        if value != want:
            fails.append(f"prediction_deviation {value!r}, oracle {want!r}")
    for (current, last), value in samples.get("semantic_change", []):
        want = float(oracles.semantic_change_oracle(current, last))
        if value != want:
            fails.append(f"semantic_change {value!r}, oracle {want!r}")
    for (scene, width, height), layout in samples.get("rasterize", []):
        want = oracles.rasterize_oracle(scene, width, height)
        if not np.array_equal(layout.grid, want):
            fails.append(f"rasterize differs from the oracle in {int((layout.grid != want).sum())} cells")
    return fails


def clip_failures(generated, parsed, frame_width: int, frame_height: int) -> list[str]:
    """A clip written as annotation XML and parsed back is the same clip,
    with 1-based target ids and boxes equal to rounding."""
    if len(generated.frames) != len(parsed.frames):
        return [f"{parsed.name}: {len(parsed.frames)} frames parsed, {len(generated.frames)} written"]
    tol = 4 * max(frame_width, frame_height) * np.finfo(np.float64).eps
    for a, b in zip(generated.frames, parsed.frames):
        if len(a.vehicles) != len(b.vehicles):
            return [f"{parsed.name} frame {a.frame_index}: {len(b.vehicles)} vehicles parsed, {len(a.vehicles)} written"]
        for va, vb in zip(a.vehicles, b.vehicles):
            if vb.track_id != va.track_id + 1 or vb.vehicle_class != va.vehicle_class:
                return [f"{parsed.name} frame {a.frame_index}: vehicle {va.track_id} parsed as {vb.track_id}/{vb.vehicle_class}"]
            if max(abs(x - y) for x, y in zip(va.box.as_tuple(), vb.box.as_tuple())) > tol:
                return [f"{parsed.name} frame {a.frame_index}: vehicle {va.track_id} box {vb.box} != {va.box}"]
    return []
