"""Independent brute-force oracles used to check the package's fast paths.

Everything here is deliberately written the slow, obvious way (string bit
twiddling, pure-python pixel loops, exact rationals, per-row loops over
Python floats) and shares no code with the implementations under test.
"""
from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad


def pack_records_oracle(records: list[tuple[int, int, int, int, int]]) -> bytes:
    """Bit-pack (class_code, q1..q4) records via a string of '0'/'1' chars."""
    bits = ""
    for cls, q1, q2, q3, q4 in records:
        bits += format(cls - 1, "02b")
        for q in (q1, q2, q3, q4):
            bits += format(q, "05b")
    if not bits:
        return b""
    while len(bits) % 8:
        bits += "0"
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def quantize_oracle(coord: float) -> int:
    level = 0
    while (level + 1) / 32 <= coord and level < 31:
        level += 1
    return level


def box_area_frac(box) -> Fraction:
    b1, b2, b3, b4 = (Fraction(c) for c in box.as_tuple())
    return (b3 - b1) * (b4 - b2)


def box_intersection_frac(a, b) -> Fraction:
    a1, a2, a3, a4 = (Fraction(c) for c in a.as_tuple())
    b1, b2, b3, b4 = (Fraction(c) for c in b.as_tuple())
    lo_x, hi_x = max(a1, b1), min(a3, b3)
    lo_y, hi_y = max(a2, b2), min(a4, b4)
    if hi_x <= lo_x or hi_y <= lo_y:
        return Fraction(0)
    return (hi_x - lo_x) * (hi_y - lo_y)


def semantic_change_oracle(current, last) -> Fraction:
    """Exact Eq-style accumulation over the union of track ids."""
    cur = {v.track_id: v for v in current.vehicles}
    old = {v.track_id: v for v in last.vehicles}
    total = Fraction(0)
    for tid in set(cur) | set(old):
        if tid not in cur or tid not in old:
            total += Fraction(1, 2)
            continue
        a = box_area_frac(cur[tid].box)
        b = box_area_frac(old[tid].box)
        i = box_intersection_frac(cur[tid].box, old[tid].box)
        if a + b - i == 0:
            continue
        total += (a + b - 2 * i) / (2 * (a + b - i))
    return total


def prediction_deviation_oracle(real, predicted) -> Fraction:
    """Pure-python per-pixel class counting."""
    h, w = real.grid.shape
    total = Fraction(0)
    for cls in (1, 2, 3, 4):
        n = n_other = inter = 0
        for y in range(h):
            for x in range(w):
                in_real = real.grid[y, x] == cls
                in_pred = predicted.grid[y, x] == cls
                n += in_real
                n_other += in_pred
                inter += in_real and in_pred
        if n + n_other == 0:
            continue
        total += Fraction(int(n) + int(n_other) - 2 * int(inter),
                          2 * (int(n) + int(n_other)))
    return total


def rasterize_oracle(scene, width: int, height: int) -> np.ndarray:
    """Per-pixel painting by scanning every cell against every box."""
    grid = np.zeros((height, width), dtype=np.uint8)
    for rec in scene.vehicles:
        x1 = min(int(np.floor(rec.box.b1 * width)), width - 1)
        y1 = min(int(np.floor(rec.box.b2 * height)), height - 1)
        x2 = min(max(int(np.ceil(rec.box.b3 * width)), x1 + 1), width)
        y2 = min(max(int(np.ceil(rec.box.b4 * height)), y1 + 1), height)
        for y in range(y1, y2):
            for x in range(x1, x2):
                grid[y, x] = int(rec.vehicle_class)
    return grid


def quantized_scene_oracle(scene):
    """The scene as its packet decodes it: each coordinate moved to the
    centre of its 5-bit level, as records that ``rasterize_oracle`` reads."""
    def centre(coord):
        return (quantize_oracle(coord) + 0.5) / 32

    return SimpleNamespace(vehicles=[
        SimpleNamespace(vehicle_class=v.vehicle_class,
                        box=SimpleNamespace(**{k: centre(getattr(v.box, k)) for k in ("b1", "b2", "b3", "b4")}))
        for v in scene.vehicles])


def predict_layouts_oracle(older, newer, gap: int, horizon: int) -> list[np.ndarray]:
    """Per-pixel constant-velocity class shifts: each class's pixels in the
    newer layout move by k times its centroid's motion per interval,
    rounded half to even, k = 1 .. horizon.  A centroid is the float mean
    of the pixels' row and column numbers; a class absent from the older
    layout holds still.  Classes paint in ascending order; pixels that
    land off the grid are dropped."""
    old, new = older.grid.tolist(), newer.grid.tolist()
    h, w = len(new), len(new[0])

    def pixels(grid, cls):
        return [(y, x) for y in range(h) for x in range(w) if grid[y][x] == cls]

    moves = []
    for cls in (1, 2, 3, 4):
        now, before = pixels(new, cls), pixels(old, cls)
        if not now:
            continue
        dy = dx = 0.0
        if before:
            dy = (sum(y for y, _ in now) / len(now) - sum(y for y, _ in before) / len(before)) / gap
            dx = (sum(x for _, x in now) / len(now) - sum(x for _, x in before) / len(before)) / gap
        moves.append((cls, now, dy, dx))
    layouts = []
    for k in range(1, horizon + 1):
        grid = np.zeros((h, w), dtype=np.uint8)
        for cls, now, dy, dx in moves:
            sy, sx = round(k * dy), round(k * dx)
            for y, x in now:
                if 0 <= y + sy < h and 0 <= x + sx < w:
                    grid[y + sy, x + sx] = cls
        layouts.append(grid)
    return layouts


def moment_quadrature(params, n: float) -> float:
    """E[g^n] by adaptive quadrature over the fading density."""
    from semsample.channel import pdf

    val, _ = quad(lambda g: g**n * pdf(params, g), 0.0, np.inf, limit=300)
    return val


def policy_oracle(logits: list[float]) -> tuple[list[float], list[float]]:
    """pi and log pi of one row of logits."""
    top = max(logits)
    log_total = top + math.log(sum(math.exp(z - top) for z in logits))
    logp = [z - log_total for z in logits]
    return [math.exp(lp) for lp in logp], logp


def soft_bellman_targets_oracle(rewards, terminals, next_q1, next_q2, next_logits,
                                temperature: float, gamma: float) -> list[float]:
    """y = r + gamma * sum_a pi(a|s') (min(Q1'(s', a), Q2'(s', a)) - T log pi(a|s')),
    and y = r on a terminal row."""
    targets = []
    for r, done, q1, q2, z in zip(rewards, terminals, next_q1, next_q2, next_logits):
        pi, logp = policy_oracle(z)
        value = sum(pi[a] * (min(q1[a], q2[a]) - temperature * logp[a]) for a in range(len(z)))
        targets.append(r if done else r + gamma * value)
    return targets


def critic_loss_oracle(q, actions, targets) -> tuple[float, list]:
    """The sum over the critics of (1 / 2n) sum_i (Q_k(s_i, a_i) - y_i)^2,
    and its gradient at each critic's outputs, 0 off the taken actions."""
    n = len(actions)
    loss, grad = 0.0, []
    for qk in q:
        loss += sum((row[a] - y) ** 2 for row, a, y in zip(qk, actions, targets)) / (2 * n)
        grad.append([[(row[b] - y) / n if b == a else 0.0 for b in range(len(row))]
                     for row, a, y in zip(qk, actions, targets)])
    return loss, grad


def actor_loss_oracle(logits, q1, q2, temperature: float) -> tuple[float, list]:
    """(1/n) sum_i sum_a pi_a f_a, f_a = T log pi_a - min(Q1_a, Q2_a), and its
    gradient at the logits by the chain rule through the softmax:
    d pi_a / d z_c = pi_a (delta_ac - pi_c), d log pi_a / d z_c = delta_ac - pi_c."""
    n = len(logits)
    loss, grad = 0.0, []
    for z, r1, r2 in zip(logits, q1, q2):
        pi, logp = policy_oracle(z)
        k = len(z)
        f = [temperature * logp[a] - min(r1[a], r2[a]) for a in range(k)]
        loss += sum(pi[a] * f[a] for a in range(k)) / n
        row = []
        for c in range(k):
            total = 0.0
            for a in range(k):
                d_logp = (1.0 if a == c else 0.0) - pi[c]
                total += pi[a] * d_logp * f[a] + pi[a] * temperature * d_logp
            row.append(total / n)
        grad.append(row)
    return loss, grad


def temperature_loss_oracle(logits, temperature: float, target_entropy: float) -> tuple[float, float]:
    """T (H - target H), H the policy's entropy averaged over the rows, and
    its derivative with respect to log T, which is T times that w.r.t. T."""
    entropy = 0.0
    for z in logits:
        pi, logp = policy_oracle(z)
        entropy -= sum(p * lp for p, lp in zip(pi, logp))
    entropy /= len(logits)
    return temperature * (entropy - target_entropy), temperature * (entropy - target_entropy)
