"""Spans around the package's public functions, recorded from outside it.

:meth:`Tracer.install` replaces each traced function or method with a
wrapper, in every ``semsample`` module that holds a reference to it, and
:meth:`Tracer.uninstall` puts the originals back.  A span is
``(name, start, end, parent, request, work)``: ``parent`` indexes the
enclosing span (-1 at top level), ``request`` is the decision step the span
belongs to and ``work`` the floating-point operations of a matrix-multiply
pass, counted from the array shapes.  Spans stay in memory until
:meth:`Tracer.write`.
"""
from __future__ import annotations

import importlib
import inspect
import json
import random
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _forward_flops(net, x, *_args, **_kwargs) -> int:
    rows = 1 if np.ndim(x) == 1 else int(np.shape(x)[0])
    return sum(2 * rows * w.shape[0] * w.shape[1] for w in net.weights)


def _backward_flops(net, _cache, grad_out, *_args, **_kwargs) -> int:
    rows = 1 if np.ndim(grad_out) == 1 else int(np.shape(grad_out)[0])
    # one product for each weight gradient, one for each propagated delta
    return sum(2 * rows * w.shape[0] * w.shape[1] * (2 if i else 1) for i, w in enumerate(net.weights))


# (layer name, module, attribute path); a dotted path names a method
TARGETS = [
    ("agent.update", "agent", "Trainer.update"),
    ("agent.critic", "agent", "critic_loss_and_grads"),
    ("agent.actor", "agent", "actor_loss_and_grads"),
    ("agent.temperature", "agent", "temperature_loss_and_grad"),
    ("agent.soft_update", "agent", "soft_update"),
    ("agent.replay_sample", "agent", "ReplayMemory.sample"),
    ("agent.replay_push", "agent", "ReplayMemory.push"),
    ("agent.select_action", "agent", "select_action"),
    ("nets.forward", "nets", "Mlp.forward_cached"),
    ("nets.backward", "nets", "Mlp.backward"),
    ("nets.adam", "nets", "Adam.step"),
    ("simulator.env_step", "simulator", "SamplingEnv.step"),
    ("simulator.reset", "simulator", "SamplingEnv.reset"),
    ("layout.semantic_change", "layout", "semantic_change"),
    ("layout.rasterize", "layout", "rasterize"),
    ("layout.prediction_deviation", "layout", "prediction_deviation"),
    ("layout.encode_message", "layout", "encode_message"),
    ("layout.decode_message", "layout", "decode_message"),
    ("predictor.destination_step", "predictor", "DestinationState.step"),
    ("predictor.predict_scenes", "predictor", "ConstantVelocityPredictor.predict_scenes"),
    ("predictor.predict_layouts", "predictor", "ConstantVelocityPredictor.predict_layouts"),
    ("ingest.generate_traffic", "ingest", "generate_traffic"),
    ("ingest.parse_detrac_xml", "ingest", "parse_detrac_xml"),
]
LAYERS = [name for name, _, _ in TARGETS]
WORK = {"nets.forward": _forward_flops, "nets.backward": _backward_flops}
# calls kept for the oracle check, per layer: a uniform sample of the run
SAMPLED = {"layout.prediction_deviation": 12, "layout.semantic_change": 64, "layout.rasterize": 64}


class Tracer:
    def __init__(self, seed: int):
        self.spans: list = []
        self.request = -1
        self.transmits = 0
        self.forced_resamples = 0
        self.samples: dict[str, list] = {name.split(".", 1)[1]: [] for name in SAMPLED}
        self._stack: list[int] = []
        self._rng = random.Random(seed)
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for name, module, path in TARGETS:
            mod = importlib.import_module(f"semsample.{module}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for mod_name, holder in list(sys.modules.items()):
                if mod_name.split(".")[0] != "semsample":
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        hook = self._env_step_hook if name == "simulator.env_step" else None
        if name in SAMPLED:
            hook = self._sampler(name.split(".", 1)[1], SAMPLED[name], fn)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request,
                              work(*args, **kwargs) if work else 0)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _env_step_hook(self, _args, _kwargs, result) -> None:
        info = result[3]
        self.transmits += bool(info["sampled"])
        self.forced_resamples += bool(info["forced"])

    def _sampler(self, key: str, capacity: int, fn):
        bucket = self.samples[key]
        signature = inspect.signature(fn)
        seen = 0

        def keep(args, kwargs, result):
            nonlocal seen
            seen += 1
            slot = len(bucket) if len(bucket) < capacity else self._rng.randrange(seen)
            if slot < capacity:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                item = (tuple(bound.arguments.values()), result)
                if slot == len(bucket):
                    bucket.append(item)
                else:
                    bucket[slot] = item

        return keep

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, self time, total time and median call time of every layer,
        plus the matrix-multiply work of one SAC update."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _req, _work in self.spans:
            if parent >= 0:
                child[parent] += end - start
        under_update = [False] * len(self.spans)
        update_flops = 0
        for i, (name, start, end, parent, _req, work) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            durations[name].append(dur)
            under_update[i] = name == "agent.update" or (parent >= 0 and under_update[parent])
            if under_update[i]:
                update_flops += work
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.total_s"] = (total[name], "s")
            p50 = float(np.median(durations[name])) * 1e6 if durations[name] else 0.0
            out[f"{name}.p50_us"] = (p50, "us")
        updates = calls["agent.update"]
        out["nets.gflop_per_update"] = (update_flops / updates / 1e9 if updates else 0.0, "GFLOP")
        out["simulator.transmits"] = (self.transmits, "count")
        out["simulator.forced_resamples"] = (self.forced_resamples, "count")
        return out

    def write(self, path: Path) -> None:
        """One JSON list per span: id, name, parent, request, start and
        duration in microseconds from the first span, matmul flops."""
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for i, (name, start, end, parent, req, work) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, req, round((start - origin) * 1e6, 3),
                                     round((end - start) * 1e6, 3), work]) + "\n")
