"""Spans, self times and work counters for the traced benchmark run.

Only the traced run installs these wrappers. Each wrapper replaces a public
name of the program where its callers look it up (a module global, a class
attribute or ``numpy.linalg``), records a span around the call and bumps the
layer's counters. ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (or -1) and ``op`` is the id of the benchmark op that caused
it. A layer's self time is its spans' durations minus the part of each
interval that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _matrix_dim(args) -> int:
    m = args[0]
    return int(getattr(m, "dim", None) or m.shape[-1])


def _count_eigensolve(counters, args, result):
    d = int(args[0].shape[-1])
    counters["work_d3"] += d**3


def _count_apply_on_qubit(counters, args, result):
    d = _matrix_dim(args)
    # One read and one write of d^2 complex128 values (16 bytes each).
    counters["bytes_computed"] += 2 * 16 * d * d


def _count_lz(counters, args, result):
    counters["pairs"] += _matrix_dim(args) // 2


def _count_hamming(counters, args, result):
    d = _matrix_dim(args)
    counters["pairs"] += d * (d - 1) // 2


def _count_load(counters, args, result):
    counters["bytes_in"] += os.path.getsize(args[0])


def _count_serialize(counters, args, result):
    # The format is ASCII (json.dumps escapes non-ASCII), so chars == bytes.
    counters["bytes_out"] += len(result)


@dataclass(frozen=True)
class Target:
    """A layer and the public name whose calls it times."""

    layer: str
    module: str
    attr: str
    counter: Callable | None = None


# Layers are named module.function; a layer may cover several public names.
TARGETS = (
    Target("cli.main", "insep.cli", "main"),
    Target("cli.load_operator", "insep.cli", "load_operator", _count_load),
    Target("cli.serialize_operator", "insep.cli", "serialize_operator", _count_serialize),
    Target("linalg.HermitianOperator", "insep.linalg", "HermitianOperator.__init__"),
    Target("linalg.DensityOperator", "insep.linalg", "DensityOperator.__init__"),
    Target("linalg.eigensolve", "numpy.linalg", "eigh", _count_eigensolve),
    Target("linalg.eigensolve", "numpy.linalg", "eigvalsh", _count_eigensolve),
    Target("linalg.tensor", "insep.linalg", "tensor"),
    Target("maps.apply_on_qubit", "insep.maps", "apply_on_qubit", _count_apply_on_qubit),
    Target("maps.apply_product", "insep.maps", "apply_product"),
    Target("criteria.offdiag_scan", "insep.criteria", "lz_antidiagonal_check", _count_lz),
    Target("criteria.offdiag_scan", "insep.criteria", "hamming_offdiagonal_check", _count_hamming),
    Target("criteria.map_negativity_check", "insep.criteria", "map_negativity_check"),
    Target("states.random_multiseparable", "insep.states", "random_multiseparable"),
    Target("states.product_state", "insep.states", "product_state"),
) + tuple(
    Target(f"reproduce.{name}", "insep.reproduce", name)
    for name in (
        "check_b_family_threshold",
        "check_ppt_control",
        "check_isotropic",
        "check_pure_state",
        "check_soundness",
        "check_decomposition",
        "check_elementwise_vs_dense",
        "check_lemmas",
        "check_bloch_projection",
    )
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))


# Work counters reported per round (a fixed mix of ops), so they repeat exactly.
COUNTERS = {
    "cli.load_operator": (("calls", "count/round"), ("bytes_in", "B/round")),
    "cli.serialize_operator": (("calls", "count/round"), ("bytes_out", "B/round")),
    "linalg.HermitianOperator": (("calls", "count/round"),),
    "linalg.DensityOperator": (("calls", "count/round"),),
    "linalg.eigensolve": (("calls", "count/round"), ("work_d3", "d3/round")),
    "linalg.tensor": (("calls", "count/round"),),
    "maps.apply_on_qubit": (("calls", "count/round"), ("bytes_computed", "B/round")),
    "criteria.offdiag_scan": (("calls", "count/round"), ("pairs", "count/round")),
    "states.random_multiseparable": (("calls", "count/round"),),
    "states.product_state": (("calls", "count/round"),),
}
# Constructions per op: how often an op re-wraps and re-validates a matrix.
PER_OP = ("linalg.HermitianOperator", "linalg.DensityOperator")
# linalg.tensor is only counted; its time is in states.product_state.
TIMED = tuple(layer for layer in LAYERS if layer != "linalg.tensor")


def layer_metrics(tracer, self_s, busy: float, rounds: int, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase of ``rounds`` rounds, ``ops`` ops and ``busy`` seconds.

    ``self_s`` maps each layer to its self seconds. ``self_pct`` is that as a
    share of the traced ops' time; a layer the workload never enters reads 0.
    """
    metrics = {f"{layer}.self_pct": (100 * self_s[layer] / busy, "%") for layer in TIMED}
    for layer, counters in COUNTERS.items():
        for name, unit in counters:
            metrics[f"{layer}.{name}"] = (tracer.counters[layer][name] / rounds, unit)
    for layer in PER_OP:
        metrics[f"{layer}.per_op"] = (tracer.counters[layer]["calls"] / ops, "count/op")
    return metrics


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    Children are clipped to their parent's interval before the union is
    taken, so overlapping or overhanging children are not counted twice.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[j][1], reach)
            hi = min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters while its wrappers are installed.

    Set ``paused`` to run program code (such as the oracle's round trips)
    through the wrappers without recording it.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.unobserved: list[str] = []
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        self.op = op

    def _wrap(self, layer: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((layer, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (layer, start, end, parent, tracer.op)
            counts = tracer.counters[layer]
            counts["calls"] += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap each target everywhere the program binds it.

        A name a later version of the program no longer has is recorded as
        unobserved instead of failing the run.
        """
        for t in targets:
            try:
                owner = importlib.import_module(t.module)
                *path, attr = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.unobserved.append(f"{t.module}.{t.attr}")
                continue
            wrapper = self._wrap(t.layer, original, t.counter)
            for holder, name in _bindings(owner, attr, original):
                self._restore.append((holder, name, original))
                setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def layer_self_seconds(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span[0]] = totals.get(span[0], 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _bindings(owner, attr, original):
    """Every (holder, name) through which the program's callers reach ``original``.

    Class attributes and numpy functions are looked up on their owner; plain
    functions are also bound as globals of every ``insep`` module that
    imported them by name.
    """
    yield owner, attr
    if isinstance(owner, type) or not getattr(owner, "__name__", "").startswith("insep"):
        return
    for name, module in list(sys.modules.items()):
        if module is owner or not (name == "insep" or name.startswith("insep.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                yield module, key
