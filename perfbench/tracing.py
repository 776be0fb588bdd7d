"""Span tracing of padvio's layers, installed from outside the program.

The tracer replaces each layer-boundary function of padvio with a wrapper
that records one span per call: its name ("module.function"), start, end,
parent span and operation id. Every module attribute that refers to the
original function is replaced, so calls made through an imported name
(``solver`` calling ``assemble``, ``graph`` calling ``exp_map``) are traced
too. Spans live in flat arrays in memory and are written when the run ends.

A layer's self time is its spans' durations minus the part covered by child
spans. Per-layer metrics are self times (scaled to nominal machine speed like
every benchmark time), call counts and a few quantities computed from the
wrapped calls' arguments and results, all per operation.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

# Self-time metrics: metric name -> the traced functions whose self time it sums.
TIME_LAYERS: Dict[str, Tuple[str, ...]] = {
    "graph.assemble_ms": ("graph.assemble",),
    "imu.factor_ms": ("imu.imu_residual", "imu.imu_residual_jacobian"),
    "vision.factor_ms": ("vision.photometric_residual", "vision.photometric_jacobian"),
    "solver.normal_ms": ("solver.build_normal_system", "solver._normal_system"),
    "solver.kkt_ms": ("solver.constrained_step",),
    "graph.boxplus_ms": ("graph.boxplus", "graph.pose_boxplus"),
    "graph.constraint_ms": ("graph.altitude_constraint",),
    "solver.solve_ms": ("solver.solve",),
    "sim.generate_ms": ("sim.generate",),
    "dataset_io.write_ms": ("dataset_io.write_dataset",),
    "manifold.exp_log_ms": ("manifold.exp_map", "manifold.log_map"),
    "dataset_io.read_ms": ("dataset_io.read_dataset",),
    "imu.preintegrate_ms": ("imu.preintegrate", "imu.integrate"),
    "sim.init_ms": ("sim.perturb_initialization",),
    "cli.write_reports_ms": ("cli.write_reports",),
    "checks.imu_ms": ("checks.certify_imu",),
    "checks.vision_ms": ("checks.certify_vision",),
    "checks.stacked_ms": ("checks.certify_stacked",),
    "graph.stacked_residual_ms": ("graph.stacked_residual",),
}

# Call-count metrics: metric name -> the traced functions whose calls it counts.
CALL_COUNTS: Dict[str, Tuple[str, ...]] = {
    "imu.factor_evals": TIME_LAYERS["imu.factor_ms"],
    "vision.factor_evals": TIME_LAYERS["vision.factor_ms"],
    "manifold.calls": TIME_LAYERS["manifold.exp_log_ms"],
    "imu.samples": ("imu.integrate",),
    "graph.stacked_residual_calls": ("graph.stacked_residual",),
}

TRACED = sorted({name for names in TIME_LAYERS.values() for name in names})


@dataclass
class _Tally:
    """Quantities computed from wrapped calls' arguments and results."""

    normal_flops: float = 0.0
    kkt_calls: int = 0
    kkt_rows: int = 0
    assemble_calls: int = 0
    jacobian_bytes: int = 0
    fill_sum: float = 0.0
    fill_ops: int = 0
    fill_op: int = -1
    solves: int = 0
    iterations: int = 0
    cost_pairs: int = 0
    cost_rises: int = 0
    dataset_bytes: int = 0


def _on_normal_system(tally: _Tally, op_id: int, args, result) -> None:
    rows, dim = args[1].shape
    # J^T (W J) plus W J plus g = J^T (W e), as dense products
    tally.normal_flops += 2.0 * rows * dim * dim + 3.0 * rows * dim


def _on_constrained_step(tally: _Tally, op_id: int, args, result) -> None:
    H, J_h = args[0], args[2]
    tally.kkt_calls += 1
    tally.kkt_rows += H.shape[0] + (0 if J_h is None else J_h.shape[0])


def _on_assemble(tally: _Tally, op_id: int, args, result) -> None:
    jacobian = result[1]
    tally.assemble_calls += 1
    tally.jacobian_bytes += jacobian.nbytes
    if tally.fill_op != op_id:  # the pattern is fixed within an operation
        tally.fill_op = op_id
        tally.fill_ops += 1
        tally.fill_sum += np.count_nonzero(jacobian) / max(1, jacobian.size)


def _on_solve(tally: _Tally, op_id: int, args, result) -> None:
    history = result.cost_history
    tally.solves += 1
    tally.iterations += result.iterations_run
    tally.cost_pairs += max(0, len(history) - 1)
    tally.cost_rises += sum(1 for a, b in zip(history, history[1:]) if b > a)


def _on_write_dataset(tally: _Tally, op_id: int, args, result) -> None:
    tally.dataset_bytes += Path(args[1]).stat().st_size


_HOOKS: Dict[str, Callable] = {
    "graph.assemble": _on_assemble,
    "solver._normal_system": _on_normal_system,
    "solver.constrained_step": _on_constrained_step,
    "solver.solve": _on_solve,
    "dataset_io.write_dataset": _on_write_dataset,
}


class Tracer:
    """Records spans of the wrapped padvio functions and of whole operations."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.raised: Counter = Counter()
        self.tally = _Tally()
        self._patched: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def _wrapper(self, original: Callable, name: str) -> Callable:
        nid = self._id(name)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                tracer._close(idx, t0, time.perf_counter())
            if hook is not None:
                hook(tracer.tally, tracer.op_id, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function under each module name that refers to it."""
        modules = [package] + [
            mod for key, mod in sys.modules.items() if key.startswith(package.__name__ + ".")
        ]
        for name in TRACED:
            module_name, func_name = name.split(".")
            original = getattr(getattr(package, module_name), func_name)
            wrapped = self._wrapper(original, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
        )
        return duration - covered

    def check_solve_spans(self) -> List[str]:
        """Within each solve span, the self times of the span and its
        descendants must add up to the span's duration."""
        a = self.arrays()
        own = self.self_times()
        problems = []
        if own.size and own.min() < -1e-9:
            problems.append(f"negative self time {own.min():.3e} s")
        if "solver.solve" not in self._ids:
            return problems
        solve_id = self._ids["solver.solve"]
        for idx in np.flatnonzero(a["name_id"] == solve_id):
            # spans open in start order, so a span's descendants are the
            # spans after it that start before it ends
            stop = int(np.searchsorted(a["start"], a["end"][idx], side="left"))
            duration = a["end"][idx] - a["start"][idx]
            total = float(own[idx:stop].sum())
            if abs(total - duration) > 1e-9 + 1e-9 * duration:
                problems.append(
                    f"solve span {idx}: self times add to {total:.9f} s, duration {duration:.9f} s"
                )
        return problems

    def layer_metrics(self, speeds: List[float]) -> Dict[str, float]:
        """Per-operation layer metrics over the spans of operations 1..len(speeds).

        speeds[i - 1] scales the span times of operation i to nominal machine speed.
        """
        a = self.arrays()
        timed = a["op"] >= 1
        scale = np.asarray(speeds)[a["op"][timed] - 1]
        own = self.self_times()[timed] * scale
        ids = a["name_id"][timed]
        per_name_time = np.bincount(ids, weights=own, minlength=len(self.names))
        per_name_calls = np.bincount(ids, minlength=len(self.names))

        def total(table, names):
            return sum(table[self._ids[n]] for n in names if n in self._ids)

        ops = max(1, len(speeds))
        metrics: Dict[str, float] = {}
        for metric, names in TIME_LAYERS.items():
            metrics[metric] = 1e3 * float(total(per_name_time, names)) / ops
        for metric, names in CALL_COUNTS.items():
            metrics[metric] = float(total(per_name_calls, names)) / ops
        t = self.tally
        metrics["solver.normal_flops"] = t.normal_flops / ops
        metrics["solver.kkt_size"] = t.kkt_rows / t.kkt_calls if t.kkt_calls else 0.0
        metrics["graph.jacobian_bytes"] = t.jacobian_bytes / t.assemble_calls if t.assemble_calls else 0.0
        metrics["graph.jacobian_fill"] = t.fill_sum / t.fill_ops if t.fill_ops else 0.0
        metrics["solver.iterations"] = t.iterations / t.solves if t.solves else 0.0
        metrics["solver.cost_rise_ratio"] = t.cost_rises / t.cost_pairs if t.cost_pairs else 0.0
        metrics["solver.aborts"] = self.raised["solver.solve"] / ops
        metrics["dataset_io.bytes"] = t.dataset_bytes / ops
        return metrics

    def write(self, path, limit: int) -> int:
        """Write the spans of the first operations, up to `limit` spans. Returns the count written."""
        a = self.arrays()
        keep = a["start"].size
        if keep > limit:
            # cut at an operation boundary so every written tree is whole
            keep = int(np.searchsorted(a["op"], a["op"][limit], side="left")) or limit
        np.savez(path, names=np.array(self.names), **{k: v[:keep] for k, v in a.items()})
        return keep
