"""The benchmark's workloads: what one operation does, and how its output is checked.

An operation on the three estimation workloads takes one problem through the
work of ``padvio simulate`` (config -> ``sim.generate`` -> dataset file) and
then ``padvio estimate`` (dataset file -> cold start -> preintegration ->
``solve`` -> report files). An operation on ``certify`` is one
``checks.run_certification`` call. Operation i of a run with benchmark seed s
uses problem seed ``10_000 * s + i``; operation 0 is the untimed warm-up.

Every padvio function is looked up through its module at call time, so the
tracer's wrappers see each call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

# Criterion-5 accuracy bounds of the reference experiment.
POSE_BOUND_M = 0.5
LANDMARK_BOUND_M = 0.10


class ScenarioError(RuntimeError):
    """A generated problem is physically invalid; the benchmark must not time it."""


@dataclass
class Outcome:
    """Result of one operation. `stages` maps stage name to wall seconds."""

    stages: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None  # raised, or failed an output check
    wrong: bool = False  # produced an output that failed a check
    accurate: Optional[bool] = None  # estimation only: criterion-5 bounds met
    digest: Optional[str] = None
    seconds: float = 0.0  # wall time of the whole operation, less probing_s
    probing_s: float = 0.0  # wall time of the speed probes that ran inside it
    speed: float = 1.0  # nominal over measured probe time around the operation

    @property
    def nominal_seconds(self) -> float:
        return self.seconds * self.speed


def problem_seed(seed: int, index: int) -> int:
    return 10_000 * seed + index


def _ring(count: int, radius: float, centre) -> list:
    return [
        [centre[0] + radius * math.cos(2 * math.pi * k / count),
         centre[1] + radius * math.sin(2 * math.pi * k / count), 0.0]
        for k in range(count)
    ]


def _reference(pv, seed: int, tiny: bool):
    return pv.cli.ExperimentConfig(seed=seed)


def _long_window(pv, seed: int, tiny: bool):
    # a level circle of radius 0.5 m, 4 m above a 10-marker ring centred under it
    return pv.cli.ExperimentConfig(
        seed=seed,
        window_length=12 if tiny else 60,
        landmarks=_ring(10, 1.2, (0.5, 0.0)),
        angular_profile={"name": "constant", "value": [0.0, 0.0, 0.05]},
        accel_profile={"name": "constant", "value": [0.00125, 0.0, -9.81]},
        initial_velocity=[0.0, -0.025, 0.0],
    )


def _high_rate_imu(pv, seed: int, tiny: bool):
    return pv.cli.ExperimentConfig(seed=seed, imu_dt=0.005 if tiny else 0.001)


CONFIGS: Dict[str, Callable] = {
    "reference": _reference,
    "long_window": _long_window,
    "high_rate_imu": _high_rate_imu,
}
CERTIFY_TRIALS = 10
CERTIFY_TRIALS_TINY = 4
WORKLOADS = tuple(CONFIGS) + ("certify",)


def check_scenario(workload: str, seed: int, pseed: int, dataset) -> None:
    """Abort on a problem whose aircraft is not above the pad at every keyframe,
    or whose simulator dropped any pixel measurement."""
    truth = dataset.ground_truth
    for k, pose in enumerate(truth.poses, start=1):
        if not pose.p[2] < 0.0:
            raise ScenarioError(
                f"workload {workload}, seed {seed} (problem seed {pseed}): "
                f"keyframe {k} is not above the pad (p_z = {float(pose.p[2])!r})"
            )
    expected = truth.n * truth.num_landmarks
    if len(dataset.pixel_measurements) != expected:
        raise ScenarioError(
            f"workload {workload}, seed {seed} (problem seed {pseed}): "
            f"{len(dataset.pixel_measurements)} pixel measurements, expected {expected}"
        )


def _file_digest(h, path: Path) -> None:
    h.update(path.name.encode())
    h.update(path.read_bytes())


def estimate_op(pv, workload: str, seed: int, index: int, workdir: Path,
                tiny: bool, want_digest: bool) -> Outcome:
    cli, sim, dataset_io, solver = pv.cli, pv.sim, pv.dataset_io, pv.solver
    pseed = problem_seed(seed, index)
    config = CONFIGS[workload](pv, pseed, tiny)
    outcome = Outcome()
    path = workdir / "dataset.txt"

    t0 = time.perf_counter()
    dataset = cli.dataset_from_config(config)
    check_scenario(workload, seed, pseed, dataset)
    dataset_io.write_dataset(dataset, path)
    t1 = time.perf_counter()
    outcome.stages["simulate"] = t1 - t0

    loaded = dataset_io.read_dataset(path)
    window = sim.perturb_initialization(loaded, config.init)
    prior = window.poses[0].copy()
    problem = sim.make_problem(loaded, window, config.photometric_weight)
    start = time.perf_counter()
    try:
        report = solver.solve(problem, cli.solver_config(config))
    except solver.IterationError as err:
        outcome.stages["estimate"] = time.perf_counter() - t1
        outcome.error = f"problem seed {pseed}: {err}"
        return outcome
    cli.write_reports(workdir, loaded, report, time.perf_counter() - start)
    outcome.stages["estimate"] = time.perf_counter() - t1

    final = report.final_window
    truth = loaded.ground_truth
    first = final.poses[0]
    problems = []
    if not np.all(final.landmarks[:, 2] == 0.0):
        problems.append("a landmark altitude is not exactly 0")
    if not (np.array_equal(first.R, prior.R) and np.array_equal(first.v, prior.v)
            and np.array_equal(first.p, prior.p)):
        problems.append("keyframe 1 changed")
    if not np.all(np.isfinite(report.cost_history)):
        problems.append("cost is not finite")
    if problems:
        outcome.error = f"problem seed {pseed}: " + "; ".join(problems)
        outcome.wrong = True
        return outcome

    pose_error = max(float(np.linalg.norm(e.p - t.p)) for e, t in zip(final.poses, truth.poses))
    horizontal = float(np.abs(final.landmarks[:, :2] - truth.landmarks[:, :2]).max())
    outcome.accurate = pose_error < POSE_BOUND_M and horizontal < LANDMARK_BOUND_M

    if want_digest:
        h = hashlib.sha256()
        # summary.csv carries the wall-clock time, so it is left out
        for name in ("dataset.txt", "convergence.csv", "pose_errors.csv", "landmark_errors.csv"):
            _file_digest(h, workdir / name)
        for pose in final.poses:
            h.update(pose.R.tobytes() + pose.v.tobytes() + pose.p.tobytes())
        h.update(final.landmarks.tobytes())
        outcome.digest = h.hexdigest()
    return outcome


def certify_op(pv, workload: str, seed: int, index: int, workdir: Path,
               tiny: bool, want_digest: bool) -> Outcome:
    pseed = problem_seed(seed, index)
    trials = CERTIFY_TRIALS_TINY if tiny else CERTIFY_TRIALS
    outcome = Outcome()
    t0 = time.perf_counter()
    report = pv.checks.run_certification(seed=pseed, trials=trials)
    outcome.stages["certify"] = time.perf_counter() - t0
    if not (math.isfinite(report.max_error) and report.passed):
        outcome.error = f"problem seed {pseed}: certification failed (max error {report.max_error:.3e})"
        outcome.wrong = True
    if want_digest:
        outcome.digest = hashlib.sha256(repr(dataclasses.asdict(report)).encode()).hexdigest()
    return outcome


def operation(workload: str) -> Callable[..., Outcome]:
    return certify_op if workload == "certify" else estimate_op
