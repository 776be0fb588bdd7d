"""Rewrite certification_seed0.json, the error tables that tier-1 pins bit for bit.

    PYTHONPATH=src python tests/data/make_certification_table.py [OUT]

The file holds the report of `run_certification(SEED, TRIALS)`, computed by
the reference here and not by `padvio.checks`: every trial is evaluated on
its own, and every finite-difference column from its own two residual calls.
The reference draws each field as `padvio.checks` does, its rotations and
poses through the same `_random_rotations` and `_random_poses`, from the same
children of `SeedSequence(SEED)`, and trial t reads row t of each draw. A
stacked trial simulates its own flight and cuts its own window out of it.
tests/test_checks.py holds the batched checks to this reference on other
seeds and trial counts, and to the file bit for bit.

A change that alters the tables on purpose reruns this script in the same
commit and records the old and new tables in CHANGES.md. Given OUT, the
script writes there instead of over the committed file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# imported before numpy: padvio pins BLAS to one thread, which BLAS reads
# when numpy starts it
import padvio  # noqa: F401
import numpy as np

from padvio import checks
from padvio.graph import PoseState, Problem, WindowState, assemble, boxplus, pose_boxplus, stacked_residual
from padvio.imu import PreintegratedDelta, WorldParams, imu_residual, imu_residual_jacobian
from padvio.manifold import exp_map
from padvio.sim import make_problem
from padvio.vision import CameraModel, PixelMeasurement, photometric_jacobian, photometric_residual

DATA = Path(__file__).resolve().parent
GOLDEN = DATA / "certification_seed0.json"
SEED = 0
TRIALS = 100


def central_difference_per_column(f, dim, h=checks.FD_STEP):
    """Central differences with two single evaluations per column, the
    columns stacked along the last axis."""
    cols = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        cols.append((f(e) - f(-e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _keep_worst(errors, name, error):
    errors[name] = max(errors.get(name, error), error)


def certify_imu(rng, trials):
    """`checks.certify_imu`, one trial at a time."""
    dR = checks._random_rotations(rng, trials, 0.6)
    dv, dp = rng.normal(0.0, 1.0, (trials, 3)), rng.normal(0.0, 1.0, (trials, 3))
    dt = rng.uniform(0.1, 1.0, trials)
    phi_i, v_i, p_i = checks._random_poses(rng, trials)
    X = checks._random_rotations(rng, trials, 0.3)
    v_j, p_j = rng.normal(0.0, 1.0, (trials, 3)), rng.normal(0.0, 2.0, (trials, 3))
    world = WorldParams()
    errors = {}
    for t in range(trials):
        delta = PreintegratedDelta(exp_map(dR[t]), dv[t], dp[t], dt[t])
        R_i = exp_map(phi_i[t])
        pose_i = PoseState(R_i, v_i[t], p_i[t])
        pose_j = PoseState(R_i @ delta.dR @ exp_map(X[t]), v_j[t], p_j[t])
        numeric = central_difference_per_column(
            lambda d: imu_residual(delta, pose_boxplus(pose_i, d[:9]), pose_boxplus(pose_j, d[9:]), world), 18
        )
        analytic = imu_residual_jacobian(delta, pose_i, pose_j, world)[1]
        for rname, rows in checks._IMU_ROWS.items():
            for cname, cols in checks._POSE_COLS.items():
                error = checks._relative_error(analytic[rows, cols], numeric[rows, cols])
                _keep_worst(errors, f"{rname}/{cname}", error)
    return errors


def certify_vision(rng, trials):
    """`checks.certify_vision`, one trial at a time."""
    focal, principal_point = rng.uniform(100.0, 800.0, trials), rng.normal(0.0, 5.0, (trials, 2))
    phi, v, p = checks._random_poses(rng, trials)
    xy, depth = rng.normal(0.0, 1.0, (trials, 2)), rng.uniform(1.0, 5.0, trials)
    uv = rng.normal(0.0, 50.0, (trials, 2))
    errors, velocity_max_abs = {}, 0.0
    for t in range(trials):
        cam, meas = CameraModel(focal[t], principal_point[t]), PixelMeasurement(1, 1, uv[t])
        R = exp_map(phi[t])
        pose = PoseState(R, v[t], p[t])
        landmark = p[t] + (R @ np.array([[xy[t, 0]], [xy[t, 1]], [depth[t]]]))[:, 0]
        numeric = central_difference_per_column(
            lambda d: photometric_residual(cam, pose_boxplus(pose, d[:9]), landmark + d[9:], meas), 12
        )
        analytic = np.zeros_like(numeric)
        analytic[:, checks._VISION_ENTRIES] = photometric_jacobian(cam, pose, landmark, meas)[1]
        for name, cols in checks._VISION_COLS.items():
            _keep_worst(errors, name, checks._relative_error(analytic[:, cols], numeric[:, cols]))
        velocity_max_abs = max(velocity_max_abs, float(np.abs(numeric[:, checks._VISION_COLS["dv"]]).max()))
    return errors, velocity_max_abs


def random_problem(rng, n, N):
    """One stacked trial, drawn in `checks.certify_stacked`'s order: a flight
    of `checks._FLIGHT_SHAPE` simulated on its own, its own problem at the
    truth cut to its first n keyframes, first n - 1 deltas and the
    detections of its first N markers, then the retracted window offset."""
    dataset = checks._simulate(*checks._random_flight(rng, *checks._FLIGHT_SHAPE))
    flight = make_problem(dataset, dataset.ground_truth.copy())
    d, meas = flight.deltas, flight.measurements
    problem = Problem(
        window=WindowState(flight.window.poses[:n], flight.window.landmarks[:N]),
        deltas=PreintegratedDelta(d.dR[: n - 1], d.dv[: n - 1], d.dp[: n - 1], d.dt_total[: n - 1]),
        measurements=meas[(meas.frame_index <= n) & (meas.landmark_id <= N)],
        cam=flight.cam,
        world=flight.world,
    )
    offset = rng.normal(0.0, 0.02, problem.window.dim)
    return problem.with_window(boxplus(problem.window, offset))


def certify_stacked(rng, trials):
    """`checks.certify_stacked`, one trial at a time: each trial's own
    problem, its own finite differences and Jacobian, and each shape's
    largest error in `STACKED_SHAPES` order."""
    errors = {}
    for trial in range(trials):
        shape = checks.STACKED_SHAPES[trial % len(checks.STACKED_SHAPES)]
        problem = random_problem(rng, *shape)
        numeric = central_difference_per_column(
            lambda d: stacked_residual(problem.with_window(boxplus(problem.window, d))), problem.window.dim
        )
        _keep_worst(errors, checks._shape_name(*shape),
                    checks._relative_error(assemble(problem)[1].toarray(), numeric))
    order = [checks._shape_name(*shape) for shape in checks.STACKED_SHAPES]
    return {name: errors[name] for name in order if name in errors}


def table(seed=SEED, trials=TRIALS) -> dict:
    """`run_certification(seed, trials)`'s report as the file holds it."""
    imu_seed, vision_seed, stacked_seed = np.random.SeedSequence(seed).spawn(3)
    vision_errors, velocity_max_abs = certify_vision(np.random.default_rng(vision_seed), trials)
    return {
        "seed": seed,
        "trials": trials,
        "imu_block_errors": certify_imu(np.random.default_rng(imu_seed), trials),
        "vision_block_errors": vision_errors,
        "vision_velocity_block_max_abs": velocity_max_abs,
        "stacked_errors": certify_stacked(np.random.default_rng(stacked_seed), trials),
    }


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    out.write_text(json.dumps(table(), indent=2) + "\n")
    print(f"wrote {out}")
