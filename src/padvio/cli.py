"""Experiment command line: simulate datasets, run estimation, certify Jacobians.

Commands:

    padvio simulate        --config cfg.json --out DIR [--seed S]
    padvio estimate FILE   --config cfg.json --out DIR [--no-constraint]
                           [--iterations K] [--damping A]
    padvio check-jacobians [--seed S] [--trials T]

The config file is JSON with flat keys (all optional; defaults reproduce the
reference desk-scale experiment). Each command checks its config once, after
the command-line overrides, by the same `inputs` rules that the library
entry points apply to the values the fields become. Exit codes: 0 success,
1 config error, 2 solver failure, 3 certification failure, 4 any other
error inside a command (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import dataset_io, inputs, sim
from .checks import run_certification
from .dataset_io import fmt
from .graph import PoseState, Problem, min_landmarks
from .imu import WorldParams
from .sim import CameraModel, Dataset, NoiseSpec, Profile, TrajectorySpec
from .solver import IterationError, SolveReport, SolverConfig, solve


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Flat experiment description; defaults are the reference scenario."""

    window_length: int = 7
    imu_dt: float = 0.02
    camera_dt: float = 0.4
    imu_noise_variance: float = 1e-4
    pixel_noise_variance: float = 1e-5
    seed: int = 0
    focal: float = 1.0
    principal_point: List[float] = field(default_factory=lambda: [0.0, 0.0])
    gravity: List[float] = field(default_factory=lambda: [0.0, 0.0, 9.81])
    landmarks: Optional[List[List[float]]] = None  # default: 1 m triangle on the pad
    angular_profile: dict = field(
        default_factory=lambda: {"name": "constant", "value": [0.05, -0.04, 0.12]}
    )
    accel_profile: dict = field(
        default_factory=lambda: {"name": "constant", "value": [0.25, 0.15, -9.51]}
    )
    initial_position: List[float] = field(default_factory=lambda: [0.0, 0.0, -4.0])
    initial_velocity: List[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    damping: float = SolverConfig.damping
    iterations: int = SolverConfig.max_iterations
    constrain_altitude: bool = SolverConfig.constrain_altitude
    convergence_tol: float = SolverConfig.convergence_tol
    photometric_weight: float = Problem.photometric_weight
    init: str = "cold"  # estimation start: one of sim.INIT_PRESETS


def load_config(path: Optional[str], **overrides) -> ExperimentConfig:
    """The defaults, overridden by the config file and then by each
    command-line override that is not None, checked once."""
    config = ExperimentConfig()
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    known = {f.name for f in fields(ExperimentConfig)}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown config field: {key}")
        setattr(config, key, value)
    validate_config(config)
    return config


def _invalid(name: str, why) -> ConfigError:
    return ConfigError(f"invalid config field {name}: {why}")


def _check(name: str, rule, value, *args, **options) -> None:
    """Check a config field by the library's rule for its value."""
    try:
        rule(value, name, *args, **options)
    except ValueError as err:
        raise _invalid(name, err) from None


def validate_config(config: ExperimentConfig) -> None:
    """Check each field by the rule in `inputs` that the library applies to
    the value the field becomes."""
    _check("window_length", inputs.integer, config.window_length, 2)
    _check("seed", inputs.integer, config.seed)
    for name in ("imu_dt", "camera_dt", "focal", "photometric_weight"):
        _check(name, inputs.real, getattr(config, name), positive=True)
    try:
        sim.steps_per_frame(config.camera_dt, config.imu_dt)
    except ValueError as err:
        raise _invalid("imu_dt", err) from None
    for name in ("imu_noise_variance", "pixel_noise_variance", "damping", "convergence_tol"):
        _check(name, inputs.real, getattr(config, name))
    _check("iterations", inputs.integer, config.iterations, 1)
    _check("constrain_altitude", inputs.boolean, config.constrain_altitude)
    if config.init not in sim.INIT_PRESETS:
        raise _invalid("init", "must be " + " or ".join(map(repr, sim.INIT_PRESETS)))
    for name, size in (("principal_point", 2), ("gravity", 3), ("initial_position", 3), ("initial_velocity", 3)):
        _check(name, inputs.vector, getattr(config, name), size)
    if config.landmarks is not None:
        _check("landmarks", inputs.ground_landmarks, config.landmarks)
    for name in ("angular_profile", "accel_profile"):
        value = getattr(config, name)
        if not isinstance(value, dict) or "name" not in value:
            raise _invalid(name, "must be an object with a 'name' key")
        try:
            sim.evaluate_profile(_profile_from(value), 0.0)
        except ValueError as err:
            raise _invalid(name, err) from None


def _profile_from(config_entry: dict) -> Profile:
    params = {k: v for k, v in config_entry.items() if k != "name"}
    return Profile(config_entry["name"], params)


def config_landmarks(config: ExperimentConfig) -> np.ndarray:
    if config.landmarks is None:
        return sim.triangle_landmarks(1.0)
    return np.asarray(config.landmarks, dtype=float)


def dataset_from_config(config: ExperimentConfig) -> Dataset:
    spec = TrajectorySpec(
        duration=config.camera_dt * (config.window_length - 1),
        imu_dt=config.imu_dt,
        camera_dt=config.camera_dt,
        initial_pose=PoseState(
            R=np.eye(3),
            v=np.asarray(config.initial_velocity, dtype=float),
            p=np.asarray(config.initial_position, dtype=float),
        ),
        angular_profile=_profile_from(config.angular_profile),
        accel_profile=_profile_from(config.accel_profile),
    )
    return sim.generate(
        spec,
        config_landmarks(config),
        CameraModel(float(config.focal), np.asarray(config.principal_point, dtype=float)),
        WorldParams(np.asarray(config.gravity, dtype=float)),
        NoiseSpec(config.imu_noise_variance, config.pixel_noise_variance, config.seed),
    )


def solver_config(config: ExperimentConfig) -> SolverConfig:
    return SolverConfig(
        damping=float(config.damping),
        max_iterations=int(config.iterations),
        constrain_altitude=bool(config.constrain_altitude),
        convergence_tol=float(config.convergence_tol),
    )


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    dataset_io.write_text(path, ["\n".join(lines) + "\n"])


def write_convergence(path: Path, cost_history, step_norms) -> None:
    rows = [
        (i + 1, fmt(cost), fmt(norm))
        for i, (cost, norm) in enumerate(zip(cost_history, step_norms))
    ]
    # a run aborted between cost evaluation and step gets a blank step column
    if len(cost_history) == len(step_norms) + 1:
        rows.append((len(cost_history), fmt(cost_history[-1]), ""))
    _write_csv(path, "iteration,cost,step_norm", rows)


def _rotation_angles(Ra: np.ndarray, Rb: np.ndarray) -> np.ndarray:
    # trace form stays defined at pi, unlike the full log map
    traces = np.trace(np.swapaxes(Ra, -1, -2) @ Rb, axis1=-2, axis2=-1)
    return np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))


def _numbered(table: np.ndarray):
    """CSV rows of a (count, width) float table, each led by its 1-based number."""
    return [(i, *map(fmt, row)) for i, row in enumerate(table.tolist(), start=1)]


def write_reports(out: Path, dataset: Dataset, report: SolveReport, wall_clock: float) -> None:
    truth = dataset.ground_truth
    final = report.final_window

    write_convergence(out / "convergence.csv", report.cost_history, report.step_norms)

    pose_errors = np.column_stack(
        [final.poses.p - truth.poses.p, _rotation_angles(truth.poses.R, final.poses.R)]
    )
    _write_csv(out / "pose_errors.csv", "frame,dx,dy,dz,rot_angle_error_rad", _numbered(pose_errors))
    _write_csv(out / "landmark_errors.csv", "id,dx,dy,dz", _numbered(final.landmarks - truth.landmarks))

    _write_csv(
        out / "summary.csv",
        "keyframes,landmarks,imu_samples,measurements,iterations,initial_cost,final_cost,wall_clock_seconds",
        [
            (
                truth.n,
                truth.num_landmarks,
                len(dataset.imu_samples.dt),
                2 * len(dataset.pixel_measurements),
                report.iterations_run,
                fmt(report.cost_history[0]),
                fmt(report.cost_history[-1]),
                fmt(wall_clock),
            )
        ],
    )


def cmd_simulate(args) -> int:
    config = load_config(args.config, seed=args.seed)
    n = config.window_length
    needed = min_landmarks(n)
    if config_landmarks(config).shape[0] < needed:
        print(
            f"warning: {config_landmarks(config).shape[0]} landmarks is below the "
            f"necessary minimum {needed} for window length {n}",
            file=sys.stderr,
        )
    dataset = dataset_from_config(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "dataset.txt"
    dataset_io.write_dataset(dataset, path)
    print(
        f"{dataset.ground_truth.n} keyframes, {len(dataset.imu_samples.dt)} imu samples, "
        f"{2 * len(dataset.pixel_measurements)} measurements"
    )
    print(f"wrote {path}")
    return 0


def cmd_estimate(args) -> int:
    config = load_config(
        args.config,
        iterations=args.iterations,
        damping=args.damping,
        constrain_altitude=False if args.no_constraint else None,
    )
    try:
        dataset = dataset_io.read_dataset(args.dataset)
    except OSError as err:
        raise ConfigError(f"cannot read dataset: {err}") from None
    except dataset_io.DatasetFormatError as err:
        raise ConfigError(f"bad dataset file: {err}") from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    window = sim.perturb_initialization(dataset, config.init)
    problem = sim.make_problem(dataset, window, config.photometric_weight)
    start = time.perf_counter()
    try:
        report = solve(problem, solver_config(config))
    except IterationError as err:
        write_convergence(out / "convergence.csv", err.cost_history, err.step_norms)
        # an earlier run's reports in this directory must not pass for this run's
        for name in ("pose_errors.csv", "landmark_errors.csv", "summary.csv"):
            (out / name).unlink(missing_ok=True)
        print(f"solver failed: {err}", file=sys.stderr)
        return 2
    wall_clock = time.perf_counter() - start
    write_reports(out, dataset, report, wall_clock)
    print(
        f"{report.iterations_run} iterations, cost {fmt(report.cost_history[0])} -> "
        f"{fmt(report.cost_history[-1])}, {wall_clock:.3f} s"
    )
    print(f"wrote reports to {out}")
    return 0


def cmd_check_jacobians(args) -> int:
    _check("seed", inputs.integer, args.seed)  # the seed rule of simulate
    try:
        inputs.integer(args.trials, "trials", 1)
    except ValueError as err:
        raise ConfigError(f"invalid trials: {err}") from None
    report = run_certification(seed=args.seed, trials=args.trials)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padvio",
        description="Visual-inertial pose and landing-pad landmark estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic flight dataset")
    p_sim.add_argument("--config", help="JSON experiment config")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--out", default="out", help="output directory (default: out)")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="run estimation on a dataset file")
    p_est.add_argument("dataset", help="dataset file written by simulate")
    p_est.add_argument("--config", help="JSON experiment config")
    p_est.add_argument("--out", default="out", help="output directory (default: out)")
    p_est.add_argument("--no-constraint", action="store_true", help="leave the landmark altitudes free")
    p_est.add_argument("--iterations", type=int, help="override iteration count")
    p_est.add_argument("--damping", type=float, help="override the damping constant")
    p_est.set_defaults(func=cmd_estimate)

    p_chk = sub.add_parser("check-jacobians", help="certify analytic Jacobians against finite differences")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--trials", type=int, default=100)
    p_chk.set_defaults(func=cmd_check_jacobians)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
