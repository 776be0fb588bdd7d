"""Rewrite report_digests.json, the estimation outputs that tier-1 pins bit for bit.

    PYTHONPATH=src python tests/data/make_report_digests.py

The file holds two tables:

* "reports": the sha256 of convergence.csv, pose_errors.csv and
  landmark_errors.csv that `padvio simulate --seed 0` and `padvio estimate`
  write for the default config and for each config in this directory, with
  and without --no-constraint;
* "criterion_5": for each seed of the acceptance gate's 20-seed reference
  experiment, the final cost, the worst keyframe position error and the worst
  landmark x/y error, as `repr` floats.

A change that alters these bits on purpose reruns this script in the same
commit and records the old and new values in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

# imported before numpy: padvio pins BLAS to one thread, which BLAS reads
# when numpy starts it; the digests are the bits `padvio estimate` writes
import padvio  # noqa: F401
import numpy as np

from padvio import cli
from padvio.cli import ExperimentConfig, dataset_from_config, solver_config
from padvio.sim import make_problem, perturb_initialization
from padvio.solver import solve

DATA = Path(__file__).resolve().parent
GOLDEN = DATA / "report_digests.json"
REPORTS = ("convergence.csv", "pose_errors.csv", "landmark_errors.csv")
SEED = 0
EXPERIMENT_SEEDS = range(20)
# the JSON files here that are golden tables, not experiment configs
NOT_CONFIGS = ("certification_seed0.json", GOLDEN.name)


def configs() -> dict:
    """Config label -> config path, None for the defaults."""
    found = {"default": None}
    for path in sorted(DATA.glob("*.json")):
        if path.name not in NOT_CONFIGS:
            found[path.stem] = path
    return found


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"padvio {' '.join(argv)} exited {status}")


def report_digests() -> dict:
    """"label[ --no-constraint]" -> report file name -> sha256 of its bytes."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, path in configs().items():
            config = [] if path is None else ["--config", str(path)]
            out = Path(tmp) / label
            _run(["simulate", *config, "--seed", str(SEED), "--out", str(out)])
            for flag in ([], ["--no-constraint"]):
                _run(["estimate", str(out / "dataset.txt"), *config, *flag, "--out", str(out)])
                digests[" ".join([label, *flag])] = {
                    name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPORTS
                }
    return digests


def experiment_values(seed: int) -> dict:
    """The reference experiment's outcome at one seed, as the acceptance gate computes it."""
    config = ExperimentConfig(seed=seed)
    dataset = dataset_from_config(config)
    report = solve(make_problem(dataset, perturb_initialization(dataset, config.init)), solver_config(config))
    truth, final = dataset.ground_truth, report.final_window
    position_errors = [float(np.linalg.norm(e.p - t.p)) for e, t in zip(final.poses, truth.poses)]
    landmark_xy = float(np.abs((final.landmarks - truth.landmarks)[:, :2]).max())
    return {
        "final_cost": repr(report.cost_history[-1]),
        "worst_position_error": repr(max(position_errors)),
        "worst_landmark_xy_error": repr(landmark_xy),
    }


def digests() -> dict:
    return {
        "seed": SEED,
        "reports": report_digests(),
        "criterion_5": {str(seed): experiment_values(seed) for seed in EXPERIMENT_SEEDS},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
