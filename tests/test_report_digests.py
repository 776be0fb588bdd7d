"""The estimation reports match tests/data/report_digests.json bit for bit.

The digests pass through LAPACK solves, whose kernels may differ by CPU, so
a host whose LAPACK rounds differently fails these tests with a correct
estimator. On such a host, or after a change that alters the bits on
purpose, regenerate the file with tests/data/make_report_digests.py and
record the old and new values in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent / "data" / "make_report_digests.py"
REGENERATE = (
    "if the change is meant to alter these bits, rerun "
    f"PYTHONPATH=src python {SCRIPT.relative_to(Path(__file__).parents[1])}"
)


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("make_report_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, json.loads(module.GOLDEN.read_text())


def test_estimation_reports_match_golden_digests(digests):
    module, golden = digests
    assert golden["seed"] == module.SEED
    assert module.report_digests() == golden["reports"], REGENERATE


def test_reference_experiment_matches_golden_values(digests):
    module, golden = digests
    got = {str(seed): module.experiment_values(seed) for seed in module.EXPERIMENT_SEEDS}
    assert got == golden["criterion_5"], REGENERATE
