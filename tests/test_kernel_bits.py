"""The per-iteration SO(3) and IMU kernels against the wrapper-based formulas
they replace, bit for bit.

The kernels call numpy ufuncs and array methods where these references call
the Python-level wrappers around them (`np.linalg.norm`, `np.clip`,
`np.trace`, `np.stack`, `np.eye`, `np.swapaxes`, `np.any`, `np.all`). Each
replacement is the wrapper's own formula, so every output must have the
reference's bits, signed zeros included. A rewrite that reorders a sum or
fuses a multiply-add (`einsum`, FMA) changes some last bits and fails here.

The kernels also skip work the references do: the SO(3) maps skip the
small-angle Taylor branch when no element takes it, and `assemble` passes
the IMU factor its problem's gravity terms, built once and rebuilt only when
dt_total or gravity change. Neither may change a bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from padvio import checks
from padvio.cli import ExperimentConfig, dataset_from_config
from padvio.graph import PoseState, assemble, boxplus, stacked_residual
from padvio.imu import PreintegratedDelta, WorldParams, _inv_right_jacobian, imu_residual, imu_residual_jacobian
from padvio.manifold import PI_MARGIN, SMALL_ANGLE, by_angle, exp_map, hat, log_map
from padvio.sim import make_problem, perturb_initialization

# --- the wrapper-based formulas, as the kernels had them ---------------------


def reference_hat(v):
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (9,))
    S[..., np.array([7, 2, 3])] = v
    S[..., np.array([5, 6, 1])] = -v
    return S.reshape(v.shape[:-1] + (3, 3))


def reference_exp_map(phi):
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi, axis=-1)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    a = np.where(small, 1.0 - angle * angle / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - angle * angle / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    S = reference_hat(phi)
    return np.eye(3) + a[..., None, None] * S + b[..., None, None] * (S @ S)


def reference_log_map(R):
    R = np.asarray(R, dtype=float)
    c = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(c)
    near_pi = angle >= np.pi - PI_MARGIN
    if np.any(near_pi):
        first = float(angle[near_pi].flat[0])
        raise ValueError(f"log_map: rotation angle {first:.9f} rad is within {PI_MARGIN:g} of pi")
    u = 0.5 * np.stack(
        [R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0], R[..., 1, 0] - R[..., 0, 1]],
        axis=-1,
    )
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    scale = np.where(small, 1.0 + angle * angle / 6.0, safe / np.sin(safe))
    return u * scale[..., None]


def reference_inv_right_jacobian(phi):
    angle = np.linalg.norm(phi, axis=-1)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    coef = np.where(
        small,
        1.0 / 12.0,
        1.0 / (safe * safe) - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe)),
    )
    S = reference_hat(phi)
    return np.eye(3) + 0.5 * S + coef[..., None, None] * (S @ S)


def reference_imu_residual_jacobian(delta, pose_i, pose_j, world):
    dt = np.asarray(delta.dt_total, dtype=float)
    if not np.all(dt > 0.0):
        raise ValueError("imu_residual: delta.dt_total must be positive")
    g = np.asarray(world.gravity, dtype=float)
    step = dt[..., None]
    Ri_T = np.swapaxes(pose_i.R, -1, -2)
    A = Ri_T @ pose_j.R
    r_rot = reference_log_map(np.swapaxes(delta.dR, -1, -2) @ A)
    vel = pose_j.v - pose_i.v - g * step
    pos = pose_j.p - pose_i.p - pose_i.v * step - 0.5 * g * step * step
    terms = Ri_T @ np.stack([vel, pos], axis=-1)
    vel_term, pos_term = terms[..., 0], terms[..., 1]
    residual = np.concatenate([r_rot, vel_term - delta.dv, pos_term - delta.dp], axis=-1)
    Jr_inv = reference_inv_right_jacobian(residual[..., 0:3])
    J = np.zeros(residual.shape[:-1] + (9, 18))
    J[..., 0:3, 0:3] = -Jr_inv @ np.swapaxes(A, -1, -2)
    J[..., 0:3, 9:12] = Jr_inv
    J[..., 3:6, 0:3] = reference_hat(vel_term)
    J[..., 3:6, 3:6] = -Ri_T
    J[..., 3:6, 12:15] = Ri_T
    J[..., 6:9, 0:3] = reference_hat(pos_term)
    J[..., 6:9, 3:6] = -Ri_T * dt[..., None, None]
    J[..., 6:9, 6:9] = -np.eye(3)
    J[..., 6:9, 15:18] = A
    return residual, J


# --- inputs and the comparison -----------------------------------------------


def assert_same_bits(got, expected):
    """Same shape, dtype and bytes: signed zeros and NaNs included."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()


def _tangents(rng):
    """(3, 8, 3) rotation vectors: generic ones, a zero vector of -0.0
    entries, a plain zero vector, one below SMALL_ANGLE, and vectors with
    -0.0 entries on both branches."""
    phi = rng.uniform(-2.0, 2.0, (24, 3))
    phi[0] = -0.0
    phi[1] = 0.0
    phi[2] = 0.4 * SMALL_ANGLE * np.array([0.6, -0.8, 0.0])
    phi[3] = [-0.0, 0.7, -0.0]
    phi[4] = [-0.0, 0.3 * SMALL_ANGLE, 0.0]
    phi[5] = [1e-3, -0.0, -2e-3]
    return phi.reshape(3, 8, 3)


def _rotations(rng):
    """(3, 8, 3, 3) attitudes: the exponentials of `_tangents`, with the
    identity's off-diagonal entries as -0.0 in one and a rounded, slightly
    non-orthonormal matrix in another."""
    R = reference_exp_map(_tangents(rng))
    R[0, 0] = np.eye(3)
    R[0, 0][~np.eye(3, dtype=bool)] = -0.0
    R[0, 6] = np.round(R[0, 6], 6)
    return R


@pytest.fixture
def phi(rng):
    return _tangents(rng)


def test_hat_keeps_every_bit(phi):
    assert_same_bits(hat(phi), reference_hat(phi))
    for v in phi[0]:
        assert_same_bits(hat(v), reference_hat(v))


def test_exp_map_keeps_every_bit(phi):
    assert_same_bits(exp_map(phi), reference_exp_map(phi))
    for v in phi[0]:
        assert_same_bits(exp_map(v), reference_exp_map(v))


def test_log_map_keeps_every_bit(rng):
    R = _rotations(rng)
    assert_same_bits(log_map(R), reference_log_map(R))
    for M in R[0]:
        assert_same_bits(log_map(M), reference_log_map(M))


def test_log_map_rejects_a_near_pi_rotation_with_the_same_error(rng):
    R = _rotations(rng)
    R[1, 3] = reference_exp_map([0.0, np.pi - 1e-7, 0.0])
    for stack in (R, R[1, 3]):
        with pytest.raises(ValueError) as expected:
            reference_log_map(stack)
        with pytest.raises(ValueError) as got:
            log_map(stack)
        assert str(got.value) == str(expected.value)


def test_inv_right_jacobian_keeps_every_bit(phi):
    assert_same_bits(_inv_right_jacobian(phi, hat(phi)), reference_inv_right_jacobian(phi))
    for v in phi[0]:
        assert_same_bits(_inv_right_jacobian(v, hat(v)), reference_inv_right_jacobian(v))


def _branch_tangents(rng, branch):
    """(4, 5, 3) rotation vectors whose angles are all at or past
    SMALL_ANGLE ("none"), all below it ("every"), or both ("some"); a
    "+nan" branch adds a NaN vector, whose angle is not below. Each stack
    holds -0.0 entries."""
    directions = rng.standard_normal((20, 3))
    directions /= np.sqrt((directions * directions).sum(axis=-1, keepdims=True))
    angles = {
        "none": rng.uniform(0.0, 2.5, 20) + SMALL_ANGLE,
        "every": rng.uniform(0.0, 0.99 * SMALL_ANGLE, 20),
    }
    angles["some"] = np.where(np.arange(20) % 3 == 0, angles["every"], angles["none"])
    phi = directions * angles[branch.removesuffix("+nan")][:, None]
    phi[1, 0] = phi[7, 2] = -0.0
    if branch == "every":
        phi[0] = -0.0
    if branch.endswith("+nan"):
        phi[5, 1] = np.nan
    return phi.reshape(4, 5, 3)


BRANCHES = ["none", "every", "some", "none+nan", "some+nan"]


@pytest.mark.parametrize("branch", BRANCHES)
def test_exp_map_keeps_every_bit_on_each_branch(rng, branch):
    phi = _branch_tangents(rng, branch)
    assert_same_bits(exp_map(phi), reference_exp_map(phi))
    for v in phi[1]:
        assert_same_bits(exp_map(v), reference_exp_map(v))


@pytest.mark.parametrize("branch", BRANCHES)
def test_inv_right_jacobian_keeps_every_bit_on_each_branch(rng, branch):
    phi = _branch_tangents(rng, branch)
    assert_same_bits(_inv_right_jacobian(phi, hat(phi)), reference_inv_right_jacobian(phi))
    for v in phi[1]:
        assert_same_bits(_inv_right_jacobian(v, hat(v)), reference_inv_right_jacobian(v))


@pytest.mark.parametrize("branch", BRANCHES)
def test_log_map_keeps_every_bit_on_each_branch(rng, branch):
    # small angles of the exponentials round to an arccos of exactly 0; the
    # NaN vector gives a matrix of NaN
    R = reference_exp_map(_branch_tangents(rng, branch))
    angle = np.arccos(np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0))
    small = angle < SMALL_ANGLE
    assert (small.any(), small.all()) == {"none": (False, False), "every": (True, True)}.get(
        branch.removesuffix("+nan"), (True, False)
    )
    assert np.isnan(R).any() == branch.endswith("+nan")
    assert_same_bits(log_map(R), reference_log_map(R))
    for M in R[1]:
        assert_same_bits(log_map(M), reference_log_map(M))


def _not_run(angle):
    raise AssertionError("a formula no angle takes ran")


@pytest.mark.parametrize("branch", BRANCHES)
def test_by_angle_runs_only_the_formulas_some_angle_takes(rng, branch):
    angle = np.sqrt((_branch_tangents(rng, branch) ** 2).sum(axis=-1))
    small = angle < SMALL_ANGLE
    taylor = (lambda a: (a * 0.0 - 1.0,)) if small.any() else _not_run
    exact = (lambda a: (a * 0.0 + 1.0,)) if not small.all() else _not_run
    (coef,) = by_angle(angle, taylor, exact)
    assert_same_bits(coef, np.where(small, -1.0, 1.0 + angle * 0.0))


def _factors(rng, lead):
    """Random IMU factors with leading axes `lead`; the first factor's two
    states match its delta exactly at zero motion, so its rotation residual
    is a zero vector and its entries hold -0.0."""
    R_i = reference_exp_map(rng.uniform(-1.0, 1.0, lead + (3,)))
    R_j = reference_exp_map(rng.uniform(-1.0, 1.0, lead + (3,)))
    dR = reference_exp_map(rng.uniform(-0.5, 0.5, lead + (3,)))
    v_i, v_j, p_i, p_j, dv, dp = (rng.standard_normal(lead + (3,)) for _ in range(6))
    dt = rng.uniform(0.05, 1.0, lead)
    first = (0,) * len(lead)
    R_i[first] = R_j[first] = dR[first] = np.eye(3)
    v_i[first] = v_j[first] = p_i[first] = p_j[first] = dv[first] = dp[first] = -0.0
    return PreintegratedDelta(dR, dv, dp, dt), PoseState(R_i, v_i, p_i), PoseState(R_j, v_j, p_j)


@pytest.mark.parametrize("lead", [(), (6,), (2, 5)])
def test_imu_residual_jacobian_keeps_every_bit(rng, lead):
    for world in (WorldParams(), WorldParams(np.zeros(3))):
        delta, pose_i, pose_j = _factors(rng, lead)
        residual, J = imu_residual_jacobian(delta, pose_i, pose_j, world)
        expected_residual, expected_J = reference_imu_residual_jacobian(delta, pose_i, pose_j, world)
        assert_same_bits(residual, expected_residual)
        assert_same_bits(J, expected_J)


@pytest.mark.parametrize("bad_dt", [0.0, -0.1, np.nan])
def test_imu_residual_jacobian_rejects_a_dt_total_that_is_not_positive(rng, bad_dt):
    delta, pose_i, pose_j = _factors(rng, (4,))
    delta.dt_total[2] = bad_dt
    with pytest.raises(ValueError, match="delta.dt_total must be positive"):
        reference_imu_residual_jacobian(delta, pose_i, pose_j, WorldParams())
    with pytest.raises(ValueError, match="delta.dt_total must be positive"):
        imu_residual_jacobian(delta, pose_i, pose_j, WorldParams())


# --- the IMU factor inside assembly, with its problem's gravity terms --------


def _reference_problem():
    config = ExperimentConfig()
    dataset = dataset_from_config(config)
    return make_problem(dataset, perturb_initialization(dataset, config.init))


def _certification_problems():
    """A batch of three flights as `checks.certify_stacked` builds it, and
    that batch at a (2, 3) stack of perturbed windows, as its central
    differences evaluate it."""
    rng = np.random.default_rng(7)
    drawn = [checks._random_flight(rng, *checks._FLIGHT_SHAPE) for _ in range(3)]
    flights = checks._simulate(*zip(*drawn))
    truth = checks._shape_problem(make_problem(flights, flights.ground_truth), slice(None), 3, 3)
    batch = truth.with_window(boxplus(truth.window, rng.normal(0.0, 0.02, (3, 27))))
    perturbed = batch.with_window(boxplus(batch.window, rng.normal(0.0, 1e-6, (2, 1, 27))))
    return batch, perturbed


def _imu_factors(problem):
    R, v, p = problem.window.poses.R, problem.window.poses.v, problem.window.poses.p
    before = PoseState(R[..., :-1, :, :], v[..., :-1, :], p[..., :-1, :])
    after = PoseState(R[..., 1:, :, :], v[..., 1:, :], p[..., 1:, :])
    return problem.deltas, before, after, problem.world


@pytest.mark.parametrize("which", ["reference", "certification batch", "certification differences"])
def test_assembly_with_the_problems_gravity_terms_keeps_every_bit(which):
    if which == "reference":
        problem = _reference_problem()
    else:
        problem = _certification_problems()[which != "certification batch"]
    factors = _imu_factors(problem)
    expected_residual, expected_J = imu_residual_jacobian(*factors)
    rows = expected_residual.shape[-2] * 9
    residual, jacobian, _ = assemble(problem)
    assert_same_bits(residual[..., :rows], expected_residual.reshape(expected_residual.shape[:-2] + (rows,)))
    assert_same_bits(jacobian.factors[0][0], expected_J)
    assert_same_bits(stacked_residual(problem)[..., :rows], residual[..., :rows])
    assert_same_bits(imu_residual(*factors), expected_residual)


def test_gravity_terms_are_read_only_and_shared_by_window_copies():
    batch, perturbed = _certification_problems()
    terms = batch.imu_terms
    assert perturbed.imu_terms is terms
    assert batch.with_window(batch.window).imu_terms is terms
    for array in terms:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    # the terms hold a copy of the deltas' dt_total, which stays writeable
    assert batch.deltas.dt_total.flags.writeable
    assert not np.shares_memory(terms.dt, batch.deltas.dt_total)
    assert_same_bits(terms.dt[..., 0], batch.deltas.dt_total)


def _change_world(problem):
    problem.world.gravity = np.array([0.5, -0.25, 9.0])


def _write_gravity(problem):
    problem.world.gravity[0] = -0.0


def _write_dt(problem):
    problem.deltas.dt_total[..., 1] *= 1.5


def _change_deltas(problem):
    problem.deltas.dt_total = problem.deltas.dt_total * 0.75


@pytest.mark.parametrize("change", [_change_world, _write_gravity, _write_dt, _change_deltas])
def test_gravity_terms_follow_a_change_of_dt_total_or_gravity(change):
    # each problem gets its own world and deltas, so the writes stay in it
    batch, _ = _certification_problems()
    batch = replace(batch, world=WorldParams(batch.world.gravity.copy()))
    before = batch.imu_terms
    assemble(batch)
    change(batch)
    copy = batch.with_window(batch.window)
    factors = _imu_factors(copy)
    expected_residual, expected_J = imu_residual_jacobian(*factors)
    rows = expected_residual.shape[-2] * 9
    residual, jacobian, _ = assemble(copy)
    assert batch.imu_terms is not before and batch.imu_terms is copy.imu_terms
    assert_same_bits(residual[..., :rows], expected_residual.reshape(expected_residual.shape[:-2] + (rows,)))
    assert_same_bits(jacobian.factors[0][0], expected_J)


def test_assembly_rejects_a_dt_total_written_to_zero_after_first_use():
    problem = _reference_problem()
    assemble(problem)
    problem.deltas.dt_total[2] = 0.0
    with pytest.raises(ValueError, match="delta.dt_total must be positive"):
        assemble(problem)
