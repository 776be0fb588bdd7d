import numpy as np
import pytest

from padvio.manifold import SMALL_ANGLE, exp_map, hat, is_rotation, log_map, vee

from conftest import random_rotation


def test_hat_direct_substitution():
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    np.testing.assert_array_equal(hat([1.0, 2.0, 3.0]), expected)


def test_hat_zero():
    np.testing.assert_array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_rejects_vectors_of_another_length():
    for shape in ((2,), (4,), (5, 4), ()):
        with pytest.raises(ValueError, match="hat: expected"):
            hat(np.ones(shape))


def test_hat_matches_cross_product(rng):
    for _ in range(100):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(hat(a) @ b, np.cross(a, b), atol=1e-12)


def test_hat_is_skew(rng):
    for _ in range(20):
        S = hat(rng.standard_normal(3))
        np.testing.assert_array_equal(S, -S.T)


def test_vee_inverts_hat_example():
    S = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    np.testing.assert_array_equal(vee(S), [1.0, 2.0, 3.0])


def test_vee_zero():
    np.testing.assert_array_equal(vee(np.zeros((3, 3))), np.zeros(3))


def test_vee_hat_round_trip(rng):
    for _ in range(100):
        v = rng.standard_normal(3)
        np.testing.assert_array_equal(vee(hat(v)), v)


def test_vee_rejects_non_skew():
    with pytest.raises(ValueError, match="skew"):
        vee(np.eye(3))


def test_exp_zero_is_identity():
    np.testing.assert_array_equal(exp_map(np.zeros(3)), np.eye(3))


def test_exp_quarter_turn_about_x():
    # right-handed quarter turn about x sends y to z
    R = exp_map([np.pi / 2.0, 0.0, 0.0])
    np.testing.assert_allclose(R @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)


def test_exp_output_orthonormal(rng):
    for _ in range(100):
        R = exp_map(rng.uniform(-np.pi, np.pi, 3))
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_exp_angle_equals_input_norm(rng):
    for _ in range(50):
        phi = rng.standard_normal(3)
        phi *= rng.uniform(0.01, np.pi - 0.2) / np.linalg.norm(phi)
        R = exp_map(phi)
        angle = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        assert abs(angle - np.linalg.norm(phi)) < 1e-9


def test_log_identity():
    np.testing.assert_array_equal(log_map(np.eye(3)), np.zeros(3))


def test_log_exp_round_trip_example():
    phi = np.array([0.3, -0.2, 0.1])
    np.testing.assert_allclose(log_map(exp_map(phi)), phi, atol=1e-10)


def test_log_norm_matches_trace_formula(rng):
    for _ in range(100):
        R = random_rotation(rng, max_angle=np.pi - 0.2)
        expected_angle = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        assert abs(np.linalg.norm(log_map(R)) - expected_angle) < 1e-12


def test_log_rejects_near_pi():
    with pytest.raises(ValueError, match="pi"):
        log_map(exp_map([np.pi - 1e-7, 0.0, 0.0]))


def test_round_trip_over_angle_range(rng):
    for _ in range(500):
        phi = rng.standard_normal(3)
        phi *= rng.uniform(1e-12, np.pi - 0.1) / np.linalg.norm(phi)
        assert np.linalg.norm(log_map(exp_map(phi)) - phi) < 1e-9


def test_small_angle_branch_round_trip(rng):
    for scale in (1e-9, 1e-10, 1e-12):
        phi = scale * np.array([0.4, -1.1, 0.3])
        np.testing.assert_allclose(log_map(exp_map(phi)), phi, atol=1e-20)


def test_group_closure(rng):
    for _ in range(50):
        R = exp_map(rng.uniform(-2, 2, 3)) @ exp_map(rng.uniform(-2, 2, 3))
        assert is_rotation(R)


def test_first_order_model(rng):
    # Exp(d) agrees with I + hat(d) to second order for small d
    for _ in range(100):
        delta = rng.standard_normal(3)
        delta *= rng.uniform(1e-6, 0.01) / np.linalg.norm(delta)
        defect = np.linalg.norm(exp_map(delta) - (np.eye(3) + hat(delta)))
        assert defect <= np.linalg.norm(delta) ** 2


def test_is_rotation_rejects_bad_input():
    assert not is_rotation(np.eye(3) * 1.001)
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))  # determinant -1
    assert is_rotation(np.eye(3))


def test_is_rotation_of_a_stack_matches_per_matrix_calls(rng):
    R = exp_map(rng.uniform(-1.5, 1.5, (2, 5, 3)))
    R[0, 1, 2, 0] = np.nan
    R[0, 3, 1, 1] = np.inf
    R[1, 0] = R[1, 0] * 1.001  # scaled
    R[1, 2] = R[1, 2] @ np.diag([1.0, 1.0, -1.0])  # orthonormal with determinant -1
    R[1, 4] = R[1, 4] + 2e-9  # outside the tolerance
    stacked = is_rotation(R)
    assert stacked.shape == (2, 5) and stacked.dtype == bool
    singles = [[is_rotation(M) for M in row] for row in R]
    assert all(type(single) is bool for row in singles for single in row)
    np.testing.assert_array_equal(stacked, singles)
    np.testing.assert_array_equal(stacked, [[True, False, True, False, True], [False, True, False, True, False]])
    assert is_rotation(R[:, 1:2]).shape == (2, 1)
    for shape in ((3,), (2, 3), (4, 3, 2)):
        assert is_rotation(np.zeros(shape)) is False


def _tangent_stack(rng):
    # a zero vector, one below SMALL_ANGLE, and generic ones, shaped (2, 4, 3)
    phi = rng.uniform(-1.5, 1.5, (8, 3))
    phi[0] = 0.0
    phi[3] = 0.3 * SMALL_ANGLE * np.array([0.6, -0.8, 0.0])
    return phi.reshape(2, 4, 3)


def test_stack_matches_per_element_calls(rng):
    phi = _tangent_stack(rng)
    flat = phi.reshape(-1, 3)
    S, R = hat(phi), exp_map(phi)
    assert S.shape == R.shape == (2, 4, 3, 3)
    np.testing.assert_allclose(S.reshape(-1, 3, 3), [hat(v) for v in flat], rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(R.reshape(-1, 3, 3), [exp_map(v) for v in flat], rtol=1e-15, atol=1e-15)
    logs = log_map(R)
    assert logs.shape == (2, 4, 3)
    singles = [log_map(M) for M in R.reshape(-1, 3, 3)]
    np.testing.assert_allclose(logs.reshape(-1, 3), singles, rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(logs[0, 0], np.zeros(3))
    np.testing.assert_allclose(logs[0, 3], phi[0, 3], rtol=1e-12, atol=0.0)  # Taylor branch


def test_log_stack_rejects_one_element_near_pi(rng):
    R = exp_map(rng.uniform(-0.5, 0.5, (5, 3)))
    log_map(R)  # all well inside the domain
    R[3] = exp_map([0.0, np.pi - 1e-7, 0.0])
    with pytest.raises(ValueError, match="pi"):
        log_map(R)
