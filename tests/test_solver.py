import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from padvio import checks, graph, solver
from padvio.graph import PoseState, Problem, WindowState, altitude_constraint, assemble, boxplus
from padvio.imu import PreintegratedDelta, WorldParams
from padvio.sim import (
    CameraModel,
    NoiseSpec,
    Profile,
    TrajectorySpec,
    generate,
    make_problem,
    perturb_initialization,
)
from padvio.solver import (
    TAIL,
    IterationError,
    NormalBlocks,
    RankDeficientError,
    SolverConfig,
    build_normal_system,
    constrained_step,
    solve,
)
from padvio.vision import DegenerateDepthError, PixelMeasurement
from test_graph import _level_circle_problem, _oracle_case


def _reference_dataset(seed=0, imu_var=1e-4, pixel_var=1e-5, n=7):
    spec = TrajectorySpec(
        duration=0.4 * (n - 1),
        angular_profile=Profile("constant", {"value": [0.05, -0.04, 0.12]}),
        accel_profile=Profile("constant", {"value": [0.25, 0.15, -9.51]}),
    )
    landmarks = np.array([[0.577, 0.0, 0.0], [-0.289, 0.5, 0.0], [-0.289, -0.5, 0.0]])
    return generate(spec, landmarks, CameraModel(1.0), WorldParams(), NoiseSpec(imu_var, pixel_var, seed))


def test_normal_system_matches_direct_computation():
    dataset = _reference_dataset()
    problem = make_problem(dataset, dataset.ground_truth.copy())
    H, g = build_normal_system(problem, damping=0.1)
    r, J, w = assemble(problem)
    J = J.toarray()
    W = np.diag(w)
    np.testing.assert_allclose(H, J.T @ W @ J + 0.1 * np.eye(J.shape[1]), atol=1e-9)
    np.testing.assert_allclose(g, J.T @ W @ r, atol=1e-12)


@pytest.mark.parametrize("case", ["n7_N3", "n60_N10", "shuffled_dropped"])
def test_block_normal_system_matches_dense_oracle(case):
    # the cases of test_graph's per-factor assembly oracle
    problem = _oracle_case(case)
    H, g = build_normal_system(problem, damping=0.1)
    r, J, w = assemble(problem)
    J = J.toarray()
    H_ref = J.T @ (w[:, None] * J) + 0.1 * np.eye(J.shape[1])
    g_ref = J.T @ (w * r)
    assert np.abs(H - H_ref).max() <= 1e-12 * np.abs(H_ref).max()
    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    H_again, g_again = build_normal_system(problem, damping=0.1)
    assert H.tobytes() == H_again.tobytes()
    assert g.tobytes() == g_again.tobytes()
    # the scatter index depends only on the columns, so one built at another
    # window of the problem, as `solve` reuses it, gives the same bits
    moved = problem.with_window(boxplus(problem.window, np.full(problem.window.dim, 0.01)))
    index = solver._scatter_index(moved.layout.columns, moved.window.dim)
    H_reused, g_reused = solver._normal_system(*assemble(problem)[:3], 0.1, index)
    assert H.tobytes() == H_reused.tobytes()
    assert g.tobytes() == g_reused.tobytes()


def test_normal_system_peak_memory_below_dense_jacobian():
    problem = _oracle_case("n60_N10")
    rows, dim = assemble(problem)[1].shape
    tracemalloc.start()
    try:
        build_normal_system(problem, damping=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * dim * 8  # 7.8 MB at n = 60, N = 10


def _block_case(name):
    """A problem past TAIL + 1 keyframes, evaluated away from the truth."""
    rng = np.random.default_rng(8)
    if name == "n60_N10":
        return _oracle_case(name)
    problem = _level_circle_problem(int(name[1:3]), 3, seed=5)
    if name == "n18_shuffled_dropped":  # keyframes 5 and 12 see no marker; the rest shuffled
        meas = problem.measurements
        kept = meas[~np.isin(meas.frame_index, [5, 12])]
        problem = replace(problem, measurements=kept[rng.permutation(len(kept))])
    offset = rng.normal(0.0, 0.02, problem.window.dim)
    return replace(problem, window=boxplus(problem.window, offset))


def _block_system(problem, damping=0.1):
    residual, jacobian, weights = assemble(problem)
    index = solver._problem_index(problem)
    return solver._normal_system(residual, jacobian, weights, damping, index)


@pytest.mark.parametrize("case", ["n10", "n18", "n60_N10", "n18_shuffled_dropped"])
def test_block_system_equals_blocks_of_dense_normal_matrix(case):
    # both layouts sum every entry in the same order, so the kept blocks
    # carry the dense H's bits
    problem = _block_case(case)
    H, g = build_normal_system(problem, damping=0.1)
    blocks, g_blocks = _block_system(problem)
    M, N = problem.window.n - 1, problem.window.num_landmarks
    chain = 9 * M
    assert blocks.shape == H.shape
    assert g_blocks.tobytes() == g.tobytes()
    A = [H[9 * j : 9 * j + 9, 9 * j : 9 * j + 9] for j in range(M)]
    B = [H[9 * j : 9 * j + 9, 9 * j + 9 : 9 * j + 18] for j in range(M - 1)]
    assert blocks.A.tobytes() == np.array(A).tobytes()
    assert blocks.B.tobytes() == np.array(B).tobytes()
    assert blocks.C.tobytes() == H[:chain, chain:].reshape(M, 9, 3 * N).tobytes()
    assert blocks.E.tobytes() == H[chain:, chain:].tobytes()
    # below the diagonal blocks the dense H mirrors them to rounding only
    assert np.abs(blocks.toarray() - H).max() <= 1e-12 * np.abs(H).max()
    assert np.array_equal(np.asarray(blocks), blocks.toarray())


def test_block_step_peak_memory_below_dense_normal_matrix():
    # one iteration past TAIL + 1 keyframes allocates no (9n + 3N)^2 array
    problem = _oracle_case("n60_N10")
    residual, jacobian, weights = assemble(problem)
    index = solver._problem_index(problem)
    fixed, c = altitude_constraint(problem)
    tracemalloc.start()
    try:
        H, g = solver._normal_system(residual, jacobian, weights, 0.1, index)
        constrained_step(H, g, fixed, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(H, NormalBlocks)
    assert peak < (9 * problem.window.n + 3 * problem.window.num_landmarks) ** 2 * 8  # 2.6 MB


def test_normal_system_symmetric():
    dataset = _reference_dataset(seed=3)
    problem = make_problem(dataset, dataset.ground_truth.copy())
    H, _ = build_normal_system(problem, damping=0.1)
    assert np.abs(H - H.T).max() < 1e-12


def test_undamped_hessian_positive_definite_at_full_rank():
    dataset = _reference_dataset(seed=5)
    problem = make_problem(dataset, dataset.ground_truth.copy())
    _, J, w = assemble(problem)
    assert np.linalg.matrix_rank(J) == J.shape[1]
    H, _ = build_normal_system(problem, damping=0.0)
    assert np.linalg.eigvalsh(H).min() > 0.0


def test_zero_residual_gives_zero_step():
    dataset = _reference_dataset(imu_var=0.0, pixel_var=0.0)
    problem = make_problem(dataset, dataset.ground_truth.copy())
    H, g = build_normal_system(problem, damping=0.1)
    delta, lam = constrained_step(H, g, *altitude_constraint(problem))
    assert np.linalg.norm(delta) < 1e-9
    assert np.linalg.norm(lam) < 1e-9


def test_constrained_step_trivial_case():
    H = np.eye(4)
    delta, lam = constrained_step(H, np.zeros(4), np.array([0]), np.zeros(1))
    np.testing.assert_array_equal(delta, np.zeros(4))
    np.testing.assert_array_equal(lam, np.zeros(1))


def test_unconstrained_step_reduces_to_plain_solve(rng):
    A = rng.standard_normal((6, 6))
    H = A @ A.T + 6 * np.eye(6)
    g = rng.standard_normal(6)
    delta, lam = constrained_step(H, g, np.zeros(0, dtype=int), np.zeros(0))
    np.testing.assert_allclose(delta, np.linalg.solve(H, -g), atol=1e-12)
    assert lam.size == 0


def _saddle_point_step(H, g, fixed, c):
    """Reference oracle: the KKT system [[H, A^T], [A, 0]] for the rows A
    that select the fixed increment entries."""
    dim, m = H.shape[0], len(fixed)
    A = np.zeros((m, dim))
    A[np.arange(m), fixed] = 1.0
    K = np.block([[H, A.T], [A, np.zeros((m, m))]])
    solution = np.linalg.solve(K, np.concatenate([-g, -c]))
    return solution[:dim], solution[dim:]


def _level_circle_dataset(n):
    # a level circle 4 m above the pad keeps every marker in view for long windows
    spec = TrajectorySpec(
        duration=0.4 * (n - 1),
        initial_pose=PoseState(np.eye(3), np.array([0.0, -0.025, 0.0]), np.array([0.0, 0.0, -4.0])),
        angular_profile=Profile("constant", {"value": [0.0, 0.0, 0.05]}),
        accel_profile=Profile("constant", {"value": [0.00125, 0.0, -9.81]}),
    )
    landmarks = np.array([[0.577, 0.0, 0.0], [-0.289, 0.5, 0.0], [-0.289, -0.5, 0.0]])
    return generate(spec, landmarks, CameraModel(1.0), WorldParams(), NoiseSpec(1e-4, 1e-5, 7))


def _oracle_window(name):
    """A problem with every landmark 0.5 m off the plane, and its normal system.

    The chain of n - 1 keyframe blocks runs reduction levels until at most
    TAIL blocks remain: none at n = 7, one at n = 10 (9 -> 5 blocks), two at
    n = 18, 30 and 31 (17 -> 9 -> 5, 29 -> 15 -> 8, 30 -> 15 -> 8), three at
    n = 60 (59 -> 30 -> 15 -> 8) and four at n = 120."""
    if name == "n7":
        dataset = _reference_dataset(seed=2)
        problem = make_problem(dataset, dataset.ground_truth.copy())
    elif name == "n60_N10":  # the long_window geometry: a ring of ten markers
        problem = _level_circle_problem(60, 10, seed=1)
    else:
        dataset = _level_circle_dataset(int(name[1:]))
        problem = make_problem(dataset, dataset.ground_truth.copy())
    problem.window.landmarks[:, 2] = 0.5
    return problem, *build_normal_system(problem, damping=0.1)


def _assert_matches_oracle(problem, H, g):
    """The step, constrained and unconstrained, against the saddle-point
    system and the plain solve H delta = -g: on the dense H at every n, and
    past TAIL keyframe blocks also on the block system that `solve` passes."""
    systems = [H]
    if problem.window.n - 1 > TAIL:
        blocks, g_blocks = _block_system(problem)
        assert g_blocks.tobytes() == g.tobytes()
        systems.append(blocks)
    fixed, c = altitude_constraint(problem)
    ref_delta, ref_lam = _saddle_point_step(H, g, fixed, c)
    free_delta = np.linalg.solve(H, -g)
    for system in systems:
        delta, lam = constrained_step(system, g, fixed, c)
        assert np.abs(delta - ref_delta).max() <= 1e-9 * np.abs(ref_delta).max()
        assert np.abs(lam - ref_lam).max() <= 1e-9 * np.abs(ref_lam).max()
        free, none = constrained_step(system, g, np.zeros(0, dtype=np.intp), np.zeros(0))
        assert np.abs(free - free_delta).max() <= 1e-9 * np.abs(free_delta).max()
        assert none.size == 0


@pytest.mark.parametrize("name", ["n7", "n10", "n18", "n30", "n31", "n60_N10", "n120"])
def test_constrained_step_matches_saddle_point_oracle(name):
    _assert_matches_oracle(*_oracle_window(name))


def test_constrained_step_matches_oracle_with_dropped_detections():
    # keyframes 5 and 12 see no marker and keyframe 9 only one, so their
    # blocks couple to the landmarks through fewer (or no) pixel factors
    problem = _level_circle_problem(18, 3, seed=6)
    meas = problem.measurements
    frames = meas.frame_index
    dropped = np.isin(frames, [5, 12]) | ((frames == 9) & (meas.landmark_id != 2))
    problem = replace(problem, measurements=meas[~dropped])
    problem.window.landmarks[:, 2] = [0.5, -0.3, 0.2]
    H, g = build_normal_system(problem, damping=0.1)
    for frame in (5, 12):  # landmark-free rows of the keyframe blocks
        assert np.all(H[9 * (frame - 2) : 9 * (frame - 1), 9 * (problem.window.n - 1) :] == 0.0)
    _assert_matches_oracle(problem, H, g)


@pytest.mark.parametrize("n", [7, 9])
def test_constrained_step_without_reduction_is_the_dense_solve(n):
    # up to TAIL + 1 keyframes no level runs: one solve of the free block,
    # with the right-hand side summed over full rows of H
    assert n - 1 <= TAIL
    problem = _level_circle_problem(n, 3, seed=2)
    problem.window.landmarks[:, 2] = [0.5, -0.3, 0.2]
    H, g = build_normal_system(problem, damping=0.1)
    fixed, c = altitude_constraint(problem)
    free = np.ones(H.shape[0], dtype=bool)
    free[fixed] = False
    ref_delta = np.zeros(H.shape[0])
    ref_delta[fixed] = -c
    H_free = H[free]
    ref_delta[free] = np.linalg.solve(H_free[:, free], -(g[free] + H_free @ ref_delta))
    delta, lam = constrained_step(H, g, fixed, c)
    assert delta.tobytes() == ref_delta.tobytes()
    assert lam.tobytes() == (-(H[fixed] @ ref_delta + g[fixed])).tobytes()


@pytest.mark.parametrize("n", [7, 30])
def test_normal_matrix_couples_only_neighbouring_keyframes(n):
    # the chain reduction in constrained_step relies on this structure
    problem = _level_circle_problem(n, 3, seed=3)
    H, _ = build_normal_system(problem, damping=0.1)
    for i in range(n - 1):
        for j in range(n - 1):
            block = H[9 * i : 9 * i + 9, 9 * j : 9 * j + 9]
            if abs(i - j) > 1:
                assert np.all(block == 0.0), (i, j)
            else:
                assert np.any(block != 0.0), (i, j)


@pytest.mark.parametrize("position", [13, 6, 12])
def test_constrained_step_reports_rank_deficiency_in_the_chain(position):
    # of the 29 keyframe blocks at n = 30, block 13 is eliminated at the
    # first level, block 6 at the second, and block 12 survives to the tail;
    # zeroing its rows and columns of H means zeroing A[position], its
    # couplings B to both neighbours and its landmark coupling C
    problem = _level_circle_problem(30, 3, seed=4)
    blocks, g = _block_system(problem, damping=0.0)
    fixed, c = altitude_constraint(problem)
    blocks.A[position] = 0.0
    blocks.B[position - 1 : position + 1] = 0.0
    blocks.C[position] = 0.0
    with pytest.raises(RankDeficientError) as excinfo:
        constrained_step(blocks, g, fixed, c)
    assert excinfo.value.deficiency == 9


def test_constrained_step_rejects_fixed_keyframe_entries():
    problem = _level_circle_problem(12, 3, seed=4)
    blocks, g = _block_system(problem)
    with pytest.raises(ValueError, match="keyframe chain"):
        constrained_step(blocks, g, np.array([5]), np.zeros(1))


def test_constrained_step_lands_on_plane():
    dataset = _reference_dataset(seed=2)
    window = dataset.ground_truth.copy()
    window.landmarks[:, 2] = 0.5
    problem = make_problem(dataset, window)
    H, g = build_normal_system(problem, damping=0.1)
    fixed, c = altitude_constraint(problem)
    delta, _ = constrained_step(H, g, fixed, c)
    np.testing.assert_array_equal(delta[fixed], -c)
    updated = boxplus(window, delta)
    assert np.all(updated.landmarks[:, 2] == 0.0)


def test_constrained_step_reports_rank_deficiency():
    # a repeated fixed index is a duplicated constraint row
    with pytest.raises(RankDeficientError) as excinfo:
        constrained_step(np.eye(3), np.zeros(3), np.array([2, 2]), np.zeros(2))
    assert excinfo.value.deficiency >= 1
    assert "rank deficient" in str(excinfo.value)
    # a singular block on the free entries
    with pytest.raises(RankDeficientError) as excinfo:
        constrained_step(np.diag([1.0, 0.0, 1.0]), np.ones(3), np.array([2]), np.zeros(1))
    assert excinfo.value.deficiency == 1


def test_solve_stays_at_noise_free_truth():
    dataset = _reference_dataset(imu_var=0.0, pixel_var=0.0)
    problem = make_problem(dataset, perturb_initialization(dataset, "truth"))
    report = solve(problem, SolverConfig(max_iterations=10))
    assert all(c < 1e-12 for c in report.cost_history)
    assert all(s < 1e-6 for s in report.step_norms)


def test_solve_reference_configuration_converges():
    dataset = _reference_dataset(seed=0)
    problem = make_problem(dataset, perturb_initialization(dataset, "cold"))
    report = solve(problem, SolverConfig(damping=0.1, max_iterations=50))
    assert report.iterations_run == 50
    assert len(report.cost_history) == 50
    assert report.cost_history[-1] <= 1.0
    assert report.cost_history[-1] <= 0.01 * report.cost_history[0]


def test_solve_descends_on_average_across_seeds():
    for seed in range(5):
        dataset = _reference_dataset(seed=seed)
        problem = make_problem(dataset, perturb_initialization(dataset, "cold"))
        report = solve(problem, SolverConfig(max_iterations=50))
        assert report.cost_history[-1] < report.cost_history[0]


def test_constrained_solve_keeps_altitudes_pinned_every_iterate():
    dataset = _reference_dataset(seed=4)
    start = dataset.ground_truth.copy()
    start.landmarks[:, 2] = 0.5
    for iterations in range(1, 7):
        problem = make_problem(dataset, start.copy())
        report = solve(problem, SolverConfig(max_iterations=iterations))
        assert np.all(report.final_window.landmarks[:, 2] == 0.0)


def test_unconstrained_solve_leaves_altitudes_free():
    dataset = _reference_dataset(seed=4)
    problem = make_problem(dataset, perturb_initialization(dataset, "cold"))
    report = solve(problem, SolverConfig(max_iterations=10, constrain_altitude=False))
    assert np.abs(report.final_window.landmarks[:, 2]).max() > 0.0


def test_solve_is_deterministic():
    dataset = _reference_dataset(seed=6)
    runs = []
    for _ in range(2):
        problem = make_problem(dataset, perturb_initialization(dataset, "cold"))
        runs.append(solve(problem, SolverConfig(max_iterations=20)))
    assert runs[0].cost_history == runs[1].cost_history
    assert runs[0].step_norms == runs[1].step_norms
    for a, b in zip(runs[0].final_window.poses, runs[1].final_window.poses):
        np.testing.assert_array_equal(a.R, b.R)
        np.testing.assert_array_equal(a.p, b.p)
    np.testing.assert_array_equal(runs[0].final_window.landmarks, runs[1].final_window.landmarks)


def test_solve_convergence_tolerance_stops_early():
    dataset = _reference_dataset(imu_var=0.0, pixel_var=0.0)
    problem = make_problem(dataset, perturb_initialization(dataset, "truth"))
    report = solve(problem, SolverConfig(max_iterations=50, convergence_tol=1e-9))
    assert report.iterations_run < 50


def test_solve_wraps_degenerate_depth_with_iterate_context():
    # landmark coplanar with the camera center: projection depth is exactly 0
    poses = PoseState(np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 3)), np.zeros((2, 3)))
    window = WindowState(poses, np.array([[1.0, 0.0, 0.0]]))
    problem = Problem(
        window=window,
        deltas=PreintegratedDelta(np.eye(3)[None], np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1)),
        measurements=PixelMeasurement(np.array([1]), np.array([1]), np.zeros((1, 2))),
        cam=CameraModel(1.0),
        world=WorldParams(np.zeros(3)),
    )
    with pytest.raises(IterationError) as excinfo:
        solve(problem, SolverConfig(max_iterations=5))
    err = excinfo.value
    assert err.iteration == 1
    assert isinstance(err.cause, DegenerateDepthError)
    assert err.cause.frame_index == 1 and err.cause.landmark_id == 1
    assert err.cost_history == [] and err.step_norms == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("damping", -1.0), ("max_iterations", 0), ("max_iterations", 2.5), ("max_iterations", True),
        ("damping", True), ("damping", "0.1"), ("convergence_tol", True), ("convergence_tol", "0"),
        ("convergence_tol", -1.0), ("constrain_altitude", "no"), ("constrain_altitude", 1),
    ],
    ids=[
        "negative-damping", "zero-iterations", "fractional-iterations", "boolean-iterations",
        "boolean-damping", "string-damping", "boolean-tol", "string-tol",
        "negative-tol", "string-constraint", "integer-constraint",
    ],
)
def test_solve_validates_config(field, value):
    # a count must be an int: range() raises TypeError on 2.5, and True would run one iteration;
    # True damping used to run as 1.0, and "no" to constrain the altitudes
    dataset = _reference_dataset()
    problem = make_problem(dataset, dataset.ground_truth.copy())
    with pytest.raises(ValueError, match=field):
        solve(problem, SolverConfig(**{field: value}))


@pytest.mark.parametrize("damping", [np.nan, np.inf])
def test_solve_rejects_non_finite_damping(damping):
    # nan < 0 is False: NaN damping used to run every iteration to a NaN window
    dataset = _reference_dataset()
    problem = make_problem(dataset, dataset.ground_truth.copy())
    with pytest.raises(ValueError, match="damping"):
        solve(problem, SolverConfig(damping=damping))


def test_solve_rejects_nan_convergence_tol():
    dataset = _reference_dataset()
    problem = make_problem(dataset, dataset.ground_truth.copy())
    with pytest.raises(ValueError, match="convergence_tol"):
        solve(problem, SolverConfig(convergence_tol=np.nan))


def test_solve_builds_the_scatter_index_once(monkeypatch):
    # the index picks the layout, the only switch on the window length:
    # n = 7 and 9 lay out no keyframe chain, so E is the dense H, and n = 10
    # and 30 the block system; the factor layout it is built from is built
    # once per problem too
    calls, built, layouts, factor_layouts = [], [], [], []

    def counting(columns, dim, poses):
        calls.append(poses)
        index = scatter_index(columns, dim, poses)
        built.append(index.poses)
        return index

    def counting_layouts(problem):
        factor_layouts.append(problem.window.n)
        return factor_layout(problem)

    def recording(H, g, fixed, c):
        layouts.append(type(H))
        return step(H, g, fixed, c)

    scatter_index, step, factor_layout = solver._scatter_index, solver.constrained_step, graph.factor_layout
    monkeypatch.setattr(solver, "_scatter_index", counting)
    monkeypatch.setattr(solver, "constrained_step", recording)
    monkeypatch.setattr(graph, "factor_layout", counting_layouts)
    datasets = (_reference_dataset(), _level_circle_dataset(9), _level_circle_dataset(10), _level_circle_dataset(30))
    for dataset in datasets:
        problem = make_problem(dataset, perturb_initialization(dataset, "cold"))
        report = solve(problem, SolverConfig(max_iterations=5))
        assert report.iterations_run == 5
    assert calls == [6, 8, 9, 29]
    assert built == [0, 0, 9, 29]
    assert factor_layouts == [7, 9, 10, 30]
    assert layouts == 10 * [np.ndarray] + 10 * [NormalBlocks]


def test_solve_rejects_a_batched_problem():
    rng = np.random.default_rng(0)
    flights = checks._simulate(*zip(*(checks._random_flight(rng, 7, 3) for _ in range(3))))
    batch = make_problem(flights, flights.ground_truth)
    with pytest.raises(ValueError, match=r"^solve takes one problem, not a batch of shape \(3,\)$"):
        solve(batch)


def test_unconstrained_solve_past_tail_matches_dense_steps():
    # n = 30 takes the block path inside solve with no fixed entries: each
    # iterate must be the plain dense solve H delta = -g from the last
    problem = _block_case("n30")
    problem.window.landmarks[:, 2] = 0.5
    report = solve(problem, SolverConfig(max_iterations=3, constrain_altitude=False))
    window = problem.window
    for cost, norm in zip(report.cost_history, report.step_norms):
        current = problem.with_window(window)
        H, g = build_normal_system(current, damping=0.1)
        r, _, w = assemble(current)
        delta = np.linalg.solve(H, -g)
        assert abs(cost - r @ (w * r)) <= 1e-9 * cost
        assert abs(norm - np.linalg.norm(delta)) <= 1e-9 * norm
        window = boxplus(window, delta)
    final = report.final_window
    assert np.abs(final.landmarks - window.landmarks).max() <= 1e-9 * np.abs(window.landmarks).max()
    assert np.abs(final.poses.p - window.poses.p).max() <= 1e-9 * np.abs(window.poses.p).max()
    assert np.abs(final.landmarks[:, 2]).max() > 0.0
