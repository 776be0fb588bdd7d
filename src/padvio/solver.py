"""Damped Gauss-Newton iteration with landmark altitudes pinned to the ground plane.

Each iteration solves H delta = -g, with H = J^T W J + alpha I and
g = J^T W e, subject to delta_z = -c for every landmark altitude z, then
retracts delta through boxplus. H and g are summed from each factor's
B^T W B and B^T W e (Triggs et al., "Bundle Adjustment - A Modern
Synthesis", 2000); the dense J is never formed. The constraint fixes
coordinates of a Euclidean block, so it is imposed by eliminating those
entries (the null-space method) rather than through a saddle-point system;
the retracted altitudes z + (-z) are exactly 0.

The scatter index picks the layout once per problem, from the window length,
and every later stage reads it from its input. IMU factors join only
neighbouring keyframes and each pixel factor one keyframe to one landmark, so
each keyframe row of H is a band (LAPACK's band storage; Golub & Van Loan,
Matrix Computations, §4.3). Every entry of H and g is summed with one
`np.bincount` into one buffer [band | E | g | dump]: the band holds the
keyframe chain's rows and E is the dense block of the entries past the chain.
A window of up to TAIL + 1 keyframes has no chain, so E is the whole dense H,
and the step is one dense solve of the free block. A longer window never
forms H: its band and E are a `NormalBlocks`, the fixed entries are folded
into the right-hand side, and the keyframe chain is eliminated by odd-even
reduction down to a dense tail of at most TAIL keyframes and the free
landmark x/y entries, which is solved once. Every bin sums its entries in
the same order whatever the window length, so a kept entry has the same bits
as in the dense H that `build_normal_system` gives.
Damping alpha is constant for the whole run; iteration count is fixed unless
a convergence tolerance is set.

What an iteration reads from the problem's data and shapes is built once per
problem, on first use, and kept through `Problem.shared`: the factor layout,
the IMU gravity terms, the landmark altitude entries and the iteration plan,
which holds the scatter index and the free entries of the step as an integer
index (their checks run when it is built). A built problem cannot change
(see `graph.Problem`), so none of it is checked again. `solve` keeps one
working copy of the problem and moves it to each iterate through the private
setter that `Problem.with_window` uses, so each iteration computes only what
the iterate changes: the factors' residuals and Jacobians, their products
summed into H and g, the cost, the altitudes c, the step gathered and
scattered through the free index, the step norm and the retraction; it
computes no multipliers (`multipliers` gives them for a step).
Only the estimator's own failures at an iterate (a degenerate projection
depth, a singular step, a relative rotation near pi, a cost or step norm
that is not finite) abort the run with an IterationError; any other
exception propagates as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from . import inputs
from .graph import BlockJacobian, Problem, WindowState, altitude_constraint, assemble, boxplus
from .manifold import NearPiRotationError
from .vision import DegenerateDepthError

TAIL = 8  # most keyframe blocks left to the dense tail of the chain reduction


@dataclass
class SolverConfig:
    damping: float = 0.1
    max_iterations: int = 50
    constrain_altitude: bool = True
    convergence_tol: float = 0.0  # 0 runs all iterations


@dataclass(frozen=True)
class SolveReport:
    cost_history: List[float]  # weighted cost before each step
    final_window: WindowState
    step_norms: List[float]

    @property
    def iterations_run(self) -> int:
        """The iterations that ran, one cost each."""
        return len(self.cost_history)


class RankDeficientError(RuntimeError):
    """The damped normal matrix, reduced to the free entries, is singular,
    or a constrained entry is fixed twice."""

    def __init__(self, size: int, rank: int):
        self.deficiency = size - rank
        super().__init__(f"linear system of size {size} is rank deficient by {self.deficiency}")


class NonFiniteError(ArithmeticError):
    """The cost or the step norm at an iterate is not finite: the solve
    overflowed or diverged."""


def _finite(name: str, value: float) -> float:
    """value, or NonFiniteError naming it when it is not finite."""
    if not math.isfinite(value):
        raise NonFiniteError(f"{name} is not finite: {value}")
    return value


class IterationError(RuntimeError):
    """An iterate could not be completed; carries the progress made so far."""

    def __init__(self, cause: Exception, iteration: int, cost_history, step_norms):
        self.cause = cause
        self.iteration = iteration
        self.cost_history = list(cost_history)
        self.step_norms = list(step_norms)
        super().__init__(f"iteration {iteration} aborted: {cause}")


def build_normal_system(problem: Problem, damping: float = 0.1):
    """Damped normal equations (H, g) of the weighted least-squares problem,
    with H dense."""
    residual, jacobian, weights = assemble(problem)
    index = _scatter_index(problem.layout.columns, problem.window.dim)
    return _normal_system(residual, jacobian, weights, damping, index)


@dataclass(frozen=True)
class NormalBlocks:
    """The damped normal matrix of a window past TAIL + 1 keyframes.

    Its M = n - 1 keyframe blocks of 9 rows form a block-tridiagonal chain
    coupled to the 3N landmark entries. Row block j of the band
    (M, 9, 18 + 3N) holds its diagonal block A[j], its upper coupling B[j]
    to block j + 1 (zero for the last block) and its landmark row C[j], in
    that order; `A`, `B` and `C` are views of it. E (3N, 3N) is the dense
    landmark block. The transposes of B and C below the diagonal are not
    held; `toarray()` gives the dense symmetric matrix.
    """

    band: np.ndarray
    E: np.ndarray

    @property
    def A(self) -> np.ndarray:
        return self.band[:, :, :9]

    @property
    def B(self) -> np.ndarray:
        return self.band[:-1, :, 9:18]

    @property
    def C(self) -> np.ndarray:
        return self.band[:, :, 18:]

    @property
    def shape(self) -> Tuple[int, int]:
        dim = 9 * len(self.band) + len(self.E)
        return dim, dim

    def toarray(self) -> np.ndarray:
        return _dense(self.A, self.B, self.C, self.E)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.toarray(), dtype=dtype)


class _PackedIndex(NamedTuple):
    """Where each factor product entry goes in one buffer [band | E | g | dump],
    for a chain of `poses` keyframe blocks (0: no chain, E is the dense H)."""

    positions: np.ndarray
    poses: int


def _scatter_index(columns, dim: int, poses: int = 0) -> _PackedIndex:
    """The flat positions that each factor's B^T W B and B^T W e entries add
    to, which depend only on the factors' columns (`FactorLayout.columns`),
    fixed for a problem.

    This is the one place that picks the layout of the normal equations,
    from the number of keyframe blocks in the window (`poses`). A window of
    at most TAIL blocks is laid out with no chain (`poses` 0): every column is
    then a column of E, and E is the dense H. Factor columns index a span of
    PRIOR + dim columns. Counted past the prior, keyframe row r of the block
    starting at first = r - r % 9 puts column c at r * width + (c - first),
    or at r * width + 18 + (c - chain) for a landmark column, and a row past
    the chain puts a column past the chain at its place in E; the prior's rows
    and columns and all entries below the diagonal blocks go to the dump bin.
    """
    prior = BlockJacobian.PRIOR
    poses = poses if poses > TAIL else 0
    chain, L = 9 * poses, dim - 9 * poses
    width = 18 + L
    E_start, g_start = chain * width, chain * width + L * L
    dump = g_start + chain + L
    # filled in place, factor by factor, to keep few index-sized temporaries
    positions = np.empty(sum(c.shape[0] * c.shape[1] * (c.shape[1] + 1) for c in columns), np.intp)
    used = 0
    for cols in columns:
        count, w = cols.shape
        position = positions[used : used + count * w * (w + 1)].reshape(count, w, w + 1)
        used += position.size
        entry = cols - prior
        row, col = entry[:, :, None], entry[:, None, :]
        first = np.minimum(row - row % 9, chain)
        # a row puts column c at c plus its offset for keyframe or for landmark columns
        landmark = np.where(row < chain, row * width + 18, E_start + (row - chain) * L) - chain
        np.add(np.where(col < chain, row * width - first, landmark), col, out=position[:, :, :w])
        position[:, :, :w][(row < 0) | (col < first)] = dump
        position[:, :, w] = np.where(entry >= 0, g_start + entry, dump)
    return _PackedIndex(positions, poses)


def _problem_index(problem: Problem):
    """The scatter index of the problem's normal equations."""
    return _scatter_index(problem.layout.columns, problem.window.dim, problem.window.n - 1)


class _IterationPlan(NamedTuple):
    """What every Gauss-Newton iteration of a problem reads from its shapes
    besides the factor layout and the altitude entries, which the problem
    keeps itself: the scatter index of its normal equations and the free
    entries of its step, with the landmark altitudes fixed and with nothing
    fixed."""

    index: _PackedIndex
    free: np.ndarray  # the entries outside `altitude_constraint`'s fixed ones
    every: np.ndarray  # every entry, the free ones when nothing is fixed


def _iteration_plan(problem: Problem) -> _IterationPlan:
    """The problem's iteration plan; `solve` keeps it through `Problem.shared`.
    Building it runs `_free_entries`' checks of the altitude entries."""
    index = _problem_index(problem)
    dim, fixed = problem.window.dim, altitude_constraint(problem)[0]
    return _IterationPlan(index, _free_entries(dim, 9 * index.poses, fixed), np.arange(dim))


def _normal_system(residual, jacobian, weights, damping, index):
    """Sum each factor's B^T W B and B^T W e at `index` (the problem's
    `_scatter_index`) with one `np.bincount`, drop the prior's columns and
    add the damping. The sums run in a fixed order, so identical inputs give
    bit-identical (H, g). With no chain in the index E is the dense H, which
    is returned as it is; with a chain H is the `NormalBlocks` of the band
    and E."""
    # each factor's [B^T W B | B^T W e], (count, width, width + 1), from one
    # product, all in one buffer in factor order
    products = np.empty(index.positions.size)
    start = used = 0
    for blocks, _ in jacobian.factors:
        count, height, width = blocks.shape
        stop = start + count * height
        w = weights[start:stop].reshape(count, height, 1)
        e = residual[start:stop].reshape(count, height, 1)
        product = products[used : used + count * width * (width + 1)].reshape(count, width, width + 1)
        np.matmul(blocks.transpose(0, 2, 1), w * np.concatenate([blocks, e], axis=2), out=product)
        start, used = stop, used + product.size
    M, L = index.poses, jacobian.shape[1] - 9 * index.poses
    width = 18 + L
    E_start = 9 * M * width
    g_start = E_start + L * L
    packed = np.bincount(index.positions, products, g_start + 9 * M + L + 1)
    packed[E_start : g_start : L + 1] += damping  # the diagonal of E
    E, g = packed[E_start:g_start].reshape(L, L), packed[g_start:-1]
    if not M:
        return E, g
    band = packed[:E_start].reshape(M, 9, width)
    band.reshape(M, 9 * width)[:, :: width + 1] += damping  # the diagonals of A
    return NormalBlocks(band, E), g


def _free_entries(dim: int, chain: int, fixed) -> np.ndarray:
    """The entries of a dim-long increment outside `fixed`, ascending, as an
    integer index. Raises RankDeficientError for a repeated fixed entry
    (duplicate constraint rows) and ValueError for a fixed entry among the
    first `chain`, the keyframe chain of a `NormalBlocks` H."""
    fixed = np.asarray(fixed, dtype=np.intp)
    free = np.ones(dim, dtype=bool)
    free[fixed] = False
    m = dim - int(np.count_nonzero(free))
    if m != fixed.size:
        raise RankDeficientError(dim + fixed.size, dim + m)
    if not free[:chain].all():
        raise ValueError("the keyframe chain's entries must be free")
    return np.flatnonzero(free)


def constrained_step(H, g: np.ndarray, fixed: np.ndarray, c: np.ndarray, free: np.ndarray | None = None):
    """Minimise the quadratic model with the increment entries `fixed` set to -c.

    The free entries solve H_ff delta_f = -(g_f + H_fc delta_c). With no
    fixed entries this is the plain solve H delta = -g. Returns delta;
    `multipliers` gives the step's multipliers.

    `free` is the integer index of the other entries, as `_free_entries`
    gives it for H's layout, which also checks `fixed`; a caller that steps
    many times with the same fixed entries builds it once and passes it.

    The step reads the layout from H. A dense H takes one dense solve of
    the free block. A `NormalBlocks` H, whose keyframe chain entries must
    all be free, has the fixed entries folded into the right-hand side as
    C delta_l and E delta_l (delta_l the increment's landmark part) and its
    chain eliminated by odd-even reduction (`_reduce_chain`) down to a
    dense tail of at most TAIL keyframes and the free landmark entries.
    """
    fixed = np.asarray(fixed, dtype=np.intp)
    dim = H.shape[0]
    blocks = isinstance(H, NormalBlocks)
    chain = 9 * len(H.A) if blocks else 0
    if free is None:
        free = _free_entries(dim, chain, fixed)
    delta = np.zeros(dim)
    delta[fixed] = -np.asarray(c, dtype=float)
    try:
        if blocks:
            C, E = H.C.reshape(chain, dim - chain), H.E
            delta_l = delta[chain:]  # a view, so it follows the solve below
            r = -(g + np.concatenate([C @ delta_l, E @ delta_l]))
            rest = free[chain:] - chain  # the chain's entries are free[:chain]
            delta[free] = _reduce_chain(H.A, H.B, H.C[:, :, rest], E[rest][:, rest], r[free])
        else:  # the product over full rows of H keeps the dense step's rounding
            H_free = H.take(free, axis=0)
            delta[free] = np.linalg.solve(H_free[:, free], -(g[free] + H_free @ delta))
    except np.linalg.LinAlgError:
        H_ff = np.asarray(H)[free][:, free]
        raise RankDeficientError(free.size, int(np.linalg.matrix_rank(H_ff))) from None
    return delta


def multipliers(H, g: np.ndarray, fixed: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The multipliers lambda = -(H[fixed] @ delta + g[fixed]) of a
    `constrained_step` delta with the entries `fixed`: those of the
    equivalent saddle-point system. A `NormalBlocks` H gives them from its
    landmark coupling C and its landmark block E, by symmetry."""
    fixed = np.asarray(fixed, dtype=np.intp)
    if not isinstance(H, NormalBlocks):
        return -(H[fixed] @ delta + g[fixed])
    chain = 9 * len(H.A)
    local = fixed - chain
    C = H.C.reshape(chain, -1)
    return -(delta[:chain] @ C[:, local] + H.E[local] @ delta[chain:] + g[fixed])


def _reduce_chain(A, B, C, E, r):
    """Solve [[T, C], [C^T, E]] x = r by odd-even reduction of the
    block-tridiagonal T, with diagonal blocks A (M, 9, 9) and upper
    couplings B (M - 1, 9, 9); C (M, 9, L) couples T to L entries whose own
    block is the dense E (L, L). Overwrites E and r; returns x.

    Each level inverts the T blocks at odd positions in one batched call,
    applies them to [B_left^T | B_right | C | r], and folds the result into
    the even neighbours, which form the next level's chain, and into E
    (Heller, SIAM J. Numer. Anal. 1976). Once at most TAIL blocks remain,
    the tail is solved densely and each level's odd blocks are
    back-substituted in one batched product.
    """
    L = E.shape[0]
    r_chain = r[: 9 * len(A)].reshape(len(A), 9, 1)
    r_rest = r[9 * len(A) :]
    levels = []
    while len(A) > TAIL:
        T = len(A) // 2
        inner = len(B) - T  # odd blocks with a right neighbour: T, or T - 1 when len(A) is even
        B_right = np.zeros((T, 9, 9))
        B_right[:inner] = B[1::2]
        C_odd = C[1::2]
        # X = A_odd^-1 [B_left^T | B_right | C | r]
        RHS = np.concatenate([B[0::2].transpose(0, 2, 1), B_right, C_odd, r_chain[1::2]], axis=2)
        X = np.linalg.inv(A[1::2]) @ RHS
        # the even neighbours of odd block 2t + 1 are 2t, coupled through
        # B[2t], and 2t + 2, through B[2t + 1]^T; B[2t] X also gives the
        # coupling of 2t to 2t + 2 on the next level
        left = B[0::2] @ X
        right = B[1::2].transpose(0, 2, 1) @ X[:inner]
        A, C, r_chain = A[0::2].copy(), C[0::2].copy(), r_chain[0::2].copy()
        A[:T] -= left[:, :, :9]
        A[1:] -= right[:, :, 9:18]
        C[:T] -= left[:, :, 18:-1]
        C[1:] -= right[:, :, 18:-1]
        r_chain[:T] -= left[:, :, -1:]
        r_chain[1:] -= right[:, :, -1:]
        B = -left[:inner, :, 9:18]
        update = C_odd.transpose(2, 0, 1).reshape(L, 9 * T) @ X[:, :, 18:].reshape(9 * T, L + 1)
        E -= update[:, :L]
        r_rest -= update[:, L]
        levels.append(X)
    k = len(A)  # the tail's keyframe blocks, then its L entries
    solution = np.linalg.solve(_dense(A, B, C, E), np.concatenate([r_chain.reshape(-1), r_rest]))
    x, y = solution[: 9 * k].reshape(k, 9), solution[9 * k :]
    for X in reversed(levels):
        # odd block t is X [-x[t]; -x[t + 1]; -y; 1], with x[t + 1] = 0 past the end
        T = len(X)
        neighbours = np.zeros((T, 19 + L))
        neighbours[:, :9] = -x[:T]
        neighbours[: len(x) - 1, 9:18] = -x[1 : T + 1]
        neighbours[:, 18:-1] = -y
        neighbours[:, -1] = 1.0
        merged = np.empty((len(x) + T, 9))
        merged[0::2] = x
        merged[1::2] = (X @ neighbours[:, :, None])[:, :, 0]
        x = merged
    return np.concatenate([x.reshape(-1), y])


def _dense(A, B, C, E):
    """The symmetric [[T, C], [C^T, E]] of a chain T with diagonal blocks A
    (k, 9, 9) and upper couplings B (k - 1, 9, 9), its coupling C (k, 9, L)
    and the dense (L, L) block E."""
    k, L = len(A), E.shape[0]
    index = np.arange(k)
    S = np.zeros((9 * k + L, 9 * k + L))
    chain = S[: 9 * k, : 9 * k].reshape(k, 9, k, 9)
    chain[index, :, index, :] = A
    chain[index[:-1], :, index[1:], :] = B
    chain[index[1:], :, index[:-1], :] = B.transpose(0, 2, 1)
    S[: 9 * k, 9 * k :] = C.reshape(9 * k, L)
    S[9 * k :, : 9 * k] = C.reshape(9 * k, L).T
    S[9 * k :, 9 * k :] = E
    return S


def solve(problem: Problem, config: SolverConfig | None = None) -> SolveReport:
    """Run the damped, optionally constrained Gauss-Newton loop.

    Deterministic: identical problem and config give bit-identical reports.
    A config field that breaks its `inputs` rule raises ValueError naming
    it. A problem with batch axes (from a batch of flights, see
    `sim.generate`) raises ValueError naming their shape. A degenerate
    projection depth, a singular system, a relative rotation within
    `manifold.PI_MARGIN` of pi or a cost or step norm that is not finite
    (`NonFiniteError`) aborts the run with an IterationError naming the
    iterate and carrying the finite histories up to it; no other error is
    wrapped.
    """
    if config is None:
        config = SolverConfig()
    inputs.real(config.damping, "damping")
    iterations = inputs.integer(config.max_iterations, "max_iterations", 1)
    inputs.boolean(config.constrain_altitude, "constrain_altitude")
    inputs.real(config.convergence_tol, "convergence_tol")
    window, batch = problem.window, problem.batch_shape
    if batch:
        raise ValueError(f"solve takes one problem, not a batch of shape {batch}")

    cost_history: List[float] = []
    step_norms: List[float] = []
    plan = problem.shared(_iteration_plan)
    fixed, c = np.zeros(0, dtype=np.intp), np.zeros(0)  # replaced each iteration under the constraint
    free = plan.free if config.constrain_altitude else plan.every
    current = problem.with_window(window)  # the working copy, moved to each iterate
    # an overflow or NaN in an iterate's residual or step makes its cost or step
    # norm non-finite, which NonFiniteError names; numpy's warnings would only
    # print ahead of that cause
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, iterations + 1):
            current._move(window)
            try:
                residual, jacobian, weights = assemble(current)
                cost_history.append(_finite("cost", float(residual @ (weights * residual))))
                H, g = _normal_system(residual, jacobian, weights, config.damping, plan.index)
                if config.constrain_altitude:
                    fixed, c = altitude_constraint(current)
                delta = constrained_step(H, g, fixed, c, free)
                step_norm = _finite("step norm", float(np.sqrt(delta.dot(delta))))  # np.linalg.norm(delta)
            except (DegenerateDepthError, RankDeficientError, NearPiRotationError, NonFiniteError) as err:
                raise IterationError(err, iteration, cost_history, step_norms) from err
            step_norms.append(step_norm)
            window = boxplus(window, delta)
            if step_norms[-1] < config.convergence_tol:
                break
    return SolveReport(cost_history, window, step_norms)
