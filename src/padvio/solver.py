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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from . import inputs
from .graph import BlockJacobian, Problem, WindowState, altitude_constraint, assemble, boxplus
from .vision import DegenerateDepthError

TAIL = 8  # most keyframe blocks left to the dense tail of the chain reduction


@dataclass
class SolverConfig:
    damping: float = 0.1
    max_iterations: int = 50
    constrain_altitude: bool = True
    convergence_tol: float = 0.0  # 0 runs all iterations


@dataclass
class SolveReport:
    cost_history: List[float]  # weighted cost before each step
    final_window: WindowState
    iterations_run: int
    step_norms: List[float]


class RankDeficientError(RuntimeError):
    """The damped normal matrix, reduced to the free entries, is singular,
    or a constrained entry is fixed twice."""

    def __init__(self, size: int, rank: int):
        self.deficiency = size - rank
        super().__init__(f"linear system of size {size} is rank deficient by {self.deficiency}")


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
    """The scatter index of the problem's normal equations; `Problem.shared` keeps it."""
    return _scatter_index(problem.layout.columns, problem.window.dim, problem.window.n - 1)


def _normal_system(residual, jacobian, weights, damping, index):
    """Sum each factor's B^T W B and B^T W e at `index` (the problem's
    `_scatter_index`) with one `np.bincount`, drop the prior's columns and
    add the damping. The sums run in a fixed order, so identical inputs give
    bit-identical (H, g). With no chain in the index E is the dense H, which
    is returned as it is; with a chain H is the `NormalBlocks` of the band
    and E."""
    # each factor's [B^T W B | B^T W e], (count, width, width + 1), from one
    # product, all in one buffer in factor order
    products = np.empty(sum(b.shape[0] * b.shape[2] * (b.shape[2] + 1) for b, _ in jacobian.factors))
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


def constrained_step(H, g: np.ndarray, fixed: np.ndarray, c: np.ndarray):
    """Minimise the quadratic model with the increment entries `fixed` set to -c.

    The free entries solve H_ff delta_f = -(g_f + H_fc delta_c); the
    returned multipliers lambda = -(H[fixed] @ delta + g[fixed]) are those
    of the equivalent saddle-point system. With no fixed entries this is the
    plain solve H delta = -g. Returns (delta, lambda).

    The step reads the layout from H. A dense H takes one dense solve of
    the free block. A `NormalBlocks` H, whose keyframe chain entries must
    all be free, has the fixed entries folded into the right-hand side as
    C delta_l and E delta_l (delta_l the increment's landmark part) and its
    chain eliminated by odd-even reduction (`_reduce_chain`) down to a
    dense tail of at most TAIL keyframes and the free landmark entries. Its
    multipliers come from the same two blocks, by symmetry.
    """
    fixed = np.asarray(fixed, dtype=np.intp)
    dim = H.shape[0]
    free = np.ones(dim, dtype=bool)
    free[fixed] = False
    m = dim - int(np.count_nonzero(free))
    if m != fixed.size:  # a repeated index: duplicate constraint rows
        raise RankDeficientError(dim + fixed.size, dim + m)
    blocks = isinstance(H, NormalBlocks)
    chain = 9 * len(H.A) if blocks else 0
    if not free[:chain].all():
        raise ValueError("the keyframe chain's entries must be free")
    delta = np.zeros(dim)
    delta[fixed] = -np.asarray(c, dtype=float)
    try:
        if blocks:
            C, E = H.C.reshape(chain, dim - chain), H.E
            delta_l = delta[chain:]  # a view, so it follows the solve below
            r = -(g + np.concatenate([C @ delta_l, E @ delta_l]))
            rest = np.flatnonzero(free[chain:])
            delta[free] = _reduce_chain(H.A, H.B, H.C[:, :, rest], E[rest][:, rest], r[free])
            local = fixed - chain
            lam = -(delta[:chain] @ C[:, local] + E[local] @ delta_l + g[fixed])
        else:  # the product over full rows of H keeps the dense step's rounding
            H_free = H[free]
            delta[free] = np.linalg.solve(H_free[:, free], -(g[free] + H_free @ delta))
            lam = -(H[fixed] @ delta + g[fixed])
    except np.linalg.LinAlgError:
        H_ff = np.asarray(H)[free][:, free]
        raise RankDeficientError(dim - m, int(np.linalg.matrix_rank(H_ff))) from None
    return delta, lam


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
    `sim.generate`) raises ValueError naming their shape. Degenerate projection depth or a singular system
    aborts the run with an IterationError naming the iterate and carrying
    partial histories.
    """
    if config is None:
        config = SolverConfig()
    inputs.real(config.damping, "damping")
    iterations = inputs.integer(config.max_iterations, "max_iterations", 1)
    inputs.boolean(config.constrain_altitude, "constrain_altitude")
    inputs.real(config.convergence_tol, "convergence_tol")
    window, deltas, uv = problem.window, problem.deltas, problem.measurements.uv
    batch = np.broadcast_shapes(
        window.poses.R.shape[:-3], window.landmarks.shape[:-2], np.shape(deltas.dt_total)[:-1], np.shape(uv)[:-2]
    )
    if batch:
        raise ValueError(f"solve takes one problem, not a batch of shape {batch}")

    cost_history: List[float] = []
    step_norms: List[float] = []
    index = problem.shared(_problem_index)
    for iteration in range(1, iterations + 1):
        current = problem.with_window(window)
        try:
            residual, jacobian, weights = assemble(current)
            H, g = _normal_system(residual, jacobian, weights, config.damping, index)
            cost_history.append(float(residual @ (weights * residual)))
            if config.constrain_altitude:
                fixed, c = altitude_constraint(current)
            else:
                fixed, c = np.zeros(0, dtype=np.intp), np.zeros(0)
            delta, _ = constrained_step(H, g, fixed, c)
        except (DegenerateDepthError, RankDeficientError, ValueError) as err:
            # ValueError covers the log map degenerating when a diverging
            # iterate pushes a relative rotation to pi
            raise IterationError(err, iteration, cost_history, step_norms) from err
        step_norms.append(float(np.sqrt(delta.dot(delta))))  # np.linalg.norm(delta)
        window = boxplus(window, delta)
        if step_norms[-1] < config.convergence_tol:
            break
    return SolveReport(cost_history, window, len(cost_history), step_norms)
