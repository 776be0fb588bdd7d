"""Damped Gauss-Newton iteration with landmark altitudes pinned to the ground plane.

Each iteration solves H delta = -g, with H = J^T W J + alpha I and
g = J^T W e, subject to delta_z = -c for every landmark altitude z, then
retracts delta through boxplus. H and g are summed from each factor's
B^T W B and B^T W e, the block structure of the normal equations (Triggs et
al., "Bundle Adjustment - A Modern Synthesis", 2000); the dense J is never
formed. The constraint fixes coordinates of a Euclidean block, so it is
imposed by eliminating those entries (the null-space method) rather than
through a saddle-point system; the retracted altitudes z + (-z) are exactly
0. The free block is not factored whole: IMU factors join only neighbouring
keyframes, so the keyframe part of H is block-tridiagonal (Triggs et al.
§6). The keyframe chain is eliminated by odd-even reduction, all the
odd-position keyframes of a level at once, down to a small dense tail (at
most TAIL keyframes and the free landmark x/y entries), which is solved
once; windows of up to TAIL + 1 keyframes run no level and take one dense
solve of the free block. The normal equations' scatter index depends only
on the factors' columns, so `solve` builds it once. Damping alpha is
constant for the whole run; iteration count is fixed unless a convergence
tolerance is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .graph import Problem, WindowState, altitude_constraint, assemble, boxplus
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
    """Damped normal equations (H, g) of the weighted least-squares problem."""
    residual, jacobian, weights = assemble(problem)
    return _normal_system(residual, jacobian, weights, damping, _scatter_index(jacobian))


def _scatter_index(jacobian):
    """The flat positions in H (span x span) and g (span) that each factor's
    B^T W B and B^T W e entries add to, with span = PRIOR + dim. They depend
    only on the factors' columns, which are fixed for a problem."""
    span = jacobian.PRIOR + jacobian.shape[1]
    h_index = [cols[:, :, None] * span + cols[:, None, :] for _, cols in jacobian.factors]
    g_index = [cols for _, cols in jacobian.factors]
    return np.concatenate(h_index, None), np.concatenate(g_index, None)


def _normal_system(residual, jacobian, weights, damping, index):
    """Sum each factor's B^T W B and B^T W e into the block column space at
    `index` (the problem's `_scatter_index`), then drop the prior's columns
    and add the damping. The sums run in a fixed order, so identical inputs
    give bit-identical (H, g)."""
    h_index, g_index = index
    prior = jacobian.PRIOR
    span = prior + jacobian.shape[1]
    h_values, g_values = [], []
    start = 0
    for blocks, _ in jacobian.factors:
        count, height, width = blocks.shape
        stop = start + count * height
        w = weights[start:stop].reshape(count, height, 1)
        e = residual[start:stop].reshape(count, height, 1)
        # one product gives [B^T W B | B^T W e]
        products = blocks.transpose(0, 2, 1) @ (w * np.concatenate([blocks, e], axis=2))
        h_values.append(products[:, :, :width])
        g_values.append(products[:, :, width])
        start = stop
    H = np.bincount(h_index, np.concatenate(h_values, None), span * span)
    g = np.bincount(g_index, np.concatenate(g_values, None), span)
    H[prior * (span + 1) :: span + 1] += damping  # the diagonal of the kept block
    return H.reshape(span, span)[prior:, prior:], g[prior:]


def constrained_step(H: np.ndarray, g: np.ndarray, fixed: np.ndarray, c: np.ndarray, poses: int):
    """Minimise the quadratic model with the increment entries `fixed` set to -c.

    The free entries solve H_ff delta_f = -(g_f + H_fc delta_c); the returned
    multipliers lambda = -(H[fixed] @ delta + g[fixed]) are those of the
    equivalent saddle-point system. With no fixed entries this is the plain
    solve H delta = -g. Returns (delta, lambda).

    The first `poses` 9-column blocks of H are keyframe blocks that couple
    only to their neighbours and to the entries after them (the IMU chain).
    With more than TAIL keyframe blocks, whose entries must then all be free,
    the chain is eliminated by odd-even reduction (`_reduce_chain`) down to a
    tail of at most TAIL keyframes and the free entries after them, which is
    solved densely. With at most TAIL keyframe blocks the step is one dense
    solve of the free block.
    """
    fixed = np.asarray(fixed, dtype=np.intp)
    dim = H.shape[0]
    free = np.ones(dim, dtype=bool)
    free[fixed] = False
    m = dim - int(np.count_nonzero(free))
    if m != fixed.size:  # a repeated index: duplicate constraint rows
        raise RankDeficientError(dim + fixed.size, dim + m)
    reduce = poses > TAIL
    if reduce and (9 * poses > dim or not free[: 9 * poses].all()):
        raise ValueError("the reduced keyframe blocks must be free entries of H")
    delta = np.zeros(dim)
    delta[fixed] = -np.asarray(c, dtype=float)
    try:
        if reduce:
            delta[free] = _reduce_chain(H, -(g + H[:, fixed] @ delta[fixed]), free, poses)
        else:  # the product over full rows of H keeps the dense step's rounding
            H_free = H[free]
            delta[free] = np.linalg.solve(H_free[:, free], -(g[free] + H_free @ delta))
    except np.linalg.LinAlgError:
        H_ff = H[free][:, free]
        raise RankDeficientError(dim - m, int(np.linalg.matrix_rank(H_ff))) from None
    return delta, -(H[fixed] @ delta + g[fixed])


def _reduce_chain(H, r, free, poses):
    """Solve the free block of H x = r, whose first `poses` 9-column blocks
    form a block-tridiagonal chain, by odd-even reduction. Returns x[free].

    The chain is read out of H as its diagonal blocks A (M, 9, 9), upper
    couplings B (M - 1, 9, 9) and coupling C (M, 9, L) to the L free entries
    after it, whose own block is E (L, L). Each level inverts the T blocks at
    odd positions in one batched call, applies them to [B_left^T | B_right |
    C | r], and folds the result into the even neighbours, which form the
    next level's chain, and into E (Heller, SIAM J. Numer. Anal. 1976). Once
    at most TAIL blocks remain, the tail is solved densely and each level's
    odd blocks are back-substituted in one batched product.
    """
    chain = 9 * poses
    rest = np.flatnonzero(free[chain:]) + chain
    L = rest.size
    index = np.arange(poses)
    blocks = H[:chain, :chain].reshape(poses, 9, poses, 9)
    A = blocks[index, :, index, :]
    B = blocks[index[:-1], :, index[1:], :]
    C = H[:chain, rest].reshape(poses, 9, L)
    E = H[rest][:, rest]
    r_chain = r[:chain].reshape(poses, 9, 1)
    r_rest = r[rest]
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
    k = len(A)  # the tail's keyframe blocks, then its L free entries
    S = np.zeros((9 * k + L, 9 * k + L))
    tail = S[: 9 * k, : 9 * k].reshape(k, 9, k, 9)
    tail[index[:k], :, index[:k], :] = A
    tail[index[: k - 1], :, index[1:k], :] = B
    tail[index[1:k], :, index[: k - 1], :] = B.transpose(0, 2, 1)
    S[: 9 * k, 9 * k :] = C.reshape(9 * k, L)
    S[9 * k :, : 9 * k] = C.reshape(9 * k, L).T
    S[9 * k :, 9 * k :] = E
    solution = np.linalg.solve(S, np.concatenate([r_chain.reshape(-1), r_rest]))
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


def solve(problem: Problem, config: SolverConfig | None = None) -> SolveReport:
    """Run the damped, optionally constrained Gauss-Newton loop.

    Deterministic: identical problem and config give bit-identical reports.
    Degenerate projection depth or a singular system aborts the run with an
    IterationError naming the iterate and carrying partial histories.
    """
    if config is None:
        config = SolverConfig()
    if not (math.isfinite(config.damping) and config.damping >= 0):
        raise ValueError(f"damping must be a finite number >= 0, got {config.damping}")
    if math.isnan(config.convergence_tol):
        raise ValueError("convergence_tol must be a number, got nan")
    if config.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    window = problem.window
    cost_history: List[float] = []
    step_norms: List[float] = []
    index = None  # the normal equations' scatter index, fixed for the problem
    for iteration in range(1, config.max_iterations + 1):
        current = problem.with_window(window)
        try:
            residual, jacobian, weights = assemble(current)
            if index is None:
                index = _scatter_index(jacobian)
            H, g = _normal_system(residual, jacobian, weights, config.damping, index)
            cost_history.append(float(residual @ (weights * residual)))
            if config.constrain_altitude:
                fixed, c = altitude_constraint(current)
            else:
                fixed, c = np.zeros(0, dtype=np.intp), np.zeros(0)
            delta, _ = constrained_step(H, g, fixed, c, window.n - 1)
        except (DegenerateDepthError, RankDeficientError, ValueError) as err:
            # ValueError covers the log map degenerating when a diverging
            # iterate pushes a relative rotation to pi
            raise IterationError(err, iteration, cost_history, step_norms) from err
        step_norms.append(float(np.linalg.norm(delta)))
        window = boxplus(window, delta)
        if step_norms[-1] < config.convergence_tol:
            break
    return SolveReport(cost_history, window, len(cost_history), step_norms)
