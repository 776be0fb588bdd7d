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
§6). The keyframe chain is eliminated in tiles of TILE keyframes into a
small dense tail (the last keyframes and the free landmark x/y entries),
which is solved once; windows of up to TILE + 1 keyframes have no tile and
take one dense solve of the free block. Damping alpha is constant for the
whole run; iteration count is fixed unless a convergence tolerance is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .graph import Problem, WindowState, altitude_constraint, assemble, boxplus
from .vision import DegenerateDepthError

TILE = 8  # keyframes per tile of the chain elimination (timings in CHANGES.md)


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
    return _normal_system(residual, jacobian, weights, damping)


def _normal_system(residual, jacobian, weights, damping):
    """Sum each factor's B^T W B and B^T W e into the block column space, then
    drop the prior's columns and add the damping. The sums run in a fixed
    order, so identical inputs give bit-identical (H, g)."""
    prior = jacobian.PRIOR
    span = prior + jacobian.shape[1]
    h_index, h_values, g_index, g_values = [], [], [], []
    start = 0
    for blocks, cols in jacobian.factors:
        count, height, width = blocks.shape
        stop = start + count * height
        w = weights[start:stop].reshape(count, height, 1)
        e = residual[start:stop].reshape(count, height, 1)
        # one product gives [B^T W B | B^T W e]
        products = blocks.transpose(0, 2, 1) @ (w * np.concatenate([blocks, e], axis=2))
        h_values.append(products[:, :, :width])
        g_values.append(products[:, :, width])
        h_index.append(cols[:, :, None] * span + cols[:, None, :])
        g_index.append(cols)
        start = stop
    H = np.bincount(np.concatenate(h_index, None), np.concatenate(h_values, None), span * span)
    g = np.bincount(np.concatenate(g_index, None), np.concatenate(g_values, None), span)
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
    The first (poses - 1) // TILE tiles of TILE keyframes, whose entries must
    all be free, are eliminated in order: each tile couples only to the next
    tile and to the tail (the remaining keyframes and the free entries after
    them), so one solve per tile updates the next tile and the tail's Schur
    complement. The tail is solved densely and the tiles back-substituted.
    With no tile (poses <= TILE + 1) the tail is the whole free block and the
    step is one dense solve.
    """
    fixed = np.asarray(fixed, dtype=np.intp)
    dim = H.shape[0]
    free = np.ones(dim, dtype=bool)
    free[fixed] = False
    m = dim - int(np.count_nonzero(free))
    if m != fixed.size:  # a repeated index: duplicate constraint rows
        raise RankDeficientError(dim + fixed.size, dim + m)
    split = 9 * TILE * (max(poses - 1, 0) // TILE)  # entries eliminated tile by tile
    if split and (9 * poses > dim or not free[:split].all()):
        raise ValueError("the tiled keyframe blocks must be free entries of H")
    delta = np.zeros(dim)
    delta[fixed] = -np.asarray(c, dtype=float)
    tail = free.copy()
    tail[:split] = False
    H_tail = H[tail]
    S = H_tail[:, tail]
    r = -(g[tail] + H_tail @ delta)
    try:
        tiles = _eliminate_tiles(H, g, delta, tail, split, S, r) if split else []
        delta[tail] = y_tail = np.linalg.solve(S, r)
    except np.linalg.LinAlgError:
        H_ff = H[free][:, free]
        raise RankDeficientError(dim - m, int(np.linalg.matrix_rank(H_ff))) from None
    y_next = np.zeros(0)
    for start, X in reversed(tiles):
        # X = D^-1 [U | C | r], so the tile's entries are D^-1 (r - U y_next - C y_tail)
        y_next = X @ np.concatenate([-y_next[:9], -y_tail, [1.0]])
        delta[start : start + 9 * TILE] = y_next
    return delta, -(H[fixed] @ delta + g[fixed])


def _eliminate_tiles(H, g, delta, tail, split, S, r):
    """Eliminate the keyframe tiles before entry `split` from H delta = -g.

    Tile by tile, the tile block D is solved against its coupling U to the
    next keyframe, its coupling C to the `tail` entries and its right-hand
    side; the result updates the next tile and, in place, the tail system
    S y = r. Returns each tile's (start, D^-1 [U | C | r]) for the
    back-substitution.
    """
    width = 9 * TILE
    # each tile's coupling to the tail and its right-hand side, [C | r]
    coupling = np.column_stack([H[:split, tail], -(g[:split] + H[:split] @ delta)])
    block = H[:width, :width]
    tiles = []
    for start in range(0, split, width):
        stop = start + width
        U = H[start:stop, stop : min(stop + 9, split)]  # empty for the last tile
        X = np.linalg.solve(block, np.column_stack([U, coupling[start:stop]]))
        X_U, X_C = X[:, : U.shape[1]], X[:, U.shape[1] :]  # D^-1 U and D^-1 [C | r]
        update = coupling[start:stop, :-1].T @ X_C
        S -= update[:, :-1]
        r -= update[:, -1]
        if U.size:
            block = H[stop : stop + width, stop : stop + width].copy()
            block[:9, :9] -= U.T @ X_U
            coupling[stop : stop + 9] -= U.T @ X_C
        tiles.append((start, X))
    return tiles


def solve(problem: Problem, config: SolverConfig | None = None) -> SolveReport:
    """Run the damped, optionally constrained Gauss-Newton loop.

    Deterministic: identical problem and config give bit-identical reports.
    Degenerate projection depth or a singular system aborts the run with an
    IterationError naming the iterate and carrying partial histories.
    """
    if config is None:
        config = SolverConfig()
    if config.damping < 0:
        raise ValueError("damping must be >= 0")
    if config.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    window = problem.window
    cost_history: List[float] = []
    step_norms: List[float] = []
    for iteration in range(1, config.max_iterations + 1):
        current = problem.with_window(window)
        try:
            residual, jacobian, weights = assemble(current)
            H, g = _normal_system(residual, jacobian, weights, config.damping)
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
