"""Declipping solvers: hard thresholding plus three ADMM-derived iterations.

All three variants alternate a k-sparse hard-thresholding step with a
projection onto the clipping-consistent set, accumulate the constraint
residual in a scaled dual variable, and grow the sparsity target k by s
every r iterations until the residual is at most epsilon or k passes the
coefficient count; the last iterate is the result.

* ASPADE: analysis formulation; iterates a time-domain estimate, the dual
  variable lives in the coefficient domain.
* SSPADE_ORIG: synthesis formulation with the constraint carried on the
  coefficients themselves; iterates coefficients, dual in the coefficient
  domain. (Solves a synthesis problem whose sparsity constraint binds the
  coefficient estimate directly rather than the synthesized signal.)
* SSPADE_DR: synthesis formulation consistent with the analysis one; the
  sparse step is approximated by thresholding analysis coefficients, dual
  is a real time-domain vector.

The penalty parameter of the underlying augmented Lagrangian scales both
indicator-constrained subproblems without moving their minimizers, so it
never appears here.

Every step works on one frame or on a batch of frames stacked along a
leading axis. The sparsity schedule does not depend on the frame, so all
frames of a batch share k; `solve_batch` runs one loop over the batch and
`run_solver` is its single-frame case. Both return the restored samples
and a `FrameStats` per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .feasible import ClipModel, project_gamma
from .frames import FrameOperator
from .metrics import FrameStats

__all__ = [
    "Variant",
    "SolverParams",
    "SolverState",
    "hard_threshold",
    "init_state",
    "aspade_step",
    "sspade_orig_step",
    "sspade_dr_step",
    "step",
    "solve_batch",
    "run_solver",
]


class Variant(Enum):
    ASPADE = "aspade"
    SSPADE_ORIG = "sspade"
    SSPADE_DR = "sspade-dr"


@dataclass(frozen=True)
class SolverParams:
    """Sparsity schedule and termination settings.

    k starts at `s` and grows by `s` every `r` iterations; the solve stops
    once the residual is <= `epsilon` or k exceeds the frame's coefficient
    count P//2 + 1. k counts half-spectrum coefficients, so each step keeps
    whole conjugate pairs of the full DFT; DC and Nyquist count one each.
    """

    s: int = 1
    r: int = 1
    epsilon: float = 0.1
    variant: Variant = Variant.ASPADE

    def __post_init__(self):
        # `not x >= bound` also rejects NaN
        if not self.s >= 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if not self.r >= 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass(frozen=True)
class SolverState:
    """One iteration's variables. `i` counts completed iterations.

    For a batch, the arrays have a leading frame axis and `residual` holds
    one value per frame; `k` and `i` are shared by the batch.
    """

    x_hat: np.ndarray
    z_bar: np.ndarray
    u: np.ndarray
    k: int
    i: int = 0
    residual: float | np.ndarray = np.inf
    z_hat: np.ndarray | None = None  # SSPADE_ORIG primal coefficients
    ax: np.ndarray | None = None  # ASPADE: analyze(x_hat), reused by the next step

    def select(self, rows) -> SolverState:
        """The state of the chosen frames of a batch."""
        return replace(
            self,
            x_hat=self.x_hat[rows],
            z_bar=self.z_bar[rows],
            u=self.u[rows],
            residual=self.residual[rows],
            z_hat=None if self.z_hat is None else self.z_hat[rows],
            ax=None if self.ax is None else self.ax[rows],
        )


def hard_threshold(s_vec: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of s_vec, zero the rest.

    Exact minimizer of ||z - s_vec||^2 over k-sparse z. Ties are broken by
    keeping the lower index. A 2-D input is thresholded row by row.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    s_vec = np.asarray(s_vec)
    n = s_vec.shape[-1]
    if k >= n:
        return s_vec.copy()
    if k == 0:
        return np.zeros_like(s_vec)
    mag = np.abs(s_vec)
    kth = np.partition(mag, n - k, axis=-1)[..., n - k, None]  # k-th largest
    keep = mag >= kth
    # every row keeps at least k entries, so a surplus anywhere shows in the total
    if np.count_nonzero(keep) > k * (keep.size // n):
        # entries tied at the k-th magnitude fill the free slots in index order
        tied = mag == kth
        free = k - np.count_nonzero(mag > kth, axis=-1, keepdims=True)
        keep &= ~tied | (np.cumsum(tied, axis=-1) <= free)
    return np.where(keep, s_vec, np.zeros((), s_vec.dtype))


def init_state(model: ClipModel, op: FrameOperator, params: SolverParams) -> SolverState:
    """Starting state: estimate pinned to the observation, zero dual, k = s."""
    coef_shape = model.y.shape[:-1] + (op.coeff_len,)
    z_bar = np.zeros(coef_shape, dtype=complex)
    kw = {}
    if params.variant is Variant.SSPADE_ORIG:
        kw["z_hat"] = op.analyze(model.y)
        u = np.zeros(coef_shape, dtype=complex)
    elif params.variant is Variant.SSPADE_DR:
        u = np.zeros(model.y.shape)
    else:
        kw["ax"] = op.analyze(model.y)
        u = np.zeros(coef_shape, dtype=complex)
    return SolverState(x_hat=model.y.copy(), z_bar=z_bar, u=u, k=params.s, **kw)


def _norm(a: np.ndarray):
    """Euclidean norm along the last axis: a float for one frame, else one per row."""
    # a complex row as interleaved real and imaginary parts
    flat = np.ascontiguousarray(a).view(float)
    out = np.sqrt(np.einsum("...i,...i->...", flat, flat))
    return float(out) if out.ndim == 0 else out


def _advance(state: SolverState, params: SolverParams, u_new, residual, **kw) -> SolverState:
    """Apply the shared dual/counter/sparsity bookkeeping after a step."""
    i = state.i + 1
    k = state.k + params.s if i % params.r == 0 else state.k
    return replace(state, u=u_new, residual=residual, i=i, k=k, **kw)


def aspade_step(
    state: SolverState, model: ClipModel, op: FrameOperator, params: SolverParams
) -> SolverState:
    """One analysis-variant iteration: threshold, project, dual update."""
    z_bar = hard_threshold(state.ax + state.u, state.k)
    x_hat = project_gamma(op.synthesize(z_bar - state.u), model)
    ax = op.analyze(x_hat)
    return _advance(
        state,
        params,
        state.u + ax - z_bar,
        _norm(ax - z_bar),
        x_hat=x_hat,
        z_bar=z_bar,
        ax=ax,
    )


def sspade_orig_step(
    state: SolverState, model: ClipModel, op: FrameOperator, params: SolverParams
) -> SolverState:
    """One original-synthesis iteration; the primal variable is z_hat.

    The coefficient projection (`project_gamma_coef`) is written out so its
    projected synthesis doubles as the time-domain estimate.
    """
    z_bar = hard_threshold(state.z_hat + state.u, state.k)
    c = z_bar - state.u
    v = op.synthesize(c)
    x_hat = project_gamma(v, model)
    z_hat = c + op.analyze(x_hat - v)
    return _advance(
        state,
        params,
        state.u + z_hat - z_bar,
        _norm(z_hat - z_bar),
        z_hat=z_hat,
        x_hat=x_hat,
        z_bar=z_bar,
    )


def sspade_dr_step(
    state: SolverState, model: ClipModel, op: FrameOperator, params: SolverParams
) -> SolverState:
    """One corrected-synthesis iteration; the dual lives in the time domain."""
    z_bar = hard_threshold(op.analyze(state.x_hat - state.u), state.k)
    dz = op.synthesize(z_bar)
    x_hat = project_gamma(dz + state.u, model)
    return _advance(
        state, params, state.u + dz - x_hat, _norm(dz - x_hat), x_hat=x_hat, z_bar=z_bar
    )


_STEPS = {
    Variant.ASPADE: aspade_step,
    Variant.SSPADE_ORIG: sspade_orig_step,
    Variant.SSPADE_DR: sspade_dr_step,
}


def step(
    state: SolverState, model: ClipModel, op: FrameOperator, params: SolverParams
) -> SolverState:
    """Advance one iteration of the variant selected in params."""
    return _STEPS[params.variant](state, model, op, params)


def solve_batch(
    model: ClipModel, op: FrameOperator, params: SolverParams
) -> tuple[np.ndarray, list[FrameStats]]:
    """Solve every frame of a batched model (arrays of shape (frames, N)).

    Returns the restored frames, one per row, and each frame's stats. Each
    frame iterates until its residual is <= epsilon (converged) or its k
    exceeds the coefficient count `op.coeff_len` (not converged), and then
    leaves the batch, so the other frames go on without it. Either way the
    frame returns its last iterate, which is clipping-consistent, with that
    iterate's residual and k: a converged frame reports the k it converged
    at, a capped one the advanced k that passed the cap. Non-convergence is
    not an error. A frame's result does not depend on the other frames in
    the batch.
    """
    step_fn = _STEPS[params.variant]
    state = init_state(model, op, params)
    num = model.y.shape[0]
    restored = np.empty_like(model.y)
    stats = [None] * num
    rows = np.arange(num)  # frame index of each row still in the batch
    while rows.size:
        k_before = state.k
        state = step_fn(state, model, op, params)
        done = state.residual <= params.epsilon
        retired = done | (state.k > op.coeff_len)
        if retired.any():
            restored[rows[retired]] = state.x_hat[retired]
            for m, res, c in zip(rows[retired], state.residual[retired], done[retired]):
                # a converged frame does not advance k
                stats[m] = FrameStats(state.i, float(res), k_before if c else state.k, bool(c))
            stay = ~retired
            rows = rows[stay]
            state = state.select(stay)
            model = model.select(stay)
    return restored, stats


def run_solver(
    model: ClipModel, op: FrameOperator, params: SolverParams
) -> tuple[np.ndarray, FrameStats]:
    """Solve one frame: `solve_batch` on a batch of one."""
    x, (stats,) = solve_batch(model.select(np.newaxis), op, params)
    return x[0], stats
