"""Declipping solvers: hard thresholding plus three ADMM-derived iterations.

All three variants alternate a k-sparse hard-thresholding step with a
projection onto the clipping-consistent set, accumulate the constraint
residual in a scaled dual variable, and grow the sparsity target k by s
every r iterations until the residual is at most epsilon or k passes the
coefficient count; the last iterate is the result.

* ASPADE and SSPADE_ORIG share one coefficient-domain iteration: threshold
  the coefficient iterate w plus the coefficient dual u, then project back
  onto a set of coefficients. A-SPADE's set is the analysis coefficients
  of consistent signals, S-SPADE's the coefficients whose synthesis is
  consistent; only that projection, and so the update of w, differs.
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
and a `FrameStats` per frame. A frame with no clipped sample is a fixed
point of every variant, so both pass it through with 0 iterations.

Each variant's iteration is written once, as a kernel that runs in place
on a workspace: the iterate and scratch arrays of one batch, which
`solve_batch` allocates once and compacts only when frames retire. Apart
from the two transforms, whose outputs the kernel adopts, an iteration
writes into the workspace and builds no `SolverState`. The public `step`
copies its state into a fresh workspace and runs the kernel once, so it
leaves its input untouched; `hard_threshold` and `project_gamma` run the
in-place helpers the kernels call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .feasible import ClipModel, project_gamma_into
from .frames import FrameOperator
from .metrics import FrameStats

__all__ = [
    "Variant",
    "SolverParams",
    "SolverState",
    "hard_threshold",
    "init_state",
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

    `w` is the coefficient iterate of ASPADE and SSPADE_ORIG, None for
    SSPADE_DR. For a batch, the arrays have a leading frame axis and
    `residual` holds one value per frame; `k` and `i` are shared by the
    batch.
    """

    x_hat: np.ndarray
    z_bar: np.ndarray
    u: np.ndarray
    k: int
    i: int = 0
    residual: float | np.ndarray = np.inf
    w: np.ndarray | None = None


def hard_threshold(s_vec: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of s_vec, zero the rest.

    Exact minimizer of ||z - s_vec||^2 over k-sparse z. Ties are broken by
    keeping the lower index. A 2-D input is thresholded row by row.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return _keep_largest(np.array(s_vec), k)


def _keep_largest(s: np.ndarray, k: int, ws: _Workspace | None = None) -> np.ndarray:
    """`hard_threshold` in place on s, for k >= 0; the workspace, when
    given, holds the scratch arrays."""
    n = s.shape[-1]
    if k >= n:
        return s
    if k == 0:
        s[...] = 0
        return s
    if ws is None:
        mag = np.abs(s)
        part, keep = mag.copy(), None
    else:
        mag, part, keep = np.abs(s, out=ws.mag), ws.part, ws.keep
        part[...] = mag
    part.partition(n - k, axis=-1)
    kth = part[..., n - k, None]  # k-th largest
    keep = np.greater_equal(mag, kth, out=keep)
    # every row keeps at least k entries, so a surplus anywhere shows in the total
    if np.count_nonzero(keep) > k * (keep.size // n):
        # entries tied at the k-th magnitude fill the free slots in index order
        tied = mag == kth
        free = k - np.count_nonzero(mag > kth, axis=-1, keepdims=True)
        keep &= ~tied | (np.cumsum(tied, axis=-1) <= free)
    np.copyto(s, 0, where=np.logical_not(keep, out=keep))
    return s


def init_state(model: ClipModel, op: FrameOperator, params: SolverParams) -> SolverState:
    """Starting state: estimate pinned to the observation, zero dual, k = s."""
    x_hat = model.y.copy()
    z_bar = np.zeros(model.y.shape[:-1] + (op.coeff_len,), dtype=complex)
    if params.variant is Variant.SSPADE_DR:
        return SolverState(x_hat, z_bar, u=np.zeros(model.y.shape), k=params.s)
    return SolverState(
        x_hat, z_bar, u=np.zeros_like(z_bar), k=params.s, w=op.analyze(model.y)
    )


def _norm(a: np.ndarray):
    """Euclidean norm along the last axis: a float for one frame, else one per row."""
    # a complex row as interleaved real and imaginary parts
    flat = np.ascontiguousarray(a).view(float)
    out = np.sqrt(np.einsum("...i,...i->...", flat, flat))
    return float(out) if out.ndim == 0 else out


def _next_k(k: int, i: int, params: SolverParams) -> int:
    """The sparsity after the i-th iteration ran at k: s more every r iterations."""
    return k + params.s if i % params.r == 0 else k


class _Workspace:
    """One batch's iterate and scratch arrays; the kernels overwrite them.

    `x_hat`, `z_bar`, `u` and `w` are the iterate, as in `SolverState`.
    `coef`, `mag`, `part` and `keep` are scratch of the coefficient shape
    and `sig` of the signal shape; they carry nothing from call to call.
    """

    def __init__(self, x_hat, z_bar, u, w):
        self.x_hat, self.z_bar, self.u, self.w = x_hat, z_bar, u, w
        self.coef = np.empty(z_bar.shape, complex)
        self.mag = np.empty(z_bar.shape)
        self.part = np.empty(z_bar.shape)
        self.keep = np.empty(z_bar.shape, bool)
        self.sig = np.empty(x_hat.shape)

    def select(self, rows) -> _Workspace:
        """The workspace of the chosen frames of a batch."""
        w = None if self.w is None else self.w[rows]
        return _Workspace(self.x_hat[rows], self.z_bar[rows], self.u[rows], w)


def _coef_kernel(ws: _Workspace, model: ClipModel, op: FrameOperator, k: int, aspade: bool):
    """One ASPADE or SSPADE_ORIG iteration in place; returns the residual.

    Thresholds w + u to z_bar, then projects c = z_bar - u onto the
    variant's constraint set through x_hat, the consistent signal nearest
    to v = synthesize(c). A-SPADE takes w = analyze(x_hat); S-SPADE takes
    w = c + analyze(x_hat - v), the coefficient projection
    `verification.project_gamma_coef`. On a unitary frame
    analyze(synthesize(c)) = c for every c whose DC and Nyquist bins are
    real, as the iterates' are, so the two updates coincide; the lockstep
    `unitary variant equivalence` check confirms it. The dual becomes
    (u + w) - z_bar.
    """
    z, u = ws.z_bar, ws.u
    _keep_largest(np.add(ws.w, u, out=z), k, ws)
    c = np.subtract(z, u, out=ws.coef)
    v = op.synthesize(c)
    x = project_gamma_into(v, model, ws.x_hat)
    if aspade:
        w = op.analyze(x)
    else:
        w = op.analyze(np.subtract(x, v, out=v))
        w += c
    ws.w = w
    u += w
    u -= z
    return _norm(np.subtract(w, z, out=c))


def _dr_kernel(ws: _Workspace, model: ClipModel, op: FrameOperator, k: int):
    """One SSPADE_DR iteration in place; the dual lives in the time domain.

    z_bar thresholds analyze(x_hat - u); x_hat projects
    dz + u, dz = synthesize(z_bar); the dual becomes (u + dz) - x_hat.
    """
    x, u = ws.x_hat, ws.u
    z = _keep_largest(op.analyze(np.subtract(x, u, out=ws.sig)), k, ws)
    ws.z_bar = z
    dz = op.synthesize(z)
    project_gamma_into(np.add(dz, u, out=x), model, x)
    u += dz
    u -= x
    return _norm(np.subtract(dz, x, out=ws.sig))


def _run_kernel(ws: _Workspace, model: ClipModel, op: FrameOperator, params: SolverParams, k: int):
    """One iteration of params' variant on the workspace at sparsity k."""
    if params.variant is Variant.SSPADE_DR:
        return _dr_kernel(ws, model, op, k)
    return _coef_kernel(ws, model, op, k, params.variant is Variant.ASPADE)


def step(
    state: SolverState, model: ClipModel, op: FrameOperator, params: SolverParams
) -> SolverState:
    """Advance one iteration of the variant selected in params.

    The state passed in is left as it was: the kernel runs on copies.
    """
    ws = _Workspace(
        np.array(state.x_hat),
        np.empty_like(state.z_bar),
        np.array(state.u),
        None if state.w is None else np.array(state.w),
    )
    residual = _run_kernel(ws, model, op, params, state.k)
    i = state.i + 1
    return SolverState(ws.x_hat, ws.z_bar, ws.u, _next_k(state.k, i, params), i, residual, ws.w)


def solve_batch(
    model: ClipModel, op: FrameOperator, params: SolverParams
) -> tuple[np.ndarray, list[FrameStats]]:
    """Solve every frame of a batched model (arrays of shape (frames, N)).

    Returns the restored frames, one per row, and each frame's stats. A
    frame with no clipped sample is returned as y with
    `FrameStats(0, 0.0, 0, True)`. Every other frame iterates until its
    residual is <= epsilon (converged) or its k exceeds the coefficient
    count `op.coeff_len` (not converged), and then leaves the batch, so the
    other frames go on without it. Either way the frame returns its last
    iterate, which is clipping-consistent, with that iterate's residual and
    k: a converged frame reports the k it converged at, a capped one the
    advanced k that passed the cap. Non-convergence is not an error. A
    frame's result does not depend on the other frames in the batch.
    """
    restored = model.y.copy()
    stats = [FrameStats(0, 0.0, 0, True)] * len(restored)
    # frame index of each row still in the batch
    rows = np.flatnonzero(~model.mask_r.all(axis=-1))
    if not rows.size:
        return restored, stats  # nothing to solve: no transform runs on an empty batch
    model = model.select(rows)
    state = init_state(model, op, params)
    # init_state's arrays are fresh, so the workspace adopts them
    ws = _Workspace(state.x_hat, state.z_bar, state.u, state.w)
    i, k = 0, state.k
    while rows.size:
        residual = _run_kernel(ws, model, op, params, k)
        i += 1
        k_next = _next_k(k, i, params)
        done = residual <= params.epsilon
        retired = done | (k_next > op.coeff_len)
        if retired.any():
            restored[rows[retired]] = ws.x_hat[retired]
            for m, res, c in zip(rows[retired], residual[retired], done[retired]):
                # a converged frame does not advance k
                stats[m] = FrameStats(i, float(res), k if c else k_next, bool(c))
            stay = ~retired
            rows = rows[stay]
            ws = ws.select(stay)
            model = model.select(stay)
        k = k_next
    return restored, stats


def run_solver(
    model: ClipModel, op: FrameOperator, params: SolverParams
) -> tuple[np.ndarray, FrameStats]:
    """Solve one frame: `solve_batch` on a batch of one."""
    x, (stats,) = solve_batch(model.select(np.newaxis), op, params)
    return x[0], stats
