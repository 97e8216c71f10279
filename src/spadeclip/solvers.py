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

Each variant's iteration is written once, as a kernel that advances a
`SolverState` in place: apart from the two transforms, whose outputs the
kernel adopts, an iteration writes into the buffers of its own state
that it has used up. `step` runs one kernel call in place and returns
None; `solve_batch` is `init_state` plus a loop of `step` calls over one
state per batch, compacted only when frames retire. `hard_threshold` and
`project_gamma` run the in-place helpers the kernels call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .feasible import ClipModel, project_gamma_into
from .frames import FrameOperator, require_integers
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
        require_integers(s=self.s, r=self.r)  # k and the schedule count in whole steps
        # the iteration is chosen by identity: a variant's string would match no member
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant member, got {self.variant!r}")
        # `not x >= bound` also rejects NaN
        if not self.s >= 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if not self.r >= 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass
class SolverState:
    """One iteration's variables. `i` counts completed iterations.

    `step` advances a state in place, so the class is not frozen; a caller
    that needs an earlier value copies it before the step. `w` is the
    coefficient iterate of ASPADE and SSPADE_ORIG, None for SSPADE_DR. For
    a batch, the arrays have a leading frame axis and `residual` holds one
    value per frame; `k` and `i` are shared by the batch.
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
    keeping the lower index. A 2-D input is thresholded row by row. Raises
    ValueError if k is not an integer (numpy integers pass) or is negative,
    or if s_vec is a scalar, which has no entries to count.
    """
    require_integers(k=k)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    s = np.array(s_vec)
    if s.ndim == 0:
        raise ValueError(f"s_vec must have at least one axis, got the scalar {s_vec!r}")
    return _keep_largest(s, k)


def _keep_largest(s: np.ndarray, k: int) -> np.ndarray:
    """`hard_threshold` in place on s, for k >= 0."""
    n = s.shape[-1]
    if k >= n:
        return s
    if k == 0:
        s[...] = 0
        return s
    mag = np.abs(s)
    part = mag.copy()
    part.partition(n - k, axis=-1)
    kth = part[..., n - k, None]  # k-th largest
    keep = mag >= kth
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


def _coef_kernel(state: SolverState, model: ClipModel, op: FrameOperator, aspade: bool):
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
    z, u = state.z_bar, state.u
    _keep_largest(np.add(state.w, u, out=z), state.k)
    # the old w is used up: its buffer holds c, then the residual difference
    c = np.subtract(z, u, out=state.w)
    v = op.synthesize(c)
    x = project_gamma_into(v, model, state.x_hat)
    if aspade:
        w = op.analyze(x)
    else:
        w = op.analyze(np.subtract(x, v, out=v))
        w += c
    state.w = w
    u += w
    u -= z
    return _norm(np.subtract(w, z, out=c))


def _dr_kernel(state: SolverState, model: ClipModel, op: FrameOperator):
    """One SSPADE_DR iteration in place; the dual lives in the time domain.

    z_bar thresholds analyze(x_hat - u); x_hat projects
    dz + u, dz = synthesize(z_bar); the dual becomes (u + dz) - x_hat.
    """
    x, u = state.x_hat, state.u
    # the old x_hat is used up once x_hat - u is analyzed
    state.z_bar = _keep_largest(op.analyze(np.subtract(x, u, out=x)), state.k)
    dz = op.synthesize(state.z_bar)
    project_gamma_into(np.add(dz, u, out=x), model, x)
    u += dz
    u -= x
    return _norm(np.subtract(dz, x, out=dz))


def step(state: SolverState, model: ClipModel, op: FrameOperator, params: SolverParams) -> None:
    """One iteration of params' variant on state, in place.

    Runs the variant's kernel at the state's k, then sets the residual and
    counts the iteration; k grows by s every r iterations.
    """
    if params.variant is Variant.SSPADE_DR:
        state.residual = _dr_kernel(state, model, op)
    else:
        state.residual = _coef_kernel(state, model, op, params.variant is Variant.ASPADE)
    state.i += 1
    if state.i % params.r == 0:
        state.k += params.s


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
    while rows.size:
        k = state.k
        step(state, model, op, params)
        done = state.residual <= params.epsilon
        retired = done | (state.k > op.coeff_len)
        if retired.any():
            restored[rows[retired]] = state.x_hat[retired]
            for m, res, c in zip(rows[retired], state.residual[retired], done[retired]):
                # a converged frame does not advance k
                stats[m] = FrameStats(state.i, float(res), k if c else state.k, bool(c))
            stay = ~retired
            rows = rows[stay]
            # `k` and `i` are shared; the next step sets the residual
            state.x_hat, state.z_bar, state.u = state.x_hat[stay], state.z_bar[stay], state.u[stay]
            if state.w is not None:
                state.w = state.w[stay]
            model = model.select(stay)
    return restored, stats


def run_solver(
    model: ClipModel, op: FrameOperator, params: SolverParams
) -> tuple[np.ndarray, FrameStats]:
    """Solve one frame: `solve_batch` on a batch of one."""
    x, (stats,) = solve_batch(model.select(np.newaxis), op, params)
    return x[0], stats
