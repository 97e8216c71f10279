"""Declipping solvers: hard thresholding plus three ADMM-derived iterations.

All three variants alternate a k-sparse hard-thresholding step with a
projection onto the clipping-consistent set, accumulate the constraint
residual in a scaled dual variable, and grow the sparsity target k by s
every r iterations until the residual is at most epsilon or k passes the
coefficient count; the last iterate is the result. k is a function of the
iteration count alone, `SolverParams.sparsity`, so no state or stats
store it: a frame stopped at k = `params.sparsity(iterations - converged)`.

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

`solve_batch` is the one solve driver: it solves every frame stacked
along a leading axis and returns the restored samples and a `FrameStats`
per frame. One frame is a batch of one, `model.select(np.newaxis)`. The
sparsity schedule depends on the iteration count alone, so all frames of
a batch share k. Which frames of a signal need a solve is the pipeline's
decision (`pipeline.restore`).

Each variant's iteration is written once, as a kernel that advances a
`SolverState` in place: apart from the two transforms, whose outputs the
kernel adopts, an iteration writes into the buffers of its own state
that it has used up. `init_state` and `step` are the stepping interface,
on one frame or a batch; the lockstep oracle and the tests use them.
`step` runs one kernel call in place and returns its residual, which no
later step reads; `solve_batch` is `init_state` plus a loop of `step`
calls over one state per batch, compacted only when frames retire. The
kernels call `hard_threshold` and `project_gamma` with `out=` the buffer
they overwrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .feasible import ClipModel, project_gamma
from .frames import FrameOperator, require_integers
from .metrics import FrameStats

__all__ = [
    "Variant",
    "SCHEDULES",
    "SolverParams",
    "SolverState",
    "hard_threshold",
    "init_state",
    "step",
    "solve_batch",
]


class Variant(Enum):
    ASPADE = "aspade"
    SSPADE_ORIG = "sspade"
    SSPADE_DR = "sspade-dr"


# Each variant's default sparsity schedule (s, r), chosen on paired ΔSDR and
# CPU time (`tools/ab.py schedule`, README "Sparsity schedule"). The
# paper evaluates s = r = 1.
SCHEDULES = {
    Variant.ASPADE: (4, 1),
    Variant.SSPADE_ORIG: (1, 1),
    Variant.SSPADE_DR: (1, 1),
}


@dataclass(frozen=True)
class SolverParams:
    """Sparsity schedule and termination settings.

    k starts at `s` and grows by `s` every `r` iterations (`sparsity`); the
    solve stops once the residual is <= `epsilon` or k exceeds the frame's
    coefficient count P//2 + 1. k counts half-spectrum coefficients, so
    each step keeps whole conjugate pairs of the full DFT; DC and Nyquist
    count one each. `epsilon` bounds an absolute residual, at the scale of
    the samples solved: the input's own level, not a level normalized to
    peak 1. A quiet input meets it sooner, at once if quiet enough.

    An `s` or `r` left at None takes the variant's entry of `SCHEDULES`:
    (4, 1) for A-SPADE, the paper's (1, 1) for S-SPADE and S-SPADE-DR.
    The resolved values are stored, so `dataclasses.replace(params,
    variant=v)` keeps params' s and r.
    """

    s: int | None = None
    r: int | None = None
    epsilon: float = 0.1
    variant: Variant = Variant.ASPADE

    def __post_init__(self):
        # the iteration is chosen by identity: a variant's string would match no member
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant member, got {self.variant!r}")
        for name, default in zip(("s", "r"), SCHEDULES[self.variant]):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        require_integers(s=self.s, r=self.r)  # k and the schedule count in whole steps
        # `not x >= bound` also rejects NaN
        if not self.s >= 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if not self.r >= 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")

    def sparsity(self, i: int) -> int:
        """The k of the iteration that follows `i` completed ones."""
        return self.s * (1 + i // self.r)


@dataclass
class SolverState:
    """One iteration's variables. `i` counts completed iterations.

    `step` advances a state in place, so the class is not frozen; a caller
    that needs an earlier value copies it before the step. `w` is the
    coefficient iterate of ASPADE and SSPADE_ORIG, None for SSPADE_DR. For
    a batch, the arrays have a leading frame axis; `i` is shared by the
    batch. The next step's k is `params.sparsity(state.i)`.
    """

    x_hat: np.ndarray
    z_bar: np.ndarray
    u: np.ndarray
    i: int = 0
    w: np.ndarray | None = None


def hard_threshold(s_vec: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Keep the k largest-magnitude entries of s_vec, zero the rest.

    Exact minimizer of ||z - s_vec||^2 over k-sparse z. Ties are broken by
    keeping the lower index. Any array is thresholded along its last axis,
    so each row of a batch keeps its own k entries. The result goes to
    `out`, which may be s_vec itself, else to a new array. Raises
    ValueError if k is not an integer (numpy integers pass) or is
    negative, or if s_vec is a scalar, which has no entries to count.
    """
    require_integers(k=k)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    s = np.asarray(s_vec)
    if s.ndim == 0:
        raise ValueError(f"s_vec must have at least one axis, got the scalar {s_vec!r}")
    if out is None:
        out = s.copy()
    elif out is not s:
        np.copyto(out, s)
    n = out.shape[-1]
    if k >= n:
        return out
    if k == 0:
        out[...] = 0
        return out
    mag = np.abs(out)
    kth = np.partition(mag, n - k, axis=-1)[..., n - k, None]  # k-th largest
    keep = mag >= kth
    # every row keeps at least k entries, so a surplus anywhere shows in the total
    if np.count_nonzero(keep) > k * (keep.size // n):
        # entries tied at the k-th magnitude fill the free slots in index order
        tied = mag == kth
        free = k - np.count_nonzero(mag > kth, axis=-1, keepdims=True)
        keep &= ~tied | (np.cumsum(tied, axis=-1) <= free)
    np.copyto(out, 0, where=np.logical_not(keep, out=keep))
    return out


def init_state(model: ClipModel, op: FrameOperator, params: SolverParams) -> SolverState:
    """Starting state: estimate pinned to the observation, zero dual."""
    x_hat = model.y.copy()
    z_bar = np.zeros(model.y.shape[:-1] + (op.coeff_len,), dtype=complex)
    if params.variant is Variant.SSPADE_DR:
        return SolverState(x_hat, z_bar, u=np.zeros(model.y.shape))
    return SolverState(x_hat, z_bar, u=np.zeros_like(z_bar), w=op.analyze(model.y))


def _norm(a: np.ndarray):
    """Euclidean norm along the last axis: a float for one frame, else one per row."""
    # a complex row as interleaved real and imaginary parts
    flat = np.ascontiguousarray(a).view(float)
    out = np.sqrt(np.einsum("...i,...i->...", flat, flat))
    return float(out) if out.ndim == 0 else out


def _coef_kernel(
    state: SolverState, model: ClipModel, op: FrameOperator, k: int, aspade: bool
):
    """One ASPADE or SSPADE_ORIG iteration in place; returns the residual.

    Thresholds w + u to k entries in z_bar, then projects c = z_bar - u onto the
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
    hard_threshold(np.add(state.w, u, out=z), k, out=z)
    # the old w is used up: its buffer holds c, then the residual difference
    c = np.subtract(z, u, out=state.w)
    v = op.synthesize(c)
    x = project_gamma(v, model, out=state.x_hat)
    if aspade:
        w = op.analyze(x)
    else:
        w = op.analyze(np.subtract(x, v, out=v))
        w += c
    state.w = w
    u += w
    u -= z
    return _norm(np.subtract(w, z, out=c))


def _dr_kernel(state: SolverState, model: ClipModel, op: FrameOperator, k: int):
    """One SSPADE_DR iteration in place; the dual lives in the time domain.

    z_bar thresholds analyze(x_hat - u) to k entries; x_hat projects
    dz + u, dz = synthesize(z_bar); the dual becomes (u + dz) - x_hat.
    """
    x, u = state.x_hat, state.u
    # the old x_hat is used up once x_hat - u is analyzed
    state.z_bar = z = op.analyze(np.subtract(x, u, out=x))
    dz = op.synthesize(hard_threshold(z, k, out=z))
    project_gamma(np.add(dz, u, out=x), model, out=x)
    u += dz
    u -= x
    return _norm(np.subtract(dz, x, out=dz))


def step(state: SolverState, model: ClipModel, op: FrameOperator, params: SolverParams):
    """One iteration of params' variant on state, in place; returns its residual.

    Runs the variant's kernel at k = `params.sparsity(state.i)` and counts
    the iteration. The residual is a float for one frame, else one per row.
    """
    k = params.sparsity(state.i)
    state.i += 1
    if params.variant is Variant.SSPADE_DR:
        return _dr_kernel(state, model, op, k)
    return _coef_kernel(state, model, op, k, params.variant is Variant.ASPADE)


def solve_batch(
    model: ClipModel, op: FrameOperator, params: SolverParams
) -> tuple[np.ndarray, list[FrameStats]]:
    """Solve every frame of a batched model (arrays of shape (frames, N)).

    Returns the restored frames, one per row, and each frame's stats. Each
    frame iterates until its residual is <= epsilon (converged) or its k
    exceeds the coefficient count `op.coeff_len` (not converged), and then
    leaves the batch, so the other frames go on without it. Either way the
    frame returns its last iterate, which is clipping-consistent, with that
    iterate's residual. Non-convergence is not an error. A frame's result
    does not depend on the other frames in the batch.
    """
    restored = np.empty_like(model.y)
    stats = [None] * len(restored)
    # frame index of each row still in the batch
    rows = np.arange(len(restored))
    state = init_state(model, op, params)
    while rows.size:
        residual = step(state, model, op, params)
        done = residual <= params.epsilon
        retired = done | (params.sparsity(state.i) > op.coeff_len)
        if retired.any():
            restored[rows[retired]] = state.x_hat[retired]
            for m, res, c in zip(rows[retired], residual[retired], done[retired]):
                stats[m] = FrameStats(state.i, float(res), bool(c))
            stay = ~retired
            rows = rows[stay]
            # `i` is shared by the batch
            state.x_hat, state.z_bar, state.u = state.x_hat[stay], state.z_bar[stay], state.u[stay]
            if state.w is not None:
                state.w = state.w[stay]
            model = model.select(stay)
    return restored, stats

