"""Independent oracles for the algebraic identities the solvers rely on.

The oracles avoid the FFT code path: `DenseFrameOperator` realizes a frame
as a dense DFT matrix built entry by entry, and sparse least squares is
solved by exhaustive support enumeration. Two checks test the FFT
operator and the solvers directly instead: `projection transposition`
tests projection optimality against random feasible candidates, and
`unitary variant equivalence` runs the three variants' `step` in lockstep.
Checks are deterministic given the seed and are driven both by the test
suite and the `verify` CLI subcommand.

The module also holds a plain reference that the package itself does not
call: `project_gamma_coef` is S-SPADE's coefficient projection, which the
solvers' shared coefficient kernel computes inline so that its projected
synthesis doubles as the time-domain estimate. One frame's clip model is
`restrict_frames(model, plan).select(m)`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .feasible import ClipModel, detect_masks, hard_clip, project_gamma
from .frames import FrameOperator, make_frame, require_integers
from .solvers import (
    SolverParams,
    Variant,
    hard_threshold,
    init_state,
    step,
)

__all__ = [
    "OracleConfig",
    "CheckReport",
    "DenseFrameOperator",
    "project_gamma_coef",
    "brute_force_sparse_ls",
    "check_scaled_form",
    "check_projection_transposition",
    "check_unitary_equivalence",
    "make_test_model",
    "run_all_checks",
]


# exact identities in floating point; identities through an FFT or a projection
TOL_STRICT = 1e-12
TOL_NUMERIC = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    n_trials: int = 100
    seed: int = 0

    def __post_init__(self):
        require_integers(n_trials=self.n_trials, seed=self.seed)
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.seed < 0:  # numpy's own error would not name the field
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<38} max dev {self.max_deviation:.3e}  tol {self.tolerance:.1e}"


@dataclass(frozen=True)
class DenseFrameOperator(FrameOperator):
    """The frame of `FrameOperator`, its maps realized as dense matrix products.

    `analysis` is the (P//2 + 1) x N weighted half-spectrum DFT matrix,
    built entrywise without an FFT: row j is the DFT row of frequency j over
    the first N samples, divided by sqrt(P) and, for an interior bin
    (0 < j < P/2), multiplied by sqrt(2). Its conjugate transpose is the
    synthesis matrix; synthesis is the real part of that product.
    """

    analysis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        p = self.dft_len
        rows = np.arange(p // 2 + 1).reshape(-1, 1)
        cols = np.arange(self.signal_len).reshape(1, -1)
        weights = np.where((rows == 0) | (2 * rows == p), 1.0, np.sqrt(2))
        a = weights * np.exp(-2j * np.pi * rows * cols / p) / np.sqrt(p)
        object.__setattr__(self, "analysis", a)

    def analyze(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.analysis.T

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        return np.real(np.asarray(c, dtype=complex) @ self.analysis.conj())


def project_gamma_coef(
    c: np.ndarray, model: ClipModel, op: FrameOperator
) -> np.ndarray:
    """Project coefficients c onto the set whose synthesis is clipping-consistent.

    One-step closed form: c + analyze(project_gamma(synthesize(c)) - synthesize(c)).
    Exact because synthesis composed with analysis is the identity on signals.
    """
    c = np.asarray(c, dtype=complex)
    expected = model.lo.shape[:-1] + (op.coeff_len,)
    if c.shape != expected:
        raise ValueError(f"expected coefficients of shape {expected}, got {c.shape}")
    v = op.synthesize(c)
    return c + op.analyze(project_gamma(v, model) - v)


def brute_force_sparse_ls(
    dictionary: np.ndarray, target: np.ndarray, k: int
) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Exact k-sparse least squares by enumerating all supports.

    Minimizes ||Re(dictionary @ z) - target||^2 over complex z with at
    most k nonzeros, for a real target: on each support the real and
    imaginary parts of z are 2k real unknowns. Returns (support,
    full-length coefficients, squared objective). Sizes are capped
    because the enumeration is combinatorial.
    """
    dictionary = np.asarray(dictionary, dtype=complex)
    target = np.asarray(target, dtype=float)
    n, p = dictionary.shape
    if p > 14 or k > 3:
        raise ValueError(f"enumeration limited to p <= 14, k <= 3 (got p={p}, k={k})")
    if k == 0:
        return (), np.zeros(p, dtype=complex), float(np.linalg.norm(target) ** 2)
    best = ((), np.zeros(p, dtype=complex), float(np.linalg.norm(target) ** 2))
    for support in itertools.combinations(range(p), k):
        cols = dictionary[:, support]
        # Re(D (a + ib)) = Re(D) a - Im(D) b
        real_cols = np.hstack([cols.real, -cols.imag])
        coef, _, _, _ = np.linalg.lstsq(real_cols, target, rcond=None)
        obj = float(np.linalg.norm(real_cols @ coef - target) ** 2)
        if obj < best[2]:
            z = np.zeros(p, dtype=complex)
            z[list(support)] = coef[:k] + 1j * coef[k:]
            best = (support, z, obj)
    return best


def check_scaled_form(config: OracleConfig) -> CheckReport:
    """Scaled-dual rewriting of the augmented Lagrangian penalty terms.

    For random real r, y and rho > 0, the identity
    y.r + (rho/2)||r||^2 = (rho/2)||r + y/rho||^2 - (rho/2)||y/rho||^2
    must hold to strict tolerance, as must the equality of a complex
    vector's norm with the norm of its stacked real/imaginary parts.
    """
    rng = np.random.default_rng(config.seed)
    max_dev = 0.0
    for _ in range(config.n_trials):
        n = int(rng.integers(1, 33))
        r = rng.standard_normal(n)
        y = rng.standard_normal(n)
        rho = float(rng.uniform(0.1, 10.0))
        lhs = y @ r + 0.5 * rho * np.linalg.norm(r) ** 2
        u = y / rho
        rhs = 0.5 * rho * np.linalg.norm(r + u) ** 2 - 0.5 * rho * np.linalg.norm(u) ** 2
        max_dev = max(max_dev, abs(lhs - rhs))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        stacked = np.concatenate([c.real, c.imag])
        max_dev = max(
            max_dev, abs(np.linalg.norm(c) ** 2 - np.linalg.norm(stacked) ** 2)
        )
    return CheckReport("scaled-form identity", max_dev, TOL_STRICT)


def check_projection_transposition(
    op: FrameOperator, model: ClipModel, config: OracleConfig
) -> CheckReport:
    """Transposed form of the analysis-variant projection step.

    For random coefficient vectors s, (a) s - A(A*s) must be orthogonal to
    the range of the analysis operator, and (b) projecting A*s onto the
    feasible set must attain an ||Ax - s|| objective no worse than any
    random feasible candidate. The report names the frame unitary or
    redundant.
    """
    rng = np.random.default_rng(config.seed)
    p = op.coeff_len
    max_ortho = 0.0
    max_gap = 0.0
    n_s = max(1, config.n_trials // 5)
    for _ in range(n_s):
        s = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        xi = op.synthesize(s)
        eps_comp = s - op.analyze(xi)
        for _ in range(20):
            omega = rng.standard_normal(op.signal_len)
            ip = float(np.real(np.vdot(op.analyze(omega), eps_comp)))
            max_ortho = max(max_ortho, abs(ip))
        proj_obj = np.linalg.norm(op.analyze(project_gamma(xi, model)) - s)
        for _ in range(config.n_trials):
            cand = project_gamma(rng.standard_normal(op.signal_len), model)
            max_gap = max(max_gap, proj_obj - np.linalg.norm(op.analyze(cand) - s))
    kind = "unitary" if op.dft_len == op.signal_len else "redundant"
    return CheckReport(f"projection transposition ({kind})", max(max_ortho, max_gap), TOL_NUMERIC)


def make_test_model(
    n: int = 64, harmonics=(3, 7, 13), amps=(1.0, 0.7, 0.4), phases=(0.3, 1.1, 2.0)
) -> ClipModel:
    """Clipped sparse test signal used by the cross-variant checks.

    A sum of sinusoids at integer harmonics of the length n, clipped at
    half its peak.
    """
    t = np.arange(n)
    x = sum(
        a * np.sin(2 * np.pi * f * t / n + ph)
        for a, f, ph in zip(amps, harmonics, phases)
    )
    theta = 0.5 * np.max(np.abs(x))
    return detect_masks(hard_clip(x, theta), theta, delta_detect=0.0)


def check_unitary_equivalence(
    model: ClipModel, params: SolverParams, n_iters: int = 200
) -> float:
    """Max deviation of the synthesis variants' iterates from the analysis one.

    Runs all three variants in lockstep on the unitary frame over the model
    with a shared sparsity schedule and compares the time-domain estimates
    per iteration.
    """
    op = make_frame(len(model.lo), 1)
    states = {v: init_state(model, op, replace(params, variant=v)) for v in Variant}
    max_dev = 0.0
    for _ in range(n_iters):
        for v in Variant:
            step(states[v], model, op, replace(params, variant=v))
        x_ref = states[Variant.ASPADE].x_hat
        for v in (Variant.SSPADE_ORIG, Variant.SSPADE_DR):
            max_dev = max(max_dev, float(np.linalg.norm(states[v].x_hat - x_ref)))
    return max_dev


def _check_parseval_dense(config: OracleConfig) -> CheckReport:
    """Frame identities against the dense matrix realization.

    Parseval: Re(D A) = I. The FFT operators must agree with the products
    of the dense matrices on random signals and coefficients.
    """
    rng = np.random.default_rng(config.seed)
    max_dev = 0.0
    for n, red in [(7, 1), (8, 1), (8, 2), (7, 2), (12, 1.5), (16, 4)]:
        op = make_frame(n, red)
        a = DenseFrameOperator(n, op.dft_len).analysis
        d = a.conj().T
        gram = np.real(d @ a)
        max_dev = max(max_dev, float(np.max(np.abs(gram - np.eye(n)))))
        for _ in range(max(1, config.n_trials // 10)):
            x = rng.standard_normal(n)
            max_dev = max(max_dev, float(np.max(np.abs(op.analyze(x) - a @ x))))
            c = rng.standard_normal(op.coeff_len) + 1j * rng.standard_normal(op.coeff_len)
            max_dev = max(
                max_dev, float(np.max(np.abs(op.synthesize(c) - np.real(d @ c))))
            )
    return CheckReport("tight frame vs dense matrices", max_dev, TOL_NUMERIC)


def _check_sparse_approximation(config: OracleConfig) -> CheckReport:
    """Thresholded analysis coefficients vs exact sparse least squares.

    On a unitary frame (odd and even length) the thresholding objective
    must match the enumerated optimal k-pair approximation; on a redundant
    one it must upper-bound it while staying below its own
    coefficient-domain bound.
    """
    rng = np.random.default_rng(config.seed)
    max_dev = 0.0
    trials = max(1, config.n_trials // 20)
    for _ in range(trials):
        for n in (7, 8):
            d_u = DenseFrameOperator(n, n).analysis.conj().T
            t = rng.standard_normal(n)
            for k in (1, 2, 3):
                _, _, obj = brute_force_sparse_ls(d_u, t, k)
                approx = hard_threshold(d_u.conj().T @ t, k)
                obj_h = float(np.linalg.norm(np.real(d_u @ approx) - t) ** 2)
                max_dev = max(max_dev, abs(obj - obj_h))

        d_r = DenseFrameOperator(4, 8).analysis.conj().T
        t = rng.standard_normal(4)
        for k in (1, 2):
            _, _, obj = brute_force_sparse_ls(d_r, t, k)
            approx = hard_threshold(d_r.conj().T @ t, k)
            time_err = float(np.linalg.norm(np.real(d_r @ approx) - t))
            coef_err = float(np.linalg.norm(approx - d_r.conj().T @ t))
            max_dev = max(max_dev, obj - time_err**2)  # exact optimum is a lower bound
            max_dev = max(max_dev, time_err - coef_err)  # synthesis is a contraction
    return CheckReport("sparse approximation bounds", max_dev, TOL_NUMERIC)


def run_all_checks(config: OracleConfig) -> list[CheckReport]:
    """Run every oracle family; the CLI turns failures into a nonzero exit."""
    reports = [
        check_scaled_form(config),
        _check_parseval_dense(config),
        _check_sparse_approximation(config),
        check_projection_transposition(make_frame(16, 1), make_test_model(n=16), config),
        check_projection_transposition(
            make_frame(8, 2),
            make_test_model(n=8, harmonics=(1, 3), amps=(1.0, 0.5), phases=(0.2, 1.4)),
            config,
        ),
    ]
    # s = 1: k grows one conjugate pair at a time, on an odd and an even length
    dev = max(
        check_unitary_equivalence(make_test_model(n=n), SolverParams(s=1, r=1), n_iters=200)
        for n in (63, 64)
    )
    reports.append(CheckReport("unitary variant equivalence", dev, TOL_NUMERIC))
    return reports
