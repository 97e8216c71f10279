from dataclasses import fields

import numpy as np
import pytest

from inputs import simple_model
from spadeclip.cli import main
from spadeclip.feasible import detect_masks, hard_clip, project_gamma
from spadeclip.frames import FrameOperator, make_frame
from spadeclip.solvers import SolverParams
from spadeclip.verification import (
    CheckReport,
    DenseFrameOperator,
    OracleConfig,
    brute_force_sparse_ls,
    check_unitary_equivalence,
    make_test_model,
    project_gamma_coef,
    run_all_checks,
)


def dense_synthesis_matrix(n, p):
    return DenseFrameOperator(n, p).analysis.conj().T


def test_oracle_config_validation(capsys):
    with pytest.raises(ValueError):
        OracleConfig(n_trials=0)
    for field, value in [("n_trials", 2.5), ("n_trials", 2.0), ("seed", -1), ("seed", 1.5)]:
        with pytest.raises(ValueError, match=field):
            OracleConfig(**{field: value})
    assert OracleConfig(n_trials=np.int64(3), seed=np.int32(0)).n_trials == 3
    assert main(["verify", "--seed", "-1"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: seed")


def test_check_report_passes_up_to_its_tolerance():
    assert CheckReport("c", 1e-9, 1e-9).passed
    assert not CheckReport("c", 2e-9, 1e-9).passed
    assert not CheckReport("c", float("nan"), 1e-9).passed


def test_dense_operator_is_a_frame_operator_storing_no_length():
    dense = DenseFrameOperator(6, 9)
    assert isinstance(dense, FrameOperator)
    assert (dense.signal_len, dense.dft_len, dense.coeff_len) == (6, 9, 5)
    # the lengths are the base class's; the only field added is the matrix
    assert [f.name for f in fields(dense)] == [f.name for f in fields(FrameOperator)] + [
        "analysis"
    ]
    for bad in [(8, 4), (0, 0)]:
        with pytest.raises(ValueError):
            DenseFrameOperator(*bad)


@pytest.mark.parametrize("n,redundancy", [(8, 2), (7, 1), (6, 1.5)])
def test_dense_frame_matches_fft_operator(n, redundancy):
    op = make_frame(n, redundancy)
    dense = DenseFrameOperator(n, op.dft_len)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, n))
    c = rng.standard_normal((3, op.coeff_len)) + 1j * rng.standard_normal((3, op.coeff_len))
    np.testing.assert_allclose(dense.analyze(x), op.analyze(x), atol=1e-13)
    np.testing.assert_allclose(dense.synthesize(c), op.synthesize(c), atol=1e-13)
    np.testing.assert_allclose(dense.analyze(x[0]), op.analyze(x[0]), atol=1e-13)


def test_brute_force_k_zero():
    d = dense_synthesis_matrix(4, 8)
    t = np.array([1.0, -2.0, 0.5, 0.0])
    support, coeffs, obj = brute_force_sparse_ls(d, t, 0)
    assert support == ()
    assert np.all(coeffs == 0)
    assert obj == pytest.approx(np.linalg.norm(t) ** 2)


def test_brute_force_size_limits():
    d = dense_synthesis_matrix(8, 32)
    with pytest.raises(ValueError):
        brute_force_sparse_ls(d, np.zeros(8), 2)  # p = 17 > 14
    with pytest.raises(ValueError):
        brute_force_sparse_ls(d[:, :8], np.zeros(8), 4)  # k > 3


def test_projection_transposition_degenerate_range_component():
    # coefficients already in the analysis range leave no orthogonal part
    op = make_frame(8, 2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = op.analyze(rng.standard_normal(8))
        resid = s - op.analyze(op.synthesize(s))
        assert np.linalg.norm(resid) <= 1e-10


@pytest.mark.parametrize("n,s", [(63, 2)])
def test_unitary_equivalence_any_sparsity_step(n, s):
    # an even step on an odd length; s = 1 on n 63 and 64 is `verify`'s
    # "unitary variant equivalence" line, n = 64, s = 2 acceptance criterion 5
    dev = check_unitary_equivalence(make_test_model(n=n), SolverParams(s=s, r=1), 200)
    assert dev <= 1e-9


def test_unitary_equivalence_all_reliable_exact_zero():
    y = np.full(32, 0.25)
    model = detect_masks(y, 1.0, 0.0)
    dev = check_unitary_equivalence(model, SolverParams(s=2, r=1), 20)
    assert dev == 0.0


def test_run_all_checks_deterministic_given_seed():
    a = run_all_checks(OracleConfig(n_trials=20, seed=7))
    b = run_all_checks(OracleConfig(n_trials=20, seed=7))
    assert [(r.name, r.passed, r.max_deviation) for r in a] == [
        (r.name, r.passed, r.max_deviation) for r in b
    ]


def test_run_all_checks_seed_changes_values_not_outcomes():
    a = run_all_checks(OracleConfig(n_trials=20, seed=1))
    b = run_all_checks(OracleConfig(n_trials=20, seed=2))
    assert all(r.passed for r in a)
    assert all(r.passed for r in b)
    assert [r.name for r in a] == [r.name for r in b]
    assert [r.max_deviation for r in a] != [r.max_deviation for r in b]


def test_run_all_checks_single_trial_runs_every_family():
    reports = run_all_checks(OracleConfig(n_trials=1, seed=0))
    assert len(reports) == 6
    assert all(isinstance(r, CheckReport) for r in reports)
    assert all(r.passed for r in reports)


def test_project_gamma_coef_zero_correction():
    op = make_frame(16, 2)
    rng = np.random.default_rng(3)
    y = hard_clip(rng.standard_normal(16), 0.6)
    m = detect_masks(y, 0.6)
    c = op.analyze(project_gamma(rng.standard_normal(16), m))
    np.testing.assert_allclose(project_gamma_coef(c, m, op), c, atol=1e-12)


def test_project_gamma_coef_matches_direct_formula_unitary():
    # agreement needs c in the range of analyze: the direct formula discards
    # the component of c in the kernel of synthesize (on a unitary frame, the
    # imaginary parts of DC and Nyquist)
    op = make_frame(16, 1)
    rng = np.random.default_rng(4)
    y = hard_clip(rng.standard_normal(16), 0.5)
    m = detect_masks(y, 0.5)
    for _ in range(20):
        c = op.analyze(rng.standard_normal(16))
        one_step = project_gamma_coef(c, m, op)
        direct = op.analyze(project_gamma(op.synthesize(c), m))
        assert np.linalg.norm(one_step - direct) <= 1e-12


def test_project_gamma_coef_feasibility():
    op = make_frame(16, 2)
    rng = np.random.default_rng(5)
    y = hard_clip(rng.standard_normal(16), 0.5)
    m = detect_masks(y, 0.5)
    q = op.coeff_len
    for _ in range(100):
        c = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        v = op.synthesize(project_gamma_coef(c, m, op))
        assert np.max(np.abs(v[m.mask_r] - y[m.mask_r])) <= 1e-10
        assert np.all(v[m.mask_h] >= 0.5 - 1e-10)
        assert np.all(v[m.mask_l] <= -0.5 + 1e-10)


def test_project_gamma_coef_is_projection_sampling_oracle():
    # nearest point among random feasible coefficient vectors
    op = make_frame(8, 2)
    rng = np.random.default_rng(6)
    y = hard_clip(rng.standard_normal(8), 0.5)
    m = detect_masks(y, 0.5)
    q = op.coeff_len
    for _ in range(20):
        c = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        z = project_gamma_coef(c, m, op)
        d = np.linalg.norm(z - c)
        for _ in range(50):
            w = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            w_feas = project_gamma_coef(w, m, op)
            assert d <= np.linalg.norm(w_feas - c) + 1e-10


def test_project_gamma_coef_length_mismatch():
    op = make_frame(8, 2)
    with pytest.raises(ValueError):
        project_gamma_coef(np.zeros(8, dtype=complex), simple_model(), op)
