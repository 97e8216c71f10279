"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import time

import numpy as np
import pytest

from contracts import assert_in_box
from inputs import three_partials
from spadeclip.feasible import detect_masks, hard_clip
from spadeclip.frames import make_frame
from spadeclip.metrics import sdr
from spadeclip.pipeline import declip_signal
from spadeclip.solvers import (
    SolverParams,
    Variant,
    hard_threshold,
    init_state,
    solve_batch,
    step,
)
from spadeclip.verification import (
    OracleConfig,
    check_projection_transposition,
    check_scaled_form,
    check_unitary_equivalence,
    make_test_model,
)


def announce(name, detail=""):
    print(f"PASS  {name}" + (f"  ({detail})" if detail else ""))


def test_criterion_1_parseval_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for redundancy in (1, 1.5, 2, 4):
        for n in (16, 64, 256):
            op = make_frame(n, redundancy)
            for _ in range(100):
                x = rng.standard_normal(n)
                err = np.linalg.norm(op.synthesize(op.analyze(x)) - x)
                worst = max(worst, err / np.linalg.norm(x))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    announce("1 Parseval identity", f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_hard_threshold_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for p in range(1, 11):
        for k in range(0, min(3, p) + 1):
            for _ in range(50):
                s = rng.standard_normal(p) + 1j * rng.standard_normal(p)
                obj = np.linalg.norm(hard_threshold(s, k) - s) ** 2
                best = min(
                    sum(abs(s[j]) ** 2 for j in range(p) if j not in supp)
                    for supp in itertools.combinations(range(p), k)
                )
                worst = max(worst, abs(obj - best))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    announce("2 hard-threshold exactness", f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_scaled_form_identity():
    report = check_scaled_form(OracleConfig(n_trials=1000, seed=2))
    assert report.passed and report.max_deviation <= 1e-12
    announce("3 scaled-form identity", f"max dev {report.max_deviation:.2e}")


def test_criterion_4_projection_transposition():
    # 20 coefficient draws, each against 100 random feasible candidates
    model = make_test_model(n=8, harmonics=(1, 3), amps=(1.0, 0.5), phases=(0.2, 1.4))
    report = check_projection_transposition(make_frame(8, 2), model, OracleConfig(100, 3))
    assert report.max_deviation <= 1e-12
    announce("4 projection transposition", f"max dev {report.max_deviation:.2e}")


def test_criterion_5_unitary_equivalence():
    t0 = time.perf_counter()
    dev = check_unitary_equivalence(make_test_model(n=64), SolverParams(s=2, r=1), 200)
    elapsed = time.perf_counter() - t0
    assert dev <= 1e-9
    assert elapsed < 5.0
    announce("5 unitary equivalence", f"max iterate dev {dev:.2e}, {elapsed:.2f}s")


def test_criterion_6_synthesis_approximation_bound():
    model = make_test_model(n=64)
    op = make_frame(64, 2)
    params = SolverParams(s=1, r=1, epsilon=0.0, variant=Variant.SSPADE_DR)
    state = init_state(model, op, params)
    worst = -np.inf
    for _ in range(500):
        target = state.x_hat - state.u
        step(state, model, op, params)
        time_err = np.linalg.norm(op.synthesize(state.z_bar) - target)
        coef_err = np.linalg.norm(state.z_bar - op.analyze(target))
        worst = max(worst, time_err - coef_err)
        assert time_err <= coef_err + 1e-12
    announce("6 synthesis approximation bound", f"max gap {worst:.2e} over 500 iters")


def _sparse_long_signal(n_total=8192):
    x = three_partials(n_total, n_total / 8, (0.3, 1.1, 2.0))
    return x / np.max(np.abs(x))


def test_criterion_7_end_to_end_declipping():
    x = _sparse_long_signal()
    theta = 0.3
    y = hard_clip(x, theta)
    base = sdr(x, y)
    t0 = time.perf_counter()
    gains = {}
    for variant in Variant:
        params = SolverParams(s=1, r=1, epsilon=0.1, variant=variant)
        restored, _ = declip_signal(
            y, theta, params, frame_len=1024, hop=256, redundancy=2, reference=x
        )
        gains[variant.value] = sdr(x, restored) - base
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    for name, gain in gains.items():
        assert gain >= 10.0, f"{name}: {gain:.2f} dB"
    detail = ", ".join(f"{n} +{g:.1f} dB" for n, g in gains.items())
    announce("7 end-to-end declipping", f"{detail}, {elapsed:.1f}s")


@pytest.mark.parametrize("variant", list(Variant))
def test_criterion_8_feasibility_and_passthrough(variant):
    x = _sparse_long_signal(4096)
    theta = 0.3
    y = hard_clip(x, theta)
    params = SolverParams(s=1, r=1, epsilon=0.1, variant=variant)
    restored, _ = declip_signal(y, theta, params, frame_len=512, hop=128, redundancy=2)
    assert_in_box(restored, detect_masks(y, theta))
    announce(f"8 feasibility and passthrough [{variant.value}]")


@pytest.mark.parametrize("variant", list(Variant))
def test_criterion_9_termination(variant):
    rng = np.random.default_rng(4)
    y = hard_clip(rng.standard_normal(64), 0.4)  # non-sparse: forces the cap
    model = detect_masks(y, 0.4, 0.0)
    op = make_frame(64, 2)
    params = SolverParams(s=2, r=1, epsilon=1e-14, variant=variant)
    _, (capped,) = solve_batch(model.select(np.newaxis), op, params)
    # k starts at 2 and grows by 2 per iteration: the 32nd, max(1, r * (65 // s)),
    # takes it to 66, past the 65 coefficients, and stops the solve unconverged
    assert not capped.converged
    assert capped.iterations == 32
    assert params.sparsity(capped.iterations - capped.converged) == 66
    assert np.isfinite(capped.final_residual)

    # at k = coeff_len nothing is thresholded away: the first iterate is y to rounding
    (restored,), (one_shot,) = solve_batch(
        model.select(np.newaxis), op, SolverParams(s=op.coeff_len, epsilon=0.1, variant=variant)
    )
    assert one_shot.converged
    assert one_shot.iterations == 1
    assert one_shot.final_residual <= 1e-10
    np.testing.assert_allclose(restored, model.y, atol=1e-10)
    announce(f"9 termination [{variant.value}]")
