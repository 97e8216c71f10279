import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contracts import assert_in_box
from inputs import three_partials
from spadeclip.feasible import ClipModel, detect_masks, hard_clip
from spadeclip.frames import make_frame
from spadeclip.metrics import FrameStats, sdr
from spadeclip.solvers import (
    SolverParams,
    Variant,
    hard_threshold,
    init_state,
    solve_batch,
    step,
)
from spadeclip.verification import DenseFrameOperator, make_test_model, project_gamma_coef


# ---------------------------------------------------------------- hard_threshold


def test_hard_threshold_example():
    out = hard_threshold(np.array([3, -1, 4j, 0.5]), 2)
    np.testing.assert_array_equal(out, [3, 0, 4j, 0])


def test_hard_threshold_passthrough_when_k_large():
    s = np.array([1.0 + 1j, 0, 2.0])
    np.testing.assert_array_equal(hard_threshold(s, 3), s)
    np.testing.assert_array_equal(hard_threshold(s, 10), s)


def test_hard_threshold_k_zero_and_negative():
    assert np.all(hard_threshold(np.array([1.0, 2.0]), 0) == 0)
    with pytest.raises(ValueError):
        hard_threshold(np.array([1.0]), -1)
    # k counts entries: a float is no count, even an integral one
    for bad in (2.0, float("nan")):
        with pytest.raises(ValueError, match="k must be an integer"):
            hard_threshold(np.array([1.0, -3.0, 2.0]), bad)
    out = hard_threshold(np.array([1.0, -3.0, 2.0]), np.int64(2))
    np.testing.assert_array_equal(out, [0.0, -3.0, 2.0])
    # a scalar has no entries to keep
    with pytest.raises(ValueError, match="s_vec must have at least one axis"):
        hard_threshold(np.float64(3.0), 1)


def test_hard_threshold_tie_keeps_lower_index():
    out = hard_threshold(np.array([1.0, -1.0, 1.0]), 2)
    np.testing.assert_array_equal(out, [1.0, -1.0, 0.0])


@pytest.mark.parametrize("batch", [False, True])
def test_hard_threshold_out_equals_the_copying_call_bitwise(batch):
    # three entries tie at the 3rd-largest magnitude, and a -0.0 is zeroed
    s = np.array([1.0, -0.0, -1.0, 2.0, 1j, 0.5])
    if batch:
        s = np.stack([s, s[::-1], -s])
    for k in (0, 3, 6):
        given = s.copy()
        copied = hard_threshold(given, k)
        np.testing.assert_array_equal(given.view(np.int64), s.view(np.int64))  # input untouched
        dest = np.full_like(s, 7.0)
        assert hard_threshold(s, k, out=dest) is dest
        assert hard_threshold(given, k, out=given) is given  # in place, as the kernels call it
        for out in (dest, given):
            np.testing.assert_array_equal(out.view(np.int64), copied.view(np.int64))


def _threshold_reference(s, k):
    out = np.zeros_like(s)
    keep = np.argsort(-np.abs(s), kind="stable")[:k]
    out[keep] = s[keep]
    return out


# complex entries on a small integer grid: magnitudes tie often
_grid = st.integers(-3, 3)


@st.composite
def _threshold_case(draw):
    rows = draw(st.sampled_from([None, 1, 2, 5]))
    n = draw(st.integers(1, 24))
    shape = (n,) if rows is None else (rows, n)
    re = draw(hnp.arrays(np.int64, shape, elements=_grid))
    im = draw(hnp.arrays(np.int64, shape, elements=_grid))
    return re + 1j * im, draw(st.integers(0, n + 1))


@given(_threshold_case())
def test_hard_threshold_matches_stable_argsort(case):
    s, k = case
    out = hard_threshold(s, k)
    expected = (
        _threshold_reference(s, k)
        if s.ndim == 1
        else np.array([_threshold_reference(row, k) for row in s])
    )
    assert out.dtype == s.dtype
    np.testing.assert_array_equal(out, expected)


# ---------------------------------------------------------------- single steps


def _assert_all_reliable_pins_estimate(seed, params):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(32)
    y /= 2 * np.max(np.abs(y))
    model = detect_masks(y, 1.0, 0.0)
    op = make_frame(32, 2)
    state = init_state(model, op, params)
    for _ in range(5):
        step(state, model, op, params)
        assert_in_box(state.x_hat, model)


def test_aspade_all_reliable_pins_estimate():
    _assert_all_reliable_pins_estimate(1, SolverParams(s=1, r=1, epsilon=1e-12, variant=Variant.ASPADE))


def test_sspade_orig_all_reliable_pins_estimate():
    _assert_all_reliable_pins_estimate(
        1, SolverParams(s=1, r=1, epsilon=1e-12, variant=Variant.SSPADE_ORIG)
    )


def test_sspade_dr_all_reliable_pins_estimate():
    _assert_all_reliable_pins_estimate(3, SolverParams(s=2, epsilon=1e-12, variant=Variant.SSPADE_DR))


@pytest.mark.parametrize("variant", list(Variant))
def test_first_step_matches_dense_matrix_reference(variant):
    # an odd sparsity: each kept half-spectrum bin is a whole conjugate pair
    n = 16
    t = np.arange(n)
    x = np.sin(2 * np.pi * 3 * t / n + 0.3) + 0.6 * np.sin(2 * np.pi * 5 * t / n + 1.1)
    theta = 0.5 * np.max(np.abs(x))
    model = detect_masks(hard_clip(x, theta), theta, delta_detect=0.0)
    op = make_frame(16, 2)
    a_mat = DenseFrameOperator(16, 32).analysis

    params = SolverParams(s=3, variant=variant)
    state = init_state(model, op, params)
    step(state, model, op, params)

    # matrix-form reference for one step from u=0, coefficients A y; the DR
    # step thresholds A(x_hat - u) = A y too and projects D z_bar + u = v
    w = a_mat @ model.y
    z_ref = np.zeros(op.coeff_len, dtype=complex)
    keep = np.argsort(-np.abs(w), kind="stable")[:3]
    z_ref[keep] = w[keep]
    c = z_ref  # z_bar - u with u = 0
    v = np.real(a_mat.conj().T @ c)
    x_ref = v.copy()
    x_ref[model.mask_r] = model.y[model.mask_r]
    x_ref[model.mask_h] = np.maximum(v[model.mask_h], theta)
    x_ref[model.mask_l] = np.minimum(v[model.mask_l], -theta)
    u_ref = {
        Variant.ASPADE: a_mat @ x_ref - z_ref,
        Variant.SSPADE_ORIG: c + a_mat @ (x_ref - v) - z_ref,
        Variant.SSPADE_DR: v - x_ref,  # the time-domain dual (u + D z_bar) - x_hat
    }

    np.testing.assert_allclose(state.z_bar, z_ref, atol=1e-10)
    np.testing.assert_allclose(state.x_hat, x_ref, atol=1e-10)
    np.testing.assert_allclose(state.u, u_ref[variant], atol=1e-10)
    # the updates differ: A D != I on a redundant frame
    assert np.max(np.abs(u_ref[Variant.SSPADE_ORIG] - u_ref[Variant.ASPADE])) > 1e-3


def _stacked(models):
    return ClipModel(*(np.stack([getattr(m, f) for m in models]) for f in ("y", "lo", "hi")))


@pytest.mark.parametrize("redundancy", [1.5, 2])
@pytest.mark.parametrize("batch", [False, True], ids=["frame", "batch"])
def test_sspade_orig_update_is_the_coefficient_projection(redundancy, batch):
    # the solver computes S-SPADE's w inline; the reference projects z_bar - u
    models = [make_test_model(), make_test_model(harmonics=(2, 5, 11), phases=(1.0, 0.4, 2.7))]
    model = _stacked(models) if batch else models[0]
    op = make_frame(64, redundancy)
    params = SolverParams(s=1, r=1, epsilon=0.0, variant=Variant.SSPADE_ORIG)
    state = init_state(model, op, params)
    for _ in range(60):
        u_before = state.u.copy()
        step(state, model, op, params)
        expected = project_gamma_coef(state.z_bar - u_before, model, op)
        np.testing.assert_allclose(state.w, expected, rtol=0, atol=1e-9)


def test_zbar_sparsity_bound_every_variant():
    model = make_test_model()
    op = make_frame(64, 2)
    for variant in Variant:
        params = SolverParams(s=2, r=3, epsilon=0.0, variant=variant)
        state = init_state(model, op, params)
        for _ in range(30):
            k = params.sparsity(state.i)
            step(state, model, op, params)
            assert np.count_nonzero(state.z_bar) <= k, variant.value


def test_sparsity_schedule_monotone():
    # k grows by exactly s every r completed iterations
    params = SolverParams(s=2, r=3)
    assert [params.sparsity(i) for i in range(7)] == [2, 2, 2, 4, 4, 4, 6]


@pytest.mark.parametrize("batch", [False, True], ids=["frame", "batch"])
@pytest.mark.parametrize("variant", list(Variant))
def test_solvers_leave_the_model_untouched(variant, batch):
    # the kernels overwrite their own buffers, never the clip model's
    models = [make_test_model(), make_test_model(harmonics=(2, 5, 11), phases=(1.0, 0.4, 2.7))]
    model = _stacked(models) if batch else models[0]
    before = {name: getattr(model, name).copy() for name in ("y", "lo", "hi")}

    def assert_untouched(call):
        for name, a in before.items():
            assert getattr(model, name).tobytes() == a.tobytes(), (call, name)

    op = make_frame(64, 2)
    params = SolverParams(s=1, r=1, epsilon=0.0, variant=variant)
    state = init_state(model, op, params)
    for _ in range(5):
        step(state, model, op, params)
    assert_untouched("step")
    solve_batch(model if batch else model.select(np.newaxis), op, params)
    assert_untouched("solve_batch")


def _solve_by_steps(model, op, params):
    """One frame: public steps until the stop rule of `solve_batch` fires."""
    state = init_state(model, op, params)
    while True:
        residual = step(state, model, op, params)
        if residual <= params.epsilon:
            return state.x_hat, FrameStats(state.i, residual, True)
        if params.sparsity(state.i) > op.coeff_len:
            return state.x_hat, FrameStats(state.i, residual, False)


def _retiring_batch():
    """Frames clipped at different levels, a clipped noise frame and a clip-free one."""
    n = 64
    t = np.arange(n)
    rows, thetas = [], [0.9, 0.7, 0.5, 0.3, 0.15, 0.3]
    for level in thetas[:4]:
        x = np.sin(2 * np.pi * 3 * t / n + level) + 0.5 * np.sin(2 * np.pi * 7 * t / n + 2 * level)
        rows.append(hard_clip(x / np.max(np.abs(x)), level))
    rows.append(hard_clip(np.random.default_rng(3).standard_normal(n), thetas[4]))
    rows.append(0.2 * np.sin(2 * np.pi * 5 * t / n))
    return [detect_masks(y, theta, 0.0) for y, theta in zip(rows, thetas)]


@pytest.mark.parametrize("redundancy", [1, 1.5, 2])
@pytest.mark.parametrize("variant", list(Variant))
def test_solve_batch_equals_a_loop_of_public_steps(variant, redundancy):
    models = _retiring_batch()
    op = make_frame(64, redundancy)
    params = SolverParams(s=1, r=2, epsilon=0.01, variant=variant)
    x, stats = solve_batch(_stacked(models), op, params)
    # the clip-free row is solved like the others: which frames to solve is the pipeline's rule
    for m, model in enumerate(models):
        x_ref, stats_ref = _solve_by_steps(model, op, params)
        assert x[m].tobytes() == x_ref.tobytes()
        assert stats[m] == stats_ref
    # frames retire at different iterations, so the batch shrinks several times
    assert len({f.iterations for f in stats}) >= 3


# ---------------------------------------------------------------- solve_batch


PINNED_PHASES = (0.2, 1.0, 2.1)
# the pinned phase set and 29 drawn ones: the SDR gain on one signal is
# chaotic in its phases, so a quality bar over a family is the stable one
PHASE_SETS = [PINNED_PHASES] + [
    tuple(p) for p in np.random.default_rng(0).uniform(0, 2 * np.pi, (29, 3))
]


def _sdr_gains_over_phase_sets(variant, phase_sets):
    n = 256
    x = np.array([three_partials(n, n, p) for p in phase_sets])
    thetas = 0.3 * np.max(np.abs(x), axis=-1)
    y = np.array([hard_clip(row, theta) for row, theta in zip(x, thetas)])
    model = _stacked([detect_masks(row, theta, 0.0) for row, theta in zip(y, thetas)])
    op = make_frame(n, 2)
    # one batch: each row's result is the one it gets solved alone
    restored, _ = solve_batch(model, op, SolverParams(s=1, r=1, epsilon=0.1, variant=variant))
    return [sdr(ref, out) - sdr(ref, obs) for ref, out, obs in zip(x, restored, y)]


@pytest.mark.parametrize("variant", [Variant.ASPADE, Variant.SSPADE_DR])
def test_solve_batch_improves_sdr_on_sparse_signal(variant):
    (gain,) = _sdr_gains_over_phase_sets(variant, [PINNED_PHASES])
    assert gain >= 10.0


@pytest.mark.parametrize("variant", list(Variant))
def test_solve_batch_median_sdr_gain_over_phase_sets(variant):
    assert np.median(_sdr_gains_over_phase_sets(variant, PHASE_SETS)) >= 12.0


@pytest.mark.parametrize("variant", list(Variant))
def test_solve_batch_capped_returns_last_iterate(variant):
    # on this frame some earlier iterate has a lower residual than the last
    rng = np.random.default_rng(19)
    y = hard_clip(rng.standard_normal(16), 0.4)
    model = detect_masks(y, 0.4, 0.0)
    op = make_frame(16, 1)
    params = SolverParams(s=1, r=1, epsilon=0.0, variant=variant)
    (x,), (stats,) = solve_batch(model.select(np.newaxis), op, params)
    state = init_state(model, op, params)
    while params.sparsity(state.i) <= op.coeff_len:
        residual = step(state, model, op, params)
    assert not stats.converged
    assert stats.iterations == state.i
    # the k it stopped at is the first past the cap
    assert params.sparsity(stats.iterations - stats.converged) == op.coeff_len + 1
    assert stats.final_residual == residual
    np.testing.assert_array_equal(x, state.x_hat)


@pytest.mark.parametrize("variant", list(Variant))
def test_solve_batch_output_feasible_exactly(variant):
    model = make_test_model()
    op = make_frame(64, 2)
    params = SolverParams(epsilon=0.1, variant=variant)
    (x,), _ = solve_batch(model.select(np.newaxis), op, params)
    assert_in_box(x, model)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(s=0)
    with pytest.raises(ValueError):
        SolverParams(r=0)
    with pytest.raises(ValueError):
        SolverParams(epsilon=-1.0)
    # NaN fails every comparison, so it must not slip past the checks
    for field in ("s", "r", "epsilon"):
        with pytest.raises(ValueError, match=field):
            SolverParams(**{field: float("nan")})


@pytest.mark.parametrize("field,value", [("s", 1.5), ("r", 2.5), ("s", 2.0)])
def test_solver_params_rejects_a_non_integer_step(field, value):
    # s counts coefficients and r iterations: an integral float is no exception
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverParams(**{field: value})


@pytest.mark.parametrize("variant", ["aspade", "sspade-dr", None])
def test_solver_params_rejects_a_variant_that_is_no_member(variant):
    # the solver picks its iteration by member: a string would run S-SPADE
    with pytest.raises(ValueError, match="variant"):
        SolverParams(variant=variant)


def test_solver_params_takes_each_variants_schedule():
    # the per-variant defaults README states; the paper's s = r = 1 stays a pass-in away
    defaults = {v: (SolverParams(variant=v).s, SolverParams(variant=v).r) for v in Variant}
    assert defaults == {
        Variant.ASPADE: (4, 1),
        Variant.SSPADE_ORIG: (1, 1),
        Variant.SSPADE_DR: (1, 1),
    }
    assert SolverParams().s == 4  # A-SPADE is the default variant


@pytest.mark.parametrize("variant", list(Variant))
def test_solver_params_explicit_schedule_overrides_the_table(variant):
    default = SolverParams(variant=variant)
    s, r = default.s, default.r
    for kwargs, expected in [({"s": 1, "r": 1}, (1, 1)), ({"s": 3}, (3, r)), ({"r": 5}, (s, 5))]:
        params = SolverParams(variant=variant, **kwargs)
        assert (params.s, params.r) == expected


def test_solver_params_accepts_numpy_integers():
    params = SolverParams(s=np.int64(2), r=np.int32(3))
    assert (params.s, params.r) == (2, 3)
