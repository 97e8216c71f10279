import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from inputs import simple_model
from spadeclip.feasible import ClipModel, auto_theta, detect_masks, hard_clip, project_gamma


def test_hard_clip_examples():
    np.testing.assert_array_equal(
        hard_clip(np.array([0.5, 2.0, -3.0]), 1.0), [0.5, 1.0, -1.0]
    )
    x = np.array([0.3, -0.8, 0.1])
    np.testing.assert_array_equal(hard_clip(x, 0.9), x)
    np.testing.assert_array_equal(hard_clip(np.array([-0.2]), 0.1), [-0.1])


def test_hard_clip_rejects_bad_theta():
    with pytest.raises(ValueError):
        hard_clip(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        hard_clip(np.array([1.0]), -1.0)


def test_auto_theta_is_the_peak_above_delta_only():
    assert auto_theta(np.array([0.25, -0.5]), 1e-6) == 0.5
    # a peak within delta_detect of silence, the boundary included, clips nothing
    assert auto_theta(np.array([1e-6, -1e-6]), 1e-6) == np.inf
    assert auto_theta(np.zeros(3), 1e-6) == np.inf


def test_detect_masks_examples():
    m = simple_model()
    np.testing.assert_array_equal(m.mask_r, [True, False, False])
    np.testing.assert_array_equal(m.mask_h, [False, True, False])
    np.testing.assert_array_equal(m.mask_l, [False, False, True])
    assert m.num_clipped == 2

    m2 = detect_masks(np.array([0.1, -0.4, 0.7]), 1.0, 0.0)
    assert np.all(m2.mask_r)

    m3 = detect_masks(np.array([0.999]), 1.0, 0.01)
    np.testing.assert_array_equal(m3.mask_h, [True])


def test_clip_model_validation():
    y = np.zeros(2)
    with pytest.raises(ValueError, match="differ in shape"):  # lo against hi
        ClipModel(lo=np.zeros(2), hi=np.zeros(3))
    with pytest.raises(ValueError, match="lo must not exceed hi"):  # an empty box
        ClipModel(lo=np.array([0.0, 1.0]), hi=np.array([0.0, 0.5]))
    # a bound at infinity on its sample's bounded side: no finite signal fits
    for bound in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="bound at infinity on its bounded side"):
            ClipModel(lo=np.array([0.0, bound]), hi=np.array([0.0, bound]))
    with pytest.raises(ValueError):  # theta is checked where the box is built
        detect_masks(y, 0.0)
    for delta in (-1e-6, np.nan):  # and so is delta
        with pytest.raises(ValueError, match="delta_detect"):
            detect_masks(y, 1.0, delta)


# ---------------------------------------------------------------- box properties


def _masks_reference(y, theta, delta):
    """Sample classes as thresholds on y, independent of the box bounds."""
    mask_h = y >= theta - delta
    mask_l = (y <= -theta + delta) & ~mask_h
    return ~(mask_h | mask_l), mask_h, mask_l


def _projection_reference(v, y, theta, delta):
    """The consistency projection written with three masks."""
    mask_r, mask_h, mask_l = _masks_reference(y, theta, delta)
    out = np.where(mask_r, y, v)
    np.maximum(out, theta, out=out, where=mask_h)
    np.minimum(out, -theta, out=out, where=mask_l)
    return out


@st.composite
def _box_case(draw):
    """Random y, theta and delta (half the time theta <= delta, which
    `detect_masks` refuses), one frame or a batch, and a v that often ties
    y, -y or a threshold (signed zeros too)."""
    rows = draw(st.sampled_from([None, 1, 3]))
    n = draw(st.integers(1, 16))
    shape = (n,) if rows is None else (rows, n)
    theta = draw(st.floats(0.01, 2.0))
    delta = draw(
        st.one_of(st.floats(1e-9, 0.5 * theta), st.floats(theta, 3 * theta))
    )
    near = [theta, -theta, theta - delta / 2, -theta + delta / 2, 0.0, -0.0]
    sample = st.one_of(st.floats(-4, 4), st.sampled_from(near))
    y = draw(hnp.arrays(float, shape, elements=sample))
    free = draw(hnp.arrays(float, shape, elements=sample))
    pick = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 2)))
    v = np.choose(pick, [free, y, -y])
    return y, theta, delta, v


@given(_box_case())
def test_project_gamma_equals_three_mask_formula_bitwise(case):
    y, theta, delta, v = case
    if theta <= delta:
        return  # refused: test_derived_masks_partition_and_match_thresholds
    out = project_gamma(v, detect_masks(y, theta, delta))
    expected = _projection_reference(v, y, theta, delta)
    np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("batch", [False, True])
def test_project_gamma_out_equals_the_copying_call_bitwise(batch):
    # reliable -0.0 and 0.0 that v holds with the other sign, then one
    # reliable, one clipped-high and one clipped-low sample
    y = np.array([-0.0, 0.0, 0.5, 1.0, -1.0])
    v = np.array([0.0, -0.0, 0.7, 0.2, 0.3])
    if batch:
        y, v = np.stack([y, -y, y[::-1]]), np.stack([v, -v, v[::-1]])
    model = detect_masks(y, 1.0, delta_detect=0.0)
    given = v.copy()
    copied = project_gamma(given, model)
    np.testing.assert_array_equal(given.view(np.int64), v.view(np.int64))  # input untouched
    np.testing.assert_array_equal(copied.view(np.int64)[model.mask_r], y.view(np.int64)[model.mask_r])
    dest = np.full_like(v, 7.0)
    assert project_gamma(v, model, out=dest) is dest
    assert project_gamma(given, model, out=given) is given  # in place, as the kernels call it
    for out in (dest, given):
        np.testing.assert_array_equal(out.view(np.int64), copied.view(np.int64))


@given(_box_case())
def test_derived_masks_partition_and_match_thresholds(case):
    y, theta, delta, _ = case
    if theta <= delta:  # both bands would hold 0: every sample would count as clipped
        with pytest.raises(ValueError, match="theta must exceed delta_detect"):
            detect_masks(y, theta, delta)
        return
    m = detect_masks(y, theta, delta)
    # each row gains one free sample, as tail padding is: it is in mask_free alone
    last = [(0, 0)] * (y.ndim - 1) + [(0, 1)]
    m = ClipModel(
        np.pad(m.lo, last, constant_values=-np.inf),
        np.pad(m.hi, last, constant_values=np.inf),
    )
    masks = (m.mask_r, m.mask_h, m.mask_l, m.mask_free)
    assert np.all(sum(mask.astype(int) for mask in masks) == 1)
    ref_r, ref_h, ref_l = _masks_reference(y, theta, delta)
    for got, ref in zip(masks, (ref_r, ref_h, ref_l, np.zeros_like(ref_r))):
        np.testing.assert_array_equal(got[..., :-1], ref)
    assert np.all(m.mask_free[..., -1])
    assert m.num_clipped == np.count_nonzero(~ref_r)


def test_clip_model_y_is_read_off_the_bounds():
    # on a hard clip y is the observation byte for byte, a reliable -0.0 and
    # the samples clipped exactly at +-theta too
    y = hard_clip(np.array([-0.0, 0.3, 0.9, -0.9, 0.0]), 0.5)
    assert np.signbit(y[0])
    for model in (detect_masks(y, 0.5, 0.0), detect_masks(y, 0.5)):
        np.testing.assert_array_equal(model.y.view(np.int64), y.view(np.int64))
    # a sample in the delta band, short of theta, reads its bound
    np.testing.assert_array_equal(detect_masks(np.array([0.45, -0.45, 0.2]), 0.5, 0.1).y, [0.5, -0.5, 0.2])
    # a free sample reads 0; each read is a new array
    m = ClipModel(lo=np.array([-np.inf, 0.25, 1.0, -np.inf]), hi=np.array([np.inf, 0.25, np.inf, -1.0]))
    np.testing.assert_array_equal(m.y, [0.0, 0.25, 1.0, -1.0])
    assert m.y is not m.y


def test_project_gamma_idempotent_and_y_feasible():
    rng = np.random.default_rng(1)
    y = hard_clip(rng.standard_normal(32), 0.7)
    m = detect_masks(y, 0.7)
    np.testing.assert_array_equal(project_gamma(y, m), y)
    v = rng.standard_normal(32)
    once = project_gamma(v, m)
    np.testing.assert_array_equal(project_gamma(once, m), once)


def test_project_gamma_nearest_feasible_point_sampling_oracle():
    rng = np.random.default_rng(2)
    y = hard_clip(2 * rng.standard_normal(16), 1.0)
    m = detect_masks(y, 1.0)
    for _ in range(100):
        v = 3 * rng.standard_normal(16)
        proj = project_gamma(v, m)
        d_proj = np.linalg.norm(v - proj)
        for _ in range(100):
            w = project_gamma(3 * rng.standard_normal(16), m)  # random feasible point
            assert d_proj <= np.linalg.norm(v - w) + 1e-12


def test_project_gamma_length_mismatch():
    with pytest.raises(ValueError):
        project_gamma(np.zeros(5), simple_model())
