import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spadeclip.feasible import detect_masks
from spadeclip.segmentation import (
    SegmentationPlan,
    overlap_add,
    restrict_frames,
)


def frame_rows(x, plan):
    """The plan's frames of x, one per row, as `restrict_frames` gathers them."""
    unclipped = detect_masks(x, 2 * np.max(np.abs(x)) + 1)
    return restrict_frames(unclipped, plan).y


def test_split_disjoint_frames():
    plan = SegmentationPlan(8, frame_len=4, hop=4)
    np.testing.assert_array_equal(plan.sample_index, [[0, 1, 2, 3], [4, 5, 6, 7]])
    frames = frame_rows(np.arange(8.0), plan)
    np.testing.assert_array_equal(frames, [[0, 1, 2, 3], [4, 5, 6, 7]])


def test_split_half_overlap_with_tail_padding():
    plan = SegmentationPlan(9, frame_len=4, hop=2)
    frames = frame_rows(np.arange(1.0, 10.0), plan)
    assert frames.shape == (4, 4)
    np.testing.assert_array_equal(frames[2], [5, 6, 7, 8])
    np.testing.assert_array_equal(frames[3], [7, 8, 9, 0])


@given(
    hnp.arrays(float, st.integers(1, 40), elements=st.floats(-2, 2)),
    st.integers(1, 12),
    st.integers(1, 12),
)
def test_restrict_frames_padding_is_free(y, frame_len, hop):
    # row m, column n of each field holds the global sample pos = m*hop + n;
    # padding past the signal is free: y = 0, lo = -inf, hi = +inf
    hop = min(hop, frame_len)
    plan = SegmentationPlan(len(y), frame_len, hop)
    model = detect_masks(y, 0.5)
    frames = restrict_frames(model, plan)
    pos = np.arange(plan.num_frames)[:, None] * hop + np.arange(frame_len)
    pad = pos >= len(y)
    np.testing.assert_array_equal(frames.mask_free, pad)
    for name, fill in (("y", 0.0), ("lo", -np.inf), ("hi", np.inf)):
        got = getattr(frames, name)
        assert np.all(got[pad] == fill), name
        np.testing.assert_array_equal(got[~pad], getattr(model, name)[pos[~pad]], err_msg=name)


@pytest.mark.parametrize("total_len,frame_len,hop", [(0, 4, 2), (8, 4, 0), (8, 4, 5)])
def test_plan_constructor_validates(total_len, frame_len, hop):
    with pytest.raises(ValueError):
        SegmentationPlan(total_len, frame_len, hop)


@pytest.mark.parametrize("frame_len", [0, -4])
def test_plan_names_a_nonpositive_frame_len(frame_len):
    # not blamed on the hop, which is in range for any positive frame length
    with pytest.raises(ValueError, match="frame_len must be positive"):
        SegmentationPlan(8, frame_len, 1)


@pytest.mark.parametrize(
    "total_len,frame_len,hop,num_frames",
    [(1, 4, 2, 1), (3, 4, 2, 1), (4, 4, 2, 1), (5, 4, 2, 2), (8, 4, 2, 3), (9, 4, 2, 4)],
)
def test_plan_frame_count_covers_the_signal(total_len, frame_len, hop, num_frames):
    plan = SegmentationPlan(total_len, frame_len, hop)
    assert plan.num_frames == num_frames
    assert plan.padded_len >= total_len
    assert (num_frames - 1) * hop < total_len  # the last frame starts inside the signal


def test_window_strictly_positive():
    for n in (16, 256, 1024):
        window = SegmentationPlan(4 * n, n, n // 4).window
        assert np.all(window > 0)
        # the Hann window sampled half a sample off the grid
        np.testing.assert_array_equal(window, np.sin(np.pi * (np.arange(n) + 0.5) / n) ** 2)


@pytest.mark.parametrize("frame_len,hop", [(256, 128), (256, 64), (1024, 256)])
def test_round_trip_identity(frame_len, hop):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3000)
    plan = SegmentationPlan(len(x), frame_len, hop)
    out = overlap_add(frame_rows(x, plan), plan)
    assert np.max(np.abs(out - x)) <= 1e-12


def test_overlap_add_rejects_empty_and_bad_frames():
    plan = SegmentationPlan(8, 4, 2)
    with pytest.raises(ValueError):
        overlap_add(np.zeros((0, 4)), plan)
    with pytest.raises(ValueError):
        overlap_add(np.zeros((plan.num_frames, 3)), plan)
    with pytest.raises(ValueError):
        overlap_add(np.zeros((plan.num_frames - 1, 4)), plan)


def _overlap_add_per_frame(frames, plan):
    """Reference: accumulate the weighted frames one at a time, in frame order."""
    window = plan.window
    num = np.zeros(plan.padded_len)
    den = np.zeros(plan.padded_len)
    for m, frame in enumerate(frames):
        lo = m * plan.hop
        num[lo : lo + plan.frame_len] += window * frame
        den[lo : lo + plan.frame_len] += window
    return num[: plan.total_len] / den[: plan.total_len]


@given(st.data())
def test_overlap_add_matches_per_frame_loop(data):
    length = data.draw(st.integers(1, 300))
    frame_len = data.draw(st.integers(1, 64))
    hop = data.draw(st.integers(1, frame_len))
    seed = data.draw(st.integers(0, 2**32 - 1))
    plan = SegmentationPlan(length, frame_len, hop)
    frames = np.random.default_rng(seed).standard_normal((plan.num_frames, frame_len))
    out = overlap_add(frames, plan)
    assert out.shape == (length,)
    np.testing.assert_array_equal(out, _overlap_add_per_frame(frames, plan))
