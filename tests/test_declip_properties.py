"""End-to-end invariants of `declip_signal` over random inputs and settings.

Lengths run from one sample, through less than one frame, to several
frames off the hop grid. Frames are short (16 to 64 samples), so even a
frame that runs to the sparsity cap solves in milliseconds. Each solved
frame must stop by the one rule `solve_batch` states: at its first
iterate with residual <= epsilon, or once k passes the coefficient count;
a frame with no clipped sample is passed through with 0 iterations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spadeclip import (
    FrameStats,
    SolverParams,
    Variant,
    declip_signal,
    detect_masks,
    hard_clip,
    make_frame,
)
from spadeclip.segmentation import SegmentationPlan


@st.composite
def declip_cases(draw):
    frame_len = draw(st.sampled_from([16, 32, 64]))
    hop = draw(st.integers(frame_len // 4, frame_len))
    n = draw(
        st.one_of(
            st.just(1),
            st.integers(2, frame_len - 1),  # below one frame
            st.integers(frame_len, 4 * frame_len),  # on or off the hop grid
        )
    )
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    theta = draw(st.floats(0.05, 1.2)) * float(np.max(np.abs(x)))
    params = SolverParams(
        s=draw(st.integers(1, 3)),
        r=draw(st.integers(1, 3)),
        variant=draw(st.sampled_from(list(Variant))),
    )
    redundancy = draw(st.sampled_from([1, 1.5, 2]))
    return hard_clip(x, theta), theta, params, frame_len, hop, redundancy


@settings(max_examples=200)
@given(declip_cases())
def test_declip_signal_invariants(case):
    y, theta, params, frame_len, hop, redundancy = case
    restored, report = declip_signal(
        y, theta, params, frame_len=frame_len, hop=hop, redundancy=redundancy
    )
    model = detect_masks(y, theta)
    assert restored.shape == y.shape
    assert np.all(np.isfinite(restored))
    np.testing.assert_array_equal(restored[model.mask_r], y[model.mask_r])
    assert np.all(restored[model.mask_h] >= theta)
    assert np.all(restored[model.mask_l] <= -theta)

    num_frames = SegmentationPlan(len(y), frame_len, hop).num_frames
    assert len(report.per_frame) == num_frames
    s, r = params.s, params.r
    # k starts at s and grows by s every r iterations; a frame is capped at
    # the first iteration that takes k past the coefficient count C
    capped_iterations = max(1, r * (make_frame(frame_len, redundancy).coeff_len // s))
    for m, stats in enumerate(report.per_frame):
        clipped = not model.mask_r[m * hop : m * hop + frame_len].all()
        if not clipped:
            assert stats == FrameStats(0, 0.0, 0, True)
        elif stats.converged:
            assert 1 <= stats.iterations <= capped_iterations
        else:
            assert stats.iterations == capped_iterations
        # the last iterate's k: a converged frame did not advance it, and a
        # clip-free frame, passed through with 0 iterations, reports k = 0
        assert stats.final_k == s + s * ((stats.iterations - stats.converged) // r)
