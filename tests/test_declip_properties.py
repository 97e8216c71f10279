"""End-to-end invariants of `declip_signal` over random inputs and settings.

Lengths run from one sample, through less than one frame, to several
frames off the hop grid. Frames are short (16 to 64 samples), so even a
frame that runs to the sparsity cap solves in milliseconds. Each solved
frame must stop by the one rule `solve_batch` states: at its first
iterate with residual <= epsilon, or once k passes the coefficient count;
`restore` passes a frame with no clipped sample through with 0 iterations.

The metamorphic relations at the end need no reference: negating the
input, shifting it by one hop, scaling it by a power of two, or declipping
its channels together or apart must change the output in the same way,
bit for bit.
"""

import io
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from contracts import assert_in_box
from spadeclip import (
    FrameStats,
    SolverParams,
    Variant,
    declip_signal,
    detect_masks,
    hard_clip,
    make_frame,
)
from spadeclip.cli import main
from spadeclip.feasible import DEFAULT_DELTA_DETECT
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
    if draw(st.booleans()):  # a run of -0.0, +0.0, ...: reliable, as theta > 2 delta
        start = draw(st.integers(0, n - 1))
        run = x[start : start + draw(st.integers(1, n))]
        run[:] = np.where(np.arange(run.size) % 2, 0.0, -0.0)
    # detection needs theta > delta; the margin keeps a float32-rounded theta above it too
    assume(theta > 2 * DEFAULT_DELTA_DETECT)
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
    assert_in_box(restored, model)

    num_frames = SegmentationPlan(len(y), frame_len, hop).num_frames
    assert len(report.per_frame) == num_frames
    s, r = params.s, params.r
    # k starts at s and grows by s every r iterations; a frame is capped at
    # the first iteration that takes k past the coefficient count C
    capped_iterations = max(1, r * (make_frame(frame_len, redundancy).coeff_len // s))
    for m, stats in enumerate(report.per_frame):
        clipped = not model.mask_r[m * hop : m * hop + frame_len].all()
        if not clipped:
            assert stats == FrameStats(0, 0.0, True)
        elif stats.converged:
            assert 1 <= stats.iterations <= capped_iterations
        else:
            assert stats.iterations == capped_iterations


epsilons = st.sampled_from([0.1, 0.01, 0.0])


def _declip(case, epsilon, y=None, theta=None, delta_detect=DEFAULT_DELTA_DETECT):
    """The restored signal of case, with its y and theta unless given."""
    case_y, case_theta, params, frame_len, hop, redundancy = case
    restored, _ = declip_signal(
        case_y if y is None else y,
        case_theta if theta is None else theta,
        replace(params, epsilon=epsilon),
        frame_len=frame_len,
        hop=hop,
        redundancy=redundancy,
        delta_detect=delta_detect,
    )
    return restored


@settings(max_examples=50, deadline=None)
@given(declip_cases(), epsilons)
def test_declip_of_the_negated_signal_is_the_negated_declip(case, epsilon):
    y = case[0]
    assert np.array_equal(_declip(case, epsilon, y=-y), -_declip(case, epsilon))


@settings(max_examples=50, deadline=None)
@given(declip_cases(), epsilons)
def test_prepending_one_hop_of_silence_shifts_the_declip(case, epsilon):
    y, _, _, frame_len, hop, _ = case
    shifted = _declip(case, epsilon, y=np.concatenate([np.zeros(hop), y]))
    # frame m of y is frame m + 1 of the shifted signal, tail padding
    # included; only the samples of the shifted signal's first frame differ
    assert np.array_equal(shifted[hop + frame_len :], _declip(case, epsilon)[frame_len:])


@settings(max_examples=50, deadline=None)
@given(declip_cases(), epsilons, st.integers(-8, 8))
def test_scaling_by_a_power_of_two_scales_the_declip(case, epsilon, power):
    y, theta = case[:2]
    e = 2.0**power
    # delta scales too: a sample within delta of theta is clipped in both copies or neither
    scaled = _declip(
        case, e * epsilon, y=e * y, theta=e * theta, delta_detect=e * DEFAULT_DELTA_DETECT
    )
    assert np.array_equal(scaled, e * _declip(case, epsilon))


@settings(max_examples=25, deadline=None)
@given(declip_cases(), epsilons)
def test_cli_declips_each_channel_as_a_mono_file(case, epsilon):
    y, theta, params, frame_len, hop, redundancy = case
    # a float32 file clipped at a float32 theta, the right channel the left one reversed
    theta = np.float32(theta)
    left = np.clip(y, -theta, theta).astype(np.float32)
    channels = {"left": left, "right": left[::-1], "stereo": np.stack([left, left[::-1]], -1)}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, samples in channels.items():
            src, dst = Path(tmp) / f"{name}.wav", Path(tmp) / f"{name}-out.wav"
            wavfile.write(src, 8000, samples)
            args = [
                "declip", "--input", src, "--output", dst, "--theta", repr(float(theta)),
                "--variant", params.variant.value, "--s", params.s, "--r", params.r,
                "--epsilon", epsilon, "--frame-len", frame_len, "--hop", hop,
                "--redundancy", redundancy,
            ]  # fmt: skip
            with redirect_stdout(io.StringIO()):
                assert main([str(a) for a in args]) == 0
            out[name] = wavfile.read(dst)[1]
    # an explicit theta: `auto` would take the peak over both channels
    assert out["stereo"][:, 0].tobytes() == out["left"].tobytes()
    assert out["stereo"][:, 1].tobytes() == out["right"].tobytes()
