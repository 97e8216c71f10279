import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spadeclip
from contracts import assert_in_box
from inputs import sparse_signal, three_partials
from spadeclip.feasible import DEFAULT_DELTA_DETECT, ClipModel, detect_masks, hard_clip, project_gamma
from spadeclip.frames import make_frame
from spadeclip.metrics import FrameStats, sdr
from spadeclip.pipeline import declip_signal, restore
from spadeclip.segmentation import SegmentationPlan, overlap_add, restrict_frames
from spadeclip.solvers import SolverParams, Variant, solve_batch


@pytest.fixture
def refused(monkeypatch):
    """`refused(pattern, y, theta, **kwargs)`: declip_signal(y, theta, SolverParams(),
    **kwargs) raises a ValueError matching pattern before it solves any frame."""

    def no_solve(*args, **kwargs):
        raise AssertionError("a frame was solved before the input was refused")

    def check(pattern, y, theta, **kwargs):
        with pytest.raises(ValueError, match=pattern):
            declip_signal(y, theta, SolverParams(), **kwargs)

    monkeypatch.setattr(spadeclip.pipeline, "solve_batch", no_solve)
    return check


def test_declip_signal_sdr_fields_against_reference():
    x = sparse_signal(1024)
    y = np.clip(x, -0.4, 0.4)
    restored, report = declip_signal(y, 0.4, SolverParams(), frame_len=256, hop=64, reference=x)
    clipped = ~detect_masks(y, 0.4).mask_r
    assert report.sdr_on_clipped_samples == sdr(x[clipped], restored[clipped])
    assert np.isfinite(report.sdr_on_clipped_samples)
    assert report.sdr_restored == sdr(x, restored)
    assert report.sdr_clipped_input == sdr(x, y)
    # a silent y matches a silent reference exactly: every SDR is inf
    _, silent = declip_signal(
        np.zeros(512), 0.4, SolverParams(), frame_len=256, hop=64, reference=np.zeros(512)
    )
    assert silent.sdr_clipped_input == silent.sdr_restored == np.inf
    assert silent.sdr_on_clipped_samples == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_declip_signal_rejects_non_finite(refused, bad):
    y = np.clip(sparse_signal(512), -0.4, 0.4)
    y[100] = bad
    refused("signal holds non-finite", y, 0.4, frame_len=256, hop=64)


def test_declip_signal_rejects_empty_signal(refused):
    refused("empty", np.zeros(0), 0.4)


def test_declip_signal_on_silence_returns_silence():
    restored, report = declip_signal(np.zeros(2000), 0.5, SolverParams())
    assert_in_box(restored, detect_masks(np.zeros(2000), 0.5))
    assert report.num_clipped == 0
    assert all(f.iterations == 0 for f in report.per_frame)
    for value in (
        report.sdr_clipped_input, report.sdr_restored, report.sdr_on_clipped_samples
    ):
        assert value == np.inf


def test_declip_signal_rejects_nan_theta(refused):
    y = np.clip(sparse_signal(512), -0.4, 0.4)
    refused("theta", y, float("nan"), frame_len=256, hop=64)


def test_declip_signal_rejects_a_multichannel_y(refused):
    y = np.clip(np.stack([sparse_signal(50), sparse_signal(50)], axis=1), -0.4, 0.4)
    refused(r"y must be one-dimensional, got shape \(50, 2\)", y, 0.4, frame_len=16, hop=8)


def test_declip_signal_rejects_a_reference_of_another_shape(refused, monkeypatch):
    def no_detection(*args, **kwargs):
        raise AssertionError("detection ran before the reference was checked")

    monkeypatch.setattr(spadeclip.pipeline, "detect_masks", no_detection)
    x = sparse_signal(512)
    y = np.clip(x, -0.4, 0.4)
    refused(r"reference has shape \(511,\), y has shape \(512,\)", y, 0.4, reference=x[:-1])
    # no SDR against a silent reference is defined unless y is silent too
    refused("reference is all-zero but y is not", y, 0.4, reference=np.zeros(512))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_declip_signal_rejects_a_non_finite_reference(refused, bad):
    # an SDR against it would be NaN, silently
    x = sparse_signal(512)
    y = np.clip(x, -0.4, 0.4)
    x[7] = bad
    refused("reference holds non-finite samples", y, 0.4, frame_len=256, hop=64, reference=x)


def test_declip_signal_rejects_a_reference_zero_on_every_clipped_sample(refused):
    x = sparse_signal(512)
    y = np.clip(x, -0.4, 0.4)
    x[np.abs(x) >= 0.4] = 0  # not all-zero, but no SDR on the clipped samples is defined
    clipped = np.count_nonzero(np.abs(y) >= 0.4)
    refused(f"reference is zero on all {clipped} clipped samples", y, 0.4, reference=x)


def test_pipeline_batch_equals_frames_solved_alone():
    # the batched solve gives each frame exactly what it gets solved alone, as a batch of one
    x = sparse_signal(1024)
    x[300:700] *= 0.3  # a quiet stretch: some frames hold no clipped sample
    y = np.clip(x, -0.4, 0.4)
    plan = SegmentationPlan(len(y), 256, 64)
    op = make_frame(256, 2)
    model = detect_masks(y, 0.4)
    frames = restrict_frames(model, plan)
    # the signal is on the hop grid and holds no free sample: restore solves the clipped frames
    solved = frames.mask_clipped.any(axis=-1)
    assert 0 < np.count_nonzero(solved) < plan.num_frames
    for variant in Variant:
        params = SolverParams(variant=variant)
        batched, report = declip_signal(y, 0.4, params, frame_len=256, hop=64)
        expected_frames = frames.y.copy()
        expected_stats = [FrameStats(0, 0.0, True)] * plan.num_frames
        for m in np.flatnonzero(solved):
            (expected_frames[m],), (expected_stats[m],) = solve_batch(frames.select([m]), op, params)
        expected = project_gamma(overlap_add(expected_frames, plan), model)
        np.testing.assert_array_equal(batched, expected)
        assert report.per_frame == expected_stats


def _short_tones(count, frame_len, hop):
    """Seeded three-partial tones of peak 1, each below one frame or off the hop grid."""
    rng = np.random.default_rng(0)
    tones = []
    while len(tones) < count:
        n = int(rng.integers(frame_len // 4, 2 * frame_len))
        if n >= frame_len and (n - frame_len) % hop == 0:
            continue  # on the hop grid: no frame reaches past the end
        x = three_partials(n, frame_len, rng.uniform(0, 2 * np.pi, 3))
        tones.append(x / np.max(np.abs(x)))
    return tones


@pytest.mark.parametrize(
    "variant,bar",
    [(Variant.ASPADE, 20.0), (Variant.SSPADE_ORIG, 14.0), (Variant.SSPADE_DR, 16.0)],
)
def test_declip_signal_median_sdr_gain_over_short_tones(variant, bar):
    # every tone's last frame reaches past its end; the SDR gain on one short
    # signal is chaotic, so the bar is on the family's median
    gains = []
    for x in _short_tones(24, frame_len=256, hop=64):
        y = hard_clip(x, 0.5)
        restored, _ = declip_signal(y, 0.5, SolverParams(variant=variant), frame_len=256, hop=64)
        gains.append(sdr(x, restored) - sdr(x, y))
    assert np.median(gains) >= bar


# ---------------------------------------------------------------- restore


def test_restore_takes_the_model_of_one_signal():
    model = detect_masks(np.clip(sparse_signal(64), -0.4, 0.4), 0.4)
    for batch in (model.select(np.newaxis), model.select(np.newaxis).select(np.newaxis)):
        with pytest.raises(ValueError, match="one signal"):
            restore(batch, SolverParams(), frame_len=16, hop=8)


def test_restore_solves_no_frame_whose_only_free_samples_are_padding(monkeypatch):
    # 43 samples in frames of 16 every 8: the last frame reaches 5 samples past the end
    y = np.random.default_rng(4).uniform(-0.5, 0.5, 43)
    plan = SegmentationPlan(len(y), 16, 8)
    assert plan.padded_len > len(y)
    seen = []

    def spy(model, op, params):
        seen.append(model)
        return solve_batch(model, op, params)

    monkeypatch.setattr(spadeclip.pipeline, "solve_batch", spy)
    # one clipped sample, in the first frame only: the padded tail frame is clean
    y[2] = 0.9
    out, stats = restore(detect_masks(y, 0.9, 0.0), SolverParams(), 16, 8, 2)
    (batch,) = seen
    assert len(batch.y) == 1 and batch.mask_clipped.any()
    assert stats[1:] == [FrameStats(0, 0.0, True)] * (plan.num_frames - 1)
    assert stats[0].iterations > 0
    # nothing clipped: no frame needs a solve, so no transform runs
    y[2] = 0.0
    model = detect_masks(y, 0.9, 0.0)
    monkeypatch.setattr(spadeclip.pipeline, "make_frame", lambda n, red: object())
    for variant in Variant:
        out, stats = restore(model, SolverParams(variant=variant), 16, 8, 2)
        assert out.tobytes() == y.tobytes()
        assert stats == [FrameStats(0, 0.0, True)] * plan.num_frames
    assert len(seen) == 1


GAP_FRAME = 256
GAP_START = 100


def _gap_case(redundancy, gap, clipped):
    """One frame of synthesize(c), c 3-sparse, at peak 1, and its clip model:
    `gap` free samples from GAP_START on, whose y reads 0 as tail padding's
    does, the other samples reliable or, if clipped, clipped at 0.8."""
    op = make_frame(GAP_FRAME, redundancy)
    rng = np.random.default_rng(0)
    c = np.zeros(op.coeff_len, dtype=complex)
    # interior bins: DC and Nyquist hold real coefficients only
    bins = rng.choice(np.arange(1, op.coeff_len - 1), 3, replace=False)
    c[bins] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x = op.synthesize(c)
    x /= np.max(np.abs(x))
    theta = 0.8 if clipped else np.inf
    model = detect_masks(hard_clip(x, theta), theta, 0.0)
    lo, hi = model.lo.copy(), model.hi.copy()
    s = slice(GAP_START, GAP_START + gap)
    lo[s], hi[s] = -np.inf, np.inf
    model = ClipModel(lo, hi)
    assert model.mask_clipped.any() == clipped
    return x, model


def _gap_snr(x, out, gap):
    s = slice(GAP_START, GAP_START + gap)
    return sdr(x[s], out[s])


@pytest.mark.parametrize("clipped", [False, True], ids=["gap only", "gap and clip"])
@pytest.mark.parametrize("gap", [8, 16, 32])
def test_gap_oracle_unitary_frame(gap, clipped):
    # on a unitary frame the three variants coincide, and they fill the gap
    x, model = _gap_case(1, gap, clipped)
    outs = []
    for variant in Variant:
        out, (stats,) = restore(
            model, SolverParams(s=1, r=1, variant=variant), GAP_FRAME, GAP_FRAME, 1
        )
        assert stats.iterations > 0
        assert_in_box(out, model)
        outs.append(out)
    for out in outs[1:]:
        np.testing.assert_allclose(out, outs[0], rtol=0, atol=1e-9)
    assert _gap_snr(x, outs[0], gap) >= 30.0


@pytest.mark.parametrize(
    "variant,bar",
    [(Variant.ASPADE, 15.0), (Variant.SSPADE_ORIG, 28.0), (Variant.SSPADE_DR, 10.0)],
)
def test_gap_oracle_redundant_frame(variant, bar):
    # library defaults at redundancy 2; the bars sit below the measured
    # gap SNRs (README, "the clip model"), whether or not the frame is clipped
    for gap in (8, 16, 32):
        for clipped in (False, True):
            x, model = _gap_case(2, gap, clipped)
            out, (stats,) = restore(model, SolverParams(variant=variant), GAP_FRAME, GAP_FRAME, 2)
            assert stats.iterations > 0
            assert_in_box(out, model)
            assert _gap_snr(x, out, gap) >= bar, (gap, clipped)


@st.composite
def gap_cases(draw):
    """A box and restore's settings. The box is a clipped signal with runs of
    free samples at drawn places, or one built sample by sample at a scale of
    1e-3, 1 or 1e3: each sample reliable, bounded on one side at any level,
    or free, with boxes whose samples are all free among them."""
    frame_len = draw(st.sampled_from([16, 32, 64]))
    hop = draw(st.integers(frame_len // 4, frame_len))
    n = draw(st.integers(1, 4 * frame_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.standard_normal(n)
        theta = draw(st.floats(0.05, 1.2)) * float(np.max(np.abs(x)))
        assume(theta > 2 * DEFAULT_DELTA_DETECT)
        model = detect_masks(hard_clip(x, theta), theta)
        lo, hi = model.lo.copy(), model.hi.copy()
        for _ in range(draw(st.integers(1, 3))):
            start = draw(st.integers(0, n - 1))
            run = slice(start, start + draw(st.integers(1, frame_len)))
            lo[run], hi[run] = -np.inf, np.inf
    else:
        level = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal(n)
        # the odds of reliable, bounded below, bounded above and free
        odds = draw(st.sampled_from([(0.9, 0.04, 0.04, 0.02), (0.25, 0.25, 0.25, 0.25), (0, 0, 0, 1)]))
        kind = rng.choice(4, size=n, p=odds)
        lo = np.where(kind <= 1, level, -np.inf)
        hi = np.where((kind == 0) | (kind == 2), level, np.inf)
    params = SolverParams(
        s=draw(st.integers(1, 3)),
        r=draw(st.integers(1, 3)),
        variant=draw(st.sampled_from(list(Variant))),
    )
    redundancy = draw(st.sampled_from([1, 1.5, 2]))
    return ClipModel(lo, hi), params, frame_len, hop, redundancy


@settings(max_examples=100, deadline=None)
@given(gap_cases())
def test_restore_invariants_with_free_samples_inside(case):
    model, params, frame_len, hop, redundancy = case
    masks = [model.mask_r, model.mask_h, model.mask_l, model.mask_free]
    np.testing.assert_array_equal(np.sum(masks, axis=0), 1)  # they partition the samples
    out, per_frame = restore(model, params, frame_len, hop, redundancy)
    assert_in_box(out, model)
    assert len(per_frame) == SegmentationPlan(len(model.lo), frame_len, hop).num_frames
    for m, stats in enumerate(per_frame):
        # the frame's samples inside the signal: its tail padding is cut off
        if model.mask_r[m * hop : m * hop + frame_len].all():
            assert stats == FrameStats(0, 0.0, True)
        else:
            assert stats.iterations > 0
