import numpy as np
import pytest

import spadeclip
from contracts import assert_in_box
from inputs import sparse_signal, three_partials
from spadeclip.feasible import detect_masks, hard_clip, project_gamma
from spadeclip.frames import make_frame
from spadeclip.metrics import sdr
from spadeclip.pipeline import declip_signal
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
    for variant in Variant:
        params = SolverParams(variant=variant)
        batched, report = declip_signal(y, 0.4, params, frame_len=256, hop=64)
        alone = [solve_batch(frames.select([m]), op, params) for m in range(plan.num_frames)]
        expected = project_gamma(overlap_add(np.array([out[0] for out, _ in alone]), plan), model)
        np.testing.assert_array_equal(batched, expected)
        assert report.per_frame == [stats[0] for _, stats in alone]
        assert 0 < sum(f.iterations == 0 for f in report.per_frame) < plan.num_frames


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
