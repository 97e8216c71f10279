"""Pinned pipeline behaviour: per-frame iterations, final k, convergence and output.

`tests/data/golden_seed.npz` holds, for one fixed signal and every
combination of variant x redundancy {1, 2} x r {1, 2}, what `declip_signal`
reported per frame and the restored signal. The signal mixes frames with
clipped samples and clip-free frames, and its length is off the hop grid.

The file was regenerated when the frame became the half-spectrum real DFT
(k counts conjugate pairs), which changes every iterate, by running this
module as a script from the root of the repository:

    PYTHONPATH=src python tests/test_golden.py

The file before that, written by the per-frame solver before the batched
solver core replaced it, pinned the full-spectrum frame. The file was
regenerated once more when tail padding past the signal's end became free
instead of a reliable 0: only frame 12 of 13, the one that reaches 3
samples past the end, changed. So that the pin does not rest on the code
it pins, `test_dense_operator_reproduces_golden` runs the same pipeline
with the FFT-free dense-matrix operator of `spadeclip.verification` and
must reproduce it to the same tolerances.

Frames with a clipped sample must reproduce the pinned iterations, final k
and convergence exactly (a report holds no k: the k a frame stopped at,
`params.sparsity(iterations - converged)`, is compared with the file's
`final_k`), and the output must stay within 1e-12 of the
pinned one. Frames without a clipped sample are not iterated: they must
report 0 iterations. The output keeps the consistency contract of
`tests/contracts.py`, so reliable samples, those of clip-free frames
among them, are the observation's bit for bit.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from contracts import assert_in_box
from spadeclip import SolverParams, Variant, declip_signal, detect_masks, make_frame, pipeline
from spadeclip.verification import DenseFrameOperator

GOLDEN = Path(__file__).parent / "data" / "golden_seed.npz"
FRAME_LEN = 128
HOP = 48
THETA = 0.5
CONFIGS = list(
    itertools.product(("aspade", "sspade", "sspade-dr"), (1, 2), (1, 2))
)


def _key(variant: str, redundancy: int, r: int) -> str:
    return f"{variant}_red{redundancy}_r{r}"


def golden_signal() -> np.ndarray:
    """Clipped loud bursts around a quiet unclipped stretch; 701 samples."""
    n = 701
    t = np.arange(n)
    tone = (
        np.sin(2 * np.pi * 5 * t / 128 + 0.3)
        + 0.6 * np.sin(2 * np.pi * 11 * t / 128 + 1.2)
        + 0.3 * np.sin(2 * np.pi * 19 * t / 128 + 2.5)
    )
    envelope = np.where((t >= 220) & (t < 520), 0.2, 1.0)
    noise = 0.01 * np.random.default_rng(0).standard_normal(n)
    x = envelope * tone / np.max(np.abs(tone)) + noise
    return np.clip(x, -THETA, THETA)


def _params(variant: str, r: int) -> SolverParams:
    return SolverParams(s=1, r=r, epsilon=0.1, variant=Variant(variant))


def _run(y, variant, redundancy, r):
    return declip_signal(
        y, THETA, _params(variant, r), frame_len=FRAME_LEN, hop=HOP, redundancy=redundancy
    )


def _final_k(report, params: SolverParams) -> np.ndarray:
    """The k each frame stopped at: its last one if converged, else the first past the cap."""
    return np.array([params.sparsity(f.iterations - f.converged) for f in report.per_frame])


def write_golden(path) -> None:
    y = golden_signal()
    data = {"y": y}
    for variant, redundancy, r in CONFIGS:
        restored, report = _run(y, variant, redundancy, r)
        key = _key(variant, redundancy, r)
        data[f"{key}_iterations"] = [f.iterations for f in report.per_frame]
        data[f"{key}_final_k"] = _final_k(report, _params(variant, r))
        data[f"{key}_converged"] = [f.converged for f in report.per_frame]
        data[f"{key}_output"] = restored
    np.savez_compressed(path, **data)


def _clipped_frames(y: np.ndarray) -> np.ndarray:
    """Per planned frame: does it hold a sample at or beyond +-theta?"""
    num_frames = -(-(len(y) - FRAME_LEN) // HOP) + 1
    clipped = np.abs(y) >= THETA - 1e-6
    return np.array(
        [clipped[m * HOP : m * HOP + FRAME_LEN].any() for m in range(num_frames)]
    )


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


def test_golden_signal_mixes_clipped_and_clip_free_frames(golden):
    y = golden["y"]
    np.testing.assert_array_equal(y, golden_signal())
    assert (len(y) - FRAME_LEN) % HOP != 0  # the last frame reaches past the end
    flags = _clipped_frames(y)
    assert flags.any() and not flags.all()


def _assert_matches_golden(golden, variant, redundancy, r):
    y = golden["y"]
    key = _key(variant, redundancy, r)
    restored, report = _run(y, variant, redundancy, r)
    flags = _clipped_frames(y)
    assert len(report.per_frame) == len(flags)

    iterations = np.array([f.iterations for f in report.per_frame])
    final_k = _final_k(report, _params(variant, r))
    converged = np.array([f.converged for f in report.per_frame])
    np.testing.assert_array_equal(iterations[flags], golden[f"{key}_iterations"][flags])
    np.testing.assert_array_equal(final_k[flags], golden[f"{key}_final_k"][flags])
    np.testing.assert_array_equal(converged[flags], golden[f"{key}_converged"][flags])
    np.testing.assert_allclose(restored, golden[f"{key}_output"], rtol=0, atol=1e-12)

    assert np.all(iterations[~flags] == 0)
    assert np.all(converged[~flags])
    assert_in_box(restored, detect_masks(y, THETA))


@pytest.mark.parametrize("variant,redundancy,r", CONFIGS)
def test_matches_golden(golden, variant, redundancy, r):
    _assert_matches_golden(golden, variant, redundancy, r)


@pytest.mark.parametrize("variant,redundancy,r", CONFIGS)
def test_dense_operator_reproduces_golden(golden, monkeypatch, variant, redundancy, r):
    monkeypatch.setattr(
        pipeline, "make_frame", lambda n, red: DenseFrameOperator(n, make_frame(n, red).dft_len)
    )
    _assert_matches_golden(golden, variant, redundancy, r)


if __name__ == "__main__":
    write_golden(sys.argv[1] if len(sys.argv) > 1 else GOLDEN)
