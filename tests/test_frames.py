import numpy as np
import pytest

from spadeclip.frames import FrameOperator, make_frame
from spadeclip.pipeline import declip_signal
from spadeclip.segmentation import SegmentationPlan
from spadeclip.solvers import SolverParams


def test_make_frame_unitary():
    # unitary (P = N) and redundant (P = redundancy * N) frames
    for n, redundancy, p in [(63, 1, 63), (64, 1, 64), (64, 2, 128), (64, 1.5, 96)]:
        op = make_frame(n, redundancy)
        assert op.signal_len == n
        assert op.dft_len == p
        assert op.coeff_len == p // 2 + 1


@pytest.mark.parametrize(
    "signal_len,redundancy",
    [(0, 1), (-3, 2), (64, 0.5), (64, 1.3), (10, 1.05), (64, np.inf), (64, np.nan)],
)
def test_make_frame_rejects_bad_args(signal_len, redundancy):
    with pytest.raises(ValueError, match="signal_len|redundancy"):
        make_frame(signal_len, redundancy)


@pytest.mark.parametrize(
    "signal_len,dft_len", [(8, 4), (0, 0), (-2, 4), (8, 7)]
)
def test_frame_operator_rejects_bad_geometry(signal_len, dft_len):
    # fewer DFT bins than samples would make synthesize(analyze(x)) drop samples
    with pytest.raises(ValueError, match="signal_len"):
        FrameOperator(signal_len, dft_len)


def _declip(**geometry):
    return declip_signal(np.zeros(300), 0.5, SolverParams(), **geometry)


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: FrameOperator(8.5, 16), "signal_len"),
        (lambda: FrameOperator(8, 16.0), "dft_len"),
        (lambda: make_frame(8.0, 2), "signal_len"),
        (lambda: SegmentationPlan(100.0, 16, 4), "total_len"),
        (lambda: SegmentationPlan(100, 16.0, 4), "frame_len"),
        (lambda: SegmentationPlan(100, 16, 4.0), "hop"),
        (lambda: _declip(frame_len=256.0), "frame_len"),
        (lambda: _declip(frame_len=256, hop=64.0), "hop"),
    ],
    ids=["op-signal", "op-dft", "make-frame", "plan-total", "plan-frame", "plan-hop",
         "declip-frame", "declip-hop"],
)  # fmt: skip
def test_non_integer_geometry_names_the_argument(build, name):
    # the workspace and the frame grid are sized from these lengths
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build()


def test_numpy_integer_geometry_is_accepted():
    n = np.int64(16)
    assert make_frame(n, 2).dft_len == 32
    assert FrameOperator(np.int32(8), n).coeff_len == 9
    plan = SegmentationPlan(np.int64(100), n, np.int16(4))
    assert plan.num_frames == 22
    assert plan.sample_index.dtype.kind == "i"


def test_analyze_known_values():
    op = make_frame(2, 1)
    np.testing.assert_allclose(
        op.analyze(np.array([1.0, 1.0])), [np.sqrt(2), 0], atol=1e-12
    )
    op4 = make_frame(4, 1)
    # DC and Nyquist unweighted, the interior bin carries its pair's energy
    np.testing.assert_allclose(
        op4.analyze(np.array([1.0, 0, 0, 0])), [0.5, 0.5 * np.sqrt(2), 0.5], atol=1e-12
    )
    op3 = make_frame(3, 1)  # odd length: no Nyquist bin
    np.testing.assert_allclose(
        op3.analyze(np.array([1.0, 0, 0])), [1, np.sqrt(2)] / np.sqrt(3), atol=1e-12
    )


def test_analyze_length_mismatch():
    op = make_frame(8, 2)
    with pytest.raises(ValueError):
        op.analyze(np.zeros(9))
    with pytest.raises(ValueError):
        op.synthesize(np.zeros(16, dtype=complex))  # full spectrum: 9 bins expected


def test_synthesize_known_values():
    op = make_frame(2, 1)
    np.testing.assert_allclose(
        op.synthesize(np.array([np.sqrt(2), 0], dtype=complex)), [1.0, 1.0], atol=1e-12
    )
    assert np.all(op.synthesize(np.zeros(2, dtype=complex)) == 0)


@pytest.mark.parametrize("redundancy", [1, 2, 4])
def test_synthesis_contraction_and_range_equality(redundancy):
    op = make_frame(32, redundancy)
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = rng.standard_normal(op.coeff_len) + 1j * rng.standard_normal(op.coeff_len)
        assert np.linalg.norm(op.synthesize(c)) <= np.linalg.norm(c) + 1e-12
        cr = op.analyze(rng.standard_normal(32))
        assert abs(np.linalg.norm(op.synthesize(cr)) - np.linalg.norm(cr)) <= 1e-10


@pytest.mark.parametrize("redundancy", [1, 2, 1.125])
def test_adjointness_stacked_inner_product(redundancy):
    # DFT lengths 24 and 48 have a Nyquist bin, 27 has none; random c has
    # imaginary DC and Nyquist parts, which synthesis must ignore
    op = make_frame(24, redundancy)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(24)
        c = rng.standard_normal(op.coeff_len) + 1j * rng.standard_normal(op.coeff_len)
        lhs = float(np.real(np.vdot(op.analyze(x), c)))
        rhs = float(np.dot(x, op.synthesize(c)))
        assert abs(lhs - rhs) <= 1e-10


def test_batch_rows_transform_as_alone():
    rng = np.random.default_rng(8)
    op = make_frame(24, 2)
    x = rng.standard_normal((5, 24))
    c = rng.standard_normal((5, 25)) + 1j * rng.standard_normal((5, 25))
    a, s = op.analyze(x), op.synthesize(c)
    for m in range(5):
        np.testing.assert_array_equal(a[m], op.analyze(x[m]))
        np.testing.assert_array_equal(s[m], op.synthesize(c[m]))
    with pytest.raises(ValueError):
        op.analyze(np.zeros((2, 2, 24)))
    with pytest.raises(ValueError):
        op.synthesize(np.zeros((2, 24)))
