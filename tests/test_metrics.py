from dataclasses import replace

import numpy as np
import pytest

from spadeclip.metrics import DeclipReport, FrameStats, sdr


def test_sdr_known_values():
    assert sdr(np.array([1.0, 0.0]), np.array([0.9, 0.0])) == pytest.approx(20.0)
    x = np.array([0.3, -0.4, 0.5])
    assert np.isinf(sdr(x, x))
    assert np.isinf(sdr(np.zeros(3), np.zeros(3)))  # a silent channel restored as silence
    assert sdr(x, np.zeros(3)) == pytest.approx(0.0)
    # an estimate far louder than the reference: the error's norm has its own scale
    x = np.sin(0.1 * np.arange(1000))
    assert sdr(x, x * 1e170) == pytest.approx(-3400.0, abs=1e-9)
    assert sdr(x * 1e-200, x * 1e200) == pytest.approx(-8000.0, abs=1e-9)
    assert sdr(x * 1e308, -x * 1e308) == sdr(x, -x)  # an error past the float range
    # a subnormal peak: the power of two that scales it is capped at 2**1023
    assert sdr(np.array([5e-324, 0.0]), np.zeros(2)) == 0.0


def test_sdr_errors():
    with pytest.raises(ValueError):
        sdr(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        sdr(np.zeros(3), np.ones(3))


def test_sdr_does_not_depend_on_the_level():
    # a power of two scales exactly, so the SDR must not move by one bit; unscaled,
    # the squares inside the norms overflow near 2**512 and underflow near 2**-537
    x = np.sin(0.1 * np.arange(1000))
    y = np.clip(x, -0.5, 0.5)
    expected = sdr(x, y)
    assert expected == pytest.approx(7.614125225287386, abs=1e-12)
    for k in range(-1000, 1001):
        assert sdr(np.ldexp(x, k), np.ldexp(y, k)) == expected, k


def test_sdr_no_hidden_alignment():
    val = sdr(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert val == pytest.approx(20 * np.log10(1 / np.sqrt(2)), abs=1e-6)
    assert val != pytest.approx(20.0, abs=1.0)


def test_report_table_and_mean_iterations():
    report = DeclipReport(
        sdr_clipped_input=5.0,
        sdr_restored=np.inf,
        sdr_on_clipped_samples=12.25,
        per_frame=[FrameStats(10, 0.01, True), FrameStats(20, 0.02, True)],
        runtime=0.5,
        num_clipped=7,
    )
    assert report.mean_iterations == 15.0
    table = report.as_table()
    assert "SDR of restoration   : inf\n" in table  # exact recovery
    assert "12.25" in table
    # -inf is the opposite of exact recovery: it keeps its sign and its unit
    worst = replace(report, sdr_clipped_input=-np.inf).as_table()
    assert "SDR of clipped input : -inf dB\n" in worst


def test_report_of_no_frames_has_mean_iterations_zero():
    # np.mean of an empty list would warn and give NaN; warnings fail the suite
    report = DeclipReport(
        sdr_clipped_input=np.inf,
        sdr_restored=np.inf,
        sdr_on_clipped_samples=np.inf,
        per_frame=[],
        runtime=0.0,
        num_clipped=0,
    )
    assert report.mean_iterations == 0.0
    assert "mean iterations      : 0.0\n" in report.as_table()
