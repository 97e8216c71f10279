"""Seeded synthetic inputs for the declipping benchmark.

Inputs are made in code from the run's seed, so one seed always gives the
same inputs, and no data file is read.

Each input is a fixed tonal scene (partial frequencies and phases taken
from a table, not from the seed) plus noise drawn from the seed; for the
CLI files the seed also sets the exact file lengths. The restoration
quality of SPADE is chaotic in the scene: moving one phase by a fraction
of a radian moves the SDR gain of a 10-frame clip by several dB. With the
scenes fixed, different seeds give inputs of the same difficulty, and the
run-to-run spread of the metrics stays small enough to see a regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RATE = 44100
# Library and CLI defaults; the benchmark calls with defaults and uses these
# only to describe its inputs (frame grid, clipped frames).
FRAME_LEN = 1024
HOP = 256
DELTA_DETECT = 1e-6
PCM16_SCALE = 32768

# Centre frequencies (Hz) and amplitudes of the four partials of a tone.
PARTIALS_HZ = (220.0, 470.0, 880.0, 1330.0)
PARTIAL_AMPS = (1.0, 0.8, 0.6, 0.45)
NOISE_LEVEL = 0.01

# Sizes: "full" is what the benchmark measures, "tiny" is for the smoke test.
SIZES = {
    "full": {"bursty_clips": 4, "bursty_frames": 10, "cli_files": 24},
    "tiny": {"bursty_clips": 1, "bursty_frames": 2, "cli_files": 2},
}


@dataclass(frozen=True)
class Clip:
    """One input: the clean reference, its clipped observation and theta.

    `pcm16` marks inputs the CLI workload writes as 16-bit PCM (otherwise
    32-bit float). `y` is exactly what the program will read.
    """

    name: str
    x: np.ndarray
    y: np.ndarray
    theta: float
    pcm16: bool = False

    @property
    def seconds(self) -> float:
        return len(self.y) / RATE


def num_frames(n: int) -> int:
    """Frames the default segmentation plans for n samples."""
    return max(0, -(-(n - FRAME_LEN) // HOP)) + 1


def clip_masks(y: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) clipped-sample masks by the program's detection rule."""
    high = y >= theta - DELTA_DETECT
    low = (y <= -theta + DELTA_DETECT) & ~high
    return high, low


def clipped_frames(y: np.ndarray, theta: float) -> np.ndarray:
    """Boolean per planned frame: does it hold at least one clipped sample."""
    high, low = clip_masks(y, theta)
    clipped = high | low
    return np.array(
        [clipped[m * HOP : m * HOP + FRAME_LEN].any() for m in range(num_frames(len(y)))]
    )


SCENE_BASE = 1000  # scene i draws its partials from default_rng(SCENE_BASE + i)


def scene(i: int) -> tuple[tuple[float, float, float], ...]:
    """(frequency, amplitude, phase) of the four partials of scene i.

    Frequencies lie within +-3% of PARTIALS_HZ; the table does not depend
    on the run's seed.
    """
    rng = np.random.default_rng(SCENE_BASE + i)
    return tuple(
        (f0 * rng.uniform(0.97, 1.03), amp, rng.uniform(0, 2 * np.pi))
        for f0, amp in zip(PARTIALS_HZ, PARTIAL_AMPS)
    )


def tone(i: int, n: int) -> np.ndarray:
    """n samples of scene i's four partials, peak 1."""
    t = np.arange(n) / RATE
    x = sum(amp * np.sin(2 * np.pi * f * t + phase) for f, amp, phase in scene(i))
    return x / np.max(np.abs(x))


def noisy_tone(rng: np.random.Generator, i: int, n: int) -> np.ndarray:
    """Scene i plus 1% seeded white noise, peak 1."""
    x = tone(i, n) + NOISE_LEVEL * rng.standard_normal(n)
    return x / np.max(np.abs(x))


# Bursts as (start, end, level) in fractions of the clip: a loud burst that
# clips at theta, then a quiet one that stays clean but is still dense, so
# it costs solver iterations without needing them. The rest is near-silence.
BURSTS = ((0.08, 0.24, 1.0), (0.40, 0.66, 0.25))
SILENCE_LEVEL = 1e-3


def bursty(rng: np.random.Generator, clips: int, frames: int) -> list[Clip]:
    """Clips of tonal bursts of varying loudness over near-silence."""
    n = (frames - 1) * HOP + FRAME_LEN
    theta = 0.5
    out = []
    for i in range(clips):
        x = SILENCE_LEVEL * rng.standard_normal(n)
        for b, (start, end, level) in enumerate(BURSTS):
            lo, hi = int(start * n), int(end * n)
            fade = np.sin(np.linspace(0, np.pi, hi - lo)) ** 0.25
            x[lo:hi] += level * fade * noisy_tone(rng, len(BURSTS) * i + b, hi - lo)
        x /= np.max(np.abs(x))
        out.append(Clip(f"bursty{i}", x, np.clip(x, -theta, theta), theta))
    return out


# File lengths in samples, stratified from below one frame to 4 frames;
# each gets a seeded offset that keeps it off the hop grid. With more files
# than lengths, the lengths repeat in the other file format.
CLI_BASE_LENGTHS = (300, 700, 1100, 1300, 1500, 1000, 600, 1700, 900, 1200, 400, 1600)
THETA_PCM16 = 9830 / PCM16_SCALE  # 0.3 on the PCM16 grid


def cli_short_files(rng: np.random.Generator, count: int) -> list[Clip]:
    """Short tonal files, alternating PCM16 and float32, clipped at THETA_PCM16.

    The clipped observation is quantised to its file format here, so `y`
    is bit-for-bit what the CLI reads back.
    """
    clips = []
    for i in range(count):
        base = CLI_BASE_LENGTHS[i % len(CLI_BASE_LENGTHS)]
        n = base + int(rng.integers(1, 80))
        if n % HOP == 0:
            n += 1
        x = noisy_tone(rng, i, n)
        pcm16 = (i + i // len(CLI_BASE_LENGTHS)) % 2 == 0
        y = np.clip(x, -THETA_PCM16, THETA_PCM16)
        if pcm16:
            y = np.round(y * PCM16_SCALE).astype(np.int16) / PCM16_SCALE  # no -0.0
        else:
            y = y.astype(np.float32).astype(np.float64)
        clips.append(Clip(f"file{i:02d}", x, y, THETA_PCM16, pcm16))
    return clips


GENERATORS = {
    "bursty": lambda rng, size: bursty(rng, size["bursty_clips"], size["bursty_frames"]),
    "cli-short-files": lambda rng, size: cli_short_files(rng, size["cli_files"]),
}


def make_inputs(workload: str, seed: int, size: str = "full") -> list[Clip]:
    """The workload's inputs for a seed."""
    return GENERATORS[workload](np.random.default_rng(seed), SIZES[size])


def properties(clips: list[Clip]) -> dict:
    """Audio seconds, frames, clipped-sample share, clipped-frame share."""
    samples = sum(len(c.y) for c in clips)
    clipped = sum(int(np.count_nonzero(np.logical_or(*clip_masks(c.y, c.theta)))) for c in clips)
    frame_flags = np.concatenate([clipped_frames(c.y, c.theta) for c in clips])
    return {
        "inputs": len(clips),
        "audio_s": samples / RATE,
        "frames": int(frame_flags.size),
        "clipped_sample_share": clipped / samples,
        "clipped_frame_share": float(frame_flags.mean()),
    }
