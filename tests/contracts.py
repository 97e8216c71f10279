"""The consistency contract every restored output keeps, checked in one place.

A plain module, not a fixture: Hypothesis refuses function-scoped fixtures
in `@given` tests, and the property tests call the helper too.
"""

import numpy as np


def assert_in_box(out, model):
    """out, cast to float64, lies in model's box: it has the model's shape,
    every sample is finite, lo <= out <= hi sample by sample, and the
    reliable samples equal lo byte for byte (so -0.0 stays -0.0). Not
    model.y: detection copies lo from the observation, while y is read off
    the bounds by the very clamp that produced out."""
    out = np.asarray(out, dtype=np.float64)
    assert out.shape == model.lo.shape, f"shape {out.shape}, expected {model.lo.shape}"
    assert np.all(np.isfinite(out)), "non-finite samples"
    outside = np.argwhere(~((model.lo <= out) & (out <= model.hi)))
    assert outside.size == 0, f"{len(outside)} samples outside [lo, hi], from {outside[0]}"
    reliable = model.mask_r
    np.testing.assert_array_equal(out[reliable].view(np.int64), model.lo[reliable].view(np.int64))
