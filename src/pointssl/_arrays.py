"""Internal helper for immutable array fields."""

from __future__ import annotations

import numpy as np


def frozen_array(a, dtype=None) -> np.ndarray:
    """Read-only C-ordered array that nothing else can write to.

    An ndarray that is read-only and owns its memory, or that converting to
    dtype and C order had to copy, is adopted as is; other input is copied.
    """
    out = np.asarray(a, dtype=dtype, order="C") if isinstance(a, np.ndarray) else None
    if out is None or not out.flags.owndata or (out is a and out.flags.writeable):
        out = np.array(a, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out
