"""1-D column sampling masks and their disjoint train/loss partition.

A mask samples phase-encode columns: a contiguous fully-sampled center
block plus randomly selected outer columns. A :class:`SamplingMask` is an
acquired mask as files and commands hold it; the code that computes with
masks takes boolean column arrays, which act on the trailing k-space axis.
An acquired mask splits into train and loss columns that share only the
center block; rho is the fraction of the outer sampled columns that goes
to the train columns.
"""

import json
from dataclasses import dataclass

import numpy as np


def _in_range(values, stop):
    """Whether `values` is a list of integers in [0, stop)."""
    return isinstance(values, list) and all(type(v) is int and 0 <= v < stop
                                            for v in values)


@dataclass(frozen=True)
class SamplingMask:
    """Boolean per-column sampling pattern with an always-on center block."""

    width: int
    sampled: np.ndarray          # bool, shape (width,)
    center: tuple                # [lo, hi) column range

    def __post_init__(self):
        sampled = np.asarray(self.sampled, dtype=bool)
        object.__setattr__(self, "sampled", sampled)
        lo, hi = self.center
        if sampled.shape != (self.width,):
            raise ValueError("sampled length must equal width")
        if not (0 <= lo <= hi <= self.width):
            raise ValueError(f"bad center range {self.center}")
        if not sampled[lo:hi].all():
            raise ValueError("center columns must all be sampled")

    def indices(self):
        return np.flatnonzero(self.sampled)

    def outer_indices(self):
        """Sampled columns outside the center block."""
        idx = self.indices()
        lo, hi = self.center
        return idx[(idx < lo) | (idx >= hi)]

    def to_json(self):
        return json.dumps({
            "width": self.width,
            "center": list(self.center),
            "sampled": self.indices().tolist(),
        })

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; a missing field, or a center or column
        that is not an integer in range, raises ValueError."""
        d = json.loads(text)
        if not isinstance(d, dict) or not {"width", "center", "sampled"} <= d.keys():
            raise ValueError("a mask needs the fields width, center and sampled")
        width, center, cols = d["width"], d["center"], d["sampled"]
        if not (type(width) is int and _in_range(center, width + 1)
                and len(center) == 2 and _in_range(cols, width)):
            raise ValueError(f"need center in [0, width] and sampled in [0, width), got "
                             f"width {width!r}, center {center!r}, sampled {cols!r}")
        sampled = np.zeros(width, dtype=bool)
        sampled[cols] = True
        return cls(width, sampled, tuple(center))


def center_range(width, center_fraction):
    """[lo, hi) range of the round(center_fraction * width) central columns."""
    n_center = int(round(center_fraction * width))
    lo = (width - n_center) // 2
    return lo, lo + n_center


def make_random_mask(width, R, center_fraction=0.04, seed=0):
    """Draw a random column mask at acceleration R with a fully-sampled center.

    Each outer column is kept independently with probability
    ``p = (width/R - n_center) / (width - n_center)`` so the expected total
    sampled count is width/R. R high enough to make p negative is an error.
    """
    if width < 8:
        raise ValueError("width must be >= 8")
    if not R >= 1:  # NaN too
        raise ValueError("R must be >= 1")
    if not 0 < center_fraction < 1:
        raise ValueError("center_fraction must lie in (0, 1)")

    lo, hi = center_range(width, center_fraction)
    n_center = hi - lo
    p = (width / R - n_center) / (width - n_center)
    if p < 0:
        raise ValueError(
            f"R={R} too high for center_fraction={center_fraction} at width={width}"
        )
    p = min(p, 1.0)

    rng = np.random.default_rng(seed)
    sampled = rng.random(width) < p
    sampled[lo:hi] = True
    return SamplingMask(width, sampled, (lo, hi))


def partition_mask(acquired, rho, seed=0):
    """The (train, loss) boolean column arrays of an acquired mask.

    A fraction ``rho`` of the outer sampled columns, drawn by one
    permutation, goes to the train columns and the rest to the loss
    columns; both hold the center block, so together they cover the
    acquired mask exactly and overlap on the center only.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    outer = acquired.outer_indices()
    n = len(outer)
    if n == 0:
        raise ValueError("mask has no sampled columns outside the center")

    rng = np.random.default_rng(seed)
    lo, hi = acquired.center
    train = np.zeros(acquired.width, dtype=bool)
    train[outer[rng.permutation(n)[:int(round(rho * n))]]] = True
    loss = acquired.sampled & ~train
    train[lo:hi] = True
    return train, loss
