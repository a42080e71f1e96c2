"""Complex tensor file format, synthetic phantoms, and coil sensitivities.

Tensors are stored on disk in the "CKSP" container: magic bytes, a
length-prefixed JSON header, then little-endian interleaved float32
(re, im) pairs in row-major order.

Precision: ``read_tensor`` returns complex64, the file's own precision; code
that computes with it promotes it to complex128 where it meets complex128
operands. ``generate_phantom`` returns a real float64 image and
``generate_sensitivities`` complex128 coil maps; ``write_tensor`` rounds
either to complex64 on the way to disk.
"""

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

MAGIC = b"CKSP"
FORMAT_VERSION = 1


class CkspError(Exception):
    """A CKSP tensor file that cannot be written or read, or is not a
    well-formed tensor; the message names the file."""


def write_tensor(t, path):
    """Write a real or complex tensor to `path` in the CKSP container format.

    The payload is the row-major complex64 image of `t`; values outside
    float32 range are an error rather than silently saturated.
    """
    with np.errstate(over="ignore"):  # the converted payload is checked instead
        data = np.asarray(t, dtype="<c8")
    if not np.all(np.isfinite(data)):
        raise ValueError("refusing to write a tensor that is non-finite in float32")
    header = {"version": FORMAT_VERSION, "shape": list(data.shape), "dtype": "c64"}
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload = data.tobytes()
    try:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(header_bytes)))
            f.write(header_bytes)
            f.write(payload)
    except OSError as exc:
        raise CkspError(f"cannot write tensor to {path!r}: {exc}") from exc


def read_tensor(path):
    """Read a CKSP tensor file back into a complex64 array, the payload's
    own precision, so every value is kept exactly.

    Any file that is not a well-formed CKSP tensor with finite values
    raises CkspError.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise CkspError(f"cannot read tensor from {path!r}: {exc}") from exc

    if len(raw) < 8 or raw[:4] != MAGIC:
        raise CkspError(f"{path!r} is not a CKSP file")
    (header_len,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + header_len:
        raise CkspError(f"{path!r}: header truncated")
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CkspError(f"{path!r}: malformed header: {exc}") from exc
    shape = header.get("shape") if isinstance(header, dict) else None
    if not isinstance(shape, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in shape):
        raise CkspError(f"{path!r}: header needs a \"shape\" list of integers")

    shape = tuple(shape)
    if any(s <= 0 for s in shape):
        raise CkspError(f"{path!r}: non-positive extent in shape {shape}")
    expected = math.prod(shape) * 8
    payload = raw[8 + header_len :]
    if len(payload) < expected:
        raise CkspError(
            f"{path!r}: payload has {len(payload)} bytes, header needs {expected}"
        )
    if len(payload) != expected:
        raise CkspError(
            f"{path!r}: payload has {len(payload)} bytes, header shape {shape} "
            f"needs exactly {expected}"
        )
    if not np.all(np.isfinite(np.frombuffer(payload, dtype="<f4"))):
        raise CkspError(f"{path!r}: non-finite values in the payload")
    return np.frombuffer(payload, dtype="<c8").astype(np.complex64).reshape(shape)


@dataclass
class DatasetManifest:
    """Index of a generated dataset: slice files plus generation parameters."""

    rows: int
    cols: int
    n_coils: int
    n_ellipses: int
    seed: int
    slices: list = field(default_factory=list)
    sens_path: str = "sens.cksp"
    created: str = ""

    def to_json(self):
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; a missing, unknown or mistyped field
        raises ValueError."""
        try:
            manifest = cls(**json.loads(text))
        except TypeError as exc:  # not an object, or a missing or unknown field
            raise ValueError(f"not a dataset manifest: {exc}") from exc
        wrong = [f.name for f in fields(cls) if type(getattr(manifest, f.name)) is not f.type]
        if wrong or not all(type(p) is str for p in manifest.slices):
            raise ValueError(f"wrong type in the manifest fields {wrong or ['slices']}")
        return manifest

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json())

    def validate(self, root):
        """Check every referenced file exists under `root`."""
        missing = [p for p in [self.sens_path] + list(self.slices)
                   if not os.path.exists(os.path.join(root, p))]
        if missing:
            raise FileNotFoundError(f"manifest references missing files: {missing}")


@functools.lru_cache(maxsize=4)
def _phantom_grid(rows, cols):
    """Read-only normalized pixel coordinates in [-1, 1] of a rows x cols
    phantom, as a (rows, 1) column of y and a (cols,) row of x, and its
    head dome."""
    y = (np.arange(rows) - (rows - 1) / 2.0) / ((rows - 1) / 2.0)
    x = (np.arange(cols) - (cols - 1) / 2.0) / ((cols - 1) / 2.0)
    # deterministic head ellipse: smooth dome so the maximum sits at the center
    r2 = (x / 0.92) ** 2 + (y[:, None] / 0.92) ** 2
    dome = np.where(r2 <= 1.0, 0.8 * (1.0 - 0.5 * r2), 0.0)
    for a in (y, x, dome):
        a.flags.writeable = False
    return y[:, None], x, dome


# low ends and widths of the six uniform draws of a random ellipse: center
# x and y, semi-axes x and y, rotation, amplitude magnitude
_ELLIPSE_LOW = np.array([-0.55, -0.55, 0.08, 0.08, 0.0, 0.15])
_ELLIPSE_SPAN = np.array([0.55, 0.55, 0.35, 0.35, np.pi, 0.45]) - _ELLIPSE_LOW


def generate_phantom(rows, cols, n_ellipses=8, seed=0):
    """Build a seeded, ellipse-based synthetic slice in [0, 1].

    The first ellipse is a deterministic centered dome (peak at the image
    center); the remaining ``n_ellipses - 1`` are randomly placed
    constant-amplitude ellipses with signed amplitudes, giving internal
    structure. Output is a real float64 image.

    Each ellipse is tested only on its bounding box (that of the circle of
    radius ``max(ax, ay)``), with the arithmetic of a test on the whole
    grid, and the ellipses are added in draw order, so every pixel sums
    and rounds as it would with the whole grid.

    The returned image is the copy of the cached dome that the ellipses are
    added to, allocated first and the only image-sized array of a call: the
    per-ellipse temporaries are box-sized, so a call frees no image-sized
    block for the long-lived arrays of a desk set-up (a phantom, its
    k-space and its zero-filled image per slice) to split.
    """
    if rows < 16 or cols < 16:
        raise ValueError(f"phantom extents must be >= 16, got {rows}x{cols}")
    if n_ellipses < 1:
        raise ValueError("n_ellipses must be >= 1")

    rng = np.random.default_rng(seed)
    y, x, dome = _phantom_grid(rows, cols)
    hr, hc = (rows - 1) / 2.0, (cols - 1) / 2.0
    img = dome.copy()
    for _ in range(n_ellipses - 1):
        # rng.uniform(low, high) is low + (high - low) * rng.random(), and
        # rng.choice of two values draws rng.integers(2): the same stream
        cx, cy, ax, ay, theta, amp = (
            _ELLIPSE_LOW + _ELLIPSE_SPAN * rng.random(6)).tolist()
        amp *= (-1.0, 1.0)[rng.integers(2)]
        ct, st = np.cos(theta), np.sin(theta)
        # the rows and columns within max(ax, ay) of the center, widened by
        # a pixel on each side so that no rounding in the test reaches past
        r = max(ax, ay)
        i0, i1 = max(int((cy - r + 1.0) * hr) - 1, 0), min(int((cy + r + 1.0) * hr) + 2, rows)
        j0, j1 = max(int((cx - r + 1.0) * hc) - 1, 0), min(int((cx + r + 1.0) * hc) + 2, cols)
        dx, dy = x[j0:j1] - cx, y[i0:i1] - cy
        xr = dx * ct + dy * st
        yr = dy * ct - dx * st  # rounds as -dx * st + dy * ct does
        box = img[i0:i1, j0:j1]
        np.add(box, amp, out=box, where=(xr / ax) ** 2 + (yr / ay) ** 2 <= 1.0)
    np.clip(img, 0.0, 1.0, out=img)
    return img


def generate_sensitivities(n_coils, rows, cols, seed=0):
    """Generate smooth complex coil maps normalized so sum_c |S_c|^2 == 1.

    Coils are Gaussian magnitude profiles centered on a circle around the
    field of view with a mild per-coil linear phase. Support is the full
    image, so the normalization holds at every pixel. ``n_coils == 1``
    yields a unit-magnitude map.
    """
    if n_coils < 1:
        raise ValueError("n_coils must be >= 1")
    if rows < 2 or cols < 2:
        raise ValueError(f"sensitivity extents must be >= 2, got {rows}x{cols}")

    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:rows, 0:cols]
    y = (yy - (rows - 1) / 2.0) / ((rows - 1) / 2.0)
    x = (xx - (cols - 1) / 2.0) / ((cols - 1) / 2.0)

    phase0 = rng.uniform(0.0, 2 * np.pi)
    width = 0.9
    # one (x, y) phase slope pair per coil, drawn in coil order
    slope = rng.uniform(-1.0, 1.0, size=(n_coils, 2, 1, 1))
    ang = (phase0 + 2 * np.pi * np.arange(n_coils) / n_coils)[:, None, None]
    cx, cy = 1.1 * np.cos(ang), 1.1 * np.sin(ang)
    d2 = (x - cx) ** 2 + (y - cy) ** 2
    mag = np.exp(-d2 / (2 * width**2))
    # smooth linear phase, distinct per coil
    maps = mag * np.exp(1j * (slope[:, 0] * x + slope[:, 1] * y))

    norm = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    maps /= norm[None, :, :]
    return maps
