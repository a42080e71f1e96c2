"""Complex tensor file format, synthetic phantoms, and coil sensitivities.

Tensors are stored on disk in the "CKSP" container: magic bytes, a
length-prefixed JSON header, then little-endian interleaved float32
(re, im) pairs in row-major order. A tensor read back is held at the file's
precision, complex64; code that computes with it promotes it to complex128
where it meets complex128 operands.
"""

import json
import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

MAGIC = b"CKSP"
FORMAT_VERSION = 1


class CkspError(Exception):
    """Base error for the CKSP tensor container."""


class BadMagicError(CkspError):
    """File does not start with the CKSP magic bytes."""


class TruncatedFileError(CkspError):
    """Header or payload ends before the declared length."""


class PayloadMismatchError(CkspError):
    """Payload byte count disagrees with the header shape."""


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
        raise BadMagicError(f"{path!r} is not a CKSP file")
    (header_len,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + header_len:
        raise TruncatedFileError(f"{path!r}: header truncated")
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
        raise TruncatedFileError(
            f"{path!r}: payload has {len(payload)} bytes, header needs {expected}"
        )
    if len(payload) != expected:
        raise PayloadMismatchError(
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


def generate_phantom(rows, cols, n_ellipses=8, seed=0):
    """Build a seeded, ellipse-based synthetic slice in [0, 1].

    The first ellipse is a deterministic centered dome (peak at the image
    center); the remaining ``n_ellipses - 1`` are randomly placed
    constant-amplitude ellipses with signed amplitudes, giving internal
    structure. Output is real-valued (zero imaginary part).
    """
    if rows < 16 or cols < 16:
        raise ValueError(f"phantom extents must be >= 16, got {rows}x{cols}")
    if n_ellipses < 1:
        raise ValueError("n_ellipses must be >= 1")

    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:rows, 0:cols]
    # normalized coordinates in [-1, 1]
    y = (yy - (rows - 1) / 2.0) / ((rows - 1) / 2.0)
    x = (xx - (cols - 1) / 2.0) / ((cols - 1) / 2.0)

    # deterministic head ellipse: smooth dome so the maximum sits at the center
    r2 = (x / 0.92) ** 2 + (y / 0.92) ** 2
    img = np.where(r2 <= 1.0, 0.8 * (1.0 - 0.5 * r2), 0.0)

    for _ in range(n_ellipses - 1):
        cx = rng.uniform(-0.55, 0.55)
        cy = rng.uniform(-0.55, 0.55)
        ax = rng.uniform(0.08, 0.35)
        ay = rng.uniform(0.08, 0.35)
        theta = rng.uniform(0.0, np.pi)
        amp = rng.uniform(0.15, 0.45) * rng.choice([-1.0, 1.0])
        ct, st = np.cos(theta), np.sin(theta)
        xr = (x - cx) * ct + (y - cy) * st
        yr = -(x - cx) * st + (y - cy) * ct
        img = img + np.where((xr / ax) ** 2 + (yr / ay) ** 2 <= 1.0, amp, 0.0)

    img = np.clip(img, 0.0, 1.0)
    return img.astype(np.complex128)


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
