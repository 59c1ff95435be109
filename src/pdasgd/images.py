"""Synthetic grey-scale images, file loaders, and instance construction.

Synthetic images are a black background with one uniformly placed bright
square covering ~20% of the pixels (side ``floor(sqrt(0.2 * side^2))``);
background intensities are U[0,1), foreground U[0,10).  Draw order per
image (one SplitMix64 stream per seed): square row offset, square column
offset, all background pixels row-major, then all foreground pixels
row-major — so images replay bit-for-bit from their seed.

The ground cost between two same-size images is squared Euclidean distance
between pixel grid coordinates, normalized so the largest entry is 1.

Supported file formats: IDX3-ubyte image stacks, binary PGM (P5), and plain
CSV matrices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CostMatrix, Distribution
from .rng import SplitMix64

IDX_IMAGE_MAGIC = 0x00000803
_MAX_DIM = 1 << 24


class IdxFormatError(ValueError):
    """Malformed IDX payload."""


@dataclass(frozen=True)
class ImageInstance:
    """Finite nonnegative intensity grid with at least one positive pixel."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.pixels, dtype=np.float64)
        if p.ndim != 2 or p.size == 0:
            raise ValueError("pixels must be a nonempty 2-d grid")
        bad = np.argwhere(~np.isfinite(p))
        if bad.size:
            named = ", ".join(f"({r}, {c}) = {p[r, c]}" for r, c in bad[:5])
            more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
            raise ValueError(f"pixel intensities must be finite, got non-finite pixels (row, col) {named}{more}")
        if np.any(p < 0):
            raise ValueError("pixel intensities must be nonnegative")
        if float(p.max()) <= 0:
            raise ValueError("image must contain at least one positive pixel")
        with np.errstate(over="ignore"):  # finite nonnegative pixels sum to a finite total or to inf
            if not np.isfinite(total := p.sum()):
                raise ValueError(f"pixel intensities must sum to a finite total, got {total}; rescale the image")
        p.flags.writeable = False
        object.__setattr__(self, "pixels", p)


def foreground_side(side: int) -> int:
    """Side of the bright square: floor(sqrt(0.2 * side^2))."""
    return int(np.floor(np.sqrt(0.2 * side * side)))


def gen_synthetic_image(side: int, seed: int) -> ImageInstance:
    """Random square-on-black image, deterministic per seed."""
    if side < 2:
        raise ValueError("side must be at least 2")
    fg = foreground_side(side)
    if fg < 1:
        raise ValueError(f"side {side} is too small to fit the foreground square")
    rng = SplitMix64(seed)
    row0 = rng.next_index(side - fg + 1)
    col0 = rng.next_index(side - fg + 1)
    pixels = rng.doubles(side * side).reshape(side, side)
    fg_vals = 10.0 * rng.doubles(fg * fg).reshape(fg, fg)
    pixels[row0 : row0 + fg, col0 : col0 + fg] = fg_vals
    return ImageInstance(pixels)


def grid_cost_matrix(height: int, width: int) -> CostMatrix:
    """Squared Euclidean distances between pixel coordinates, row-major, normalized so the largest entry is 1.

    The row and the column differences are squared and added separately:
    every entry is an integer, so the sums are exact.
    """
    rows = np.repeat(np.arange(height, dtype=np.float64), width)
    cols = np.tile(np.arange(width, dtype=np.float64), height)
    c = np.subtract.outer(rows, rows)
    c *= c
    d = np.subtract.outer(cols, cols)
    d *= d
    c += d
    peak = c.max()  # 0 only on a 1 x 1 grid, whose cost stays 0
    if peak > 0:
        c /= peak
    c.flags.writeable = False  # CostMatrix keeps a read-only array as it is
    return CostMatrix(c)


def image_distribution(img: ImageInstance) -> Distribution:
    """The flattened intensities, normalized to total mass 1."""
    return Distribution(img.pixels.ravel() / float(img.pixels.sum()))


def image_to_instance(img: ImageInstance) -> tuple[Distribution, CostMatrix]:
    """Flattened, normalized intensity distribution plus the grid cost."""
    return image_distribution(img), grid_cost_matrix(*img.pixels.shape)


# -- file loaders -------------------------------------------------------------


def _idx_frames(path) -> np.ndarray:
    """The uint8 (count, height, width) frames of an IDX3-ubyte stack (magic 0x00000803, big-endian dims), a view of its bytes."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise IdxFormatError(f"IDX header needs 16 bytes, file has {len(raw)}")
    magic, count, height, width = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(f"bad IDX magic 0x{magic:08X}, expected 0x{IDX_IMAGE_MAGIC:08X}")
    if max(count, height, width) > _MAX_DIM or min(count, height, width) < 1:
        raise IdxFormatError(f"unreasonable IDX dimensions {count}x{height}x{width}")
    expected = 16 + count * height * width
    if len(raw) < expected:
        raise IdxFormatError(
            f"truncated IDX payload: missing {expected - len(raw)} bytes "
            f"for {count} images of {height}x{width}"
        )
    return np.frombuffer(raw, dtype=np.uint8, count=count * height * width, offset=16).reshape(count, height, width)


def load_idx(path) -> list[ImageInstance]:
    """Images from an IDX3-ubyte stack, one per frame."""
    return [ImageInstance(frame) for frame in _idx_frames(path)]


def load_pgm(path) -> ImageInstance:
    """Binary PGM (P5) image; 1- or 2-byte samples, comments allowed."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise ValueError("not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        try:
            fields.append(int(raw[start:pos]))
        except ValueError:
            raise ValueError(f"PGM header field {raw[start:pos]!r} is not an integer") from None
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"PGM dimensions {width}x{height} must be positive")
    if not 0 < maxval < 65536:
        raise ValueError(f"PGM maxval {maxval} out of range")
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    count = width * height
    available = (len(raw) - pos) // dtype.itemsize
    if available < count:
        raise ValueError(f"truncated PGM payload: expected {count} samples, got {available}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    return ImageInstance(data.reshape(height, width).astype(np.float64))


def load_csv_matrix(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=np.float64))


def save_csv_matrix(path, matrix: np.ndarray) -> None:
    np.savetxt(path, np.asarray(matrix, dtype=np.float64), delimiter=",", fmt="%.17g")


def load_image_file(path) -> ImageInstance:
    """Load a single image by extension: .csv, .pgm, or IDX (the first frame, the only one decoded)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return ImageInstance(load_csv_matrix(path))
    if suffix == ".pgm":
        return load_pgm(path)
    return ImageInstance(_idx_frames(path)[0])
