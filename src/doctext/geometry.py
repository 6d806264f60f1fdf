"""Perspective rectification of quadrilateral image regions.

A text region detected in a photographed page is an arbitrary convex
quadrilateral.  Mapping it onto an axis-aligned raster takes a plane
homography: the 3x3 matrix sending the region's corners to the corners
of the destination rectangle.  This module estimates that matrix from
the four corner correspondences, applies it with bilinear resampling,
and reads and writes binary (P5) PGM images so results can be
inspected.

Conventions used throughout:

* image coordinates have x growing right and y growing down;
* pixel (i, j) of an array covers the unit square whose centre is
  (j + 0.5, i + 0.5);
* corners are ordered top-left, top-right, bottom-right, bottom-left.
"""

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateQuadError, FormatError, InputError

__all__ = [
    "Point",
    "Quad",
    "Homography",
    "GrayImage",
    "compute_homography",
    "rectify",
    "read_pgm",
    "write_pgm",
]


@dataclass(frozen=True)
class Point:
    """A 2-D point in image coordinates."""

    x: float
    y: float


@dataclass(frozen=True)
class Quad:
    """Four corners in top-left, top-right, bottom-right, bottom-left order.

    The corners must be in strictly convex position.  With y growing
    down, that winding makes every consecutive cross product positive,
    so the signed area is positive as well; collinear or self-crossing
    corner lists are rejected.
    """

    corners: tuple[Point, Point, Point, Point]

    def __post_init__(self):
        if len(self.corners) != 4:
            raise InputError("a quad needs exactly four corners")
        for p in self.corners:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise InputError("quad corners must be finite")
        crosses = []
        for i in range(4):
            a = self.corners[i]
            b = self.corners[(i + 1) % 4]
            c = self.corners[(i + 2) % 4]
            crosses.append((b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x))
        if not all(z > 0.0 for z in crosses):
            raise DegenerateQuadError(
                "degenerate quad: corners must be strictly convex in "
                "top-left, top-right, bottom-right, bottom-left order"
            )

    @classmethod
    def from_points(cls, pts) -> "Quad":
        """Build a quad from any iterable of four (x, y) pairs."""
        corners = tuple(Point(float(x), float(y)) for x, y in pts)
        return cls(corners)

    @classmethod
    def from_rect(cls, left: float, top: float, right: float, bottom: float) -> "Quad":
        """Axis-aligned rectangle as a quad."""
        return cls.from_points(
            [(left, top), (right, top), (right, bottom), (left, bottom)]
        )


@dataclass(frozen=True)
class Homography:
    """A plane projective map, stored as a 3x3 matrix with h[2, 2] = 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise InputError("homography matrix must be 3x3")
        if not np.all(np.isfinite(m)):
            raise InputError("homography matrix must be finite")
        if m[2, 2] == 0.0:
            raise InputError("homography matrix must have h33 != 0")
        object.__setattr__(self, "matrix", m / m[2, 2])

    def apply(self, xs, ys):
        """Map point arrays through the homography.

        Parameters
        ----------
        xs, ys : array_like
            Coordinates of the points to map.

        Returns
        -------
        (ndarray, ndarray)
            Mapped x and y coordinates, same shape as the input.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        h = self.matrix
        w = h[2, 0] * xs + h[2, 1] * ys + h[2, 2]
        if np.any(w == 0.0):
            raise InputError("point maps to infinity under this homography")
        u = (h[0, 0] * xs + h[0, 1] * ys + h[0, 2]) / w
        v = (h[1, 0] * xs + h[1, 1] * ys + h[1, 2]) / w
        return u, v

    def inverse(self) -> "Homography":
        try:
            inv = np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise DegenerateQuadError("homography is not invertible") from exc
        return Homography(inv)


def compute_homography(src: Quad, width: int, height: int) -> Homography:
    """Estimate the homography sending ``src`` onto a width x height rectangle.

    The four corners of ``src`` are mapped, in order, to (0, 0),
    (width, 0), (width, height) and (0, height).  Four point pairs pin
    down the eight free parameters exactly, so the 8x8 linear system is
    solved directly (Gaussian elimination with partial pivoting via
    ``numpy.linalg.solve``); no least squares is involved.

    Parameters
    ----------
    src : Quad
        Source corners in top-left, top-right, bottom-right,
        bottom-left order.
    width, height : int
        Destination rectangle size in pixels; both must be >= 1.

    Returns
    -------
    Homography
        Matrix H with H(corner_k) = destination corner k.

    Raises
    ------
    InputError
        If width or height is < 1.
    DegenerateQuadError
        If the correspondence system is singular.
    """
    if int(width) != width or int(height) != height or width < 1 or height < 1:
        raise InputError("destination size must be integers >= 1")
    dst = [(0.0, 0.0), (float(width), 0.0), (float(width), float(height)), (0.0, float(height))]

    # Each correspondence (x, y) -> (u, v) gives two rows of the
    # standard direct linear system in the eight unknowns h11..h32.
    a = np.zeros((8, 8), dtype=np.float64)
    b = np.zeros(8, dtype=np.float64)
    for k, (corner, (u, v)) in enumerate(zip(src.corners, dst)):
        x, y = corner.x, corner.y
        a[2 * k] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y]
        b[2 * k] = u
        a[2 * k + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y]
        b[2 * k + 1] = v
    try:
        h = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateQuadError("degenerate quad: correspondence system is singular") from exc
    matrix = np.append(h, 1.0).reshape(3, 3)
    return Homography(matrix)


@dataclass(frozen=True)
class GrayImage:
    """A grayscale raster with float64 intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise InputError("image must be a non-empty 2-D array")
        # written so that NaN, which min() and max() propagate, fails it
        if not (px.min() >= -1e-9 and px.max() <= 1.0 + 1e-9):
            raise InputError("image intensities must be finite and lie in [0, 1]")
        object.__setattr__(self, "pixels", np.clip(px, 0.0, 1.0))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _trusted_image(pixels: np.ndarray) -> GrayImage:
    """A GrayImage of ``pixels`` without the check and copy of ``GrayImage``:
    the caller knows them to be a non-empty 2-D float64 array in [0, 1]."""
    image = object.__new__(GrayImage)
    object.__setattr__(image, "pixels", pixels)
    return image


def _paint_boxes(boxes, shades, width: int, height: int) -> GrayImage:
    """A white width x height raster with each box filled by its shade, a
    constant in [0, 1], over the pixels its edges rounded outward cover."""
    px = np.ones((height, width), dtype=np.float64)
    for b, shade in zip(boxes, shades):
        # a slice stops at the raster's end by itself, but a negative end wraps
        rows = slice(max(0, math.floor(b.top)), max(0, math.ceil(b.bottom)))
        cols = slice(max(0, math.floor(b.left)), max(0, math.ceil(b.right)))
        px[rows, cols] = shade
    return _trusted_image(px)


def _sample_bilinear(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation with pixel centres at half-integers.

    Points outside the image clamp to the nearest edge pixel, so the
    sampler is defined on the whole plane.
    """
    h, w = pixels.shape
    fx = xs - 0.5
    fy = ys - 0.5
    x0 = np.floor(fx)
    y0 = np.floor(fy)
    tx = fx - x0
    ty = fy - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    v00 = pixels[y0c, x0c]
    v01 = pixels[y0c, x1c]
    v10 = pixels[y1c, x0c]
    v11 = pixels[y1c, x1c]
    top = v00 * (1.0 - tx) + v01 * tx
    bot = v10 * (1.0 - tx) + v11 * tx
    return top * (1.0 - ty) + bot * ty


def rectify(image: GrayImage, src: Quad, width: int, height: int) -> GrayImage:
    """Resample the quad ``src`` of ``image`` onto a width x height raster.

    Every destination pixel centre (u + 0.5, v + 0.5) is pulled back
    through the inverse homography and the source image is sampled
    bilinearly at the resulting point; samples outside the source clamp
    to the nearest edge pixel.  For an axis-aligned, integer-coordinate
    source rectangle at the same scale this reduces to an exact pixel
    crop.

    Parameters
    ----------
    image : GrayImage
        Source raster.
    src : Quad
        Region to rectify.
    width, height : int
        Output size in pixels.

    Returns
    -------
    GrayImage
        The rectified patch.
    """
    hmat = compute_homography(src, width, height)
    hinv = hmat.inverse()
    us, vs = np.meshgrid(
        np.arange(width, dtype=np.float64) + 0.5,
        np.arange(height, dtype=np.float64) + 0.5,
    )
    sx, sy = hinv.apply(us, vs)
    # a bilinear sample of [0, 1] values is in [0, 1] up to rounding, which the clip removes
    return _trusted_image(np.clip(_sample_bilinear(image.pixels, sx, sy), 0.0, 1.0))


# "P5", then width, height and maxval, each after whitespace and "#"
# comments (a comment runs to the end of its line and starts after
# whitespace), then exactly one whitespace byte before the raster
_PGM_SEP = rb"\s(?:\s|#[^\r\n]*+)*+"
_PGM_HEADER = re.compile(rb"P5" + (_PGM_SEP + rb"(\d++)") * 3 + rb"\s")


def read_pgm(path) -> GrayImage:
    """Load a binary (P5) PGM file as a GrayImage.

    Maxval up to 255 is accepted; intensities are scaled to [0, 1].  A
    malformed header, a short raster or a byte above maxval raises
    ``FormatError`` naming the file.
    """
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FormatError(f"{path}: not a binary PGM (P5) file, or a malformed header")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"{path}: PGM header number too long") from exc
    if width < 1 or height < 1:
        raise FormatError(f"{path}: PGM dimensions must be positive")
    if not 0 < maxval < 256:
        raise FormatError(f"{path}: only 8-bit PGM rasters are supported")
    raster = data[header.end() : header.end() + width * height]
    if len(raster) != width * height:
        raise FormatError(f"{path}: truncated PGM raster")
    px = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    brightest = int(px.max())
    if brightest > maxval:
        raise FormatError(f"{path}: PGM value {brightest} exceeds maxval {maxval}")
    # every byte is at most maxval, so every value lies in [0, 1]
    return _trusted_image(px.astype(np.float64) / float(maxval))


def write_pgm(image: GrayImage, path) -> None:
    """Write a GrayImage as a binary (P5) PGM file with maxval 255."""
    px = np.rint(image.pixels * 255.0).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + px.tobytes())
