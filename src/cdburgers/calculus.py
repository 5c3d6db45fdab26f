"""Grids, finite differences, the Dirac weights, additive quadrature and the
field dump format.

Conventions used throughout:

* A spatial grid covers a closed box V in R^n with uniform per-axis spacing.
  Fields are sampled on nodes and stored dense, C-contiguous.
* Field arity is one of "x" (functions on V), "xy" (functions on V x V,
  x-axes first, then y-axes), "txy" (a leading time axis over [0, T]).
* Scalar fields are complex128.  Algebra-valued fields carry a trailing
  coefficient axis of length 2^level with complex128 entries; since the
  central imaginary unit of the complexified algebra commutes with every
  basis generator, complex coefficients on the real basis i_0..i_{2^r-1}
  represent the complexification faithfully.
* Derivative stencils are 4th-order central in the interior and 2nd-order
  one-sided in the two cells nearest each boundary.  Composed operators
  therefore pollute a collar whose width is 2 cells per derivative
  application; refinement studies must exclude that collar (the reach is
  exposed so callers do not have to guess).
* 1-D quadrature is the interval-local cubic interpolatory rule: the
  increment over [x_k, x_{k+1}] is h(-f_{k-1} + 13 f_k + 13 f_{k+1} -
  f_{k+2})/24 in the interior and h(9 f_0 + 19 f_1 - 5 f_2 + f_3)/24 at the
  ends (mirrored).  Each increment is exact for cubics, so the composite
  rule is 4th order, and integrals are exactly additive under splitting a
  path at any node, which plain composite Simpson is not.

The numeric stages run only this module.  dirac_apply, the line, segment
and tail integrals (TailReport, PathError), quad_weights, sobolev_norm and
the dump reader load_field live in calculus_ext.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from cdburgers import _served_by
from cdburgers.algebra import MAX_LEVEL, level_for

ARITIES = ("x", "xy", "txy")

__getattr__ = _served_by(__name__, "cdburgers.calculus_ext", (
    "dirac_apply", "segment_integral", "quad_weights", "TailReport",
    "PathError", "line_integral", "tail_integral", "sobolev_norm",
    "load_field"))


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular lattice on a closed box, with an optional time
    axis [0, t_max] used by arity-"txy" fields."""

    bounds: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    t_max: float | None = None
    t_count: int | None = None

    def __post_init__(self):
        if not self.counts:
            raise ValueError("grid needs at least one axis")
        if len(self.bounds) != len(self.counts):
            raise ValueError("bounds/counts length mismatch")
        for (lo, hi), m in zip(self.bounds, self.counts):
            if not np.isfinite([lo, hi]).all():
                raise ValueError(f"axis bounds must be finite, got {(lo, hi)}")
            if not hi > lo:
                raise ValueError("degenerate axis bounds")
            if m < 2:
                raise ValueError("need at least 2 nodes per axis")
        if (self.t_max is None) != (self.t_count is None):
            raise ValueError("time axis needs both t_max and t_count")
        if self.t_count is not None and (self.t_count < 2
                                         or not 0 < self.t_max < np.inf):
            raise ValueError("bad time axis")

    @classmethod
    def box(cls, n, lo, hi, count, t_max=None, t_count=None) -> "Grid":
        return cls(((lo, hi),) * n, (count,) * n, t_max, t_count)

    @property
    def n(self) -> int:
        return len(self.bounds)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (m - 1) for (lo, hi), m in zip(self.bounds, self.counts)
        )

    @property
    def tau(self) -> float:
        if self.t_count is None:
            raise ValueError("grid has no time axis")
        return self.t_max / (self.t_count - 1)

    def axis(self, a: int) -> np.ndarray:
        lo, hi = self.bounds[a]
        return np.linspace(lo, hi, self.counts[a])

    def t_axis(self) -> np.ndarray:
        if self.t_count is None:
            raise ValueError("grid has no time axis")
        return np.linspace(0.0, self.t_max, self.t_count)

    def shape(self, arity: str, level: int | None = None) -> tuple[int, ...]:
        if arity == "x":
            s = self.counts
        elif arity == "xy":
            s = self.counts + self.counts
        elif arity == "txy":
            if self.t_count is None:
                raise ValueError("txy field on a grid without time axis")
            s = (self.t_count,) + self.counts + self.counts
        else:
            raise ValueError(f"unknown arity {arity!r}")
        if level is not None:
            s = s + (1 << level,)
        return s

    def node_index(self, point: Sequence[float]) -> tuple[int, ...]:
        """Indices of a point that must lie on the lattice (1e-9 h snap)."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.n,):
            raise ValueError("point dimension mismatch")
        out = []
        for a, (x, (lo, hi), m) in enumerate(
            zip(point, self.bounds, self.counts)
        ):
            if x < lo - 1e-12 or x > hi + 1e-12:
                raise ValueError(f"point outside box on axis {a}")
            h = (hi - lo) / (m - 1)
            k = round((x - lo) / h)
            if abs(lo + k * h - x) > 1e-9 * h:
                raise ValueError(f"point not on a grid node along axis {a}")
            out.append(int(min(max(k, 0), m - 1)))
        return tuple(out)


class GridField:
    """Dense samples of a scalar- or algebra-valued function on a Grid."""

    __slots__ = ("grid", "arity", "level", "values")

    def __init__(self, grid: Grid, arity: str, values: np.ndarray,
                 level: int | None = None):
        if arity not in ARITIES:
            raise ValueError(f"unknown arity {arity!r}")
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.shape != grid.shape(arity, level):
            raise ValueError(
                f"value shape {values.shape} does not match grid shape "
                f"{grid.shape(arity, level)}"
            )
        self.grid = grid
        self.arity = arity
        self.level = level  # None -> complex scalar field
        self.values = values

    @property
    def is_algebra_valued(self) -> bool:
        return self.level is not None

    @classmethod
    def zeros(cls, grid, arity, level=None) -> "GridField":
        return cls(grid, arity, np.zeros(grid.shape(arity, level)), level)

    @classmethod
    def from_function(cls, grid: Grid, arity: str,
                      fn: Callable[..., complex]) -> "GridField":
        """Sample fn on the open-meshgrid coordinates of the chosen arity.

        fn receives broadcastable coordinate arrays: (x1..xn) for "x",
        (x1..xn, y1..yn) for "xy", (t, x.., y..) for "txy".
        """
        axes = [grid.axis(a) for a in range(grid.n)]
        if arity == "x":
            coords = np.ix_(*axes)
        elif arity == "xy":
            coords = np.ix_(*axes, *axes)
        elif arity == "txy":
            coords = np.ix_(grid.t_axis(), *axes, *axes)
        else:
            raise ValueError(f"unknown arity {arity!r}")
        vals = np.asarray(fn(*coords), dtype=np.complex128)
        return cls(grid, arity, np.broadcast_to(vals, grid.shape(arity)).copy())

    def copy(self) -> "GridField":
        return GridField(self.grid, self.arity, self.values.copy(), self.level)

    def as_algebra(self, level: int) -> "GridField":
        """View a scalar field as algebra-valued (coefficient on i_0)."""
        if self.is_algebra_valued:
            if self.level != level:
                raise ValueError("level mismatch")
            return self
        vals = np.zeros(self.values.shape + (1 << level,), dtype=np.complex128)
        vals[..., 0] = self.values
        return GridField(self.grid, self.arity, vals, level)

    def _spatial_axes(self, slot: str) -> tuple[int, ...]:
        """Array axes addressed by derivative slot "x" or "y"."""
        n = self.grid.n
        off = 1 if self.arity == "txy" else 0
        if slot == "x":
            return tuple(range(off, off + n))
        if slot == "y":
            if self.arity == "x":
                raise ValueError('arity-"x" field has no y slot')
            return tuple(range(off + n, off + 2 * n))
        raise ValueError(f"unknown slot {slot!r}")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# finite-difference stencils
# ---------------------------------------------------------------------------

def _moved(values: np.ndarray, axis: int):
    return np.moveaxis(values, axis, 0)


def diff_axis(values: np.ndarray, axis: int, h: float, order: int = 1
              ) -> np.ndarray:
    """Finite-difference derivative along one array axis.

    order 1 and 2 use dedicated stencils (4th-order central interior,
    2nd-order one-sided in the outermost two cells); higher orders compose
    the first-derivative operator.
    """
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    if order == 1:
        return _d1(values, axis, h)
    if order == 2:
        return _d2(values, axis, h)
    for _ in range(order):
        values = _d1(values, axis, h)
    return values


def _d1(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    f = _moved(values, axis)
    m = f.shape[0]
    if m < 5:
        raise ValueError("grid too coarse for the 4th-order stencil")
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    out[1] = (f[2] - f[0]) / (2 * h)
    out[-2] = (f[-1] - f[-3]) / (2 * h)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return np.moveaxis(out, 0, axis)


def _d2(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    f = _moved(values, axis)
    m = f.shape[0]
    if m < 5:
        raise ValueError("grid too coarse for the 4th-order stencil")
    out = np.empty_like(f)
    out[2:-2] = (
        -f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]
    ) / (12 * h * h)
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h)
    out[1] = (f[0] - 2 * f[1] + f[2]) / (h * h)
    out[-2] = (f[-3] - 2 * f[-2] + f[-1]) / (h * h)
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def interior_slices(shape: tuple[int, ...], axes: Sequence[int],
                    collar: int) -> tuple[slice, ...]:
    """Slices that drop `collar` cells from both ends of the given axes."""
    sl = [slice(None)] * len(shape)
    for a in axes:
        if 2 * collar >= shape[a]:
            raise ValueError("collar swallows the whole axis")
        sl[a] = slice(collar, shape[a] - collar)
    return tuple(sl)


# ---------------------------------------------------------------------------
# Dirac-type operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiracSpec:
    """Weights psi_j and coordinate map xi for sigma f = sum_j i_j^*
    (d f / d x_{xi(j)}) psi_j.

    weights has length 2^level; xi maps basis index j to the 1-based
    coordinate whose derivative it carries (identity by default, meaning
    basis j differentiates coordinate j).  Entries with zero weight take no
    part.
    """

    level: int
    weights: tuple[float, ...]
    xi: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not 0 <= self.level <= MAX_LEVEL:
            raise ValueError("bad level")
        if len(self.weights) != 1 << self.level:
            raise ValueError("weights length must be 2^level")
        if not any(w != 0.0 for w in self.weights):
            raise ValueError("need at least one nonzero weight")
        if self.xi is None:
            object.__setattr__(
                self, "xi", tuple(range(1 << self.level))
            )
        if len(self.xi) != 1 << self.level:
            raise ValueError("xi length must be 2^level")

    @classmethod
    def standard(cls, n: int, level: int | None = None) -> "DiracSpec":
        """psi_j = 2^-1/2 for j = 1..n, zero otherwise, identity xi; by
        default at the smallest level holding i_0..i_n."""
        if level is None:
            level = level_for(n + 1)
        if (1 << level) <= n:
            raise ValueError(f"level {level} has too few units for n = {n}")
        w = [0.0] * (1 << level)
        for j in range(1, n + 1):
            w[j] = 2 ** -0.5
        return cls(level, tuple(w))

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(j for j, w in enumerate(self.weights) if w != 0.0)

    @property
    def n_active(self) -> int:
        return len(self.active)

    def axis_for_basis(self, j: int, n: int) -> int:
        """0-based grid axis differentiated by basis slot j."""
        coord = self.xi[j]
        if not 1 <= coord <= n:
            raise ValueError(
                f"xi({j}) = {coord} is not a coordinate of R^{n}"
            )
        return coord - 1

    def basis_for_axis(self, axis: int, n: int) -> int:
        """The active basis slot carrying grid axis `axis` (0-based)."""
        hits = [j for j in self.active if self.axis_for_basis(j, n) == axis]
        if len(hits) != 1:
            raise ValueError(
                f"axis {axis} must have exactly one active weight, "
                f"found {len(hits)}"
            )
        return hits[0]


# ---------------------------------------------------------------------------
# additive 4th-order quadrature
# ---------------------------------------------------------------------------


def interval_increments(values: np.ndarray, h: float, axis: int = 0
                        ) -> np.ndarray:
    """Per-interval integral increments along an axis (additive 4th-order
    interpolatory rule; see module docstring)."""
    f = _moved(values, axis)
    m = f.shape[0]
    if m < 2:
        raise ValueError("need at least 2 nodes to integrate")
    inc = np.empty((m - 1,) + f.shape[1:], dtype=np.complex128)
    if m == 2:
        inc[0] = 0.5 * h * (f[0] + f[1])
    elif m == 3:
        inc[0] = h * (5 * f[0] + 8 * f[1] - f[2]) / 12
        inc[1] = h * (-f[0] + 8 * f[1] + 5 * f[2]) / 12
    else:
        inc[0] = h * (9 * f[0] + 19 * f[1] - 5 * f[2] + f[3]) / 24
        inc[1:-1] = h * (-f[:-3] + 13 * f[1:-2] + 13 * f[2:-1] - f[3:]) / 24
        inc[-1] = h * (9 * f[-1] + 19 * f[-2] - 5 * f[-3] + f[-4]) / 24
    return np.moveaxis(inc, 0, axis)


def cumulative_integral(values: np.ndarray, h: float, axis: int = 0
                        ) -> np.ndarray:
    """Prefix integrals from node 0 to every node (same rule, vectorized)."""
    inc = interval_increments(values, h, axis)
    inc = _moved(inc, axis)
    out = np.zeros((inc.shape[0] + 1,) + inc.shape[1:], dtype=np.complex128)
    np.cumsum(inc, axis=0, out=out[1:])
    return np.moveaxis(out, 0, axis)


def _segment_factor(spec: DiracSpec, axis: int, n: int) -> tuple[int, float]:
    """(basis index, psi^-1 N^-1 scale) for a segment along a grid axis."""
    j = spec.basis_for_axis(axis, n)
    scale = 1.0 / (spec.weights[j] * spec.n_active)
    return j, scale


# ---------------------------------------------------------------------------
# dump format
# ---------------------------------------------------------------------------

_MAGIC = b"CDGF"
_ARITY_CODE = {"x": 1, "xy": 2, "txy": 3}


def _dump(path: str, version: int, grid: Grid, arity: str, level,
          payload) -> None:
    """dump_field's header, then each buffer of the payload in order."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<IBBBB", version, _ARITY_CODE[arity],
                                      0 if level is None else 1, level or 0,
                                      grid.n))
        if arity == "txy":
            fh.write(struct.pack("<dQ", grid.t_max, grid.t_count))
        for (lo, hi), c in zip(grid.bounds, grid.counts):
            fh.write(struct.pack("<ddQ", lo, hi, c))
        for buf in payload:
            fh.write(buf)


def dump_field(f: GridField, path: str) -> None:
    """Write a GridField with a fixed, documented byte layout.

    Layout (little-endian):
      magic   4 bytes  b"CDGF"
      u32     version (1 dense, 2 separated terms, see dump_terms)
      u8      arity code (1 = x, 2 = xy, 3 = txy)
      u8      value kind (0 = complex scalar, 1 = algebra coefficients)
      u8      level (0 for scalar fields)
      u8      spatial dimension n
      f64,u64 t_max, t_count (only when arity = txy)
      n times f64 lo, f64 hi, u64 count  (per spatial axis)
      payload version 1: complex128 values, C row-major, shape as per
              arity (trailing coefficient axis of length 2^level when
              kind = 1); version 2: u32 term count r, then per term t in
              order u_t, an x field of the value kind, and v_t, a scalar
              x field, both complex128 in C row-major order
    """
    _dump(path, 1, f.grid, f.arity, f.level, [np.ascontiguousarray(f.values)])


def dump_terms(path: str, grid: Grid, level, terms) -> None:
    """Write the xy field sum_t u_t(x) v_t(y) as its terms (u_t, v_t), in
    dump_field's version 2: O(r N^n) bytes, not N^{2n}."""
    _dump(path, 2, grid, "xy", level, [struct.pack("<I", len(terms))] + [
        np.ascontiguousarray(a, dtype=np.complex128)
        for term in terms for a in term])


def _separated(gs, V, index):
    """sum_s g_s(x) V_s(y) on the pair nodes index = (x indices, y indices),
    elementwise in order of s with any coefficient axis kept last; 0.0
    without factors."""
    n = len(index) // 2
    out = 0.0
    for g, v in zip(gs, V):
        out = out + g[index[:n]] * v[index[n:] + (None,) * (g.ndim - n)]
    return out
