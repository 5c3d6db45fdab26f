"""The Dirac operator, the noncommutative line and ray integrals, the
Sobolev norm and the dump reader of the calculus layer (cdburgers.calculus).

No CLI stage uses this module, only the paper-facing API and the tests;
cdburgers.calculus serves its names on first use.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cdburgers.algebra import basis_mul_coeffs
from cdburgers.algebra_ext import CdElement, ComplexCdElement
from cdburgers.calculus import (_ARITY_CODE, _MAGIC, DiracSpec, Grid,
                                GridField, _moved, _segment_factor,
                                _separated, diff_axis, interval_increments)


def dirac_apply(f: GridField, spec: DiracSpec, slot: str = "x") -> GridField:
    """sigma f = sum_j i_j^* (df/dx_{xi(j)}) psi_j on the chosen point slot.

    Always returns an algebra-valued field at spec.level (scalar input is
    promoted to its i_0 component first).
    """
    axes = f._spatial_axes(slot)
    g = f.as_algebra(spec.level)
    h = f.grid.spacings
    out = np.zeros_like(g.values)
    for j in spec.active:
        a = spec.axis_for_basis(j, f.grid.n)
        d = diff_axis(g.values, axes[a], h[a]) * spec.weights[j]
        term = basis_mul_coeffs(j, d, spec.level)
        if j == 0:
            out += term
        else:
            out -= term  # i_j^* = -i_j off the real unit
    return GridField(f.grid, f.arity, out, spec.level)


def segment_integral(values: np.ndarray, h: float, i0: int, i1: int,
                     axis: int = 0) -> np.ndarray:
    """Integral from node i0 to node i1 along an axis (signed, additive)."""
    if i0 == i1:
        f = _moved(values, axis)
        return np.zeros(f.shape[1:], dtype=np.complex128)
    inc = _moved(interval_increments(values, h, axis), axis)
    lo, hi = (i0, i1) if i0 < i1 else (i1, i0)
    total = inc[lo:hi].sum(axis=0)
    return total if i0 < i1 else -total


def quad_weights(m: int, h: float) -> np.ndarray:
    """Node weights of the additive rule for a full-axis integral: each
    node's unit vector integrated with interval_increments."""
    return interval_increments(np.eye(m), h).sum(axis=0).real


@dataclass
class TailReport:
    """Certificate attached to a truncated ray integral."""

    r_covered: float
    decay_rate: float
    certificate_c: float
    bound: float


class PathError(ValueError):
    pass


def _as_element(coeffs: np.ndarray, level: int) -> ComplexCdElement:
    return ComplexCdElement(
        CdElement(level, coeffs.real.copy()),
        CdElement(level, coeffs.imag.copy()),
    )


def line_integral(f: GridField, w0: Sequence[float], x: Sequence[float],
                  spec: DiracSpec) -> ComplexCdElement:
    """Noncommutative line integral along the ascending-axis polyline from
    w0 to x.

    The segment along grid axis a contributes i_b psi_b^-1 N^-1 * (1-D
    integral of f over the segment), with b the active basis slot mapped to
    that axis and N the number of active slots, accumulated by left
    multiplication.  Both endpoints must be lattice nodes; traversing an
    axis with no active weight raises PathError.
    """
    if f.arity != "x":
        raise ValueError("line_integral expects a field over V")
    grid = f.grid
    i_from = list(grid.node_index(w0))
    i_to = grid.node_index(x)
    level = spec.level
    vals = f.values if f.is_algebra_valued else f.as_algebra(level).values
    if f.is_algebra_valued and f.level != level:
        raise ValueError("field level does not match DiracSpec level")
    total = np.zeros(1 << level, dtype=np.complex128)
    for a in range(grid.n):
        if i_from[a] == i_to[a]:
            continue
        try:
            j, scale = _segment_factor(spec, a, grid.n)
        except ValueError as e:
            raise PathError(f"zero-weight axis {a} traversed") from e
        sl = tuple(
            slice(None) if b == a else i_to[b] if b < a else i_from[b]
            for b in range(grid.n)
        )
        line = vals[sl]  # shape (m_a, 2^level)
        seg = segment_integral(line, grid.spacings[a], i_from[a], i_to[a])
        total += basis_mul_coeffs(j, seg * scale, level)
        i_from[a] = i_to[a]
    return _as_element(total, level)


def tail_integral(f: GridField, w: Sequence[float], axis: int,
                  spec: DiracSpec, decay_rate: float,
                  r_inf: float | None = None
                  ) -> tuple[ComplexCdElement, TailReport]:
    """Ray integral from w toward +infinity along a grid axis, truncated at
    the box edge (or earlier at radius r_inf), with an exponential-tail
    error certificate.

    The certificate constant C is measured from the samples as
    max |f(w + s e_axis)| exp(decay_rate * s); the reported bound is
    C exp(-decay_rate * r_covered)/decay_rate, scaled by the same
    psi^-1 N^-1 normalization as the returned value.
    """
    if f.arity != "x":
        raise ValueError("tail_integral expects a field over V")
    if decay_rate <= 0:
        raise ValueError("decay rate must be positive to certify the tail")
    grid = f.grid
    i_w = grid.node_index(w)
    h = grid.spacings[axis]
    lo, hi = grid.bounds[axis]
    start = i_w[axis]
    stop = grid.counts[axis] - 1
    if r_inf is not None:
        stop = min(stop, start + int(np.floor(r_inf / h + 1e-9)))
    if stop <= start:
        raise ValueError("empty ray: w sits on the outgoing box edge")
    j, scale = _segment_factor(spec, axis, grid.n)
    level = spec.level
    vals = f.values if f.is_algebra_valued else f.as_algebra(level).values
    sl = tuple(
        slice(start, stop + 1) if b == axis else i_w[b]
        for b in range(grid.n)
    )
    line = vals[sl]
    seg = segment_integral(line, h, 0, stop - start)
    value = _as_element(basis_mul_coeffs(j, seg * scale, level), level)
    s = h * np.arange(stop - start + 1)
    amps = np.sqrt((np.abs(line) ** 2).sum(axis=-1))
    cert = float(np.max(amps * np.exp(decay_rate * s)))
    r_cov = float(s[-1])
    bound = abs(scale) * cert * np.exp(-decay_rate * r_cov) / decay_rate
    return value, TailReport(r_cov, decay_rate, cert, bound)


def _box_integral(values: np.ndarray, weights: list[np.ndarray]) -> float:
    out = values
    for w in reversed(weights):
        out = np.tensordot(out, w, axes=([out.ndim - 1], [0]))
    return float(out.real)


def sobolev_norm(f: GridField, m: int, k: int, s: float = 2.0) -> float:
    """Discrete W_{s,m,k} norm of a field on [0,T] x V x V:

        ( sum_{m0 <= m} sum_{m1+m2 <= k} sum_{j,k axes}
            Int |d^{m0+m1+m2} f / dt^{m0} dx_j^{m1} dy_k^{m2}|^s )^{1/s}

    The axis sums run over x-axes j for m1 > 0 and y-axes k for m2 > 0;
    terms with a zero order contribute once (no axis sum for that slot).
    Derivatives of order >= 3 compose the first-derivative stencil.
    """
    if f.arity != "txy":
        raise ValueError("sobolev_norm expects a (t, x, y) field")
    if f.is_algebra_valued:
        raise ValueError("sobolev_norm expects a scalar field")
    if s <= 0:
        raise ValueError("exponent must be positive")
    grid = f.grid
    n = grid.n
    weights = [quad_weights(grid.t_count, grid.tau)] + [
        quad_weights(grid.counts[a], grid.spacings[a]) for a in range(n)] * 2
    x_axes = f._spatial_axes("x")
    y_axes = f._spatial_axes("y")
    total = 0.0
    for m0 in range(m + 1):
        base = f.values
        for _ in range(m0):
            base = diff_axis(base, 0, grid.tau)
        for m1 in range(k + 1):
            for m2 in range(k + 1 - m1):
                xs = range(n) if m1 > 0 else (None,)
                for jx in xs:
                    mid = base
                    if m1 > 0:
                        mid = diff_axis(
                            mid, x_axes[jx], grid.spacings[jx], order=m1
                        )
                    ys = range(n) if m2 > 0 else (None,)
                    for ky in ys:
                        term = mid
                        if m2 > 0:
                            term = diff_axis(
                                term, y_axes[ky], grid.spacings[ky], order=m2
                            )
                        total += _box_integral(np.abs(term) ** s, weights)
    return total ** (1.0 / s)


_ARITY_FROM = {v: k for k, v in _ARITY_CODE.items()}


def load_field(path: str) -> GridField:
    """Read a GridField written by dump_field (version 1) or dump_terms
    (version 2, expanded to the dense sum_t u_t(x) v_t(y) by _separated)."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a field dump")
        version, ac, kind, level, n = struct.unpack("<IBBBB", fh.read(8))
        if version not in (1, 2):
            raise ValueError(f"unsupported dump version {version}")
        arity = _ARITY_FROM[ac]
        t_max = t_count = None
        if arity == "txy":
            t_max, t_count = struct.unpack("<dQ", fh.read(16))
        bounds, counts = [], []
        for _ in range(n):
            lo, hi, c = struct.unpack("<ddQ", fh.read(24))
            bounds.append((lo, hi))
            counts.append(int(c))
        grid = Grid(tuple(bounds), tuple(counts), t_max, t_count)
        lev = level if kind == 1 else None

        def read(shape):
            return np.frombuffer(fh.read(16 * int(np.prod(shape))),
                                 dtype=np.complex128).reshape(shape)

        if version == 1:
            return GridField(grid, arity, read(grid.shape(arity, lev)).copy(),
                             lev)
        (r,) = struct.unpack("<I", fh.read(4))
        terms = [(read(grid.shape("x", lev)), read(grid.shape("x")))
                 for _ in range(r)]
    pairs = np.ix_(*[np.arange(k) for k in grid.counts * 2])
    return GridField(grid, "xy", _separated(*zip(*terms), pairs), lev)
