"""The general product, the element classes and the spec-level operations
of the Cayley-Dickson algebras (cdburgers.algebra).  mul_coeffs rearranges
the basis product table as a gather table, so every product is one einsum,
on real, complex or object (sympy) coefficients alike.

Only the paper-facing API, the quaternion kernel variant, algebra-check,
translate and the tests use this module; cdburgers.algebra serves its
names on first use.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Number
from typing import Sequence

import numpy as np

from cdburgers.algebra import (MAX_LEVEL, _mul_tables, basis_mul_coeffs,
                               level_for)


@lru_cache(maxsize=None)
def _gather_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table (P, S) with i_j i_{P[m,j]} = S[m,j] i_m.

    Left multiplication by i_j permutes the basis with signs, so exactly one
    right index P[m,j] meets each (m, j).  S stays int8, so object arrays
    see Python ints.
    """
    idx, sgn = _mul_tables(level)
    perm = np.argsort(idx, axis=1)  # idx[j, perm[j, m]] == m
    P, S = perm.T.copy(), np.take_along_axis(sgn, perm, axis=1).T.copy()
    P.setflags(write=False)
    S.setflags(write=False)
    return P, S


def mul_coeffs(a: np.ndarray, b: np.ndarray, level: int) -> np.ndarray:
    """Product of coefficient arrays along the trailing axis.

    out[m] = Σ_j S[m,j] a[j] b[P[m,j]] with the gather table (P, S), one
    einsum over the gathered b (B·4^level entries for B elements).
    Broadcasts over leading axes, so grid-shaped batches of algebra elements
    multiply in one call.  dtype may be real, complex or object; complex dtype
    realizes the complexification (the central unit is the complex i of the
    coefficients, which commutes with everything by construction).
    """
    a, b = np.asarray(a), np.asarray(b)
    n = 1 << level
    if a.shape[-1] != n or b.shape[-1] != n:
        raise ValueError("coefficient length does not match level")
    P, S = _gather_table(level)
    gathered = b.astype(np.result_type(a.dtype, b.dtype, np.float64),
                        copy=False)[..., P]
    gathered *= S  # in place: the gathered b is the largest temporary
    return np.einsum("...j,...mj->...m", a, gathered)


def conj_coeffs(z: np.ndarray) -> np.ndarray:
    """Cayley-Dickson conjugation on trailing-axis coefficients."""
    out = -np.asarray(z).copy()
    out[..., 0] = -out[..., 0]
    return out


class CdElement:
    """An element of A_r with dense real coefficients.

    Args:
        level: doubling level r (0 <= r <= 6).
        coeffs: sequence of 2^r real scalars on the basis i_0..i_{2^r-1}.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Sequence[float] | np.ndarray):
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
        c = np.asarray(coeffs, dtype=np.float64)
        if c.shape != (1 << level,):
            raise ValueError(
                f"expected {1 << level} coefficients for level {level}, "
                f"got shape {c.shape}"
            )
        self.level = level
        self.coeffs = c

    @classmethod
    def zero(cls, level: int) -> "CdElement":
        return cls(level, np.zeros(1 << level))

    @classmethod
    def basis(cls, level: int, j: int) -> "CdElement":
        """The basis element i_j."""
        c = np.zeros(1 << level)
        c[j] = 1.0
        return cls(level, c)

    @classmethod
    def scalar(cls, level: int, value: float) -> "CdElement":
        c = np.zeros(1 << level)
        c[0] = value
        return cls(level, c)

    def copy(self) -> "CdElement":
        return CdElement(self.level, self.coeffs.copy())

    def promoted(self, level: int) -> "CdElement":
        """The same element viewed in a higher-level algebra."""
        if level < self.level:
            raise ValueError("cannot demote an element")
        c = np.zeros(1 << level)
        c[: 1 << self.level] = self.coeffs
        return CdElement(level, c)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "CdElement") -> None:
        if not isinstance(other, CdElement):
            raise TypeError(f"expected CdElement, got {type(other).__name__}")
        if other.level != self.level:
            raise ValueError(
                f"level mismatch: {self.level} vs {other.level}"
            )

    def __add__(self, other):
        if isinstance(other, Number):
            other = CdElement.scalar(self.level, other)
        self._check(other)
        return CdElement(self.level, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Number):
            other = CdElement.scalar(self.level, other)
        self._check(other)
        return CdElement(self.level, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CdElement(self.level, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Number):
            return CdElement(self.level, self.coeffs * other)
        self._check(other)
        return CdElement(
            self.level, mul_coeffs(self.coeffs, other.coeffs, self.level)
        )

    def __rmul__(self, other):
        if isinstance(other, Number):
            return CdElement(self.level, other * self.coeffs)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, CdElement)
            and other.level == self.level
            and np.array_equal(other.coeffs, self.coeffs)
        )

    def __hash__(self):
        return hash((self.level, self.coeffs.tobytes()))

    def conj(self) -> "CdElement":
        return CdElement(self.level, conj_coeffs(self.coeffs))

    def norm_sq(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    @property
    def re(self) -> float:
        return float(self.coeffs[0])

    def __repr__(self):
        terms = [
            f"{c:+g}*i{j}" for j, c in enumerate(self.coeffs) if c != 0.0
        ]
        body = " ".join(terms) if terms else "0"
        return f"CdElement(level={self.level}, {body})"


class ComplexCdElement:
    """x + **i** y with x, y in A_r and a central imaginary unit **i**."""

    __slots__ = ("re_part", "im_part")

    def __init__(self, re_part: CdElement, im_part: CdElement):
        if re_part.level != im_part.level:
            raise ValueError("re/im levels differ")
        self.re_part = re_part
        self.im_part = im_part

    @property
    def level(self) -> int:
        return self.re_part.level

    @classmethod
    def from_real(cls, z: CdElement) -> "ComplexCdElement":
        return cls(z, CdElement.zero(z.level))

    @classmethod
    def central_unit(cls, level: int) -> "ComplexCdElement":
        """The central imaginary unit **i** itself."""
        return cls(CdElement.zero(level), CdElement.scalar(level, 1.0))

    @property
    def complex_coeffs(self) -> np.ndarray:
        return self.re_part.coeffs + 1j * self.im_part.coeffs

    def _coerce(self, other):
        if isinstance(other, ComplexCdElement):
            return other
        if isinstance(other, CdElement):
            return ComplexCdElement.from_real(other)
        if isinstance(other, Number):
            z = complex(other)
            return ComplexCdElement(
                CdElement.scalar(self.level, z.real),
                CdElement.scalar(self.level, z.imag),
            )
        raise TypeError(f"cannot combine with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return ComplexCdElement(
            self.re_part + o.re_part, self.im_part + o.im_part
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return ComplexCdElement(
            self.re_part - o.re_part, self.im_part - o.im_part
        )

    def __neg__(self):
        return ComplexCdElement(-self.re_part, -self.im_part)

    def __mul__(self, other):
        o = self._coerce(other)
        x, y, u, v = self.re_part, self.im_part, o.re_part, o.im_part
        return ComplexCdElement(x * u - y * v, x * v + y * u)

    def __rmul__(self, other):
        # scalars and reals commute past **i**, so the reversed product only
        # needs the algebra factors swapped
        o = self._coerce(other)
        return o * self

    def conj(self) -> "ComplexCdElement":
        """(x + **i** y)* = x* - **i** y."""
        return ComplexCdElement(self.re_part.conj(), -self.im_part)

    def norm_sq(self) -> float:
        return self.re_part.norm_sq() + self.im_part.norm_sq()

    def __eq__(self, other):
        return (
            isinstance(other, ComplexCdElement)
            and other.re_part == self.re_part
            and other.im_part == self.im_part
        )

    def __repr__(self):
        return f"ComplexCdElement({self.re_part!r}, {self.im_part!r})"


class EmbeddingMap:
    """Choice of basis slots used to embed R^n points, z = Σ x_j i_{l_j}."""

    __slots__ = ("indices", "level")

    def __init__(self, indices: Sequence[int], level: int):
        indices = tuple(int(j) for j in indices)
        if len(set(indices)) != len(indices):
            raise ValueError("embedding indices must be pairwise distinct")
        if indices and max(indices) >= 1 << level:
            raise ValueError("embedding index out of range for level")
        if len(indices) > 1 << level:
            raise ValueError("more indices than basis slots")
        self.indices = indices
        self.level = level

    @property
    def n(self) -> int:
        return len(self.indices)

    @classmethod
    def default(cls, n: int) -> "EmbeddingMap":
        """l_j = j - 1 (the first coordinate on the real axis i_0), at the
        smallest level holding the n slots."""
        return cls(tuple(range(n)), level_for(n))

    def embed(self, x: Sequence[float]) -> CdElement:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected point in R^{self.n}")
        c = np.zeros(1 << self.level)
        c[list(self.indices)] = x
        return CdElement(self.level, c)

    def extract(self, z: CdElement) -> np.ndarray:
        """x_j = pi_project(l_j, z) for each slot."""
        return np.array([pi_project(j, z) for j in self.indices])


# -- spec-level operations -------------------------------------------------


def cd_mul(a: CdElement, b: CdElement) -> CdElement:
    """The Cayley-Dickson product a·b (levels must agree)."""
    return a * b


def cd_conj(z):
    """Conjugation: real part kept, every imaginary coefficient negated."""
    return z.conj()


def cd_norm_sq(z) -> float:
    """|z|² = Σ coeff², and |x + **i**y|² = |x|² + |y|²."""
    return z.norm_sq()


def re_im(z: CdElement) -> tuple[float, CdElement]:
    """(Re z, Im z) with Re w = (w + w*)/2 and Im w = w - Re w."""
    re = 0.5 * (z + z.conj())
    im = z - re
    return re.re, im


def _pi_project_coeffs(j: int, coeffs: np.ndarray, level: int):
    """Literal evaluation of the projection formulas on coefficient arrays.

    pi_j(z) = ( -z i_j + i_j (2^t - 2)^{-1} { -z + Σ_{k>=1} i_k (z i_k*) } )/2
    for j >= 1, and
    pi_0(z) = (  z     +     (2^t - 2)^{-1} { -z + Σ_{k>=1} i_k (z i_k*) } )/2.

    The result of either formula is a multiple of i_0 carrying the j-th
    coefficient; only algebra products and sums are used, no coefficient
    reads, so this really exercises the identities.
    """
    n = 1 << level
    acc = -coeffs.astype(np.result_type(coeffs.dtype, np.float64), copy=True)
    for k in range(1, n):
        ik = np.zeros(n)
        ik[k] = 1.0
        z_ikconj = mul_coeffs(coeffs, conj_coeffs(ik), level)
        acc = acc + basis_mul_coeffs(k, z_ikconj, level)
    acc = acc / (n - 2)
    if j == 0:
        out = 0.5 * (coeffs + acc)
    else:
        ij = np.zeros(n)
        ij[j] = 1.0
        out = 0.5 * (-mul_coeffs(coeffs, ij, level) + basis_mul_coeffs(j, acc, level))
    return out


def pi_project(j: int, z: CdElement | ComplexCdElement):
    """The j-th coordinate projection, evaluated by its defining formula.

    Returns a real for CdElement input, a complex for ComplexCdElement
    (the operator is C-homogeneous, so it acts on complex coefficients
    unchanged).  Levels 0 and 1 are promoted to level 2 first, since the
    formula divides by 2^t - 2.
    """
    level = z.level
    if isinstance(z, ComplexCdElement):
        coeffs = z.complex_coeffs
    else:
        coeffs = z.coeffs
    if not 0 <= j < len(coeffs):
        raise ValueError(f"basis index {j} out of range at level {level}")
    if level < 2:
        wide = np.zeros(4, dtype=coeffs.dtype)
        wide[: len(coeffs)] = coeffs
        coeffs, level = wide, 2
    out = _pi_project_coeffs(j, coeffs, level)
    value = out[0]
    return complex(value) if np.iscomplexobj(out) else float(value)


def euclid_products(
    x: Sequence[float],
    y: Sequence[float],
    emb: EmbeddingMap,
    cross: bool = False,
):
    """Euclidean scalar product (and for n = 3 the cross product) via the
    algebra: (x, y) = Re(z(x) z*(y)) and x × y = Im(z(x) z(y)).

    The cross product requires n = 3 and an index triple with
    i_{l_1} i_{l_2} = i_{l_3}.
    """
    zx = emb.embed(x)
    zy = emb.embed(y)
    scalar, _ = re_im(zx * zy.conj())
    if not cross:
        return scalar, None
    if emb.n != 3:
        raise ValueError("cross product needs n = 3")
    l1, l2, l3 = emb.indices
    idx, sgn = _mul_tables(emb.level)
    if idx[l1, l2] != l3 or sgn[l1, l2] != 1:
        raise ValueError(
            "cross product needs i_{l1} i_{l2} = i_{l3} for the index triple"
        )
    _, im = re_im(zx * zy)
    return scalar, emb.extract(im)
