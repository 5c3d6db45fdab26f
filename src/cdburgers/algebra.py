"""Cayley-Dickson algebras A_r and their complexification.

The algebra A_{r+1} is built from A_r as pairs with the product

    (a, b) (c, d) = (a c - d* b, d a + b c*)

and conjugation (a, b)* = (a*, -b).  A_0 = R, so A_1 is C, A_2 the
quaternions, A_3 the octonions, and so on.  Elements are stored densely as
2^r coefficients on the basis i_0, ..., i_{2^r - 1} with i_0 = 1.

Everything in this module is exact at the level of basis combinatorics: the
product is a table of (index, sign) pairs precomputed once per level from
the doubling rule, so anticommutation and i_j^2 = -1 hold to the last bit.

The complexification adjoins a central imaginary unit **i** (distinct from
every i_j).  An element x + **i** y is represented by the pair (x, y); since
**i** is central, products reduce to (xu - yv) + **i**(xv + yu).

The numeric stages run only the tables and basis_mul_coeffs, kept here.
The general product mul_coeffs, conj_coeffs, the element classes and the
spec-level operations (cd_mul, pi_project, ...) live in algebra_ext.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from cdburgers import _served_by

MAX_LEVEL = 6

__getattr__ = _served_by(__name__, "cdburgers.algebra_ext", (
    "mul_coeffs", "conj_coeffs", "CdElement", "ComplexCdElement",
    "EmbeddingMap", "cd_mul", "cd_conj", "cd_norm_sq", "re_im", "pi_project",
    "euclid_products"))


def level_for(slots: int) -> int:
    """Smallest level with `slots` basis units (2^level >= slots), at least
    the quaternions."""
    return max(2, (slots - 1).bit_length())


@lru_cache(maxsize=None)
def _mul_tables(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis product tables (index, sign) for A_level.

    Built recursively from the doubling rule evaluated on basis pairs.
    Writing u_j = (e_j, 0) and v_j = (0, e_j) for the lower/upper halves of
    the doubled basis, the rule (a,b)(c,d) = (ac - d*b, da + bc*) gives

        u_j u_k = (e_j e_k, 0)
        u_j v_k = (0, e_k e_j)
        v_j u_k = (0, e_j e_k*)
        v_j v_k = (-e_k* e_j, 0)

    with e_k* = e_k for k = 0 and -e_k otherwise.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    if level == 0:
        return np.zeros((1, 1), dtype=np.intp), np.ones((1, 1), dtype=np.int8)
    idx0, sgn0 = _mul_tables(level - 1)
    half = 1 << (level - 1)
    n = 2 * half
    idx = np.empty((n, n), dtype=np.intp)
    sgn = np.empty((n, n), dtype=np.int8)
    conj_sign = np.where(np.arange(half) == 0, 1, -1).astype(np.int8)
    # u_j u_k = (e_j e_k, 0)
    idx[:half, :half] = idx0
    sgn[:half, :half] = sgn0
    # u_j v_k = (0, e_k e_j)
    idx[:half, half:] = idx0.T + half
    sgn[:half, half:] = sgn0.T
    # v_j u_k = (0, e_j e_k*)
    idx[half:, :half] = idx0 + half
    sgn[half:, :half] = sgn0 * conj_sign[np.newaxis, :]
    # v_j v_k = (-e_k* e_j, 0)
    idx[half:, half:] = idx0.T
    sgn[half:, half:] = -sgn0.T * conj_sign[np.newaxis, :]
    idx.setflags(write=False)
    sgn.setflags(write=False)
    return idx, sgn


def basis_mul_coeffs(j: int, b: np.ndarray, level: int) -> np.ndarray:
    """Left multiplication i_j * b on trailing-axis coefficients.

    Cheaper than mul_coeffs for the common case of a basis left factor:
    i_j i_k = sgn[j,k] i_{idx[j,k]} is a permutation with signs.
    """
    idx, sgn = _mul_tables(level)
    b = np.asarray(b)
    out = np.empty_like(b, dtype=np.result_type(b.dtype, np.float64))
    out[..., idx[j, :]] = b * sgn[j, :]
    return out
