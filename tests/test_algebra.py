from __future__ import annotations

import numpy as np
import pytest

from cdburgers.algebra import (
    CdElement,
    ComplexCdElement,
    EmbeddingMap,
    cd_conj,
    cd_mul,
    cd_norm_sq,
    euclid_products,
    mul_coeffs,
    pi_project,
    re_im,
    _mul_tables,
)

from oracles import oracle_basis_product, oracle_mul, reference_mul_coeffs


def random_element(rng, level):
    return CdElement(level, rng.standard_normal(1 << level))


def test_quaternion_basis_product():
    i1 = CdElement.basis(2, 1)
    i2 = CdElement.basis(2, 2)
    assert cd_mul(i1, i2) == CdElement.basis(2, 3)


def test_identity_element():
    rng = np.random.default_rng(11)
    for level in (0, 1, 2, 3, 4):
        z = random_element(rng, level)
        one = CdElement.basis(level, 0)
        assert cd_mul(one, z) == z
        assert cd_mul(z, one) == z


def test_imaginary_square():
    i5 = CdElement.basis(3, 5)
    assert cd_mul(i5, i5) == -CdElement.basis(3, 0)


def test_octonion_entry_matches_doubling_oracle():
    # frozen from the recursive-pair oracle: i_3 i_5 = -i_6 at level 3
    assert oracle_basis_product(3, 3, 5) == (6, -1)
    got = cd_mul(CdElement.basis(3, 3), CdElement.basis(3, 5))
    assert got == -CdElement.basis(3, 6)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
def test_full_tables_match_oracle(level):
    idx, sgn = _mul_tables(level)
    n = 1 << level
    for j in range(n):
        for k in range(n):
            assert (idx[j, k], int(sgn[j, k])) == oracle_basis_product(level, j, k)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_dense_product_matches_oracle(level):
    rng = np.random.default_rng(5 + level)
    for _ in range(25):
        a = rng.standard_normal(1 << level)
        b = rng.standard_normal(1 << level)
        want = np.array([float(v) for v in oracle_mul(level, a, b)])
        np.testing.assert_allclose(mul_coeffs(a, b, level), want, atol=1e-12)


@pytest.mark.parametrize("level", range(7))
def test_mul_coeffs_matches_per_slot_reference(level):
    rng = np.random.default_rng(40 + level)
    n = 1 << level

    def cplx(*shape):
        return (rng.standard_normal(shape + (n,))
                + 1j * rng.standard_normal(shape + (n,)))

    # the shapes src/ multiplies: complex grids by a vector or a grid,
    # broadcast batches, and real single elements; bit for bit
    for a, b in ((cplx(4, 5, 6), cplx()), (cplx(), cplx(4, 5, 6)),
                 (cplx(4, 5, 6), cplx(4, 5, 6)), (cplx(5, 1), cplx(1, 7)),
                 (rng.standard_normal(n), rng.standard_normal(n))):
        got = mul_coeffs(a, b, level)
        want = reference_mul_coeffs(a, b, level)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # real batches may sum in another loop order
    a, b = rng.standard_normal((2, 4, 5, 6, n))
    np.testing.assert_allclose(mul_coeffs(a, b, level),
                               reference_mul_coeffs(a, b, level), rtol=1e-13)


def test_level_mismatch_rejected():
    with pytest.raises(ValueError):
        cd_mul(CdElement.basis(2, 1), CdElement.basis(3, 1))


def test_levels_beyond_cap_rejected():
    with pytest.raises(ValueError):
        CdElement.zero(7)


def test_conjugation():
    z = CdElement(1, [2.0, 3.0])
    assert cd_conj(z) == CdElement(1, [2.0, -3.0])
    one = CdElement.basis(3, 0)
    assert cd_conj(one) == one
    rng = np.random.default_rng(2)
    for level in (2, 3, 4):
        w = random_element(rng, level)
        assert cd_conj(cd_conj(w)) == w
        total = w + cd_conj(w)
        assert total == CdElement.scalar(level, 2.0 * w.re)


def test_norm_sq():
    z = CdElement(2, [3.0, 0.0, 4.0, 0.0])
    assert cd_norm_sq(z) == 25.0
    for level in (1, 2, 3):
        for j in range(1 << level):
            assert cd_norm_sq(CdElement.basis(level, j)) == 1.0
    rng = np.random.default_rng(3)
    for level in (2, 3, 4, 5):
        w = random_element(rng, level)
        zzbar = cd_mul(w, cd_conj(w))
        assert abs(cd_norm_sq(w) - zzbar.re) < 1e-12
        # z z* is a real multiple of the identity
        assert np.all(np.abs(zzbar.coeffs[1:]) < 1e-12)


def test_re_im():
    z = CdElement(1, [2.0, 5.0])
    re, im = re_im(z)
    assert re == 2.0
    assert im == CdElement(1, [0.0, 5.0])
    rng = np.random.default_rng(4)
    for level in (2, 3, 4):
        w = random_element(rng, level)
        re, im = re_im(w)
        assert re_im(im)[0] == 0.0
        assert CdElement.scalar(level, re) + im == w


# -- projections ------------------------------------------------------------


def test_pi_project_formula_vs_coefficient_read():
    z = CdElement(2, [2.0, 3.0, -1.0, 0.0])
    assert pi_project(1, z) == pytest.approx(3.0, abs=1e-14)
    assert pi_project(0, CdElement.basis(2, 0)) == pytest.approx(1.0)
    rng = np.random.default_rng(6)
    for level in (2, 3, 4):
        w = random_element(rng, level)
        for j in range(1 << level):
            assert pi_project(j, w) == pytest.approx(w.coeffs[j], abs=1e-12)


def test_pi_project_exhaustive_basis_level3():
    for k in range(8):
        z = CdElement.basis(3, k)
        for j in range(8):
            want = 1.0 if j == k else 0.0
            assert pi_project(j, z) == pytest.approx(want, abs=1e-14)


def test_pi_project_spec_example_level3():
    z = 3.0 * CdElement.basis(3, 2) - 5.0 * CdElement.basis(3, 7)
    assert pi_project(2, z) == pytest.approx(3.0, abs=1e-13)
    assert pi_project(7, z) == pytest.approx(-5.0, abs=1e-13)
    assert pi_project(0, z) == pytest.approx(0.0, abs=1e-13)


def test_pi_project_low_levels_promoted():
    assert pi_project(1, CdElement(1, [2.0, -7.0])) == pytest.approx(-7.0)
    assert pi_project(0, CdElement(0, [4.0])) == pytest.approx(4.0)


def test_pi_project_out_of_range():
    with pytest.raises(ValueError):
        pi_project(4, CdElement.zero(2))


def test_pi_project_complex_homogeneous():
    rng = np.random.default_rng(7)
    x = random_element(rng, 3)
    y = random_element(rng, 3)
    z = ComplexCdElement(x, y)
    for j in range(8):
        got = pi_project(j, z)
        assert got == pytest.approx(x.coeffs[j] + 1j * y.coeffs[j], abs=1e-12)


def test_projection_completeness():
    rng = np.random.default_rng(8)
    for level in (2, 3):
        w = random_element(rng, level)
        rebuilt = CdElement.zero(level)
        for j in range(1 << level):
            rebuilt = rebuilt + pi_project(j, w) * CdElement.basis(level, j)
        np.testing.assert_allclose(rebuilt.coeffs, w.coeffs, atol=1e-12)


# -- euclidean products ------------------------------------------------------


def test_euclid_cross_example():
    emb = EmbeddingMap((1, 2, 3), 2)
    s, c = euclid_products([1, 0, 0], [0, 1, 0], emb, cross=True)
    assert s == pytest.approx(0.0)
    np.testing.assert_allclose(c, [0.0, 0.0, 1.0], atol=1e-14)


def test_euclid_self():
    emb = EmbeddingMap((1, 2, 3), 2)
    x = [1.0, -2.0, 0.5]
    s, c = euclid_products(x, x, emb, cross=True)
    assert s == pytest.approx(np.dot(x, x))
    np.testing.assert_allclose(c, [0.0, 0.0, 0.0], atol=1e-14)


def test_euclid_random_dot_and_cross():
    rng = np.random.default_rng(9)
    emb = EmbeddingMap((1, 2, 3), 2)
    for _ in range(50):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        s, c = euclid_products(x, y, emb, cross=True)
        assert abs(s - np.dot(x, y)) < 1e-12
        np.testing.assert_allclose(c, np.cross(x, y), atol=1e-12)
    # scalar products work at any dimension / embedding
    emb5 = EmbeddingMap((0, 1, 2, 3, 4), 3)
    for _ in range(20):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        s, _ = euclid_products(x, y, emb5)
        assert abs(s - np.dot(x, y)) < 1e-12


def test_euclid_incompatible_triple_rejected():
    emb = EmbeddingMap((1, 2, 4), 3)  # i_1 i_2 = i_3, not i_4
    with pytest.raises(ValueError):
        euclid_products([1, 0, 0], [0, 1, 0], emb, cross=True)


# -- algebra laws -------------------------------------------------------------


@pytest.mark.parametrize("level", [2, 3, 4])
def test_anticommutation_exact(level):
    n = 1 << level
    for j in range(1, n):
        for k in range(1, n):
            if j == k:
                continue
            ij, ik = CdElement.basis(level, j), CdElement.basis(level, k)
            assert cd_mul(ij, ik) == -cd_mul(ik, ij)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_squares_exact(level):
    for j in range(1, 1 << level):
        ij = CdElement.basis(level, j)
        assert cd_mul(ij, ij) == -CdElement.basis(level, 0)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_power_associativity(level):
    rng = np.random.default_rng(20 + level)
    for _ in range(20):
        z = random_element(rng, level)
        powers = [CdElement.basis(level, 0)]
        for _k in range(8):
            powers.append(cd_mul(powers[-1], z))
        for phi in range(1, 5):
            for psi in range(1, 5):
                lhs = cd_mul(powers[phi], powers[psi])
                scale = max(1.0, lhs.norm())
                assert (lhs - powers[phi + psi]).norm() / scale < 1e-10


@pytest.mark.parametrize("level", [2, 3])
def test_alternativity_low_levels(level):
    rng = np.random.default_rng(30 + level)
    for _ in range(200):
        a = random_element(rng, level)
        b = random_element(rng, level)
        lhs = cd_mul(cd_mul(a, a), b)
        rhs = cd_mul(a, cd_mul(a, b))
        scale = max(1.0, lhs.norm())
        assert (lhs - rhs).norm() / scale < 1e-10


def test_alternativity_fails_at_sedenions():
    # documents the expected loss of alternativity at r = 4: not an accident
    # of rounding but a structural feature (zero divisors appear).
    a = CdElement.basis(4, 1) + CdElement.basis(4, 10)
    b = CdElement.basis(4, 4) + CdElement.basis(4, 15)
    lhs = cd_mul(cd_mul(a, a), b)
    rhs = cd_mul(a, cd_mul(a, b))
    assert (lhs - rhs).norm() > 1e-6


def test_central_unit_commutes():
    rng = np.random.default_rng(41)
    for level in (2, 3, 4):
        unit = ComplexCdElement.central_unit(level)
        for _ in range(10):
            b = ComplexCdElement(
                random_element(rng, level), random_element(rng, level)
            )
            left = unit * b
            right = b * unit
            assert (left - right).norm_sq() < 1e-24


def test_complex_conj_and_norm():
    rng = np.random.default_rng(42)
    x, y = random_element(rng, 3), random_element(rng, 3)
    z = ComplexCdElement(x, y)
    assert cd_norm_sq(z) == pytest.approx(x.norm_sq() + y.norm_sq())
    zc = cd_conj(z)
    assert zc.re_part == cd_conj(x)
    assert zc.im_part == -y


def test_complex_product_against_complex_scalars():
    # level-0 complexified algebra is just C x C ... sanity anchor: treat
    # ComplexCdElement over A_0 as an ordinary complex number
    a = ComplexCdElement(CdElement(0, [2.0]), CdElement(0, [1.0]))
    b = ComplexCdElement(CdElement(0, [-1.0]), CdElement(0, [3.0]))
    prod = a * b
    want = (2 + 1j) * (-1 + 3j)
    assert prod.re_part.coeffs[0] == pytest.approx(want.real)
    assert prod.im_part.coeffs[0] == pytest.approx(want.imag)


def test_embedding_map_validation():
    with pytest.raises(ValueError):
        EmbeddingMap((1, 1), 2)
    with pytest.raises(ValueError):
        EmbeddingMap((1, 4), 2)
    emb = EmbeddingMap.default(3)
    assert emb.indices == (0, 1, 2)
    z = emb.embed([1.5, -2.0, 0.25])
    np.testing.assert_allclose(emb.extract(z), [1.5, -2.0, 0.25], atol=1e-13)
