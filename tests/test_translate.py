import numpy as np
import pytest
import sympy as sp

from cdburgers.algebra import CdElement, EmbeddingMap
from cdburgers.calculus import Grid, GridField
from cdburgers.pdelang import (
    Add,
    App,
    DOp,
    DzOp,
    Equation,
    FieldSym,
    Mul,
    Num,
    PdeSyntaxError,
    Pi,
    Pow,
    UndeclaredSymbolError,
    canonical_json,
    parse_pde,
    pretty,
    pretty_program,
)
from cdburgers.translate import (
    SymbolicEnv,
    TranslationMaps,
    apply_pdo_on_grid,
    assemble_uhat,
    embed_point,
    extract_point,
    lift_function,
    lower_function,
    minimal_level,
    theorem1_gap,
    theorem1_residuals,
    translate_pdo,
    translate_system,
    vector_calculus_map,
)

T, X1, X2, X3 = sp.symbols("t x1 x2 x3")


# -- parsing -------------------------------------------------------------------


def test_parse_burgers_form():
    prog = parse_pde("dt(u) + u*dx1(u) - dx1(dx1(u)) = 0")
    assert prog.unknown == ("u", 1)
    (eq,) = prog.equations
    assert isinstance(eq.lhs, Add) and len(eq.lhs.terms) == 3
    first = eq.lhs.terms[0]
    assert isinstance(first, App) and first.func == DOp(0)
    assert first.arg == FieldSym("u", "unknown", None)
    assert eq.rhs == Num("0")


def test_parse_operator_polynomial_shape():
    prog = parse_pde("Q(dt)(-L^2 + a*L + b)(u) + g*dx1(u^2) = 0")
    assert prog.opsyms == ("Q",)
    assert set(prog.coeffs) == {"a", "b", "g"}
    assert prog.dim == 2
    (eq,) = prog.equations
    head = eq.lhs.terms[0]
    # operator product (Q(dt) * polynomial-in-L) applied to u
    assert isinstance(head, App)
    assert isinstance(head.func, Mul)
    assert head.arg == FieldSym("u", "unknown", None)
    # the Laplacian macro expanded to dx1^2 + dx2^2, squared under the minus
    lap_poly = head.func.factors[1]
    neg_sq = lap_poly.terms[0]
    assert neg_sq.arg == Pow(Add((Pow(DOp(1), 2), Pow(DOp(2), 2))), 2)


def test_parse_malformed_reports_position():
    with pytest.raises(PdeSyntaxError) as exc:
        parse_pde("dx1( = 0")
    assert exc.value.line == 1
    assert exc.value.col >= 4


def test_parse_undeclared_symbol():
    with pytest.raises(UndeclaredSymbolError):
        parse_pde("dim 2\nunknown u\ndt(u) + c*u = 0")


def test_parse_rejects_double_equals_and_bad_axis():
    with pytest.raises(PdeSyntaxError):
        parse_pde("u = 0 = 0")
    with pytest.raises(PdeSyntaxError):
        parse_pde("dim 2\nunknown u\ndx3(u) = 0")


def test_parse_rejects_operator_equation_and_mixed_product():
    with pytest.raises(PdeSyntaxError):
        parse_pde("dim 2\nunknown u\ndx1 = 0")
    with pytest.raises(PdeSyntaxError):
        parse_pde("dim 2\nunknown u\n(u*dx1)(u) = 0")


def test_pretty_parse_idempotent():
    sources = [
        "dt(u) + u*dx1(u) - dx1(dx1(u)) = 0",
        "Q(dt)(-L^2 + a*L + b)(u) + g*dx1(u^2) = 0",
        """dim 2
unknown u
coeff a, b, g
poly Q(s) = s^2 + 2*s + 1
macro L = dx1^2 + dx2^2
Q(dt)(-L^2 + a*L + b)(u) + g*dx1(u^2) = 0""",
        """dim 3
unknown u[2]
source f[2]
coeff nu
dt(u[1]) - nu*dx1(dx1(u[1])) + u[2]^3 = f[1]
dt(u[2]) + u[1]*u[2] = f[2]""",
    ]
    for src in sources:
        once = pretty_program(parse_pde(src))
        twice = pretty_program(parse_pde(once))
        assert once == twice


def test_canonical_json_deterministic():
    prog = parse_pde("dt(u) + u*dx1(u) = 0")
    a = canonical_json(prog.to_tree())
    b = canonical_json(parse_pde("dt(u) + u*dx1(u) = 0").to_tree())
    assert a == b
    assert '"kind":"app"' in a


def test_vector_component_bounds():
    with pytest.raises(PdeSyntaxError):
        parse_pde("dim 2\nunknown u[2]\ndt(u[3]) = 0")
    with pytest.raises(PdeSyntaxError):
        parse_pde("dim 2\nunknown u[2]\ndt(u) = 0")  # index required


# -- embedding and lifting -------------------------------------------------------


def test_embed_point_example():
    emb = EmbeddingMap((1, 2), 2)
    z = embed_point(np.array([1.0, 2.0]), emb)
    assert z == CdElement.basis(2, 1) + CdElement.basis(2, 2) * 2.0
    assert extract_point(CdElement.zero(2), emb).tolist() == [0.0, 0.0]


def test_embed_round_trip_and_isometry():
    emb = EmbeddingMap((0, 3, 5), 3)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = rng.standard_normal(3)
        z = embed_point(x, emb)
        assert np.array_equal(extract_point(z, emb), x)
        assert z.norm_sq() == np.dot(x, x)


def test_embed_dimension_mismatch():
    emb = EmbeddingMap((0, 1), 2)
    with pytest.raises(ValueError):
        embed_point(np.array([1.0, 2.0, 3.0]), emb)


def test_lift_lower_callable():
    emb = EmbeddingMap((0, 1), 2)
    h = lift_function(lambda x1, x2: x1, emb)
    z = embed_point(np.array([0.7, -0.3]), emb)
    assert h(z) == 0.7
    assert lower_function(h, emb) is h.source
    const = lift_function(lambda x1, x2: 4.5, emb)
    assert const(z) == 4.5


def test_lift_lower_grid_field():
    emb = EmbeddingMap((0, 1), 2)
    g = Grid.box(2, 0.0, 1.0, 5)
    rng = np.random.default_rng(2)
    f = GridField(g, "x", rng.standard_normal((5, 5)) + 0j)
    h = lift_function(f, emb)
    for idx in ((0, 0), (2, 3), (4, 4)):
        x = np.array([g.axis(0)[idx[0]], g.axis(1)[idx[1]]])
        assert h(embed_point(x, emb)) == f.values[idx]
    assert lower_function(h) is f
    with pytest.raises(ValueError):
        lower_function(h, EmbeddingMap((1, 2), 2))
    with pytest.raises(ValueError):
        lift_function(f, EmbeddingMap((0, 1, 2), 2))


# -- operator translation ---------------------------------------------------------


def test_translate_pdo_structure():
    maps = TranslationMaps.defaults(2, 1, 1)
    assert translate_pdo(DOp(1), maps) == DzOp(0)
    assert translate_pdo(DOp(2), maps) == DzOp(1)
    assert translate_pdo(DOp(0), maps) == DOp(0)  # time untouched
    assert translate_pdo(Num("1"), maps) == Num("1")
    lap = Add((Pow(DOp(1), 2), Pow(DOp(2), 2)))
    assert translate_pdo(lap, maps) == Add((Pow(DzOp(0), 2), Pow(DzOp(1), 2)))


def test_translate_pdo_rejects_fields_and_retranslation():
    maps = TranslationMaps.defaults(2, 1, 1)
    with pytest.raises(ValueError):
        translate_pdo(FieldSym("u", "unknown", None), maps)
    with pytest.raises(ValueError):
        translate_pdo(DzOp(0), maps)


def test_minimal_level_rules():
    assert minimal_level(2, 1, (0,)) == 2
    assert minimal_level(3, 1, (0,)) == 2
    assert minimal_level(5, 1, (0,)) == 3  # 2^t >= 5
    assert minimal_level(2, 5, (0,)) == 3  # 2^t1 >= 5
    assert minimal_level(2, 1, (0, 7)) == 3  # 2^t2 > 7
    assert minimal_level(2, 2, (0, 1)) == 2


def test_maps_validation():
    with pytest.raises(ValueError):
        TranslationMaps(2, (0, 0), (1,))
    with pytest.raises(ValueError):
        TranslationMaps(2, (0, 1), (4,))
    with pytest.raises(ValueError):
        TranslationMaps.defaults(2, 1, 1, level=1)
    with pytest.raises(ValueError):
        TranslationMaps.defaults(5, 1, 1, level=2)  # needs 3


# -- system translation and Theorem-1 equivalence ---------------------------------


HEAT = """
dim 2
unknown u
source f
coeff nu
dt(u) - nu*(dx1(dx1(u)) + dx2(dx2(u))) = f
"""


def test_translate_heat_manufactured_solution():
    prog = parse_pde(HEAT)
    tp = translate_system(prog)
    assert tp.level == 2
    u = T**2 * X1**3 + X2**2 * X1
    f_exact = u.diff(T) - 2 * (u.diff(X1, 2) + u.diff(X2, 2))
    env = SymbolicEnv.build(prog, u, coeffs={"nu": 2}, sources=f_exact)
    real, vec = theorem1_residuals(prog, tp, env)
    assert real == [0]
    assert all(c == 0 for c in vec)


def test_translate_linear_pdo_matches_lifted_original():
    prog = parse_pde("""
dim 2
unknown u
coeff a
a*dx1(u) + dx2(dx2(u)) - dt(u) = 0
""")
    tp = translate_system(prog)
    rng = np.random.default_rng(5)
    for _ in range(3):
        c = [sp.Rational(int(v), 4) for v in rng.integers(-8, 9, size=6)]
        u = c[0]*X1**3 + c[1]*X1*X2**2 + c[2]*T*X1*X2 + c[3]*T**2 + c[4]*X2 \
            + c[5]
        env = SymbolicEnv.build(prog, u, coeffs={"a": sp.Rational(3, 2)})
        assert theorem1_gap(prog, tp, env) == 0.0


def test_translate_zero_source_gives_zero_ghat():
    prog = parse_pde("dim 2\nunknown u\ndt(u) = 0")
    tp = translate_system(prog)
    assert tp.ghat == Num("0")
    assert pretty(tp.ghat) == "0"


def test_translate_nonlinear_system_equivalence():
    prog = parse_pde("""
dim 2
unknown u[2]
source f[2]
coeff a
dt(u[1]) + a*dx1(u[1]^2) - dx2(dx2(u[2])) = f[1]
dt(u[2]) + u[1]*u[2] = f[2]
""")
    tp = translate_system(prog)
    u1 = T * X1**2 + X2
    u2 = X1 * X2 - T**3
    env = SymbolicEnv.build(prog, (u1, u2), coeffs={"a": sp.Rational(1, 3)},
                            sources=(X1 * T, X2**2))
    assert theorem1_gap(prog, tp, env) == 0.0
    comp1 = tp.component_equations[0].lhs
    assert "pi_0(uhat)" in pretty(comp1)


def test_translate_fourth_order_operator_polynomial():
    prog = parse_pde("""
dim 2
unknown u
coeff a, b, g
poly Q(s) = s^2 + 2*s
macro L = dx1^2 + dx2^2
Q(dt)(-L^2 + a*L + b)(u) + g*dx1(u^2) = 0
""")
    tp = translate_system(prog)
    u = T**2 * (X1**4 + X2**4) + T * X1 * X2
    env = SymbolicEnv.build(
        prog, u, coeffs={"a": sp.Rational(1, 2), "b": 3, "g": sp.Rational(-2, 5)}
    )
    assert theorem1_gap(prog, tp, env) == 0.0


def test_translate_custom_q_slot():
    prog = parse_pde("dim 2\nunknown u\ndt(u) + dx1(u^2) = 0")
    tp = translate_system(prog, q_indices=(3,))
    assert tp.maps.q_indices == (3,)
    env = SymbolicEnv.build(prog, T * X1 + X1**2)
    assert theorem1_gap(prog, tp, env) == 0.0
    assert "pi_3(uhat)" in tp.pretty()


def test_translate_insufficient_level_error():
    prog = parse_pde("dim 2\nunknown u\ndt(u) = 0")
    with pytest.raises(ValueError):
        translate_system(prog, level=1)
    # five equations need 2^t1 >= 5, so a level-2 maps object is too small
    five = parse_pde("dim 2\nunknown u\n" + "\n".join(["dt(u) = 0"] * 5))
    with pytest.raises(ValueError):
        translate_system(five, maps=TranslationMaps(2, (0, 1), (0,)))


def test_translated_tree_serialization_is_stable():
    prog = parse_pde(HEAT)
    a = canonical_json(translate_system(prog).to_tree())
    b = canonical_json(translate_system(parse_pde(HEAT)).to_tree())
    assert a == b


# -- vector calculus dictionary ----------------------------------------------------


MAPS3 = TranslationMaps(2, (1, 2, 3), (1, 2, 3))
XS = (X1, X2, X3)


def test_div_of_identity_field():
    ident = assemble_uhat([X1, X2, X3], (1, 2, 3), 2)
    out = vector_calculus_map("div", ident, MAPS3, XS)
    assert out[0] == 3
    assert all(c == 0 for c in out[1:])


def test_rot_of_gradient_vanishes():
    pot = X1**2 * X2 + X3**3 * X1 - X2**4
    grad = vector_calculus_map("grad", assemble_uhat([pot], (0,), 2),
                               MAPS3, XS)
    assert [sp.expand(grad[q] - pot.diff(x)) for q, x in zip((1, 2, 3), XS)] \
        == [0, 0, 0]
    rot = vector_calculus_map("rot", grad, MAPS3, XS)
    assert all(sp.expand(c) == 0 for c in rot)


def test_div_matches_component_sum_on_linear_fields():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.integers(-5, 6, size=(3, 3))
        comps = [sum(int(A[i, j]) * XS[j] for j in range(3)) for i in range(3)]
        uhat = assemble_uhat(comps, (1, 2, 3), 2)
        out = vector_calculus_map("div", uhat, MAPS3, XS)
        assert out[0] == int(np.trace(A))


def test_rot_matches_classical_curl():
    u = (X2 * X3, X1**2, X1 * X2 * X3)
    uhat = assemble_uhat(u, (1, 2, 3), 2)
    rot = vector_calculus_map("rot", uhat, MAPS3, XS)
    curl = (
        u[2].diff(X2) - u[1].diff(X3),
        u[0].diff(X3) - u[2].diff(X1),
        u[1].diff(X1) - u[0].diff(X2),
    )
    for q, c in zip((1, 2, 3), curl):
        assert sp.expand(rot[q] - c) == 0


def test_rot_incompatible_triple_rejected():
    uhat = assemble_uhat([X1, X2, X3], (1, 2, 4), 3)
    with pytest.raises(ValueError):
        vector_calculus_map("rot", uhat, TranslationMaps(3, (1, 2, 4),
                                                         (1, 2, 4)), XS)


# -- numeric grid path --------------------------------------------------------------


def test_numeric_path_translated_operator_identical():
    g = Grid.box(2, 0.0, 2.0, 33)
    f = GridField.from_function(
        g, "x", lambda x1, x2: np.exp(0.4 * x1) * np.sin(x2)
    )
    lap = Add((Pow(DOp(1), 2), Pow(DOp(2), 2)))
    maps = TranslationMaps.defaults(2, 1, 1)
    lap_hat = translate_pdo(lap, maps)
    direct = apply_pdo_on_grid(lap, f)
    lowered = apply_pdo_on_grid(lap_hat, f, maps=maps)
    np.testing.assert_array_equal(direct.values, lowered.values)
    exact = (0.4**2 - 1.0) * f.values
    err = np.abs(direct.values - exact)[4:-4, 4:-4].max()
    assert err < 5e-5


def test_mul_coeffs_object_matches_numeric():
    rng = np.random.default_rng(13)
    from cdburgers.algebra import mul_coeffs

    for level in (2, 3):
        n = 1 << level
        a = rng.integers(-4, 5, size=n)
        b = rng.integers(-4, 5, size=n)
        sym = mul_coeffs(
            np.array([sp.Integer(int(v)) for v in a], dtype=object),
            np.array([sp.Integer(int(v)) for v in b], dtype=object),
            level,
        )
        num = mul_coeffs(a.astype(float), b.astype(float), level)
        assert [float(c) for c in sym] == pytest.approx(list(num))
