"""Translation of real PDE systems to equations over a Cayley-Dickson algebra.

A system of k polynomial equations in the unknown components u_1, ..., u_m
on U, a box in R^n, becomes one equation for the algebra-valued unknown

    uhat = sum_j u_j i_{q_j}

on the embedded copy V of U.  The rewriting is structural:

* every partial derivative d/dx_j becomes d/dz_{l_j},
* every coefficient c(x) becomes its lift, the function on V with the same
  node values,
* every occurrence of u_j becomes pi_{q_j}(uhat),
* the s-th equation is tagged with a left basis factor i_{s-1}, so the
  right-hand sides combine into ghat = sum_s g_s i_{s-1}.

Because the projections produce scalar-valued functions on V, each component
equation of the translated system reproduces the original equation verbatim,
which is what the symbolic equivalence check below verifies.  Multiplication
order inside products is preserved as written and never normalized; it
matters as soon as any factor stops being scalar.

The module also carries the point embedding and function lift/lower helpers,
sympy-backed evaluators for both sides of the translation, and the classical
vector calculus dictionary for n = 3 (div, grad, rot through a first-order
symbol with right basis factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .algebra import (MAX_LEVEL, EmbeddingMap, basis_mul_coeffs, conj_coeffs,
                      mul_coeffs)
from .calculus import GridField, diff_axis
from .pdelang import (
    Add,
    App,
    BasisFactor,
    DOp,
    DzOp,
    Equation,
    FieldSym,
    Lifted,
    Mul,
    Neg,
    Num,
    OpName,
    Pi,
    Pow,
    Program,
    UHat,
    add,
    kind_of,
    node_to_tree,
    pretty,
)

__all__ = [
    "TranslationMaps",
    "TranslatedPde",
    "minimal_level",
    "translate_pdo",
    "translate_system",
    "embed_point",
    "extract_point",
    "lift_function",
    "lower_function",
    "LiftedFunction",
    "SymbolicEnv",
    "eval_real",
    "eval_algebra",
    "theorem1_residuals",
    "theorem1_gap",
    "assemble_uhat",
    "vector_calculus_map",
    "apply_pdo_on_grid",
]


def minimal_level(n: int, k: int, q_indices) -> int:
    """Smallest admissible algebra level for the translation.

    Needs 2^t >= n for the coordinate slots, 2^t1 >= k for the equation
    tags, 2^t2 > max q_j for the unknown slots, and never less than 2.
    """
    t = int(np.ceil(np.log2(n))) if n > 1 else 0
    t1 = int(np.ceil(np.log2(k))) if k > 1 else 0
    qmax = max(q_indices)
    t2 = qmax.bit_length()  # smallest t2 with 2^t2 > qmax
    return max(t, t1, t2, 2)


@dataclass(frozen=True)
class TranslationMaps:
    """Index bookkeeping shared by every translation step."""

    level: int
    l_indices: tuple  # coordinate slot of x_j, j = 1..n
    q_indices: tuple  # unknown slot of u_j, j = 1..m

    def __post_init__(self):
        if not (2 <= self.level <= MAX_LEVEL):
            raise ValueError(f"level must be in [2, {MAX_LEVEL}]")
        dim = 1 << self.level
        for name, idx in (("l", self.l_indices), ("q", self.q_indices)):
            if len(set(idx)) != len(idx):
                raise ValueError(f"{name}-indices must be distinct")
            if any(not (0 <= i < dim) for i in idx):
                raise ValueError(f"{name}-index out of range for the level")

    @property
    def embedding(self) -> EmbeddingMap:
        return EmbeddingMap(self.l_indices, self.level)

    @classmethod
    def defaults(cls, n: int, m: int, k: int, level: int | None = None,
                 q_indices=None, l_indices=None) -> "TranslationMaps":
        q = tuple(q_indices) if q_indices is not None \
            else tuple(range(m))
        l = tuple(l_indices) if l_indices is not None \
            else tuple(range(n))
        need = minimal_level(n, k, q)
        if level is None:
            level = need
        elif level < need:
            raise ValueError(
                f"insufficient algebra level {level} for n={n}, k={k}, "
                f"max q={max(q)}; need at least {need}")
        return cls(level, l, q)


# -- structural translation ----------------------------------------------------


def translate_pdo(node, maps: TranslationMaps):
    """Rewrite a linear differential operator for the embedded domain."""
    if kind_of(node) not in ("op", "const"):
        raise ValueError("translate_pdo expects an operator expression")
    return _translate(node, maps, None)


def _translate(node, maps: TranslationMaps, program: Program | None):
    if isinstance(node, Num):
        return node
    if isinstance(node, DOp):
        if node.axis == 0:
            return node  # time is a real parameter, not embedded
        if node.axis > len(maps.l_indices):
            raise ValueError(f"axis {node.axis} has no coordinate slot")
        return DzOp(maps.l_indices[node.axis - 1])
    if isinstance(node, FieldSym):
        if node.role == "coeff":
            return Lifted(node.name)
        if node.role == "source":
            return Lifted(node.name, node.index)
        j = node.index if node.index is not None else 1
        return Pi(maps.q_indices[j - 1], UHat())
    if isinstance(node, OpName):
        raise ValueError(
            f"abstract operator symbol {node.name!r} cannot be translated")
    if isinstance(node, (DzOp, Lifted, Pi, UHat, BasisFactor)):
        raise ValueError("expression is already translated")
    if isinstance(node, Add):
        return add(*[_translate(t, maps, program) for t in node.terms])
    if isinstance(node, Neg):
        return Neg(_translate(node.arg, maps, program))
    if isinstance(node, Mul):
        return Mul(tuple(_translate(f, maps, program) for f in node.factors))
    if isinstance(node, Pow):
        return Pow(_translate(node.base, maps, program), node.exp)
    if isinstance(node, App):
        return App(_translate(node.func, maps, program),
                   _translate(node.arg, maps, program))
    raise TypeError(f"not a pde node: {node!r}")


@dataclass(frozen=True)
class TranslatedPde:
    program: Program
    maps: TranslationMaps
    component_equations: tuple  # per original equation, over the algebra
    lhs: object  # combined algebra expression, sum of i_{s-1}-tagged parts
    ghat: object  # combined right-hand side

    @property
    def level(self) -> int:
        return self.maps.level

    def pretty(self) -> str:
        return f"{pretty(self.lhs)} = {pretty(self.ghat)}"

    def to_tree(self) -> dict:
        return {
            "level": self.maps.level,
            "l_indices": list(self.maps.l_indices),
            "q_indices": list(self.maps.q_indices),
            "lhs": node_to_tree(self.lhs),
            "ghat": node_to_tree(self.ghat),
            "components": [
                {"lhs": node_to_tree(e.lhs), "rhs": node_to_tree(e.rhs)}
                for e in self.component_equations
            ],
        }


def _tag(s: int, expr):
    return expr if s == 0 else BasisFactor(s, expr)


def translate_system(program: Program, maps: TranslationMaps | None = None,
                     level: int | None = None, q_indices=None,
                     l_indices=None) -> TranslatedPde:
    """Apply the rewriting to a whole parsed system."""
    if program.unknown is None:
        raise ValueError("program declares no unknown")
    n, m, k = program.dim, program.m, program.k
    if maps is None:
        maps = TranslationMaps.defaults(n, m, k, level=level,
                                        q_indices=q_indices,
                                        l_indices=l_indices)
    else:
        need = minimal_level(n, k, maps.q_indices)
        if maps.level < need:
            raise ValueError(
                f"insufficient algebra level {maps.level}; need {need}")
    if len(maps.q_indices) != m:
        raise ValueError("q-indices must match unknown components")
    if len(maps.l_indices) != n:
        raise ValueError("l-indices must match the dimension")

    comps = tuple(
        Equation(_translate(eq.lhs, maps, program),
                 _translate(eq.rhs, maps, program))
        for eq in program.equations
    )
    lhs = add(*[_tag(s, e.lhs) for s, e in enumerate(comps)])
    ghat = add(*[_tag(s, e.rhs) for s, e in enumerate(comps)])
    return TranslatedPde(program, maps, comps, lhs, ghat)


# -- points and functions across the embedding -----------------------------------


def embed_point(x, emb: EmbeddingMap):
    """Place a real n-vector on the coordinate slots of the algebra."""
    return emb.embed(x)


def extract_point(z, emb: EmbeddingMap) -> np.ndarray:
    return emb.extract(z)


@dataclass(frozen=True)
class LiftedFunction:
    """A function on the embedded domain V, h(z(x)) = f(x) by construction."""

    source: object  # callable on n real arguments, or a GridField
    emb: EmbeddingMap

    def __call__(self, z):
        x = self.emb.extract(z)
        if isinstance(self.source, GridField):
            idx = self.source.grid.node_index(tuple(x))
            return self.source.values[idx]
        return self.source(*x)

    @property
    def field(self) -> GridField:
        if not isinstance(self.source, GridField):
            raise ValueError("lift of a callable has no grid samples")
        return self.source


def lift_function(f, emb: EmbeddingMap) -> LiftedFunction:
    if isinstance(f, GridField):
        if f.arity != "x":
            raise ValueError("only spatial fields lift through the embedding")
        if len(f.grid.counts) != len(emb.indices):
            raise ValueError("grid dimension does not match the embedding")
    elif not callable(f):
        raise TypeError("lift_function expects a callable or a GridField")
    return LiftedFunction(f, emb)


def lower_function(h: LiftedFunction, emb: EmbeddingMap | None = None):
    """Inverse of lift_function; returns the original data on U."""
    if emb is not None and emb != h.emb:
        raise ValueError("embedding mismatch when lowering")
    return h.source


# -- sympy evaluation of both sides ----------------------------------------------


def _scalar_vec(expr, level: int) -> np.ndarray:
    out = np.full(1 << level, sp.Integer(0), dtype=object)
    out[0] = sp.sympify(expr)
    return out


@dataclass(frozen=True)
class SymbolicEnv:
    """Manufactured data for the equivalence check.

    values maps (role, name, index) to a sympy expression in t and the x
    symbols; index is None for scalars.  On the embedded side the coordinate
    z_{l_j} is identified with x_j, so the same symbols serve both sides.
    """

    n: int
    t: sp.Symbol
    x: tuple
    values: dict

    @classmethod
    def build(cls, program: Program, u, coeffs=None, sources=None):
        t = sp.Symbol("t")
        x = sp.symbols(f"x1:{program.dim + 1}")
        values = {}
        u = (u,) if not isinstance(u, (tuple, list)) else tuple(u)
        uname = program.unknown[0]
        if len(u) != program.m:
            raise ValueError("unknown components do not match declaration")
        for j, expr in enumerate(u, start=1):
            idx = j if program.m > 1 else None
            values[("unknown", uname, idx)] = sp.sympify(expr)
        for name, expr in (coeffs or {}).items():
            values[("coeff", name, None)] = sp.sympify(expr)
        if sources is not None:
            sname, cnt = program.source
            srcs = (sources,) if not isinstance(sources, (tuple, list)) \
                else tuple(sources)
            for s, expr in enumerate(srcs, start=1):
                idx = s if cnt > 1 else None
                values[("source", sname, idx)] = sp.sympify(expr)
        return cls(program.dim, t, tuple(x), values)

    def lookup(self, role: str, name: str, index):
        key = (role, name, index)
        if key not in self.values:
            raise KeyError(f"no symbolic value bound for {key}")
        return self.values[key]


def eval_real(node, env: SymbolicEnv):
    """Evaluate a field expression of the original system to a sympy expr."""
    if isinstance(node, Num):
        return sp.Rational(node.text) if "e" not in node.text.lower() \
            else sp.Float(node.text)
    if isinstance(node, FieldSym):
        return env.lookup(node.role, node.name, node.index)
    if isinstance(node, Add):
        return sp.Add(*[eval_real(t, env) for t in node.terms])
    if isinstance(node, Neg):
        return -eval_real(node.arg, env)
    if isinstance(node, Mul):
        return sp.Mul(*[eval_real(f, env) for f in node.factors])
    if isinstance(node, Pow):
        return eval_real(node.base, env) ** node.exp
    if isinstance(node, App):
        return _apply_real(node.func, eval_real(node.arg, env), env)
    raise TypeError(f"cannot evaluate {node!r} on the real side")


def _apply_real(op, f, env: SymbolicEnv):
    if isinstance(op, DOp):
        return f.diff(env.t if op.axis == 0 else env.x[op.axis - 1])
    if isinstance(op, Add):
        return sp.Add(*[_apply_real(t, f, env) for t in op.terms])
    if isinstance(op, Neg):
        return -_apply_real(op.arg, f, env)
    if isinstance(op, Mul):
        for factor in reversed(op.factors):  # rightmost acts first
            f = _apply_real(factor, f, env)
        return f
    if isinstance(op, Pow):
        for _ in range(op.exp):
            f = _apply_real(op.base, f, env)
        return f
    if isinstance(op, (Num, FieldSym)):
        return eval_real(op, env) * f  # multiplication operator
    if isinstance(op, OpName):
        raise ValueError(f"abstract operator {op.name!r} cannot be evaluated")
    raise TypeError(f"cannot apply {op!r}")


def eval_algebra(node, env: SymbolicEnv, maps: TranslationMaps) -> np.ndarray:
    """Evaluate a translated expression to an object coefficient vector."""
    level = maps.level
    if isinstance(node, Num):
        return _scalar_vec(sp.Rational(node.text), level)
    if isinstance(node, Lifted):
        role = "coeff" if node.index is None and ("coeff", node.name, None) \
            in env.values else "source"
        return _scalar_vec(env.lookup(role, node.name, node.index), level)
    if isinstance(node, UHat):
        out = np.full(1 << level, sp.Integer(0), dtype=object)
        uname = None
        for (role, name, idx), expr in env.values.items():
            if role != "unknown":
                continue
            uname = name
            j = idx if idx is not None else 1
            out[maps.q_indices[j - 1]] += expr
        if uname is None:
            raise KeyError("no unknown bound in the environment")
        return out
    if isinstance(node, Pi):
        return _scalar_vec(eval_algebra(node.arg, env, maps)[node.index],
                           level)
    if isinstance(node, BasisFactor):
        return basis_mul_coeffs(node.index,
                                eval_algebra(node.arg, env, maps), level)
    if isinstance(node, Add):
        out = _scalar_vec(0, level)
        for t in node.terms:
            out = out + eval_algebra(t, env, maps)
        return out
    if isinstance(node, Neg):
        return -eval_algebra(node.arg, env, maps)
    if isinstance(node, Mul):
        vecs = [eval_algebra(f, env, maps) for f in node.factors]
        out = vecs[0]
        for v in vecs[1:]:
            out = mul_coeffs(out, v, level)
        return out
    if isinstance(node, Pow):
        base = eval_algebra(node.base, env, maps)
        out = base
        for _ in range(node.exp - 1):
            out = mul_coeffs(out, base, level)
        return out
    if isinstance(node, App):
        return _apply_alg(node.func, eval_algebra(node.arg, env, maps), env,
                          maps)
    raise TypeError(f"cannot evaluate {node!r} on the algebra side")


def _apply_alg(op, f: np.ndarray, env: SymbolicEnv,
               maps: TranslationMaps) -> np.ndarray:
    if isinstance(op, DOp):
        if op.axis != 0:
            raise ValueError("untranslated spatial derivative on the "
                             "algebra side")
        return np.array([c.diff(env.t) for c in f], dtype=object)
    if isinstance(op, DzOp):
        var = env.x[maps.l_indices.index(op.index)]
        return np.array([c.diff(var) for c in f], dtype=object)
    if isinstance(op, Add):
        out = _scalar_vec(0, maps.level)
        for t in op.terms:
            out = out + _apply_alg(t, f, env, maps)
        return out
    if isinstance(op, Neg):
        return -_apply_alg(op.arg, f, env, maps)
    if isinstance(op, Mul):
        for factor in reversed(op.factors):
            f = _apply_alg(factor, f, env, maps)
        return f
    if isinstance(op, Pow):
        for _ in range(op.exp):
            f = _apply_alg(op.base, f, env, maps)
        return f
    if isinstance(op, (Num, Lifted)):
        return mul_coeffs(eval_algebra(op, env, maps), f, maps.level)
    raise TypeError(f"cannot apply {op!r} on the algebra side")


def theorem1_residuals(program: Program, tp: TranslatedPde,
                       env: SymbolicEnv):
    """Residual of each original equation and of the translated equation."""
    real = [sp.expand(eval_real(eq.lhs, env) - eval_real(eq.rhs, env))
            for eq in program.equations]
    vec = eval_algebra(tp.lhs, env, tp.maps) \
        - eval_algebra(tp.ghat, env, tp.maps)
    return real, np.array([sp.expand(c) for c in vec], dtype=object)


def theorem1_gap(program: Program, tp: TranslatedPde, env: SymbolicEnv,
                 samples: int = 8, seed: int = 0) -> float:
    """Largest deviation between the two residual routes.

    Component s-1 of the translated residual must equal the s-th original
    residual, and every untagged component must vanish.  Expressions that
    sympy does not cancel symbolically are probed at random rational points.
    """
    real, vec = theorem1_residuals(program, tp, env)
    diffs = []
    for s, r in enumerate(real):
        diffs.append(sp.expand(vec[s] - r))
    for c in range(len(vec)):
        if c >= len(real):
            diffs.append(vec[c])
    worst = 0.0
    rng = np.random.default_rng(seed)
    syms = (env.t,) + env.x
    for d in diffs:
        if d == 0:
            continue
        for _ in range(samples):
            point = {s: sp.Rational(int(rng.integers(-9, 10)), 7)
                     for s in syms}
            worst = max(worst, abs(float(d.subs(point))))
    return worst


# -- vector calculus on R^3 -------------------------------------------------------


def assemble_uhat(components, q_indices, level: int) -> np.ndarray:
    out = np.full(1 << level, sp.Integer(0), dtype=object)
    for j, expr in enumerate(components):
        out[q_indices[j]] += sp.sympify(expr)
    return out


def _sigma_right(f: np.ndarray, xs, q_indices, level: int) -> np.ndarray:
    """First-order symbol sum_j (df/dx_j) i_{q_j}, basis factor on the right."""
    out = np.full(1 << level, sp.Integer(0), dtype=object)
    for j, x in enumerate(xs):
        df = np.array([c.diff(x) for c in f], dtype=object)
        basis = np.full(1 << level, sp.Integer(0), dtype=object)
        basis[q_indices[j]] = sp.Integer(1)
        out = out + mul_coeffs(df, basis, level)
    return out


def vector_calculus_map(kind: str, uhat: np.ndarray, maps: TranslationMaps,
                        xs) -> np.ndarray:
    """Classical div/grad/rot through the algebra, for n = 3 fields.

    div u  = Re(sigma(uhat^*)),  grad u_s = sigma(u_s),
    rot u  = -Im(sigma(uhat)); the rot dictionary additionally needs the
    unknown slots to close multiplicatively, i_{q_1} i_{q_2} = i_{q_3}.
    """
    q, level = maps.q_indices, maps.level
    if len(xs) != 3 or len(q) != 3:
        raise ValueError("the vector calculus dictionary is for n = 3")
    if kind == "div":
        sig = _sigma_right(conj_coeffs(uhat), xs, q, level)
        out = np.full(1 << level, sp.Integer(0), dtype=object)
        out[0] = sp.expand(sig[0])
        return out
    if kind == "grad":
        return _sigma_right(uhat, xs, q, level)
    if kind == "rot":
        iq1 = np.eye(1 << level)[q[1]]
        if 0 in q or basis_mul_coeffs(q[0], iq1, level)[q[2]] != 1:
            raise ValueError("rot with incompatible index triple")
        sig = _sigma_right(uhat, xs, q, level)
        out = -sig
        out[0] = sp.Integer(0)
        return out
    raise ValueError(f"unknown vector calculus kind {kind!r}")


# -- numeric grid path -------------------------------------------------------------


def apply_pdo_on_grid(op, field: GridField, maps: TranslationMaps | None = None,
                      coeff_fields: dict | None = None) -> GridField:
    """Apply a linear spatial PDO to a scalar grid field of arity "x".

    Works for both the original form (axis derivatives) and the translated
    form (coordinate-slot derivatives resolved through maps); the two results
    agree node for node, which is the numeric face of the equivalence.
    """
    if field.arity != "x" or field.level is not None:
        raise ValueError("apply_pdo_on_grid expects a scalar spatial field")
    h = field.grid.spacings

    def rec(opnode, values):
        if isinstance(opnode, DOp):
            if opnode.axis == 0:
                raise ValueError("no time axis on a spatial field")
            a = opnode.axis - 1
            return diff_axis(values, a, h[a], 1)
        if isinstance(opnode, DzOp):
            if maps is None:
                raise ValueError("translated operator needs maps")
            a = maps.l_indices.index(opnode.index)
            return diff_axis(values, a, h[a], 1)
        if isinstance(opnode, Add):
            return sum(rec(t, values) for t in opnode.terms)
        if isinstance(opnode, Neg):
            return -rec(opnode.arg, values)
        if isinstance(opnode, Mul):
            out = values
            for factor in reversed(opnode.factors):
                out = rec(factor, out)
            return out
        if isinstance(opnode, Pow):
            out = values
            for _ in range(opnode.exp):
                out = rec(opnode.base, out)
            return out
        if isinstance(opnode, Num):
            return complex(float(opnode.text)) * values
        if isinstance(opnode, (FieldSym, Lifted)):
            if coeff_fields is None or opnode.name not in coeff_fields:
                raise ValueError(f"no samples for coefficient {opnode.name!r}")
            c = coeff_fields[opnode.name]
            cv = c.values if isinstance(c, GridField) else c
            return cv * values
        raise TypeError(f"cannot apply {opnode!r} on the grid")

    return GridField(field.grid, "x", rec(op, field.values))
