"""A small description language for polynomial systems of PDEs.

A program is a sequence of line statements: declarations followed by
equations.

    dim 2
    unknown u
    coeff a, b, g
    poly Q(s) = s + 1
    macro L = dx1^2 + dx2^2
    Q(dt)(-L^2 + a*L + b)(u) + g*dx1(u^2) = 0

Expressions mix two kinds of values.  Field expressions are built from the
unknown components, coefficient names, source components and numbers with
``+ - * ^``.  Operator expressions are built from the derivative atoms
``dt``, ``dx1`` ... ``dxN`` (and macro names) with the same arithmetic;
numbers and coefficient names act as multiplication operators there.
``O(expr)`` applies an operator to a field, and an application chain such as
``Q(dt)(S)(u)`` composes the operator factors left to right before applying
them.  ``poly`` declares a one-variable operator polynomial; ``macro`` names
an operator expression; ``opsym`` declares an abstract operator symbol that
participates in parsing but cannot be evaluated or translated.

Vector unknowns and sources are declared ``unknown u[3]`` and referenced by
component, ``u[2]``.  Each equation line contributes one component of the
system.

If a program contains no declarations at all, a convenience context is
inferred: ``u`` is a scalar unknown, ``L`` is the Laplacian macro, names
applied to operator arguments are abstract operator symbols, every other
name is a coefficient, and the dimension is the larger of 2 and the highest
``dxN`` axis used.

Parsed macros and polynomials are inlined, so the resolved tree contains
only the node types defined here.  Trees are immutable; the pretty-printer
emits a normal form that reparses to the identical tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields


class PdeSyntaxError(ValueError):
    """Malformed program text, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UndeclaredSymbolError(PdeSyntaxError):
    """A name used in an equation was never declared."""


# -- resolved tree nodes -------------------------------------------------------
#
# kind "field": Num FieldSym Lifted Pi UHat BasisFactor (+ Add/Neg/Mul/Pow/App)
# kind "op":    DOp DzOp OpName (+ the same arithmetic nodes)


@dataclass(frozen=True)
class Num:
    text: str


@dataclass(frozen=True)
class FieldSym:
    name: str
    role: str  # "unknown" | "coeff" | "source"
    index: int | None = None  # 1-based component, None for scalars


@dataclass(frozen=True)
class DOp:
    axis: int  # 0 is time, j >= 1 is d/dx_j


@dataclass(frozen=True)
class DzOp:
    index: int  # d/dz_index after translation


@dataclass(frozen=True)
class OpName:
    name: str  # abstract operator symbol


@dataclass(frozen=True)
class Lifted:
    name: str  # lifted coefficient or source, h^name
    index: int | None = None


@dataclass(frozen=True)
class UHat:
    pass


@dataclass(frozen=True)
class Pi:
    index: int
    arg: object


@dataclass(frozen=True)
class BasisFactor:
    index: int  # left factor i_index
    arg: object


@dataclass(frozen=True)
class Add:
    terms: tuple


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Mul:
    factors: tuple  # order is semantic, never reordered


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class App:
    func: object  # operator expression
    arg: object


@dataclass(frozen=True)
class Equation:
    lhs: object
    rhs: object


def add(*terms):
    flat = []
    for t in terms:
        flat.extend(t.terms if isinstance(t, Add) else (t,))
    return flat[0] if len(flat) == 1 else Add(tuple(flat))


def mul(*factors):
    flat = []
    for f in factors:
        flat.extend(f.factors if isinstance(f, Mul) else (f,))
    return flat[0] if len(flat) == 1 else Mul(tuple(flat))


def kind_of(node) -> str:
    """Classify a resolved node as "field", "op" or "const"."""
    if isinstance(node, Num):
        return "const"
    if isinstance(node, (FieldSym, Lifted, Pi, UHat, BasisFactor)):
        return "field"
    if isinstance(node, (DOp, DzOp, OpName)):
        return "op"
    if isinstance(node, Neg):
        return kind_of(node.arg)
    if isinstance(node, Pow):
        return kind_of(node.base)
    if isinstance(node, App):
        return kind_of(node.arg)
    if isinstance(node, (Add, Mul)):
        parts = _parts(node)
        kinds = [kind_of(p) for p in parts]
        if "op" in kinds:
            # bare coefficient terms coerce to multiplication operators,
            # as in the zero-order term of  -L^2 + a*L + b
            for p, k in zip(parts, kinds):
                if k == "field" and not _is_coefficient_like(p):
                    raise ValueError(
                        "cannot add an operator to a field"
                        if isinstance(node, Add) else
                        "an operator product may contain only coefficients, "
                        "constants and operators")
            return "op"
        return "field" if "field" in kinds else "const"
    raise TypeError(f"not a pde node: {node!r}")


def _parts(node) -> tuple:
    """The terms of an Add or the factors of a Mul."""
    return node.terms if isinstance(node, Add) else node.factors


def _is_coefficient_like(node) -> bool:
    """True for expressions built purely from coefficients and constants."""
    if isinstance(node, (Num, Lifted)):
        return True
    if isinstance(node, FieldSym):
        return node.role == "coeff"
    if isinstance(node, Neg):
        return _is_coefficient_like(node.arg)
    if isinstance(node, Pow):
        return _is_coefficient_like(node.base)
    if isinstance(node, (Add, Mul)):
        return all(_is_coefficient_like(p) for p in _parts(node))
    return False


# -- tokenizer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#.*)|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[()\[\]+\-*^=,])"
)

_KEYWORDS = {"dim", "unknown", "coeff", "source", "poly", "macro", "opsym", "eq"}
_DX_RE = re.compile(r"dx(\d+)$")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "num" | "ident" | one of the operator characters
    text: str
    line: int
    col: int


def _tokenize_line(text: str, lineno: int) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PdeSyntaxError(f"unexpected character {text[pos]!r}",
                                 lineno, pos + 1)
        if m.lastgroup in ("num", "ident", "op"):
            kind = m.group() if m.lastgroup == "op" else m.lastgroup
            toks.append(_Tok(kind, m.group(), lineno, pos + 1))
        pos = m.end()
    return toks


# -- raw expression parser -----------------------------------------------------
#
# Raw nodes carry source locations; the resolver turns them into the
# location-free dataclasses above.

_R_NUM, _R_NAME, _R_COMP, _R_ADD, _R_SUB, _R_NEG = range(6)
_R_MUL, _R_POW, _R_APP, _R_GROUP = range(6, 10)


@dataclass
class _Raw:
    tag: int
    payload: object
    children: tuple
    line: int
    col: int


class _ExprParser:
    def __init__(self, toks: list[_Tok], lineno: int):
        self.toks = toks
        self.i = 0
        self.lineno = lineno

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def error(self, msg: str, tok: _Tok | None = None):
        if tok is None:
            tok = self.peek()
        col = tok.col if tok else (self.toks[-1].col + len(self.toks[-1].text)
                                   if self.toks else 1)
        raise PdeSyntaxError(msg, self.lineno, col)

    def eat(self, kind: str) -> _Tok:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.error(f"expected {kind!r}", tok)
        self.i += 1
        return tok

    def eat_positive(self, what: str) -> int:
        tok = self.eat("num")
        if not tok.text.isdigit() or int(tok.text) < 1:
            self.error(f"{what} must be a positive integer", tok)
        return int(tok.text)

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    def parse_expr(self) -> _Raw:
        node = self.parse_term()
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.i += 1
            rhs = self.parse_term()
            tag = _R_ADD if tok.kind == "+" else _R_SUB
            node = _Raw(tag, None, (node, rhs), tok.line, tok.col)
        return node

    def parse_term(self) -> _Raw:
        node = self.parse_unary()
        while (tok := self.peek()) is not None and tok.kind == "*":
            self.i += 1
            rhs = self.parse_unary()
            node = _Raw(_R_MUL, None, (node, rhs), tok.line, tok.col)
        return node

    def parse_unary(self) -> _Raw:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.i += 1
            return _Raw(_R_NEG, None, (self.parse_unary(),), tok.line, tok.col)
        return self.parse_power()

    def parse_power(self) -> _Raw:
        node = self.parse_postfix()
        if (tok := self.peek()) is not None and tok.kind == "^":
            self.i += 1
            exp = self.eat_positive("exponent")
            node = _Raw(_R_POW, exp, (node,), tok.line, tok.col)
        return node

    def parse_postfix(self) -> _Raw:
        node = self.parse_atom()
        while (tok := self.peek()) is not None and tok.kind == "(":
            self.i += 1
            arg = self.parse_expr()
            self.eat(")")
            node = _Raw(_R_APP, None, (node, arg), tok.line, tok.col)
        return node

    def parse_atom(self) -> _Raw:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of expression")
        if tok.kind == "num":
            self.i += 1
            return _Raw(_R_NUM, tok.text, (), tok.line, tok.col)
        if tok.kind == "ident":
            self.i += 1
            nxt = self.peek()
            if nxt is not None and nxt.kind == "[":
                self.i += 1
                idx = self.eat_positive("component index")
                self.eat("]")
                return _Raw(_R_COMP, (tok.text, idx), (), tok.line, tok.col)
            return _Raw(_R_NAME, tok.text, (), tok.line, tok.col)
        if tok.kind == "(":
            self.i += 1
            inner = self.parse_expr()
            self.eat(")")
            return _Raw(_R_GROUP, None, (inner,), tok.line, tok.col)
        self.error(f"unexpected token {tok.text!r}")


# -- program parsing and resolution --------------------------------------------


@dataclass(frozen=True)
class Program:
    dim: int
    unknown: tuple[str, int] | None  # (name, m)
    source: tuple[str, int] | None  # (name, k)
    coeffs: tuple[str, ...]
    opsyms: tuple[str, ...]
    equations: tuple[Equation, ...]

    @property
    def m(self) -> int:
        return self.unknown[1] if self.unknown else 0

    @property
    def k(self) -> int:
        return len(self.equations)

    def pretty(self) -> str:
        return pretty_program(self)

    def to_tree(self) -> dict:
        return {
            "dim": self.dim,
            "unknown": list(self.unknown) if self.unknown else None,
            "source": list(self.source) if self.source else None,
            "coeffs": list(self.coeffs),
            "opsyms": list(self.opsyms),
            "equations": [
                {"lhs": node_to_tree(e.lhs), "rhs": node_to_tree(e.rhs)}
                for e in self.equations
            ],
        }


@dataclass
class _Decls:
    dim: int | None = None
    unknown: tuple[str, int] | None = None
    source: tuple[str, int] | None = None
    coeffs: list = field(default_factory=list)
    opsyms: list = field(default_factory=list)
    polys: dict = field(default_factory=dict)
    macros: dict = field(default_factory=dict)

    def role_of(self, name: str) -> str | None:
        if name == "dt" or _DX_RE.match(name):
            return "derivative"
        for role in ("unknown", "source"):
            if (getattr(self, role) or (None,))[0] == name:
                return role
        for role in ("coeff", "opsym", "poly", "macro"):
            if name in getattr(self, role + "s"):
                return role
        return None


def parse_pde(text: str) -> Program:
    """Parse program text; see the module docstring for the grammar."""
    lines = text.splitlines()
    decls = _Decls()
    raw_eqs: list[tuple[_Raw, _Raw, int]] = []
    any_decl = False

    for lineno, line in enumerate(lines, start=1):
        toks = _tokenize_line(line, lineno)
        if not toks:
            continue
        head = toks[0]
        if head.kind == "ident" and head.text in _KEYWORDS:
            any_decl = any_decl or head.text != "eq"
            _parse_statement(head.text, toks, lineno, decls, raw_eqs)
        else:
            _parse_equation_line(toks, lineno, raw_eqs)

    if not raw_eqs:
        raise PdeSyntaxError("program has no equations", len(lines) or 1, 1)

    # resolved in order below: a macro body sees only the macros above it
    macro_lines, decls.macros = decls.macros, {}
    implicit = not any_decl
    if implicit:
        _infer_implicit_context(decls, raw_eqs)
    if decls.dim is None:
        raise PdeSyntaxError("missing dim declaration", 1, 1)

    resolver = _Resolver(decls, implicit)
    for name, (var, toks, lineno) in decls.polys.items():
        decls.polys[name] = (var, _parse_whole(toks, lineno,
                                               "after polynomial body"))
    for name, (toks, lineno) in macro_lines.items():
        decls.macros[name] = resolver.resolve(
            _parse_whole(toks, lineno, "after macro body"), expect="op")

    equations = []
    for lhs_raw, rhs_raw, lineno in raw_eqs:
        lhs = resolver.resolve(lhs_raw)
        rhs = resolver.resolve(rhs_raw)
        for side, raw in ((lhs, lhs_raw), (rhs, rhs_raw)):
            try:
                k = kind_of(side)
            except ValueError as exc:
                raise PdeSyntaxError(str(exc), raw.line, raw.col) from None
            if k == "op":
                raise PdeSyntaxError("equation side is an unapplied operator",
                                     raw.line, raw.col)
        equations.append(Equation(lhs, rhs))

    return Program(
        dim=decls.dim,
        unknown=decls.unknown,
        source=decls.source,
        coeffs=tuple(decls.coeffs),
        opsyms=tuple(decls.opsyms),
        equations=tuple(equations),
    )


def _parse_statement(keyword, toks, lineno, decls, raw_eqs):
    p = _ExprParser(toks, lineno)
    p.i = 1  # past the keyword

    def new_name() -> str:
        tok = p.eat("ident")
        role = decls.role_of(tok.text)
        if role is not None:
            p.error(f"name {tok.text!r} already declared as {role}", tok)
        return tok.text

    if keyword in ("dim", "unknown", "source"):
        if keyword == "dim":
            value = p.eat_positive("dim")
        else:
            name = new_name()
            count = 1
            if p.peek() is not None and p.peek().kind == "[":
                p.eat("[")
                count = p.eat_positive("component count")
                p.eat("]")
            value = (name, count)
        if getattr(decls, keyword) is not None:
            p.error(f"duplicate {keyword} declaration")
        setattr(decls, keyword, value)
    elif keyword in ("coeff", "opsym"):
        names = getattr(decls, keyword + "s")
        names.append(new_name())
        while p.peek() is not None and p.peek().kind == ",":
            p.eat(",")
            names.append(new_name())
    elif keyword == "poly":
        name = new_name()
        p.eat("(")
        var = p.eat("ident").text
        p.eat(")")
        p.eat("=")
        decls.polys[name] = (var, toks[p.i:], lineno)
        return
    elif keyword == "macro":
        name = new_name()
        p.eat("=")
        decls.macros[name] = (toks[p.i:], lineno)
        return
    elif keyword == "eq":
        _parse_equation_line(toks[1:], lineno, raw_eqs)
        return
    if keyword not in ("poly", "macro", "eq") and not p.at_end():
        p.error("trailing tokens after declaration")


def _parse_equation_line(toks, lineno, raw_eqs):
    eq_pos = [i for i, t in enumerate(toks) if t.kind == "="]
    if len(eq_pos) != 1:
        raise PdeSyntaxError("an equation needs exactly one '='", lineno,
                             toks[0].col)
    raw_eqs.append((_parse_whole(toks[: eq_pos[0]], lineno, "before '='"),
                    _parse_whole(toks[eq_pos[0] + 1:], lineno,
                                 "after equation"),
                    lineno))


def _parse_whole(toks, lineno, where):
    """One expression that uses every token; `where` ends the message of
    the trailing-token error."""
    p = _ExprParser(toks, lineno)
    tree = p.parse_expr()
    if not p.at_end():
        p.error(f"trailing tokens {where}")
    return tree


def _infer_implicit_context(decls, raw_eqs):
    """Default declarations for a bare equation list."""
    names_applied_to_ops = set()
    plain_names = set()
    max_axis = [0]

    def scan(node: _Raw, app_func: bool = False):
        if node.tag == _R_NAME:
            name = node.payload
            m = _DX_RE.match(name)
            if m:
                max_axis[0] = max(max_axis[0], int(m.group(1)))
            elif name not in ("dt", "u", "L"):
                plain_names.add(name)
        elif node.tag == _R_APP:
            func, arg = node.children
            if func.tag == _R_NAME and func.payload not in ("dt", "L") \
                    and not _DX_RE.match(func.payload):
                if _raw_is_oplike(arg):
                    names_applied_to_ops.add(func.payload)
                    plain_names.discard(func.payload)
            scan(func)
            scan(arg)
            return
        for c in node.children:
            scan(c)

    for lhs, rhs, _ in raw_eqs:
        scan(lhs)
        scan(rhs)

    decls.dim = max(2, max_axis[0])
    decls.unknown = ("u", 1)
    decls.opsyms = sorted(names_applied_to_ops)
    decls.coeffs = sorted(plain_names - names_applied_to_ops)
    terms = []
    for j in range(1, decls.dim + 1):
        terms.append(Pow(DOp(j), 2))
    decls.macros["L"] = add(*terms)


def _raw_is_oplike(node: _Raw) -> bool:
    """Heuristic used only for implicit opsym inference."""
    if node.tag == _R_NAME:
        return node.payload == "dt" or bool(_DX_RE.match(node.payload))
    return any(_raw_is_oplike(c) for c in node.children)


class _Resolver:
    def __init__(self, decls: _Decls, implicit: bool):
        self.decls = decls
        self.implicit = implicit

    def resolve(self, raw: _Raw, expect: str | None = None, bound: dict | None
                = None):
        node = self._resolve(raw, bound or {})
        if expect == "op" and kind_of(node) not in ("op", "const"):
            raise PdeSyntaxError("expected an operator expression", raw.line,
                                 raw.col)
        return node

    def _resolve(self, raw: _Raw, bound: dict):
        d = self.decls
        if raw.tag == _R_NUM:
            return Num(raw.payload)
        if raw.tag == _R_NAME:
            name = raw.payload
            if name in bound:
                return bound[name]
            if name == "dt":
                return DOp(0)
            m = _DX_RE.match(name)
            if m:
                axis = int(m.group(1))
                if axis > d.dim:
                    raise PdeSyntaxError(
                        f"derivative axis {axis} exceeds dim {d.dim}",
                        raw.line, raw.col)
                return DOp(axis)
            role = d.role_of(name)
            if role in ("unknown", "source", "coeff"):
                if role != "coeff" and getattr(d, role)[1] != 1:
                    raise PdeSyntaxError(
                        f"vector {role} {name!r} needs a component index",
                        raw.line, raw.col)
                return FieldSym(name, role, None)
            if role == "opsym":
                return OpName(name)
            if role == "macro":
                return d.macros[name]
            if role == "poly":
                raise PdeSyntaxError(
                    f"operator polynomial {name!r} must be applied",
                    raw.line, raw.col)
            raise UndeclaredSymbolError(f"undeclared symbol {name!r}",
                                        raw.line, raw.col)
        if raw.tag == _R_COMP:
            name, idx = raw.payload
            role = d.role_of(name)
            if role not in ("unknown", "source"):
                raise UndeclaredSymbolError(
                    f"{name!r} is not an indexable unknown or source",
                    raw.line, raw.col)
            count = getattr(d, role)[1]
            if idx > count:
                raise PdeSyntaxError(
                    f"component {idx} out of range for {name}[{count}]",
                    raw.line, raw.col)
            return FieldSym(name, role, idx)
        if raw.tag == _R_GROUP:
            return self._resolve(raw.children[0], bound)
        if raw.tag == _R_NEG:
            inner = self._resolve(raw.children[0], bound)
            return inner.arg if isinstance(inner, Neg) else Neg(inner)
        if raw.tag in (_R_ADD, _R_SUB):
            lhs = self._resolve(raw.children[0], bound)
            rhs = self._resolve(raw.children[1], bound)
            if raw.tag == _R_SUB:
                rhs = rhs.arg if isinstance(rhs, Neg) else Neg(rhs)
            return add(lhs, rhs)
        if raw.tag == _R_MUL:
            lhs = self._resolve(raw.children[0], bound)
            rhs = self._resolve(raw.children[1], bound)
            return mul(lhs, rhs)
        if raw.tag == _R_POW:
            base = self._resolve(raw.children[0], bound)
            return base if raw.payload == 1 else Pow(base, raw.payload)
        if raw.tag == _R_APP:
            func_raw, arg_raw = raw.children
            # operator polynomial substitution: Q(dt)
            if func_raw.tag == _R_NAME and func_raw.payload in d.polys:
                var, body = d.polys[func_raw.payload]
                arg = self._resolve(arg_raw, bound)
                if kind_of(arg) != "op":
                    raise PdeSyntaxError(
                        "operator polynomial applied to a non-operator",
                        raw.line, raw.col)
                return self._resolve(body, {**bound, var: arg})
            func = self._resolve(func_raw, bound)
            arg = self._resolve(arg_raw, bound)
            try:
                fk, ak = kind_of(func), kind_of(arg)
            except ValueError as exc:
                raise PdeSyntaxError(str(exc), raw.line, raw.col) from None
            if fk != "op":
                raise PdeSyntaxError("only operators can be applied",
                                     raw.line, raw.col)
            if isinstance(func, OpName):
                # abstract symbol: keep the application, as in Q(dt)
                return App(func, arg)
            if ak == "op":
                return mul(func, arg)  # composition written as a chain
            return App(func, arg)
        raise AssertionError(f"unhandled raw tag {raw.tag}")


# -- pretty-printing -----------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def pretty(node) -> str:
    """Normal-form rendering; reparsing it reproduces the tree."""
    return _pp(node, 0)


def _pp(node, ctx: int) -> str:
    if isinstance(node, Num):
        return node.text
    if isinstance(node, FieldSym):
        return node.name if node.index is None else f"{node.name}[{node.index}]"
    if isinstance(node, DOp):
        return "dt" if node.axis == 0 else f"dx{node.axis}"
    if isinstance(node, DzOp):
        return f"dz{node.index}"
    if isinstance(node, OpName):
        return node.name
    if isinstance(node, Lifted):
        inner = node.name if node.index is None else f"{node.name}[{node.index}]"
        return f"lift({inner})"
    if isinstance(node, UHat):
        return "uhat"
    if isinstance(node, Pi):
        return f"pi_{node.index}({_pp(node.arg, 0)})"
    if isinstance(node, BasisFactor):
        return _wrap(f"i{node.index}*{_pp(node.arg, _PREC_MUL + 1)}",
                     _PREC_MUL, ctx)
    if isinstance(node, Equation):
        return f"{_pp(node.lhs, 0)} = {_pp(node.rhs, 0)}"
    if isinstance(node, Add):
        parts = [_pp(node.terms[0], _PREC_ADD)]
        for t in node.terms[1:]:
            if isinstance(t, Neg):
                parts.append(f" - {_pp(t.arg, _PREC_ADD + 1)}")
            else:
                parts.append(f" + {_pp(t, _PREC_ADD + 1)}")
        return _wrap("".join(parts), _PREC_ADD, ctx)
    if isinstance(node, Neg):
        return _wrap(f"-{_pp(node.arg, _PREC_NEG)}", _PREC_NEG - 1, ctx)
    if isinstance(node, Mul):
        txt = "*".join(_pp(f, _PREC_MUL + (i > 0)) for i, f in
                       enumerate(node.factors))
        return _wrap(txt, _PREC_MUL, ctx)
    if isinstance(node, Pow):
        return _wrap(f"{_pp(node.base, _PREC_POW + 1)}^{node.exp}", _PREC_POW,
                     ctx)
    if isinstance(node, App):
        return f"{_pp(node.func, _PREC_ATOM)}({_pp(node.arg, 0)})"
    raise TypeError(f"not a pde node: {node!r}")


def _wrap(text: str, prec: int, ctx: int) -> str:
    return f"({text})" if prec < ctx else text


def pretty_program(prog: Program) -> str:
    lines = [f"dim {prog.dim}"]
    if prog.unknown:
        name, m = prog.unknown
        lines.append(f"unknown {name}" if m == 1 else f"unknown {name}[{m}]")
    if prog.source:
        name, k = prog.source
        lines.append(f"source {name}" if k == 1 else f"source {name}[{k}]")
    if prog.coeffs:
        lines.append("coeff " + ", ".join(prog.coeffs))
    if prog.opsyms:
        lines.append("opsym " + ", ".join(prog.opsyms))
    lines.extend(pretty(eq) for eq in prog.equations)
    return "\n".join(lines) + "\n"


# -- canonical tree serialization ------------------------------------------------


_KINDS = {Num: "num", FieldSym: "sym", DOp: "d", DzOp: "dz", OpName: "opsym",
          Lifted: "lift", UHat: "uhat", Pi: "pi", BasisFactor: "basis",
          Add: "add", Neg: "neg", Mul: "mul", Pow: "pow", App: "app"}


def node_to_tree(node):
    """JSON-ready nested structure with deterministic layout: the node's
    kind and its fields, sub-nodes (fields typed ``object``, and the
    ``tuple`` of an Add or Mul) converted in turn; Num's text is "value"."""
    kind = _KINDS.get(type(node))
    if kind is None:
        raise TypeError(f"not a pde node: {node!r}")
    tree = {"kind": kind}
    for f in fields(node):
        value = getattr(node, f.name)
        if f.type == "object":
            value = node_to_tree(value)
        elif f.type == "tuple":
            value = [node_to_tree(v) for v in value]
        tree["value" if f.name == "text" else f.name] = value
    return tree
