"""A small description language for polynomial systems of PDEs.

A program is a sequence of line statements, declarations and equations,
one per line.

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
inferred from the tokens of its equations: ``u`` is a scalar unknown, ``L``
is the Laplacian macro, a name written in front of brackets that hold
``dt`` or a ``dxN`` is an abstract operator symbol, every other name is a
coefficient, and the dimension is the larger of 2 and the highest ``dxN``
axis used.

A program is read in this order, and the first error met is reported:
the declarations, line by line (equation sides and macro and polynomial
bodies are kept as tokens until all are known); the macros in order, so a
macro sees only the macros above it; each polynomial body, with its
variable bound to ``dt``; the equations.  Each is parsed left to right by
one recursive-descent parser that looks names up as it reads them, and
applying a polynomial parses its body again, bound to the argument.

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

_DECLARATIONS = {"dim", "unknown", "coeff", "source", "poly", "macro",
                 "opsym"}
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


# -- parser --------------------------------------------------------------------


class _Parser:
    """Recursive descent over one token list.  Each name is looked up in
    the declarations as it is read, so every parse method returns a
    resolved node together with the token its errors point at: the
    operator of a sum, product, negation or power, the '(' of an
    application or group, or the atom itself."""

    def __init__(self, toks: list[_Tok], lineno: int, decls: _Decls,
                 bound: dict | None = None, expanding: frozenset = frozenset()):
        self.toks = toks
        self.i = 0
        self.lineno = lineno
        self.decls = decls
        self.bound = bound or {}  # polynomial variable -> its argument
        self.expanding = expanding  # polynomials whose bodies enclose this

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def error(self, msg: str, tok: _Tok | None = None, cls=PdeSyntaxError):
        if tok is None:
            tok = self.peek()
        col = tok.col if tok else (self.toks[-1].col + len(self.toks[-1].text)
                                   if self.toks else 1)
        raise cls(msg, self.lineno, col)

    def take(self, kind: str) -> _Tok | None:
        """The next token, consumed, if it is a `kind`; else None."""
        tok = self.peek()
        if tok is None or tok.kind != kind:
            return None
        self.i += 1
        return tok

    def eat(self, kind: str) -> _Tok:
        tok = self.take(kind)
        if tok is None:
            self.error(f"expected {kind!r}")
        return tok

    def eat_positive(self, what: str) -> int:
        tok = self.eat("num")
        if not tok.text.isdigit() or int(tok.text) < 1:
            self.error(f"{what} must be a positive integer", tok)
        return int(tok.text)

    def whole(self, where: str):
        """One expression that uses every token; `where` ends the message of
        the trailing-token error."""
        node, at = self.expr()
        if self.peek() is not None:
            self.error(f"trailing tokens {where}")
        return node, at

    def expr(self):
        node, at = self.term()
        while tok := self.take("+") or self.take("-"):
            rhs = self.term()[0]
            node, at = add(node, rhs if tok.kind == "+" else _neg(rhs)), tok
        return node, at

    def term(self):
        node, at = self.unary()
        while tok := self.take("*"):
            node, at = mul(node, self.unary()[0]), tok
        return node, at

    def unary(self):
        if tok := self.take("-"):
            return _neg(self.unary()[0]), tok
        return self.power()

    def power(self):
        node, at = self.postfix()
        if tok := self.take("^"):
            exp = self.eat_positive("exponent")
            node, at = (node if exp == 1 else Pow(node, exp)), tok
        return node, at

    def postfix(self):
        node, at = self.atom()
        while tok := self.take("("):
            node, at = _apply(node, self.closed(), tok), tok
        return node, at

    def closed(self):
        """An expression and the ')' that closes it."""
        node = self.expr()[0]
        self.eat(")")
        return node

    def substitute(self, tok: _Tok):
        """Operator polynomial substitution, Q(dt), with Q at `tok`."""
        if tok.text in self.expanding:
            self.error(f"operator polynomial {tok.text!r} refers to itself",
                       tok)
        at = self.eat("(")
        arg = self.closed()
        if _kind_at(arg, at) != "op":
            self.error("operator polynomial applied to a non-operator", at)
        return _expand(self.decls, tok.text, arg, self.expanding), at

    def atom(self):
        if tok := self.take("("):
            return self.closed(), tok
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of expression")
        if tok.kind not in ("num", "ident"):
            self.error(f"unexpected token {tok.text!r}")
        self.i += 1
        if tok.kind == "num":
            return Num(tok.text), tok
        if self.take("["):
            return self.component(tok), tok
        if (nxt := self.peek()) is not None and nxt.kind == "(" \
                and tok.text in self.decls.polys:
            return self.substitute(tok)
        return self.name(tok), tok

    def name(self, tok: _Tok):
        d, name = self.decls, tok.text
        if name in self.bound:
            return self.bound[name]
        if name == "dt":
            return DOp(0)
        if m := _DX_RE.match(name):
            axis = int(m.group(1))
            if axis > d.dim:
                self.error(f"derivative axis {axis} exceeds dim {d.dim}", tok)
            return DOp(axis)
        role = d.role_of(name)
        if role in ("unknown", "source", "coeff"):
            if role != "coeff" and getattr(d, role)[1] != 1:
                self.error(f"vector {role} {name!r} needs a component index",
                           tok)
            return FieldSym(name, role, None)
        if role == "opsym":
            return OpName(name)
        if role == "macro":
            return d.macros[name]
        if role == "poly":
            self.error(f"operator polynomial {name!r} must be applied", tok)
        self.error(f"undeclared symbol {name!r}", tok, UndeclaredSymbolError)

    def component(self, tok: _Tok):
        """`tok`[idx], read from past the '['."""
        idx = self.eat_positive("component index")
        self.eat("]")
        role = self.decls.role_of(tok.text)
        if role not in ("unknown", "source"):
            self.error(f"{tok.text!r} is not an indexable unknown or source",
                       tok, UndeclaredSymbolError)
        count = getattr(self.decls, role)[1]
        if idx > count:
            self.error(f"component {idx} out of range for "
                       f"{tok.text}[{count}]", tok)
        return FieldSym(tok.text, role, idx)


def _expand(decls, name: str, arg, expanding=frozenset()):
    """The body of polynomial `name`, parsed again with its variable bound
    to `arg`."""
    var, toks, lineno = decls.polys[name]
    body = _Parser(toks, lineno, decls, {var: arg}, expanding | {name})
    return body.whole("after polynomial body")[0]


def _neg(node):
    return node.arg if isinstance(node, Neg) else Neg(node)


def _kind_at(node, tok: _Tok) -> str:
    """kind_of, with its errors placed at `tok`."""
    try:
        return kind_of(node)
    except ValueError as exc:
        raise PdeSyntaxError(str(exc), tok.line, tok.col) from None


def _apply(func, arg, tok: _Tok):
    """func(arg), the application written at `tok`."""
    fk, ak = _kind_at(func, tok), _kind_at(arg, tok)
    if fk != "op":
        raise PdeSyntaxError("only operators can be applied", tok.line, tok.col)
    if ak == "op" and not isinstance(func, OpName):
        return mul(func, arg)  # composition written as a chain
    # a field argument, or an abstract symbol kept applied, as in Q(dt)
    return App(func, arg)


# -- programs ------------------------------------------------------------------


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
    polys: dict = field(default_factory=dict)  # name -> (var, toks, lineno)
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
    """Parse program text; see the module docstring for the grammar and
    the order in which a program is read."""
    lines = text.splitlines()
    decls = _Decls()
    sides: list[tuple[list[_Tok], list[_Tok], int]] = []

    for lineno, line in enumerate(lines, start=1):
        toks = _tokenize_line(line, lineno)
        if not toks:
            continue
        if toks[0].text in _DECLARATIONS:
            _parse_declaration(toks, lineno, decls)
            continue
        if toks[0].text == "eq" and len(toks) > 1:
            toks = toks[1:]
        eq_pos = [i for i, t in enumerate(toks) if t.kind == "="]
        if len(eq_pos) != 1:
            raise PdeSyntaxError("an equation needs exactly one '='", lineno,
                                 toks[0].col)
        sides.append((toks[:eq_pos[0]], toks[eq_pos[0] + 1:], lineno))

    if not sides:
        raise PdeSyntaxError("program has no equations", len(lines) or 1, 1)

    implicit = decls == _Decls()  # no declaration at all
    # parsed in order below: a macro body sees only the macros above it
    macro_lines, decls.macros = decls.macros, {}
    if implicit:
        _infer_implicit_context(decls, [side for lhs, rhs, _ in sides
                                        for side in (lhs, rhs)])
    if decls.dim is None:
        raise PdeSyntaxError("missing dim declaration", 1, 1)

    for name, (toks, lineno) in macro_lines.items():
        decls.macros[name] = _parse_body(
            toks, lineno, decls, "after macro body", "field",
            "expected an operator expression")
    # a polynomial body is checked even where it is never applied
    for name in decls.polys:
        _expand(decls, name, DOp(0))

    unapplied = "equation side is an unapplied operator"
    equations = []
    for lhs, rhs, lineno in sides:
        equations.append(Equation(
            _parse_body(lhs, lineno, decls, "before '='", "op", unapplied),
            _parse_body(rhs, lineno, decls, "after equation", "op", unapplied)))

    return Program(
        dim=decls.dim,
        unknown=decls.unknown,
        source=decls.source,
        coeffs=tuple(decls.coeffs),
        opsyms=tuple(decls.opsyms),
        equations=tuple(equations),
    )


def _parse_body(toks, lineno, decls, where, wrong_kind, message):
    """A macro body or an equation side, refused with `message` at its
    root token if it is of `wrong_kind`."""
    node, at = _Parser(toks, lineno, decls).whole(where)
    if _kind_at(node, at) == wrong_kind:
        raise PdeSyntaxError(message, at.line, at.col)
    return node


def _parse_declaration(toks, lineno, decls):
    p = _Parser(toks, lineno, decls)
    p.i = 1  # past the keyword
    keyword = toks[0].text

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
            if p.take("["):
                count = p.eat_positive("component count")
                p.eat("]")
            value = (name, count)
        if getattr(decls, keyword) is not None:
            p.error(f"duplicate {keyword} declaration")
        setattr(decls, keyword, value)
    elif keyword in ("coeff", "opsym"):
        names = getattr(decls, keyword + "s")
        names.append(new_name())
        while p.take(","):
            names.append(new_name())
    elif keyword == "poly":
        name = new_name()
        p.eat("(")
        var = p.eat("ident").text
        p.eat(")")
        p.eat("=")
        decls.polys[name] = (var, toks[p.i:], lineno)
    else:  # macro
        name = new_name()
        p.eat("=")
        decls.macros[name] = (toks[p.i:], lineno)
    if keyword not in ("poly", "macro") and p.peek() is not None:
        p.error("trailing tokens after declaration")


def _infer_implicit_context(decls, sides):
    """Default declarations for a bare equation list, read off the tokens
    of its equation sides."""
    names, applied_to_ops, max_axis = set(), set(), 0
    for toks in sides:
        callers = []  # per open bracket, the token in front of it
        for prev, tok in zip([None, *toks], toks):
            if tok.kind == "(":
                callers.append(prev and prev.text)
            elif tok.kind == ")":
                del callers[-1:]
            elif (m := _DX_RE.match(tok.text)) or tok.text == "dt":
                max_axis = max(max_axis, int(m.group(1)) if m else 0)
                applied_to_ops.update(callers)
            elif tok.kind == "ident" and tok.text != "L":
                names.add(tok.text)
    applied_to_ops &= names  # a name applied to brackets that hold dt or dxN

    decls.dim = max(2, max_axis)
    decls.unknown = ("u", 1)
    decls.opsyms = sorted(applied_to_ops)
    decls.coeffs = sorted(names - applied_to_ops - {"u"})
    decls.macros["L"] = add(*(Pow(DOp(j), 2)
                              for j in range(1, decls.dim + 1)))


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
