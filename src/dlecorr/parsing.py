"""Recursive-descent parser for the formula language and signature files.

Formula grammar (ASCII), loosest binding last:

    ineq    := term "<=" term
    term    := or ( ("->" | "-.") or )?          # non-associative
    or      := and ( "|" and )*
    and     := atom ( "&" atom )*
    atom    := "top" | "bot" | "#"IDENT | "@"IDENT | "(" term ")"
             | IDENT "(" args ")"                # declared or dotted builtin
             | IDENT                             # variable
             | ("Dia"|"Box"|"Lhd"|"Rhd") "[" role "]" "(" term ")"
             | ("bsq"|"bdia"|"blhd"|"brhd") "[" role "]" "(" term ")"
             | "res" "(" (IDENT | "&" | "|") "," INT ")" "(" args ")"

The dotted builtins dia/box/lhd/rhd are soft keywords: a signature may
declare same-named connectives, which shadow the dotted reading.  Every
residual parses to a ``Residual``: a -> b is res(&,2)(a, b), a -. b
is res(|,1)(a, b), where & and | name the lattice meet and join
(``MEET``, ``JOIN``), and the adjoints res(dia,1)(t) of a dotted builtin
and bsq[pi](t) of Dia[pi] are residuals in coordinate 1.

Signature files are line oriented::

    # comment
    conn <name> <F|G> <arity> (<eps,...>)
    term <role> = <formula>
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .language import (
    ANTI, BOT, HARD_RESERVED, INFIX_RESIDUALS, JOIN, MEET, MONO, ROLE_SPECS, ROLES,
    SPEC_BY_DOTTED, SPEC_BY_ROLE, TOP, App, ConnectiveDecl, Conominal,
    Inequality, Layer, Nominal, OrderType, RegisteredTerm, Residual, RoleSpec,
    Signature, Term, Var, join, meet, signed_leaves,
)

# Dia[pi](t), bsq[pi](t), ...: head -> (role, whether it is the adjoint)
_BRACKETED = {head: (spec, adjoint) for spec in ROLE_SPECS
              for head, adjoint in ((spec.defined_head, False),
                                    (spec.black_head, True))}
_TONE_WORDS = {MONO: "positive", ANTI: "negative"}
# res(&,1)(a, b): the lattice meet and join are named by their operators
_LATTICE_DECLS = {decl.name: decl for decl in (MEET, JOIN)}


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str = ""):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} (at position {pos})")


class _Tok(NamedTuple):
    kind: str
    value: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<le><=)|(?P<infix>->|-\.)"
    r"|(?P<nom>\#[A-Za-z_][A-Za-z0-9_]*)|(?P<conom>@[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<punct>[(),\[\]&|]))"
)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m or m.end() == m.start():
            stripped = text[i:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad, text)
        kind = m.lastgroup  # the one alternative that matched
        v = m.group(kind)
        toks.append(_Tok(kind if kind != "punct" else v, v, m.start(kind)))
        i = m.end()
    toks.append(_Tok("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature, layer: Layer):
        self.text = text
        self.sig = sig
        self.layer = layer
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.value!r}", t.pos, self.text)
        return t

    def fail(self, msg: str, tok: _Tok):
        raise ParseError(msg, tok.pos, self.text)

    def require_layer(self, needed: Layer, what: str, tok: _Tok):
        if self.layer < needed:
            self.fail(f"{what} not admitted at layer {self.layer.name}", tok)

    # grammar ---------------------------------------------------------

    def inequality(self) -> Inequality:
        lhs = self.term()
        self.expect("le")
        rhs = self.term()
        self.expect("eof")
        return Inequality(lhs, rhs)

    def whole_term(self) -> Term:
        t = self.term()
        self.expect("eof")
        return t

    def term(self) -> Term:
        left = self.or_term()
        tok = self.peek()
        if tok.kind == "infix":
            self.require_layer(Residual.layer, f"residual {tok.value!r}", tok)
            self.next()
            decl, coord = INFIX_RESIDUALS[tok.value]
            return Residual(decl, coord, (left, self.or_term()))
        return left

    def or_term(self) -> Term:
        t = self.and_term()
        while self.peek().kind == "|":
            self.next()
            t = join(t, self.and_term())
        return t

    def and_term(self) -> Term:
        t = self.atom()
        while self.peek().kind == "&":
            self.next()
            t = meet(t, self.atom())
        return t

    def args(self) -> list[Term]:
        self.expect("(")
        if self.peek().kind == ")":
            self.next()
            return []
        out = [self.term()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.term())
        self.expect(")")
        return out

    def atom(self) -> Term:
        tok = self.next()
        if tok.kind == "nom":
            self.require_layer(Nominal.layer, "nominal", tok)
            return Nominal(tok.value[1:])
        if tok.kind == "conom":
            self.require_layer(Conominal.layer, "conominal", tok)
            return Conominal(tok.value[1:])
        if tok.kind == "(":
            t = self.term()
            self.expect(")")
            return t
        if tok.kind != "ident":
            self.fail(f"unexpected token {tok.value!r}", tok)
        name = tok.value
        if name == "top":
            return TOP
        if name == "bot":
            return BOT
        if name == "res":
            return self.residual(tok)
        if name in _BRACKETED:
            return self.bracketed(name, tok)
        if self.peek().kind == "(":
            return self.application(name, tok)
        decl = self.sig.decl(name)
        if decl is not None:
            self.fail(f"connective {name!r} used without arguments", tok)
        if name in SPEC_BY_DOTTED and self.layer >= RoleSpec.marker_layer:
            self.fail(f"builtin {name!r} used without arguments", tok)
        return Var(name)

    def application(self, name: str, tok: _Tok) -> Term:
        decl = self.sig.connective(name)
        arglist = self.args()
        if decl is None:
            self.fail(f"unknown connective {name!r}", tok)
        if decl.role is not None:  # a dotted marker
            self.require_layer(RoleSpec.marker_layer, f"dotted connective {name!r}", tok)
            if len(arglist) != 1:
                self.fail(f"dotted connective {name!r} is unary", tok)
        elif len(arglist) != decl.arity:
            self.fail(f"{name} expects {decl.arity} arguments, got {len(arglist)}", tok)
        return App(decl, tuple(arglist))

    def bracketed(self, head: str, tok: _Tok) -> Term:
        spec, adjoint = _BRACKETED[head]
        self.require_layer(RoleSpec.defined_layer, f"defined modality {head!r}", tok)
        self.expect("[")
        role_tok = self.expect("ident")
        self.expect("]")
        expected = spec.role
        if role_tok.value != expected:
            self.fail(f"{head} takes role {expected!r}, got {role_tok.value!r}", role_tok)
        if self.sig.role(expected) is None:
            self.fail(f"role {expected!r} has no registered term", role_tok)
        arglist = self.args()
        if len(arglist) != 1:
            self.fail(f"{head}[{expected}] is unary", tok)
        return (Residual(spec.defined_decl, 1, (arglist[0],)) if adjoint
                else App(spec.defined_decl, (arglist[0],)))

    def residual(self, tok: _Tok) -> Term:
        self.require_layer(Residual.layer, "residual", tok)
        self.expect("(")
        lattice = _LATTICE_DECLS.get(self.peek().kind)
        name_tok = self.next() if lattice else self.expect("ident")
        self.expect(",")
        coord_tok = self.expect("int")
        self.expect(")")
        arglist = self.args()
        coord = int(coord_tok.value)
        decl = lattice or self.sig.connective(name_tok.value)
        if decl is None:
            self.fail(f"unknown connective {name_tok.value!r} in residual", name_tok)
        if not (1 <= coord <= decl.arity):
            self.fail(f"coordinate {coord} out of range for {decl.name}", coord_tok)
        if len(arglist) != decl.arity:
            self.fail(f"res({decl.name},{coord}) takes {decl.arity} arguments", tok)
        return Residual(decl, coord, tuple(arglist))


def parse_term(text: str, sig: Signature, layer: Layer = Layer.DLEPP) -> Term:
    return _Parser(text, sig, layer).whole_term()


def parse_inequality(text: str, sig: Signature, layer: Layer = Layer.DLEPP) -> Inequality:
    return _Parser(text, sig, layer).inequality()


_CONN_RE = re.compile(
    r"^conn\s+([A-Za-z_][A-Za-z0-9_]*)\s+([FG])\s+(\d+)\s*\(([^)]*)\)\s*$"
)
_TERM_RE = re.compile(r"^term\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")


def parse_signature(text: str) -> Signature:
    """Parse a signature document (``conn``/``term`` lines, # comments)."""
    decls: list[ConnectiveDecl] = []
    term_lines: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _CONN_RE.match(line)
        if m:
            name, family, arity, eps = m.groups()
            entries = tuple(e.strip() for e in eps.split(",")) if eps.strip() else ()
            try:
                decl = ConnectiveDecl(name, family, int(arity), OrderType(entries))
                if name in HARD_RESERVED:
                    raise ValueError(f"connective name {name!r} is reserved")
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}", 0, raw) from exc
            decls.append(decl)
            continue
        m = _TERM_RE.match(line)
        if m:
            term_lines.append((lineno, m.group(1), m.group(2)))
            continue
        raise ParseError(f"line {lineno}: cannot parse {line!r}", 0, raw)

    try:
        base = Signature(tuple(decls))
    except ValueError as exc:
        raise ParseError(str(exc), 0, text) from exc
    regs: list[RegisteredTerm] = []
    for lineno, role, formula in term_lines:
        if role not in ROLES:
            raise ParseError(f"line {lineno}: unknown role {role!r}", 0, formula)
        try:
            term = parse_term(formula, base, Layer.DLE)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", exc.pos, formula) from exc
        fv = sorted(term.var_names)
        if len(fv) != 1:
            raise ParseError(
                f"line {lineno}: registered term must use exactly one variable, "
                f"found {fv}", 0, formula)
        var = fv[0]
        signs = {s for _, s in signed_leaves(term)}  # all of ``var``
        tone = SPEC_BY_ROLE[role].tone
        if signs != {tone}:
            got = "both" if len(signs) > 1 else _TONE_WORDS[-tone]
            raise ParseError(
                f"line {lineno}: role {role} requires a term {_TONE_WORDS[tone]} "
                f"in {var} (got {got})", 0, formula)
        regs.append(RegisteredTerm(role, var, term))
    regs.sort(key=lambda r: ROLES.index(r.role))
    try:
        return Signature(tuple(decls), tuple(regs))
    except ValueError as exc:
        raise ParseError(str(exc), 0, text) from exc
