"""ASCII printer for terms and inequalities.

Round-trips with the parser: for a term built from a signature's own
constructors (and from the dotted modalities only when the signature does
not shadow their spellings), ``parse_term(print_term(t))`` returns ``t``.
"""

from __future__ import annotations

from .language import (
    INFIX_RESIDUALS, SPEC_BY_DEFINED, App, Bot, Conominal, Inequality, Join,
    Meet, Nominal, Residual, Term, Top, Var,
)

# (declaration, coordinate) -> the infix spelling of that residual
_INFIX = {residual: op for op, residual in INFIX_RESIDUALS.items()}


# Precedence levels: atoms 4, & 3, | 2, ->/-. 1.
def _prec(t: Term) -> int:
    if isinstance(t, Meet):
        return 3
    if isinstance(t, Join):
        return 2
    if isinstance(t, Residual) and (t.decl, t.coord) in _INFIX:
        return 1
    return 4


def print_term(t: Term, memo: dict[Term, str] | None = None) -> str:
    """``memo`` maps terms to their strings: a caller that prints many
    terms with shared subterms passes one dict to each call."""
    if memo is None:
        memo = {}
    s = memo.get(t)
    if s is None:
        s = memo[t] = _print(t, memo)
    return s


def _print(t: Term, memo: dict[Term, str]) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Nominal):
        return "#" + t.name
    if isinstance(t, Conominal):
        return "@" + t.name
    if isinstance(t, Top):
        return "top"
    if isinstance(t, Bot):
        return "bot"
    if isinstance(t, Meet):
        return _binary(t, "&", 3, memo)
    if isinstance(t, Join):
        return _binary(t, "|", 2, memo)
    if isinstance(t, App):
        # Dia[pi](t), or f(...) for a declared connective or a dotted marker
        spec = SPEC_BY_DEFINED.get(t.decl) if t.decl.role else None
        if spec is not None:
            return f"{spec.defined_head}[{spec.role}]({print_term(t.args[0], memo)})"
        return t.decl.name + "(" + ", ".join(print_term(a, memo) for a in t.args) + ")"
    # a residual: a -> b, a -. b, bsq[pi](t) or res(f,i)(...)
    op = _INFIX.get((t.decl, t.coord))
    if op is not None:
        return _binary(t, op, 1, memo, chain=False)
    spec = SPEC_BY_DEFINED.get(t.decl)
    if spec is not None:
        return f"{spec.black_head}[{spec.role}]({print_term(t.args[0], memo)})"
    return (f"res({t.decl.name},{t.coord})("
            + ", ".join(print_term(a, memo) for a in t.args) + ")")


def _binary(t: Term, op: str, level: int, memo: dict[Term, str],
            chain: bool = True) -> str:
    a, b = t.args
    left = print_term(a, memo)
    right = print_term(b, memo)
    # Left-associative chains at the same level stay unparenthesized.
    if _prec(a) < level or (not chain and _prec(a) <= level):
        left = "(" + left + ")"
    if _prec(b) <= level:
        right = "(" + right + ")"
    return f"{left} {op} {right}"


def print_inequality(ineq: Inequality, memo: dict[Term, str] | None = None) -> str:
    return print_term(ineq.lhs, memo) + " <= " + print_term(ineq.rhs, memo)
