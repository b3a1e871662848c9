"""ASCII printer for terms and inequalities.

Round-trips with the parser: for a term built from a signature's own
constructors (and from the dotted modalities only when the signature does
not shadow their spellings), ``parse_term(print_term(t))`` returns ``t``.
"""

from __future__ import annotations

from .language import (
    SPEC_BY_NODE, App, Arrow, Bot, Coimp, Conominal, Inequality, Join, Meet,
    Nominal, Residual, Term, Top, Var,
)


# Precedence levels: atoms 4, & 3, | 2, ->/-. 1.
def _prec(t: Term) -> int:
    if isinstance(t, Meet):
        return 3
    if isinstance(t, Join):
        return 2
    if isinstance(t, (Arrow, Coimp)):
        return 1
    return 4


def print_term(t: Term) -> str:
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
        return _binary(t, "&", 3)
    if isinstance(t, Join):
        return _binary(t, "|", 2)
    if isinstance(t, Arrow):
        return _binary(t, "->", 1, chain=False)
    if isinstance(t, Coimp):
        return _binary(t, "-.", 1, chain=False)
    if isinstance(t, App):
        return t.decl.name + "(" + ", ".join(print_term(a) for a in t.args) + ")"
    if isinstance(t, Residual):
        return (f"res({t.decl.name},{t.coord})("
                + ", ".join(print_term(a) for a in t.args) + ")")
    cls = type(t)
    spec = SPEC_BY_NODE.get(cls)
    if spec is not None:
        arg = print_term(t.args[0])
        if cls is spec.dot:
            return f"{spec.dotted}({arg})"
        if cls is spec.dot_adj:
            return f"res({spec.dotted},1)({arg})"
        head = spec.defined_head if cls is spec.defined else spec.black_head
        return f"{head}[{spec.role}]({arg})"
    raise TypeError(f"cannot print {t!r}")


def _binary(t: Term, op: str, level: int, chain: bool = True) -> str:
    a, b = t.args
    left = print_term(a)
    right = print_term(b)
    # Left-associative chains at the same level stay unparenthesized.
    if _prec(a) < level or (not chain and _prec(a) <= level):
        left = "(" + left + ")"
    if _prec(b) <= level:
        right = "(" + right + ")"
    return f"{left} {op} {right}"


def print_inequality(ineq: Inequality) -> str:
    return print_term(ineq.lhs) + " <= " + print_term(ineq.rhs)
