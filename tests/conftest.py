import random

import pytest

from dlecorr import models
from dlecorr.language import (
    App, Arrow, BlackBox, BlackDia, BlackLhd, BlackRhd, Coimp, Conominal,
    DefBox, DefDia, DefLhd, DefRhd, DotBox, DotDia, DotLhd, DotRhd,
    DotBoxAdj, DotDiaAdj, DotLhdAdj, DotRhdAdj, Layer, Nominal,
    Residual, Signature, Term, Var, TOP, BOT, join, meet,
)
from dlecorr.parsing import parse_signature

CLASSICAL_SIG_TEXT = """\
# classical unary signature with registered role terms
conn dia F 1 (1)
conn box G 1 (1)
term pi = dia(box(dia(p)))
term sigma = box(p)
"""


@pytest.fixture(scope="session")
def classical_sig() -> Signature:
    return parse_signature(CLASSICAL_SIG_TEXT)


@pytest.fixture(scope="session")
def bare_sig() -> Signature:
    return parse_signature("conn dia F 1 (1)\nconn box G 1 (1)")


# binary connectives with mixed order types, no shadowing
MIXED_SIG_TEXT = "conn oplus F 2 (1,d)\nconn arrow2 G 2 (d,1)\nconn nabla G 1 (d)"


@pytest.fixture(scope="session")
def mixed_sig() -> Signature:
    return parse_signature(MIXED_SIG_TEXT)


def random_any_term(rng: random.Random, sig: Signature, layer: Layer,
                    depth: int, polarity_free: bool = True) -> Term:
    """Arbitrary well-formed term at the given layer (for round-trip and
    robustness tests; no classification constraints)."""
    atoms = [lambda: Var(rng.choice("pqr")), lambda: TOP, lambda: BOT]
    if layer >= Layer.DLEPLUS:
        atoms.append(lambda: Nominal(rng.choice(("i0", "j1", "j2"))))
        atoms.append(lambda: Conominal(rng.choice(("m0", "n1"))))
    if depth <= 0:
        return rng.choice(atoms)()
    options = ["atom", "meet", "join"] + [d.name for d in sig.connectives]
    if layer >= Layer.DLESTAR and not sig.shadows("dia"):
        options += ["dot"]
    if layer >= Layer.DLEPLUS:
        options += ["res", "arrow", "coimp"]
        if not sig.shadows("dia"):
            options += ["dotadj"]
    if layer >= Layer.DLEPP:
        options += [r for r in ("defadj",) if sig.registered]
    pick = rng.choice(options)
    sub = lambda: random_any_term(rng, sig, layer, depth - 1)
    if pick == "atom":
        return rng.choice(atoms)()
    if pick == "meet":
        return meet(sub(), sub())
    if pick == "join":
        return join(sub(), sub())
    if pick == "arrow":
        return Arrow((sub(), sub()))
    if pick == "coimp":
        return Coimp((sub(), sub()))
    if pick == "dot":
        return rng.choice((DotDia, DotBox, DotLhd, DotRhd))((sub(),))
    if pick == "dotadj":
        return rng.choice((DotDiaAdj, DotBoxAdj, DotLhdAdj, DotRhdAdj))((sub(),))
    if pick == "res":
        decl = rng.choice(sig.connectives)
        coord = rng.randint(1, max(decl.arity, 1)) if decl.arity else None
        if decl.arity == 0:
            return App(decl, ())
        return Residual(decl, coord, tuple(sub() for _ in range(decl.arity)))
    if pick == "defadj":
        regs = list(sig.registered)
        reg = rng.choice(regs)
        node = {"pi": (DefDia, BlackBox), "sigma": (DefBox, BlackDia),
                "lambda": (DefLhd, BlackLhd), "rho": (DefRhd, BlackRhd)}[reg.role]
        return rng.choice(node)((sub(),))
    decl = sig.decl(pick)
    return App(decl, tuple(sub() for _ in range(decl.arity)))


def relational_dle(sig: Signature, npoints: int, pairs,
                   names=("dia", "box")) -> models.FiniteDLE:
    poset = models.antichain(npoints)
    rel = models.Relation.from_pairs(npoints, pairs)
    dle = models.FiniteDLE(poset, sig)
    for name in names:
        dle.add_op(name, rel)
    return dle
