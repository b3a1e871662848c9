import hashlib
import pathlib
import random
from typing import NamedTuple

import pytest

from dlecorr import models
from dlecorr.language import (
    JOIN, MEET, App, Conominal, Layer, Nominal, ROLE_SPECS, Residual,
    SPEC_BY_ROLE, Signature, Term, Var, TOP, BOT, join, meet,
)
from dlecorr.parsing import parse_signature

GOLDEN = pathlib.Path(__file__).parent / "golden"
SIG = GOLDEN / "classical.sig"
CLASSICAL_SIG_TEXT = SIG.read_text(encoding="utf-8")


class Case(NamedTuple):
    """A CLI run whose output the golden file ``out`` holds."""

    out: str
    command: str
    ineq: str
    mode: str = "alba"
    script: str | None = None  # a rule script under tests/golden
    code: int = 0

    def argv(self) -> list[str]:
        script = ["--strategy", str(GOLDEN / self.script)] if self.script else []
        # verify sweeps the posets of at most 2 points
        budget = ["--budget", "2"] if self.command == "verify" else []
        return [self.command, self.ineq, "--sig", str(SIG), "--mode", self.mode, *script, *budget]


CHURCH_ROSSER = "dia(box(p)) <= box(dia(p))"
ADDITIVITY = "dia(box(dia(p | q))) <= dia(box(dia(p))) | dia(box(dia(q)))"
GEACH = "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))"

# every golden output of the CLI; scripts/reproduce_traces.py writes them
# and test_cli compares them byte for byte
CASES = [
    Case("churchrosser.trace", "reduce", CHURCH_ROSSER),
    Case("additivity.trace", "reduce", ADDITIVITY, "albae"),
    Case("geach.trace", "reduce", GEACH, "albae"),
    Case("tense.trace", "reduce", CHURCH_ROSSER, script="tense.script"),
    Case("pseudo.trace", "reduce", "dia(box(dia(p))) <= Dia[pi](p) | dia(box(dia(bot)))",
         "albae", "pseudo.script"),
    Case("stageone.trace", "reduce", "box(box(q) | (top | p)) <= box((bot | bot) & dia(q))"),
    Case("distsigma.trace", "reduce", "box(p | box(p)) <= box(p & box(p))", "albae"),
    Case("churchrosser.classify", "classify", CHURCH_ROSSER),
    Case("additivity.classify", "classify", ADDITIVITY, "albae"),
    Case("pisigma.classify", "classify", "box(dia(box(p))) <= dia(box(dia(p)))", "albae"),
    Case("mckinsey.classify", "classify", "box(dia(p)) <= dia(box(p))", code=3),
    Case("churchrosser.verify", "verify", CHURCH_ROSSER),
    Case("geach.verify", "verify", GEACH, "albae"),
]

# each record file under tests/golden, <name>.records, holds the lines of
# the function <name>_records of its test module, one line per seeded input
RECORDS = {"reduction": "test_engine", "classifier": "test_classify", "oracle": "test_models",
           "lemmas": "test_models", "random_dle": "test_models", "orbits": "test_models",
           "normal_tables": "test_models"}


def assert_records(name: str, lines: list[str]) -> None:
    """``lines`` are those of the record file ``name``, byte for byte."""
    assert [*lines, ""] == (GOLDEN / f"{name}.records").read_bytes().decode().split("\n")


def short_hash(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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


def dotted(role: str, t: Term) -> Term:
    """The dotted marker of ``role`` at ``t``: dia(t), box(t), lhd(t), rhd(t)."""
    return App(SPEC_BY_ROLE[role].decl, (t,))


def defined(role: str, t: Term) -> Term:
    """The defined modality of ``role`` at ``t``: Dia[pi](t), Box[sigma](t),
    Lhd[lambda](t), Rhd[rho](t)."""
    return App(SPEC_BY_ROLE[role].defined_decl, (t,))


def adjoint(role: str, t: Term) -> Term:
    """The adjoint of the defined modality of ``role`` at ``t``, its
    residual: bsq[pi](t), bdia[sigma](t), blhd[lambda](t), brhd[rho](t)."""
    return Residual(SPEC_BY_ROLE[role].defined_decl, 1, (t,))


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
        return Residual(MEET, 2, (sub(), sub()))
    if pick == "coimp":
        return Residual(JOIN, 1, (sub(), sub()))
    if pick == "dot":
        return App(rng.choice(ROLE_SPECS).decl, (sub(),))
    if pick == "dotadj":
        return Residual(rng.choice(ROLE_SPECS).decl, 1, (sub(),))
    if pick == "res":
        decl = rng.choice(sig.connectives)
        coord = rng.randint(1, max(decl.arity, 1)) if decl.arity else None
        if decl.arity == 0:
            return App(decl, ())
        return Residual(decl, coord, tuple(sub() for _ in range(decl.arity)))
    if pick == "defadj":
        regs = list(sig.registered)
        reg = rng.choice(regs)
        make = rng.choice((lambda t: defined(reg.role, t),
                           lambda t: adjoint(reg.role, t)))
        return make(sub())
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


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    """The subterm of ``t`` at ``path``, a tuple of argument positions."""
    for i in path:
        t = t.args[i]
    return t
