"""An evaluator written from the definitions, apart from ``models``.

A poset on n points is given by ``up``: ``up[x]`` is the bitmask of the
points y with x <= y.  Its lattice is the set of upsets, as bitmasks,
ordered by inclusion.  A relation R is given by ``rows``: ``rows[x]`` is
the bitmask of the R-successors of x.  On upsets,

  dia U = the upward closure of {x : x R y for some y in U}
  box U = the largest upset inside {x : y in U for every y with x R y}

and the residual of an operation f in its coordinate i, res(f,i)(..., A,
...) with A in coordinate i, is the join or the meet of the upsets C with
f(..., C, ...) inside A (f preserves joins) or containing A (f preserves
meets), C in coordinate i.  It is the join when the coordinate has
bottom as unit: f preserves joins and is monotone there, or preserves
meets and is antitone there.  The meet preserves joins and the join
preserves meets, both monotone in each coordinate, so

  A -> B = res(meet,2)(A, B) = the largest upset C with A & C inside B
  A -. B = res(join,1)(A, B) = the least upset C with A inside C | B

A nominal ranges over the principal upsets, the upsets of single points,
and a conominal over the complements of the principal downsets.  The
signature registers role terms for pi and sigma, and their defined
modalities read the role term off these:

  Dia[pi] U = the union of pi(up x) over the points x in U
  Box[sigma] U = the intersection of sigma(C) over the complements C
                 of the principal downsets of the points not in U

Dia[pi] preserves joins and Box[sigma] meets, both monotone, so their
adjoints are residuals as above: res(Dia,1) and res(Box,1).

Validity of an inequality is checked by enumerating every valuation of
its symbols, and a pure quasi-inequality holds when every valuation of
its nominals and conominals that satisfies its antecedents satisfies its
goal.  A rule step is sound when its parent system holds exactly when
its child does.  Nothing here calls into ``models``; the tests compare
``models.check_validity``, ``models.check_quasi`` and
``models.verify_rule_step`` with it.
"""

from functools import reduce
from itertools import product
from operator import and_, or_

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLASSICAL_SIG_TEXT, defined
from dlecorr.engine import SysIneq, System
from dlecorr.language import (
    JOIN, MEET, SPEC_BY_ROLE, App, Bot, Conominal, Inequality, Join, Meet,
    Nominal, Residual, Top, Var,
)
from dlecorr.models import (
    FiniteDLE, Poset, Relation, check_quasi, check_validity, verify_rule_step,
)
from dlecorr.parsing import parse_signature

SIG = parse_signature(CLASSICAL_SIG_TEXT)
DIA, BOX = SIG.decl("dia"), SIG.decl("box")
# the defined modalities of pi and sigma read as unary connectives
DEF_DIA, DEF_BOX = (SPEC_BY_ROLE[role].defined_decl for role in ("pi", "sigma"))
# the operation of the meet and the join; an App names its own
OPERATIONS = {Meet: MEET, Join: JOIN}


def points(mask: int, n: int) -> list[int]:
    return [x for x in range(n) if mask >> x & 1]


def is_upset(mask: int, up: tuple[int, ...]) -> bool:
    return all(up[x] | mask == mask for x in points(mask, len(up)))


def upsets(up: tuple[int, ...]) -> list[int]:
    """Every upset, in ascending order of its mask."""
    return [m for m in range(1 << len(up)) if is_upset(m, up)]


def up_closure(mask: int, up: tuple[int, ...]) -> int:
    out = 0
    for x in points(mask, len(up)):
        out |= up[x]
    return out


def interior(mask: int, up: tuple[int, ...]) -> int:
    """The largest upset inside ``mask``: the points all of whose
    successors in the order lie in it."""
    return sum(1 << x for x in range(len(up)) if up[x] | mask == mask)


def domain(kind, up: tuple[int, ...]) -> list[int]:
    """The values a symbol of node class ``kind`` ranges over."""
    n, full = len(up), (1 << len(up)) - 1
    if kind is Nominal:
        return [up[x] for x in range(n)]
    if kind is Conominal:  # the points not below x
        return [full & ~sum(1 << y for y in range(n) if up[y] >> x & 1)
                for x in range(n)]
    return upsets(up)


def operate(decl, a: list[int], up, rows) -> int:
    """The value of the operation ``decl`` at the upsets ``a``."""
    n = len(up)
    if decl == MEET:
        return a[0] & a[1]
    if decl == JOIN:
        return a[0] | a[1]
    if decl == DIA:
        return up_closure(sum(1 << x for x in range(n) if rows[x] & a[0]), up)
    if decl == BOX:
        return interior(sum(1 << x for x in range(n) if rows[x] | a[0] == a[0]), up)
    if decl == DEF_DIA:
        return reduce(or_, (role_term("pi", up[x], up, rows)
                            for x in points(a[0], n)), 0)
    if decl == DEF_BOX:
        full = (1 << n) - 1
        return reduce(and_, (role_term("sigma", domain(Conominal, up)[x], up, rows)
                             for x in range(n) if not a[0] >> x & 1), full)
    raise ValueError(f"no reference semantics for {decl.name}")


def role_term(role: str, value: int, up, rows) -> int:
    """The registered term of ``role`` with ``value`` for its variable."""
    reg = SIG.role(role)
    return evaluate(reg.term, up, rows, {reg.var: value})


def evaluate(t, up, rows, val) -> int:
    full = (1 << len(up)) - 1
    if isinstance(t, (Var, Nominal, Conominal)):
        return val[t.name]
    if isinstance(t, Top):
        return full
    if isinstance(t, Bot):
        return 0
    a = [evaluate(s, up, rows, val) for s in t.args]
    if isinstance(t, App):
        return operate(t.decl, a, up, rows)
    if type(t) in OPERATIONS:
        return operate(OPERATIONS[type(t)], a, up, rows)
    if isinstance(t, Residual):
        decl, h = t.decl, t.coord - 1
        preserves_joins = decl.family == "F"
        cs = [c for c in upsets(up)
              for fc in [operate(decl, a[:h] + [c] + a[h + 1:], up, rows)]
              if (fc & ~a[h] if preserves_joins else a[h] & ~fc) == 0]
        if preserves_joins == (decl.order_type[h] == "1"):  # bottom is the unit
            return reduce(or_, cs, 0)
        return reduce(and_, cs, full)
    raise ValueError(f"no reference semantics for {t!r}")


def symbols(t) -> set:
    """The (node class, name) of every variable, nominal and conominal."""
    if isinstance(t, (Var, Nominal, Conominal)):
        return {(type(t), t.name)}
    return set().union(*(symbols(s) for s in t.args))


def valuations(terms, up):
    """Every valuation of the symbols of ``terms``, as a name -> value map."""
    names = sorted(set().union(*map(symbols, terms)), key=lambda s: s[1])
    for values in product(*(domain(kind, up) for kind, _ in names)):
        yield {name: v for (_, name), v in zip(names, values)}


def holds(ineq, up, rows, val) -> bool:
    lhs, rhs = (evaluate(t, up, rows, val) for t in (ineq.lhs, ineq.rhs))
    return lhs & ~rhs == 0


def reference_validity(ineq, up, rows) -> bool:
    return all(holds(ineq, up, rows, val)
               for val in valuations([ineq.lhs, ineq.rhs], up))


def reference_quasi(system, up, rows) -> bool:
    ineqs = [si.ineq for si in system.ineqs]
    terms = [t for iq in ineqs + [system.goal] for t in (iq.lhs, iq.rhs)]
    return all(holds(system.goal, up, rows, val)
               for val in valuations(terms, up)
               if all(holds(iq, up, rows, val) for iq in ineqs))


@st.composite
def relational_frames(draw):
    """A poset on 1 to 3 points, with some order of its labels as a linear
    extension, and any relation on its points."""
    n = draw(st.integers(1, 3))
    less = {(x, y) for x in range(n) for y in range(x + 1, n) if draw(st.booleans())}
    for y, x, z in product(range(n), repeat=3):  # transitive closure (Warshall)
        if (x, y) in less and (y, z) in less:
            less.add((x, z))
    up = tuple((1 << x) | sum(1 << y for y in range(n) if (x, y) in less)
               for x in range(n))
    rows = tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    return up, rows


def relational_dle(up, rows) -> FiniteDLE:
    dle = FiniteDLE(Poset(len(up), up), SIG)
    for name in ("dia", "box"):
        dle.add_op(name, Relation(rows), validate=False)
    return dle


def terms_over(leaves):
    return st.recursive(
        st.sampled_from(leaves + [Top(), Bot()]),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(Meet),
            st.tuples(sub, sub).map(Join),
            st.tuples(sub, sub).map(lambda ab: Residual(MEET, 2, ab)),
            st.tuples(sub, sub).map(lambda ab: Residual(JOIN, 1, ab)),
            sub.map(lambda t: App(DIA, (t,))),
            sub.map(lambda t: App(BOX, (t,))),
            sub.map(lambda t: Residual(DIA, 1, (t,))),
            sub.map(lambda t: Residual(BOX, 1, (t,))),
            sub.map(lambda t: defined("pi", t)),
            sub.map(lambda t: defined("sigma", t)),
            sub.map(lambda t: Residual(DEF_DIA, 1, (t,))),
            sub.map(lambda t: Residual(DEF_BOX, 1, (t,))),
        ),
        max_leaves=6,
    )


NOMINALS = [Nominal("i"), Nominal("j")]
CONOMINALS = [Conominal("m"), Conominal("n")]
dle_terms = terms_over([Var("p"), Var("q"), Var("r"), NOMINALS[0], CONOMINALS[0]])
pure_terms = terms_over(NOMINALS + CONOMINALS)


@settings(max_examples=300, deadline=None)
@given(frame=relational_frames(), lhs=dle_terms, rhs=dle_terms)
def test_check_validity_agrees_with_the_reference(frame, lhs, rhs):
    up, rows = frame
    ineq = Inequality(lhs, rhs)
    valid, counterexample = check_validity(ineq, relational_dle(up, rows))
    assert valid == reference_validity(ineq, up, rows)
    if not valid:
        # element i of the lattice is the i-th upset in ascending mask order
        elements = upsets(up)
        val = {}
        for kind, found in ((Var, counterexample.var_map),
                            (Nominal, counterexample.nom_map),
                            (Conominal, counterexample.conom_map)):
            for name, i in found.items():
                assert elements[i] in domain(kind, up)
                val[name] = elements[i]
        assert not holds(ineq, up, rows, val)


def systems_over(terms):
    """Systems of up to two antecedents over ``terms`` with a goal."""
    return st.builds(
        lambda antecedents, i, m: System(
            tuple(SysIneq(Inequality(a, b)) for a, b in antecedents), Inequality(i, m)),
        st.lists(st.tuples(terms, terms), max_size=2),
        st.sampled_from(NOMINALS), st.sampled_from(CONOMINALS))


pure_systems = systems_over(pure_terms)


@settings(max_examples=200, deadline=None)
@given(frame=relational_frames(), systems=st.lists(pure_systems, min_size=1, max_size=2))
def test_check_quasi_agrees_with_the_reference(frame, systems):
    up, rows = frame
    assert check_quasi(systems, relational_dle(up, rows)) == all(
        reference_quasi(system, up, rows) for system in systems)


# systems of rule steps: one variable besides the nominals and conominals
step_systems = systems_over(terms_over([Var("p"), *NOMINALS, *CONOMINALS]))


@settings(max_examples=200, deadline=None)
@given(frame=relational_frames(), a=step_systems, b=step_systems)
def test_verify_rule_step_agrees_with_the_reference(frame, a, b):
    # checked twice and then crosswise: the later checks read the verdicts
    # that the lattice keeps
    up, rows = frame
    dle = relational_dle(up, rows)
    sound = reference_quasi(a, up, rows) == reference_quasi(b, up, rows)
    for parent, child in ((a, b), (a, b), (b, a)):
        assert verify_rule_step(parent, [child], dle) == sound
