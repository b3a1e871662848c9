"""An evaluator written from the definitions, apart from ``models``.

A poset on n points is given by ``up``: ``up[x]`` is the bitmask of the
points y with x <= y.  Its lattice is the set of upsets, as bitmasks,
ordered by inclusion.  A relation R is given by ``rows``: ``rows[x]`` is
the bitmask of the R-successors of x.  On upsets,

  dia U = the upward closure of {x : x R y for some y in U}
  box U = the largest upset inside {x : y in U for every y with x R y}

Validity of an inequality is checked by enumerating every valuation of
its variables.  Nothing here calls into ``models``; the test compares
``models.check_validity`` with it.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLASSICAL_SIG_TEXT
from dlecorr.language import App, Bot, Inequality, Join, Meet, Top, Var
from dlecorr.models import FiniteDLE, Poset, Relation, check_validity
from dlecorr.parsing import parse_signature

SIG = parse_signature(CLASSICAL_SIG_TEXT)
DIA, BOX = SIG.decl("dia"), SIG.decl("box")


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


def evaluate(t, up, rows, val) -> int:
    n = len(up)
    if isinstance(t, Var):
        return val[t.name]
    if isinstance(t, Top):
        return (1 << n) - 1
    if isinstance(t, Bot):
        return 0
    a = [evaluate(s, up, rows, val) for s in t.args]
    if isinstance(t, Meet):
        return a[0] & a[1]
    if isinstance(t, Join):
        return a[0] | a[1]
    if isinstance(t, App) and t.decl.name == "dia":
        return up_closure(sum(1 << x for x in range(n) if rows[x] & a[0]), up)
    if isinstance(t, App) and t.decl.name == "box":
        return interior(sum(1 << x for x in range(n) if rows[x] | a[0] == a[0]), up)
    raise ValueError(f"no reference semantics for {t!r}")


def variables(t) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    return set().union(*(variables(s) for s in t.args))


def falsifies(ineq, up, rows, val) -> bool:
    lhs, rhs = (evaluate(t, up, rows, val) for t in (ineq.lhs, ineq.rhs))
    return lhs & ~rhs != 0


def reference_validity(ineq, up, rows) -> bool:
    names = sorted(variables(ineq.lhs) | variables(ineq.rhs))
    return not any(falsifies(ineq, up, rows, dict(zip(names, values)))
                   for values in product(upsets(up), repeat=len(names)))


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


dle_terms = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("r"), Top(), Bot()]),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(Meet),
        st.tuples(sub, sub).map(Join),
        sub.map(lambda t: App(DIA, (t,))),
        sub.map(lambda t: App(BOX, (t,))),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(frame=relational_frames(), lhs=dle_terms, rhs=dle_terms)
def test_check_validity_agrees_with_the_reference(frame, lhs, rhs):
    up, rows = frame
    dle = FiniteDLE(Poset(len(up), up), SIG)
    for name in ("dia", "box"):
        dle.add_op(name, Relation(rows), validate=False)
    ineq = Inequality(lhs, rhs)
    valid, counterexample = check_validity(ineq, dle)
    assert valid == reference_validity(ineq, up, rows)
    if not valid:
        # element i of the lattice is the i-th upset in ascending mask order
        elements = upsets(up)
        val = {name: elements[i] for name, i in counterexample.var_map.items()}
        assert falsifies(ineq, up, rows, val)
