import gc
import random
import re
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import permutations, product
from operator import or_

import pytest

from conftest import (
    CLASSICAL_SIG_TEXT, MIXED_SIG_TEXT, adjoint, assert_records, defined, dotted,
    relational_dle, short_hash,
)
from dlecorr import generators, language, models
from dlecorr.engine import SysIneq, System, rule_steps, run_alba
from dlecorr.language import (
    BOT, JOIN, MEET, MONO, ROLE_SPECS, SPEC_BY_ROLE, TOP, App, Bot, Conominal,
    Inequality, Join, Layer, Meet, Nominal, Residual, Signature, Top, Var, join,
    meet, subterms,
)
from dlecorr.models import (
    Budget, BudgetExceeded, FiniteDLE, NormalityError, Poset, Relation,
    Valuation, antichain, chain, check_lemma_suite, check_quasi,
    check_validity, enumerate_posets, eval_term, load_dle, random_dle,
    random_normal_table, verify_rule_step,
)
from dlecorr.parsing import parse_inequality, parse_signature, parse_term
from dlecorr.printing import print_inequality


def test_poset_counts():
    assert len(enumerate_posets(1)) == 1
    assert len(enumerate_posets(2)) == 3
    assert len(enumerate_posets(3)) == 19
    assert len(enumerate_posets(3, up_to_iso=True)) == 5
    assert len(enumerate_posets(4, up_to_iso=True)) == 16
    assert len(enumerate_posets(5)) == 4231
    assert len(enumerate_posets(5, up_to_iso=True)) == 63


def _brute_force_posets(n):
    """Every reflexive, antisymmetric and transitive ``up`` on n points,
    in ascending order of its code sum(up[i] << n*i)."""
    out = []
    for code in range(1 << n * n):
        up = tuple(code >> n * i & (1 << n) - 1 for i in range(n))
        if all(up[i] >> i & 1 for i in range(n)) and all(
                up[j] & ~up[i] == 0 and (i == j or not up[j] >> i & 1)
                for i in range(n) for j in range(n) if up[i] >> j & 1):
            out.append(up)
    return out


def test_posets_by_extension_match_brute_force():
    for n in range(1, 5):
        assert [p.up for p in enumerate_posets(n)] == _brute_force_posets(n)


def test_poset_validation():
    with pytest.raises(models.ModelError):
        Poset(2, (0b01, 0b01))  # not reflexive at point 1
    with pytest.raises(models.ModelError):
        Poset(2, (0b11, 0b11))  # not antisymmetric
    with pytest.raises(models.ModelError, match="2 bitmasks over 2 points"):
        Poset(2, (0b101, 0b10))  # a bit above the points
    with pytest.raises(models.ModelError, match="2 bitmasks over 2 points"):
        Poset(2, (1,))


def test_upset_lattice_of_one_point_poset(bare_sig):
    dle = FiniteDLE(antichain(1), bare_sig)
    assert dle.n_elem == 2  # the two-element chain
    assert dle.bot != dle.top


def test_identity_diamond_is_normal(bare_sig):
    dle = FiniteDLE(chain(2), bare_sig)
    dle.add_op("dia", list(range(dle.n_elem)))  # identity preserves joins
    assert dle.ops["dia"] == [0, 1, 2]


def test_non_normal_table_rejected(bare_sig):
    dle = FiniteDLE(chain(2), bare_sig)
    # bottom not preserved on a type-(1) coordinate
    with pytest.raises(NormalityError):
        dle.add_op("dia", [dle.top] * dle.n_elem)
    # each (family, entry) pair on the four-element lattice bot=0, a=1,
    # b=2, top=3: the first table misplaces the unit, the second keeps it
    # but breaks the binary law
    bad_law = {("F", "1"): [0, 1, 2, 1], ("F", "d"): [1, 1, 2, 0],
               ("G", "1"): [3, 1, 2, 3], ("G", "d"): [3, 1, 2, 3]}
    for (family, entry), broken in bad_law.items():
        dle = FiniteDLE(antichain(2), parse_signature(f"conn op {family} 1 ({entry})"))
        bound = "bottom" if family == "F" else "top"
        with pytest.raises(NormalityError, match=f"unit not sent to {bound}"):
            dle.add_op("op", [dle.top if family == "F" else dle.bot] * 4)
        with pytest.raises(NormalityError, match="op coordinate 1 fails normality"):
            dle.add_op("op", broken)
        assert "op" not in dle.ops


def test_a_rejected_table_leaves_the_lattice_as_it_was(classical_sig):
    # a table of the wrong shape or with an entry out of range is refused
    # by name, not with an IndexError
    for bad in ([0, 5], [0], 1, [[0, 1], [0, 1]]):
        with pytest.raises(models.ModelError, match="^dia needs a table nested 1 deep"):
            FiniteDLE(chain(1), classical_sig, {"dia": bad})
    nullary = parse_signature("conn c F 0 ()")
    with pytest.raises(models.ModelError, match="^c needs a bare element index below 2$"):
        FiniteDLE(chain(1), nullary, {"c": 2})
    dle = FiniteDLE(chain(1), classical_sig, {"box": [0, 1]})
    with pytest.raises(models.ModelError):
        dle.add_op("dia", [0, 5])
    assert "dia" not in dle.ops
    # a non-normal table for an existing operation keeps the valid one and
    # what was derived from it
    dle.add_op("dia", [0, 1])
    pi = dle.role_table("pi")
    with pytest.raises(NormalityError):
        dle.add_op("dia", [1, 1])
    assert dle.ops["dia"] == [0, 1]
    assert dle.role_table("pi") is pi


def test_relational_generators_always_normal(bare_sig):
    rng = random.Random(9)
    for _ in range(30):
        poset = models.random_poset(rng, 3)
        rel = Relation(tuple(rng.randrange(1 << poset.n)
                             for _ in range(poset.n)))
        dle = FiniteDLE(poset, bare_sig)
        dle.add_op("dia", rel)  # validates on construction
        dle.add_op("box", rel)


def _dle_line(dle: FiniteDLE) -> str:
    return repr((dle.poset.up, sorted(dle.ops.items())))


def random_dle_records():
    """Fifty random lattices of the classical signature, of 1 to 4 points,
    one line each: each point's up-set and the sorted operation tables."""
    rng, classical_sig = random.Random(12), parse_signature(CLASSICAL_SIG_TEXT)
    draws = [random_dle(rng, classical_sig) for _ in range(50)]
    assert {d.poset.n for d in draws} == {1, 2, 3, 4}
    return ["# up-sets, operation tables", *map(_dle_line, draws)]


def test_random_dle_enumerates_each_poset_size_once(monkeypatch):
    calls = []
    real = models.enumerate_posets

    def counting(n, up_to_iso=False):
        calls.append(n)
        return real(n, up_to_iso)

    monkeypatch.setattr(models, "enumerate_posets", counting)
    lines = random_dle_records()
    assert len(calls) == len(set(calls)) <= 4
    # the draws are the ones the uncached enumeration gave
    assert_records("random_dle", lines)


def orbits_records():
    """Which representative each orbit keeps, and in what order: each poset
    of 1 to 4 points up to isomorphism, then each relation of the sweep's
    posets up to the poset's automorphisms, by its poset's index."""
    lines = []
    posets = [p for n in range(1, 5) for p in enumerate_posets(n, up_to_iso=True)]
    for i, p in enumerate(posets):
        lines.append(f"poset {i} {p.up}")
        if p.n <= 3 or p == antichain(4):
            lines += [f"{i} {r.rows}" for r in models.canonical_relations(p)]
    return lines


def test_orbit_representatives_pinned():
    lines = orbits_records()
    assert sum(not line.startswith("poset") for line in lines) == 4744
    assert_records("orbits", lines)


def _diamond(poset, rows, mask):
    """The diamond of a relation at an upset, from its definition: the
    upward closure of the points with a successor in the upset."""
    return reduce(or_, (poset.up[x] for x in range(poset.n) if rows[x] & mask), 0)


def _box(poset, rows, mask):
    """The box of a relation at an upset, from its definition: the
    largest upset inside the points whose successors all lie in it."""
    core = sum(1 << x for x in range(poset.n) if rows[x] & ~mask == 0)
    return sum(1 << x for x in range(poset.n) if poset.up[x] & ~core == 0)


def test_relational_tables_match_their_definitions(classical_sig):
    # the sweep's lattices, and on every labelled poset up to 3 points the
    # tables add_op builds from a relation
    classes = [p for n in (1, 2, 3) for p in enumerate_posets(n, up_to_iso=True)]
    labelled = [p for n in (1, 2, 3) for p in enumerate_posets(n)]
    lattices = 0
    for poset in classes + [antichain(4)] + labelled:
        for rel, dle in models.relational_lattices(classical_sig, poset):
            built = FiniteDLE(poset, classical_sig, {"dia": rel, "box": rel},
                              validate=False)
            for name, gen in (("dia", _diamond), ("box", _box)):
                expected = [dle.index[gen(poset, rel.rows, m)] for m in dle.elements]
                assert dle.ops[name] == built.ops[name] == expected
            lattices += 1
    assert lattices == 4744 + sum(len(models.canonical_relations(p)) for p in labelled)
    with pytest.raises(models.ModelError, match="^a relation on 1 points does not fit"):
        FiniteDLE(chain(2), classical_sig, {"dia": Relation((1,))})


def _orbits_by_burnside(poset):
    """The number of orbits of the relations on the poset's points under
    its automorphisms: the mean over the group of 2^(cycles on the point
    pairs), each cycle's pairs all in or all out of a fixed relation."""
    n = poset.n
    autos = [g for g in permutations(range(n))
             if all(poset.leq(g[i], g[j]) == poset.leq(i, j)
                    for i in range(n) for j in range(n))]
    fixed = 0
    for g in autos:
        seen, cycles = set(), 0
        for pair in product(range(n), repeat=2):
            cycles += pair not in seen
            while pair not in seen:
                seen.add(pair)
                pair = (g[pair[0]], g[pair[1]])
        fixed += 2 ** cycles
    assert fixed % len(autos) == 0
    return fixed // len(autos)


def test_canonical_relations_count_the_orbits():
    total = 0
    for poset in enumerate_posets(4, up_to_iso=True):
        codes = [sum(row << 4 * i for i, row in enumerate(rel.rows))
                 for rel in models.canonical_relations(poset)]
        assert codes == sorted(set(codes))
        assert len(codes) == _orbits_by_burnside(poset)
        total += len(codes)
    assert total == 603172


def test_relations_above_four_points_are_refused(classical_sig, monkeypatch):
    # 5 points would walk 2^25 codes, with 32 MiB of orbit marks
    tracemalloc.start()
    try:
        with pytest.raises(models.ModelError,
                           match="^relations are enumerated on at most 4 points, not 5$"):
            models.canonical_relations(antichain(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the sweep refuses at the call, before it enumerates a poset
    monkeypatch.setattr(models, "enumerate_posets", None)
    with pytest.raises(models.ModelError,
                       match="^relational sweeps reach at most 4 points, not 5$"):
        models.relational_sweep(classical_sig, 5)


def test_lattice_implications_are_residuals(bare_sig):
    # a & w <= b  iff  w <= a -> b,  and  a <= b | w  iff  a -. b <= w
    for n in (1, 2, 3):
        for poset in enumerate_posets(n, up_to_iso=True):
            dle = FiniteDLE(poset, bare_sig)
            arrow, coimp = dle.arrow_table(), dle.coimp_table()
            r = range(dle.n_elem)
            for a, b, w in product(r, r, r):
                assert dle.leq(dle.meet(a, w), b) == dle.leq(w, arrow[a][b])
                assert dle.leq(a, dle.join(b, w)) == dle.leq(coimp[a][b], w)


def _lookup(table, args):
    for a in args:
        table = table[a]
    return table


def test_residuation_law_on_mixed_order_types(mixed_sig):
    # f(.., x, ..) <= y  iff  x <= res(.., y, ..) on a (1) coordinate of an
    # F connective, res(.., y, ..) <= x on a (d) one; dually y <= g(..)
    # for G connectives
    rng = random.Random(14)
    for _ in range(6):
        dle = random_dle(rng, mixed_sig, max_points=3, validate=True)
        r = range(dle.n_elem)
        for decl in mixed_sig.connectives:
            for coord in range(1, decl.arity + 1):
                res = dle.residual_table(decl, coord)
                for args in product(r, repeat=decl.arity):
                    for y in r:
                        inner = list(args)
                        inner[coord - 1] = y
                        rv = _lookup(res, inner)
                        x = args[coord - 1]
                        v = _lookup(dle.ops[decl.name], args)
                        lhs = dle.leq(v, y) if decl.family == "F" else dle.leq(y, v)
                        below = (decl.family == "F") == \
                            (decl.order_type[coord - 1] == "1")
                        rhs = dle.leq(x, rv) if below else dle.leq(rv, x)
                        assert lhs == rhs, (decl.name, coord, args, y)


def _residual_by_gather(dle, decl, coord, table):
    """The residual of ``decl`` in ``coord`` from its definition: at each
    argument tuple, the join (bottom-unit coordinates) or meet of every
    element w whose value, with w in ``coord``, lies below (F) or above
    (G) the residuated argument."""
    h, r, leq = coord - 1, range(dle.n_elem), dle.leq_table
    bot = (decl.family == "F") == (decl.order_type[h] == "1")
    gather = dle.join_all if bot else dle.meet_all

    def value(args):
        vals = [_lookup(table, args[:h] + (w,) + args[h + 1:]) for w in r]
        if decl.family == "F":
            return gather(w for w in r if leq[vals[w]][args[h]])
        return gather(w for w in r if leq[args[h]][vals[w]])

    return models._tabulate(dle.n_elem, decl.arity, value)


def _assert_tables_by_gather(dle):
    """Each role, defined and residual table of ``dle``, the residuals of
    the lattice's meet and join included, in every coordinate, is the
    one its definition gathers over every element: the role term
    evaluated at each element, and the defined modality the join (F) or
    meet (G) of the role term at the irreducibles below (bottom-unit
    roles) or above each element."""
    r = range(dle.n_elem)
    tables = {decl: dle.ops[decl.name] for decl in dle.sig.connectives}
    tables.update({MEET: dle.meet_table, JOIN: dle.join_table})
    for reg in dle.sig.registered:
        spec = SPEC_BY_ROLE[reg.role]
        f = [eval_term(reg.term, dle, Valuation(var_map={reg.var: u})) for u in r]
        gather = dle.join_all if spec.family == "F" else dle.meet_all
        g = [gather(f[x] for x in dle.approximants(u, spec.bot_unit)) for u in r]
        assert dle.role_table(reg.role) == f, reg.role
        assert dle.def_table(reg.role) == g, reg.role
        tables[spec.defined_decl] = g
    for decl, table in tables.items():
        for coord in range(1, decl.arity + 1):
            assert dle.residual_table(decl, coord) == \
                _residual_by_gather(dle, decl, coord, table), (decl.name, coord)


def test_derived_tables_match_their_definitions(classical_sig, mixed_sig):
    # the tables built from the irreducibles are those gathered over
    # every element: on the whole 3-point relational sweep, on random
    # normal lattices with binary, antitone, F and G connectives and all
    # four roles, and with role terms built of the lattice constants and
    # operations and a residual
    for _, dle in models.relational_sweep(classical_sig, 3):
        _assert_tables_by_gather(dle)
    rng = random.Random(21)
    four_roles = parse_signature(CLASSICAL_SIG_TEXT + LR_SIG_TEXT)
    for sig in (mixed_sig, four_roles):
        for _ in range(20):
            _assert_tables_by_gather(random_dle(rng, sig, max_points=3, validate=True))
    base = parse_signature("conn dia F 1 (1)\nconn box G 1 (1)\n"
                           "term pi = dia(p & top) | bot")
    sigma = language.RegisteredTerm("sigma", "p", parse_term(
        "box(res(dia,1)(p)) & (top -> p) & (p -. bot)", base, Layer.DLEPLUS))
    constants = Signature(base.connectives, base.registered + (sigma,))
    for _, dle in models.relational_sweep(constants, 2):
        _assert_tables_by_gather(dle)
    # at full width: the bit-sliced tables hold one byte per element, so
    # on a seeded sample of the 16-element lattices of the 4-point
    # antichain they span 16 bytes; on 5- and 6-point posets, declared
    # connectives of arity 2 and 3, of both families and mixed order
    # types, have residuals in every coordinate
    rng = random.Random(37)
    wide = list(models.relational_lattices(classical_sig, antichain(4)))
    for _, dle in rng.sample(wide, 12):
        assert dle.n_elem == 16
        _assert_tables_by_gather(dle)
    sig = parse_signature("conn f F 2 (1,d)\nconn g G 2 (d,1)\n"
                          "conn h F 3 (d,1,1)\nconn k G 3 (1,1,d)")
    posets = [p for p in enumerate_posets(5, up_to_iso=True) + [chain(6)]
              if 7 <= p.skeleton.n_elem <= 9]
    arities = set()
    for poset in rng.sample(posets, 5):
        dle = FiniteDLE(poset, sig)
        for decl in sig.connectives:
            dle.add_op(decl.name, random_normal_table(rng, dle, decl))
            arities.add(decl.arity)
        _assert_tables_by_gather(dle)
    assert arities == {2, 3} and len(posets) > 5


def normal_tables_records():
    """Ten random normal lattices of the mixed signature, validated, one
    line each, which pin the RNG stream and the tables on binary and
    antitone coordinates of both families."""
    rng, mixed_sig = random.Random(10), parse_signature(MIXED_SIG_TEXT)
    lines = ["# up-sets, operation tables"]
    for _ in range(10):
        dle = random_dle(rng, mixed_sig, max_points=3, validate=True)
        assert set(dle.ops) == {d.name for d in mixed_sig.connectives}
        lines.append(_dle_line(dle))
    return lines


def test_random_normal_tables_validate():
    assert_records("normal_tables", normal_tables_records())


def test_eval_def_dia_bottom(classical_sig):
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    val = Valuation()
    assert eval_term(defined("pi", BOT), dle, val) == dle.bot


def test_eval_unbound_symbol(classical_sig):
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    with pytest.raises(models.ModelError):
        eval_term(Var("p"), dle, Valuation())


def test_eval_unregistered_role(bare_sig):
    dle = relational_dle(bare_sig, 2, [(0, 1)])
    with pytest.raises(models.ModelError):
        eval_term(defined("pi", BOT), dle, Valuation())


_X_SIG = parse_signature("conn x F 1 (1)")
_X, _J = _X_SIG.decl("x"), Nominal("j")


@pytest.mark.parametrize("term, message", [
    (App(_X, (_J,)), "no table for connective 'x'"),
    (dotted("pi", _J), "no table for connective 'dia'"),
    (Residual(SPEC_BY_ROLE["sigma"].decl, 1, (_J,)), "no table for connective 'box'"),
    (defined("pi", _J), "role 'pi' has no registered term"),
    (adjoint("rho", _J), "role 'rho' has no registered term"),
    # the heads are bound outermost first
    (App(_X, (defined("pi", _J),)), "no table for connective 'x'"),
    (join(defined("pi", _J), App(_X, (_J,))), "role 'pi' has no registered term"),
    # a residual reads its connective's table
    (Residual(_X, 1, (_J,)), "no table for connective 'x'"),
])
def test_missing_tables_are_named(term, message):
    # a lattice of the signature of x with no operation tables at all
    dle = FiniteDLE(chain(2), _X_SIG)
    budget = Budget()
    with pytest.raises(models.ModelError, match="^" + re.escape(message) + "$"):
        check_validity(Inequality(term, Var("p")), dle, budget)
    goal = Inequality(Nominal("i"), Conominal("m"))
    parent = System((SysIneq(Inequality(Nominal("i"), term)),), goal)
    with pytest.raises(models.ModelError, match="^" + re.escape(message) + "$"):
        verify_rule_step(parent, [System((), goal)], dle, budget)
    # raised before any valuation is tried
    assert budget.used == 0


def test_residual_tables_are_kept_apart_by_declaration():
    # a declared lhd of type (1) and the dotted lhd, of type (d), read one
    # table under one name, but their residuals differ: on one lattice
    # each gets the table it gets on a fresh one
    sig = parse_signature("conn lhd F 1 (1)")
    dle = FiniteDLE(chain(2), sig)
    dle.add_op("lhd", list(range(dle.n_elem)))
    terms = [Residual(sig.decl("lhd"), 1, (Var("p"),)),
             Residual(SPEC_BY_ROLE["lambda"].decl, 1, (Var("p"),))]

    def table(t, lattice):
        return [eval_term(t, lattice, Valuation(var_map={"p": u}))
                for u in range(lattice.n_elem)]

    got = [table(t, dle) for t in terms]
    assert got == [table(t, FiniteDLE(dle.poset, sig, dict(dle.ops))) for t in terms]
    assert got[0] != got[1]


def _one_of_each_head(sig: Signature) -> list:
    """A term of every head kind that ``sig`` has: the lattice constants
    and operations, the lattice implications, each connective and its
    residual in every coordinate, and the dotted marker, its residual, the
    defined and the black head of each registered role."""
    p, q, i, m = Var("p"), Var("q"), Nominal("i"), Conominal("m")
    terms = [TOP, BOT, meet(p, i), join(m, q), Residual(MEET, 2, (p, q)),
             Residual(JOIN, 1, (i, p))]
    for decl in sig.connectives:
        args = (p, m, q)[:decl.arity]
        terms.append(App(decl, args))
        terms += [Residual(decl, c, args) for c in range(1, decl.arity + 1)]
    for reg in sig.registered:
        spec = SPEC_BY_ROLE[reg.role]
        terms += [App(spec.decl, (p,)), Residual(spec.decl, 1, (p,)),
                  App(spec.defined_decl, (p,)), adjoint(reg.role, p)]
    return terms


def _fresh_copy(dle: FiniteDLE) -> FiniteDLE:
    """The same lattice with an empty cache: no derived table, no verdict."""
    return FiniteDLE(dle.poset, dle.sig, dict(dle.ops), validate=False)


def _reads_role_or_residual(t) -> bool:
    """Whether ``t``'s head is a residual or an App of a role's declaration."""
    return isinstance(t, Residual) or (isinstance(t, App) and t.decl.role is not None)


def test_fresh_and_warm_lattices_agree_on_every_head(mixed_sig):
    # a lattice whose derived tables are built and a fresh copy of it
    # give the same first counterexample and spend the same budget; a
    # check that reads no derived head builds no derived table
    four_roles = parse_signature(CLASSICAL_SIG_TEXT + LR_SIG_TEXT)
    rng = random.Random(15)
    for sig in (mixed_sig, four_roles):
        terms = _one_of_each_head(sig)
        kinds = {type(t) for t in terms}
        assert kinds >= {Top, Bot, Meet, Join, App, Residual}
        decls = {t.decl for t in terms if isinstance(t, App)}
        assert sig is mixed_sig or decls >= {decl for spec in ROLE_SPECS
                                             for decl in (spec.decl, spec.defined_decl)}
        for _ in range(4):
            dle = random_dle(rng, sig, max_points=3)
            for spec in ROLE_SPECS:
                if spec.dotted not in dle.ops:
                    dle.add_op(spec.dotted, random_normal_table(
                        rng, dle, dle._decl_for(spec.dotted)), validate=False)
            checks = [Inequality(t, Var("q")) for t in terms]
            checks += [Inequality(join(Nominal("j"), Var("q")), t) for t in terms]
            checks += [Inequality(meet(a, b), join(b, a)) for a, b in zip(terms, terms[1:])]
            for ineq in checks:
                check_validity(ineq, dle)
            for ineq in checks:
                fresh = _fresh_copy(dle)
                warm_budget, fresh_budget = Budget(), Budget()
                assert check_validity(ineq, dle, warm_budget) == \
                    check_validity(ineq, fresh, fresh_budget)
                assert warm_budget.used == fresh_budget.used
                reads_derived = any(_reads_role_or_residual(t)
                                    for side in (ineq.lhs, ineq.rhs)
                                    for t in subterms(side))
                assert reads_derived or fresh._cache == {}


def test_defined_diamond_adjunction_everywhere(classical_sig):
    for pairs in ([(0, 1)], [(0, 1), (1, 2), (2, 0)], [(0, 0), (1, 1)]):
        dle = relational_dle(classical_sig, 3, pairs)
        dia = dle.def_table("pi")
        bsq = dle.black_table("pi")
        for u in range(dle.n_elem):
            for w in range(dle.n_elem):
                assert dle.leq(dia[u], w) == dle.leq(u, bsq[w])


def test_bounded_composition_identity_on_additive_lattices(classical_sig):
    # wherever the role term is additive, f(u) = f(bot) | dia_f(u)
    checked = 0
    for pairs in ([(0, 1), (1, 0)], [(0, 0), (0, 1), (1, 1)], []):
        dle = relational_dle(classical_sig, 2, pairs)
        if not models.role_axioms_hold(dle):
            continue
        checked += 1
        f = dle.role_table("pi")
        g = dle.def_table("pi")
        for u in range(dle.n_elem):
            assert f[u] == dle.join(f[dle.bot], g[u])
    assert checked


def test_check_validity_trivial(bare_sig):
    dle = relational_dle(bare_sig, 2, [(0, 1)])
    ok, ce = check_validity(Inequality(BOT, TOP), dle)
    assert ok and ce is None


def test_check_validity_counterexample_reported(bare_sig):
    dle = relational_dle(bare_sig, 3, [(0, 1), (0, 2)])
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    ok, ce = check_validity(iq, dle)
    assert not ok and ce is not None
    # the reported valuation really falsifies the inequality
    lhs = eval_term(iq.lhs, dle, ce)
    rhs = eval_term(iq.rhs, dle, ce)
    assert not dle.leq(lhs, rhs)


def test_counterexample_description(bare_sig):
    # variables, then #nominals, then @conominals, each sorted by name,
    # every value as the points of its upset
    dle = relational_dle(bare_sig, 2, [(0, 1)])
    iq = Inequality(meet(Nominal("j2"), meet(Var("q"), Nominal("j1"))),
                    join(Conominal("n1"), Var("p")))
    ok, ce = check_validity(iq, dle)
    assert not ok
    assert ce.describe(dle) == "p={} q={0} #j1={0} #j2={0} @n1={1}"


def test_check_quasi_vacuous_antecedent(bare_sig):
    dle = relational_dle(bare_sig, 2, [(0, 1)])
    system = System((SysIneq(Inequality(TOP, BOT)),),
                    Inequality(Nominal("i0"), Conominal("m0")))
    assert check_quasi([system], dle)


def test_check_quasi_rejects_impure(bare_sig):
    dle = relational_dle(bare_sig, 2, [(0, 1)])
    system = System((SysIneq(Inequality(Var("p"), TOP)),),
                    Inequality(Nominal("i0"), Conominal("m0")))
    with pytest.raises(models.ModelError):
        check_quasi([system], dle)


def test_evaluated_connectives_are_monotone(classical_sig):
    # every unary table derived on the lattice respects its tonicity
    dle = relational_dle(classical_sig, 3, [(0, 1), (1, 2)])
    tables = {
        (1,): [dle.def_table("pi"), dle.black_table("pi"),
               dle.def_table("sigma"), dle.black_table("sigma"),
               dle.dot_adj_table("dia_adj"), dle.dot_adj_table("box_adj")],
    }
    for tones, tabs in tables.items():
        for tab in tabs:
            for a in range(dle.n_elem):
                for b in range(dle.n_elem):
                    if dle.leq(a, b):
                        assert dle.leq(tab[a], tab[b])


def test_denseness_at_finite_scale(classical_sig):
    dle = relational_dle(classical_sig, 3, [(0, 1)])
    for u in range(dle.n_elem):
        below = [j for j in dle.jirr if dle.leq(j, u)]
        above = [m for m in dle.mirr if dle.leq(u, m)]
        assert dle.join_all(below) == u
        assert dle.meet_all(above) == u


def test_verify_rule_step_split_sound_everywhere(bare_sig):
    goal = Inequality(Nominal("i0"), Conominal("m0"))
    parent = System((SysIneq(Inequality(Nominal("i0"),
                                        meet(Var("p"), Var("q")))),), goal)
    child = System((SysIneq(Inequality(Nominal("i0"), Var("p"))),
                    SysIneq(Inequality(Nominal("i0"), Var("q")))), goal)
    for pairs in ([(0, 1)], [(0, 0)], [(0, 1), (1, 0)]):
        dle = relational_dle(bare_sig, 2, pairs)
        assert verify_rule_step(parent, [child], dle)


def test_verify_rule_step_adj_pi_needs_additivity(classical_sig):
    # parent holds by transitivity alone; the adjunction unfolding of the
    # second antecedent is an equivalence exactly on lattices where the
    # role term is (completely) additive
    pi = lambda t: classical_sig.role_instance("pi", t)
    goal = Inequality(Nominal("i0"), Conominal("m0"))
    head = SysIneq(Inequality(Nominal("i0"), pi(Var("p"))))
    parent = System((head, SysIneq(Inequality(pi(Var("p")), Conominal("m0")))),
                    goal)
    child = System((head,
                    SysIneq(Inequality(Var("p"), adjoint("pi", Conominal("m0")))),
                    SysIneq(Inequality(pi(BOT), Conominal("m0")), side=True)),
                   goal)
    sound_on_additive = True
    failure_found = False
    for n in (2, 3):
        for rel in models.canonical_relations(antichain(n)):
            dle = FiniteDLE(antichain(n), classical_sig)
            dle.add_op("dia", rel, validate=False)
            dle.add_op("box", rel, validate=False)
            ok = verify_rule_step(parent, [child], dle)
            if models.role_axioms_hold(dle):
                sound_on_additive &= ok
            elif not ok:
                failure_found = True
    assert sound_on_additive
    # on some lattice where the role term is not additive the rule breaks
    assert failure_found


def test_role_axiom_verdict_once_per_lattice(classical_sig, monkeypatch):
    reads = []
    role_table = FiniteDLE.role_table
    monkeypatch.setattr(FiniteDLE, "role_table",
                        lambda self, role: reads.append(role) or role_table(self, role))
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    verdict = models.role_axioms_hold(dle)
    assert [models.role_axioms_hold(dle) for _ in range(3)] == [verdict] * 3
    assert reads == ["pi", "sigma"]
    # a new table decides again
    dle.add_op("dia", Relation.from_pairs(2, [(0, 1), (1, 0)]))
    models.role_axiom_holds(dle, "pi")
    assert reads == ["pi", "sigma", "pi"]


def test_lemma_suite_identity_role():
    sig = parse_signature("conn dia F 1 (1)\nconn box G 1 (1)\nterm pi = p")
    dle = relational_dle(sig, 2, [(0, 1)])
    report = check_lemma_suite(dle)
    assert report.ok


def test_lemma_suite_relational_sweep(classical_sig):
    for n in (1, 2):
        for rel in models.canonical_relations(antichain(n)):
            dle = FiniteDLE(antichain(n), classical_sig)
            dle.add_op("dia", rel, validate=False)
            dle.add_op("box", rel, validate=False)
            report = check_lemma_suite(dle)
            assert report.ok, report.role_results


def test_lemma_suite_holds_on_the_3_point_sweep(classical_sig):
    # every lattice of the 3-point relational sweep passes the lemma suite,
    # and pi's registered term is additive on 1648 of the 1700
    total = additive = 0
    for _, dle in models.relational_sweep(classical_sig, 3):
        total += 1
        assert check_lemma_suite(dle).ok, (dle.poset, total)
        additive += models.role_axiom_holds(dle, "pi")
    assert (total, additive) == (1700, 1648)


def test_nonadditive_witness_exists(classical_sig):
    found = None
    for n in (2, 3):
        for rel in models.canonical_relations(antichain(n)):
            dle = FiniteDLE(antichain(n), classical_sig)
            dle.add_op("dia", rel, validate=False)
            dle.add_op("box", rel, validate=False)
            f = dle.role_table("pi")
            additive = all(
                dle.leq(f[dle.join(a, b)], dle.join(f[a], f[b]))
                for a in range(dle.n_elem) for b in range(dle.n_elem))
            if not additive:
                found = dle
                break
        if found:
            break
    assert found is not None
    dle = found
    f = dle.role_table("pi")
    g = dle.def_table("pi")
    adj = dle.black_table("pi")
    # the bounded-composition identity fails somewhere
    assert any(f[u] != dle.join(f[dle.bot], g[u]) for u in range(dle.n_elem))
    # and the pure pseudo-correspondent fails at some conominal
    assert any(dle.leq(f[dle.bot], m) and not dle.leq(f[adj[m]], m)
               for m in dle.mirr)


def test_budget_exceeded_is_loud(bare_sig):
    dle = relational_dle(bare_sig, 3, [(0, 1)])
    iq = parse_inequality("dia(p) & dia(q) & dia(r) <= top", bare_sig, Layer.DLE)
    budget = Budget(limit=10)
    with pytest.raises(BudgetExceeded):
        check_validity(iq, dle, budget)
    # raised on the eleventh valuation, before it is evaluated
    assert budget.used == 11


def test_budget_counts_every_valuation(bare_sig):
    dle = relational_dle(bare_sig, 3, [(0, 1), (1, 2)])
    n, nj, nm = dle.n_elem, len(dle.jirr), len(dle.mirr)
    # a passing check spends the product of its domain sizes
    valid = parse_inequality("#i & dia(p) <= dia(p) | @m", bare_sig, Layer.DLEPLUS)
    budget = Budget()
    assert check_validity(valid, dle, budget)[0]
    assert budget.used == n * nj * nm
    # the budget keeps counting across checks; a failing check stops at
    # its first counterexample, counted in enumeration order (variables,
    # then nominals, then conominals, each sorted)
    invalid = parse_inequality("#j & q <= dia(p)", bare_sig, Layer.DLEPLUS)
    ok, ce = check_validity(invalid, dle, budget)
    assert not ok
    rank = (ce.var_map["p"] * n + ce.var_map["q"]) * nj + dle.jirr.index(ce.nom_map["j"])
    assert budget.used == n * nj * nm + rank + 1
    # a step between two valid quasi-inequalities spends both in full
    goal = Inequality(Nominal("i0"), Conominal("m0"))
    p_below = SysIneq(Inequality(Var("p"), Conominal("m0")))
    parent = System((SysIneq(Inequality(Nominal("i0"), meet(Var("p"), Var("q")))),
                     p_below), goal)
    child = System((SysIneq(Inequality(Nominal("i0"), Var("p"))),
                    SysIneq(Inequality(Nominal("i0"), Var("q"))), p_below), goal)
    budget = Budget()
    assert verify_rule_step(parent, [child], dle, budget)
    assert budget.used == 2 * n * n * nj * nm


def test_symbols_named_like_generated_identifiers(bare_sig):
    # user names that look like the generated identifiers
    dle = relational_dle(bare_sig, 2, [(0, 1), (1, 0)])
    s0, t0, budget = Var("s0"), Var("T0"), Var("budget")
    term = join(meet(s0, t0), budget)
    for a, b, c in product(range(dle.n_elem), repeat=3):
        val = Valuation(var_map={"s0": a, "T0": b, "budget": c})
        assert eval_term(term, dle, val) == dle.join(dle.meet(a, b), c)
    assert check_validity(Inequality(meet(budget, s0), budget), dle)[0]
    ok, ce = check_validity(Inequality(s0, meet(t0, Var("v7"))), dle)
    assert not ok and ce.var_map == {"T0": 0, "s0": 1, "v7": 0}
    v0 = Nominal("v0")
    ok, ce = check_validity(Inequality(join(v0, s0), Conominal("D0")), dle)
    assert not ok and (ce.var_map, ce.nom_map, ce.conom_map) == (
        {"s0": 0}, {"v0": dle.jirr[0]}, {"D0": dle.mirr[0]})
    # and like the names the kernel binds the lattice to
    h, ops = Nominal("H"), Var("ops")
    assert check_validity(Inequality(meet(h, Var("dle")), join(ops, h)), dle)[0]
    ok, ce = check_validity(Inequality(h, meet(ops, Conominal("leq"))), dle)
    assert not ok and (ce.var_map, ce.nom_map, ce.conom_map) == (
        {"ops": 0}, {"H": dle.jirr[0]}, {"leq": dle.mirr[0]})


def test_deep_systems_beyond_the_nesting_limit(classical_sig):
    # 26 quantified symbols: more loops than CPython nests in one function
    dle = FiniteDLE(chain(1), classical_sig)
    lhs = reduce(join, [Nominal(f"i{k}") for k in range(25)])
    budget = Budget()
    ok, ce = check_validity(Inequality(lhs, Conominal("m")), dle, budget)
    assert not ok and budget.used == 1
    assert ce.nom_map == {f"i{k}": dle.jirr[0] for k in range(25)}
    # on two points every valuation of 19 symbols is tried
    dle = FiniteDLE(antichain(2), classical_sig)
    lhs = reduce(meet, [Nominal(f"i{k:02}") for k in range(18)])
    rhs = join(Nominal("i00"), Conominal("m"))
    budget = Budget()
    assert check_validity(Inequality(lhs, rhs), dle, budget)[0]
    assert budget.used == 2 ** 19
    ok, ce = check_validity(Inequality(lhs, meet(rhs, Var("p"))), dle)
    assert not ok and ce.var_map == {"p": dle.bot}
    # 17 variables on two elements: the only counterexample is the last
    # valuation tried, inside the loop that binds the symbols past 16
    dle = FiniteDLE(chain(1), classical_sig)
    lhs = reduce(meet, [Var(f"p{k:02}") for k in range(17)])
    budget = Budget()
    ok, ce = check_validity(Inequality(lhs, BOT), dle, budget)
    assert not ok and ce.var_map == {f"p{k:02}": dle.top for k in range(17)}
    assert budget.used == 2 ** 17
    assert check_validity(Inequality(lhs, Var("p00")), dle)[0]


def test_plans_leave_no_reference_cycles(classical_sig):
    # compiled plans are freed by reference counting once evicted
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", classical_sig, Layer.DLE)
    d = run_alba(iq, classical_sig, "alba", "auto")
    steps = list(rule_steps(d))
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    gc.collect()
    gc.disable()
    try:
        models._plan.cache_clear()
        assert not check_validity(iq, dle)[0]
        assert all(verify_rule_step(parent, children, dle)
                   for _, parent, children in steps)
        eval_term(iq.lhs, dle, Valuation(var_map={"p": dle.top}))
        dle.role_table("pi")
        assert models._plan.cache_info().currsize > len(steps)
        models._plan.cache_clear()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_pass_of_rule_steps_compiles_once(monkeypatch):
    # the rule steps of seeded derivations need more distinct plans than
    # 256; checked twice in the same cyclic order, the second pass finds
    # every plan compiled.  It checks copies of the lattices, which know
    # no verdict, so that every check reads its plan
    rng = random.Random(8)
    checks, systems = [], set()
    while len(systems) <= 300:
        sig = generators.random_signature(rng)
        d = run_alba(generators.random_inductive(rng, sig, max_depth=3), sig,
                     "alba", "auto")
        if d.status.kind == "success":
            dle = random_dle(rng, sig, max_points=1)
            for _, parent, children in rule_steps(d):
                checks.append((parent, children, dle))
                systems.update([parent, *children])
    compiled = []
    define = models._define
    monkeypatch.setattr(models, "_define",
                        lambda name, lines: compiled.append(name) or define(name, lines))
    models._plan.cache_clear()
    copies = {dle: _fresh_copy(dle) for _, _, dle in checks}
    passes = []
    for lattice in ({}, copies):
        before = len(compiled)
        assert all(verify_rule_step(parent, children, lattice.get(dle, dle))
                   for parent, children, dle in checks)
        passes.append(len(compiled) - before)
    assert passes[0] > 256 and passes[1] == 0


def test_lattices_on_one_poset_share_its_skeleton(classical_sig):
    poset = Poset(3, chain(3).up)
    a, b = FiniteDLE(poset, classical_sig), FiniteDLE(poset, classical_sig)
    for name in ("elements", "index", "join_table", "meet_table", "leq_table",
                 "jirr", "mirr"):
        assert getattr(a, name) is getattr(b, name)
    assert (a.n_elem, a.bot, a.top) == (b.n_elem, b.bot, b.top) == (4, 0, 3)
    # operations and derived tables stay with their lattice
    a.add_op("dia", Relation.from_pairs(3, [(0, 1), (1, 2)]))
    assert a.arrow_table() and a.coimp_table()
    assert "dia" in a.ops and a._cache
    assert b.ops == {} and b._cache == {}
    # the skeleton is freed with its poset by reference counting
    gc.collect()
    gc.disable()
    try:
        FiniteDLE(Poset(3, (0b111, 0b010, 0b100)), classical_sig).arrow_table()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_quasi_purity_errors(bare_sig):
    i, m = Nominal("i"), Conominal("m")
    pure = SysIneq(Inequality(i, m))
    impure = [SysIneq(Inequality(i, Var(v))) for v in "pq"]
    dle = relational_dle(bare_sig, 2, [(0, 1)])
    with pytest.raises(models.ModelError,
                       match=r"^quasi-inequality is not pure: #i <= p$"):
        check_quasi([System((pure, *impure), Inequality(i, m))], dle)
    # purity is checked before the goal
    with pytest.raises(models.ModelError, match="not pure: #i <= q"):
        check_quasi([System((pure, impure[1]))], dle)
    with pytest.raises(models.ModelError, match="system has no goal"):
        check_quasi([System((pure,))], dle)
    # systems are checked in order: a failing one ends the check
    failing = System((SysIneq(Inequality(i, TOP)),), Inequality(i, m))
    assert not check_quasi([failing, System(tuple(impure), Inequality(i, m))], dle)


def oracle_records():
    """First counterexamples, budget use and verdicts of the quantified
    checks over seeded derivations (alba on random signatures, albae on
    the classical and the Galois-role signature) and random lattices, one
    line per derivation and lattice, with a hash of the checks' answers."""
    lines = ["# derivation.lattice mode outcome checks-sha256 input"]
    rng = random.Random(6)
    classical_sig, lr_sig = parse_signature(CLASSICAL_SIG_TEXT), parse_signature(LR_SIG_TEXT)
    symbols = lambda val: tuple(sorted(val.of_kind(kind).items())
                                for kind in ("var", "nom", "conom"))
    for k in range(200):
        if k % 3 == 0:
            sig, mode = generators.random_signature(rng), "alba"
            ineq = generators.random_inductive(rng, sig, max_depth=3)
        else:
            sig, mode = (classical_sig, lr_sig)[k % 3 - 1], "albae"
            ineq = generators.phi_image(
                generators.random_inductive(rng, sig, star=True, max_depth=3), sig)
        d = run_alba(ineq, sig, mode, "auto")
        steps = list(rule_steps(d))
        for j in range(2):
            dle = random_dle(rng, sig, max_points=3)
            budget = Budget()
            ok, ce = check_validity(ineq, dle, budget)
            rec = [k, ok, budget.used]
            if ce is not None:
                rec += [symbols(ce), eval_term(ineq.lhs, dle, ce),
                        eval_term(ineq.rhs, dle, ce)]
            budget = Budget()
            for rule, parent, children in steps:
                rec.append((rule, verify_rule_step(parent, children, dle, budget),
                            budget.used))
                # a crossed step that drops every antecedent
                rec.append(verify_rule_step(parent, [System((), parent.goal)],
                                            dle, budget))
                for si in parent.ineqs:
                    ok, ce = check_validity(si.ineq, dle, budget)
                    rec.append((ok, budget.used, ce and symbols(ce)))
            if d.status.kind == "success":
                rec.append((check_quasi(d.status.pure_systems, dle, budget),
                            budget.used))
            budget = Budget(limit=rng.randrange(1, 60))
            try:
                rec.append(check_validity(ineq, dle, budget)[0])
            except BudgetExceeded:
                rec.append("exceeded")
            rec.append(budget.used)
            lines.append(f"{k}.{j} {mode} {d.status.kind} {short_hash(repr(rec))} "
                         f"{print_inequality(ineq)}")
    return lines


def test_oracle_differential_pinned():
    # 200 derivations on 2 lattices each: 8725 entries, among them 1260
    # verdicts on rule steps and 1260 on crossed steps, 2500 first
    # counterexamples of antecedents, 398 check_quasi verdicts (185 false)
    # and 33 exhausted small budgets; the records were pinned with the
    # closure-tree evaluator that the compiled plans replaced
    assert_records("oracle", oracle_records())


def _verdicts(dle: FiniteDLE) -> dict:
    """The rule-step verdicts kept in ``dle``'s cache: its keys that are
    tuples of terms, where every derived table's key starts with a string."""
    return {key: v for key, v in dle._cache.items() if not isinstance(key[0], str)}


def _memo_cases(classical_sig):
    """(derivation, lattice) pairs: seeded derivations in both modes,
    each on a random lattice of its signature."""
    rng = random.Random(20)
    cases = []
    for k in range(24):
        if k % 2 == 0:
            sig, mode = generators.random_signature(rng), "alba"
            ineq = generators.random_inductive(rng, sig, max_depth=3)
        else:
            sig, mode = classical_sig, "albae"
            ineq = generators.phi_image(
                generators.random_inductive(rng, sig, star=True, max_depth=3), sig)
        d = run_alba(ineq, sig, mode, "auto")
        cases.append((d, random_dle(rng, sig, max_points=3)))
    return cases


def test_rule_step_verdicts_are_exact(classical_sig):
    # on each lattice the steps of a derivation share systems (a child is
    # the next step's parent), so most checks are known verdicts; each
    # step gives the verdict and spends the budget that it does, searched
    # afresh, on a copy of the lattice with no verdicts
    checks = hits = 0
    modes = set()
    for d, dle in _memo_cases(classical_sig):
        steps = list(rule_steps(d))
        modes.add(d.mode)
        budget, searched = Budget(), 0
        for _, parent, children in steps:
            fresh = Budget()
            expected = verify_rule_step(parent, children, _fresh_copy(dle), fresh)
            searched += fresh.used
            assert verify_rule_step(parent, children, dle, budget) == expected
            assert budget.used == searched
            checks += 1 + len(children)
        hits += checks - len(_verdicts(dle))
        # a second pass finds every verdict known and spends as much again
        again = Budget()
        for _, parent, children in steps:
            verify_rule_step(parent, children, dle, again)
        assert again.used == budget.used
    assert modes == {"alba", "albae"}
    assert hits > checks // 4


def test_known_verdicts_exceed_the_budget_where_a_search_does(bare_sig):
    # a known verdict raises BudgetExceeded at the valuation where the
    # search raises it, and spends as much when there is room
    dle = relational_dle(bare_sig, 3, [(0, 1), (1, 2)])
    goal = Inequality(Nominal("i0"), Conominal("m0"))
    holding = System((SysIneq(Inequality(Nominal("i0"), meet(Var("p"), Var("q")))),
                      SysIneq(Inequality(Var("p"), Conominal("m0")))), goal)
    failing = System((SysIneq(Inequality(Nominal("i0"), Var("p"))),), goal)
    for parent, children in ((holding, [holding]), (failing, [holding, failing])):
        known = _fresh_copy(dle)
        full = Budget()
        verify_rule_step(parent, children, known, full)
        assert _verdicts(known) and full.used > 1
        for limit in range(full.used + 2):
            outcomes = []
            for lattice in (_fresh_copy(dle), known):
                budget = Budget(limit)
                budget.spend(min(limit, 3))  # the room left is not the limit
                try:
                    outcomes.append(verify_rule_step(parent, children, lattice, budget))
                except BudgetExceeded:
                    outcomes.append("exceeded")
                outcomes.append(budget.used)
            assert outcomes[:2] == outcomes[2:], (limit, outcomes)


def test_an_exceeded_budget_raises_again_on_a_known_verdict(classical_sig):
    # once a budget has raised, the next check raises again at once and
    # spends one more unit, whether its verdict is known or searched
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", classical_sig, Layer.DLE)
    steps = list(rule_steps(run_alba(iq, classical_sig, "alba", "auto")))
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    for _, parent, children in steps:
        known = _fresh_copy(dle)
        full = Budget()
        verify_rule_step(parent, children, known, full)
        for limit in range(full.used):
            outcomes = []
            for first, second in ((_fresh_copy(dle), _fresh_copy(dle)), (known, known)):
                budget = Budget(limit)
                for lattice in (first, second):
                    with pytest.raises(BudgetExceeded):
                        verify_rule_step(parent, children, lattice, budget)
                    outcomes.append(budget.used)
            assert outcomes[:2] == outcomes[2:] and outcomes[1] == outcomes[0] + 1, (
                limit, outcomes)


def test_replay_spends_what_the_formula_does():
    # Budget.replay adds n when it fits the room left, else spends one
    # more than the room: the same count and the same raise as spending
    # min(n, max(room, 0) + 1), also on a budget already past its limit
    for limit, spent, n in product(range(7), range(9), range(1, 10)):
        outcomes = []
        for replay in (Budget.replay,
                       lambda b, n: b.spend(min(n, max(b.limit - b.used, 0) + 1))):
            budget = Budget(limit)
            budget.used = spent
            try:
                replay(budget, n)
                outcomes.append(("spent", budget.used))
            except BudgetExceeded:
                outcomes.append(("exceeded", budget.used))
        assert outcomes[0] == outcomes[1], (limit, spent, n, outcomes)


def test_a_known_verdict_does_no_search(classical_sig, monkeypatch):
    # a second pass over a derivation's rule steps on the same lattice
    # reads every verdict: it looks up no plan, runs no kernel search and
    # spends exactly the budget of the first pass
    plans, searches = [], []
    plan = models._plan

    class Counted:
        def __init__(self, terms):
            plans.append(terms)
            self.inner = plan(terms)
            self.heads = self.inner.heads

        def search(self, *args):
            searches.append(1)
            return self.inner.search(*args)

    monkeypatch.setattr(models, "_plan", Counted)
    for d, dle in _memo_cases(classical_sig):
        spent = []
        for _ in range(2):
            plans.clear()
            searches.clear()
            budget = Budget()
            for _, parent, children in rule_steps(d):
                verify_rule_step(parent, children, dle, budget)
            spent.append((len(plans), len(searches), budget.used))
        assert spent[0][0] == spent[0][1] > 0
        assert spent[1] == (0, 0, spent[0][2])


def _enumerated(terms: tuple, dle: FiniteDLE) -> list:
    """Every valuation of ``terms`` on ``dle`` from the definitions: the
    product of the plan's domains in its symbol order, each environment
    with whether it is a counterexample (every pair of terms but the last
    in order, the last not), evaluated with ``eval_term``."""
    plan = models._plan(terms)
    domains = {"var": range(dle.n_elem), "nom": dle.jirr, "conom": dle.mirr}
    out = []
    for env in product(*(domains[kind] for kind, _ in plan.symbols)):
        val = plan.valuation(env)
        holds = [dle.leq(eval_term(a, dle, val), eval_term(b, dle, val))
                 for a, b in zip(terms[::2], terms[1::2])]
        out.append((env, all(holds[:-1]) and not holds[-1]))
    return out


def _outcome(search, budget: Budget) -> tuple:
    try:
        return search(budget), budget.used
    except BudgetExceeded:
        return "exceeded", budget.used


def _assert_search_is_exact(terms: tuple, dle: FiniteDLE) -> int:
    """``plan.search`` returns the plain enumerator's first counterexample
    and spends one unit per valuation up to it, or raises where the
    enumerator does, at every limit from 0 to the total plus 1, with and
    without room spent before; returns the total."""
    plan = models._plan(terms)
    valuations = _enumerated(terms, dle)

    def enumerate_with(budget):
        for env, counterexample in valuations:
            budget.spend()
            if counterexample:
                return env
        return None

    for limit in range(len(valuations) + 2):
        for spent in {0, min(limit, 3)}:
            outcomes = []
            for search in (enumerate_with,
                           lambda budget: plan.search(dle, plan.heads, budget)):
                budget = Budget(limit)
                budget.spend(spent)
                outcomes.append(_outcome(search, budget))
            assert outcomes[0] == outcomes[1], (terms, limit, spent, outcomes)
    return len(valuations)


def test_search_kernels_count_like_the_plain_enumeration(classical_sig):
    # the kernels skip the blocks that an outer test decides; the first
    # counterexample, the budget spent and where it is exceeded stay those
    # of trying every valuation in order
    rng = random.Random(24)
    modes, systems = set(), 0
    for k in range(12):
        if k % 2 == 0:
            sig, mode = generators.random_signature(rng), "alba"
            ineq = generators.random_inductive(rng, sig, max_depth=2)
        else:
            sig, mode = classical_sig, "albae"
            ineq = generators.phi_image(
                generators.random_inductive(rng, sig, star=True, max_depth=2), sig)
        d = run_alba(ineq, sig, mode, "auto")
        assert d.status.kind == "success"
        modes.add(mode)
        dle = random_dle(rng, sig, max_points=3)
        for terms in {s.check_terms for _, parent, children in rule_steps(d)
                      for s in (parent, *children)}:
            _assert_search_is_exact(terms, dle)
            systems += 1
    assert modes == {"alba", "albae"} and systems > 20
    dle = relational_dle(classical_sig, 2, [(0, 1), (1, 1)])
    dia = classical_sig.decl("dia")
    i, j, m, p, q = Nominal("i"), Nominal("j"), Conominal("m"), Var("p"), Var("q")
    dia_p = App(dia, (p,))
    cases = [
        (TOP, BOT, i, m),  # a premise false before any loop
        (i, BOT, j, App(dia, (m,))),  # false in the outermost loop
        (p, m, i, dia_p),  # the goal bound before the innermost loop
        (i, q, dia_p, m, i, q, dia_p, m, j, m),  # premises tested twice
        (j, dia_p, i, q, j, dia_p),  # a premise that is the goal
        (i, meet(p, q), p, m, q, m, i, m),  # a rule step's system
    ]
    for terms in cases:
        _assert_search_is_exact(terms, dle)
    # more symbols than loops: 4 variables, 13 nominals and 2 conominals on
    # the one-point poset, premises decided at the last nested loop and
    # inside the product loop past it
    dle = FiniteDLE(chain(1), classical_sig)
    v = [Var(f"p{k}") for k in range(4)]
    noms = [Nominal(f"i{k:02}") for k in range(13)]
    terms = (noms[11], v[1], reduce(meet, noms), v[2], v[3], Conominal("m0"),
             v[0], Conominal("m1"))
    assert len(models._plan(terms).symbols) > models._NESTED + 2
    assert _assert_search_is_exact(terms, dle) == 16


def test_a_deciding_level_computes_first_only_what_its_skip_test_reads(monkeypatch):
    # in the kernels of seeded rule-step systems, a level whose test
    # decides a block computes, before that test, only the values it reads,
    # directly or through one another; the values that only the loops
    # further in read come after it.  The verdicts and counts stay those
    # of the plain enumeration
    sources = []
    define = models._define
    monkeypatch.setattr(models, "_define",
                        lambda name, lines: sources.append(lines) or define(name, lines))
    models._plan.cache_clear()
    rng = random.Random(9)
    systems = {}
    while len(systems) < 120:
        sig = generators.random_signature(rng)
        d = run_alba(generators.random_inductive(rng, sig, max_depth=3), sig, "alba", "auto")
        if d.status.kind == "success":
            dle = random_dle(rng, sig, max_points=2)
            for _, parent, children in rule_steps(d):
                systems.update((s.check_terms, dle) for s in (parent, *children))
    for k, (terms, dle) in enumerate(systems.items()):
        models._plan(terms)
        if k % 4 == 0:
            _assert_search_is_exact(terms, dle)
    value = re.compile(r"\bv\d+\b")
    levels = deferred = 0
    for lines in sources:
        for i, test in enumerate(lines):
            if not (test.lstrip().startswith("if ") and lines[i + 1].lstrip().startswith(
                    ("n += B", "budget.replay(B0)"))):
                continue
            indent = test[:len(test) - len(test.lstrip())]
            first, j = [], i - 1  # the level's values before the test, last first
            while lines[j].startswith(indent + "v"):
                first.append(lines[j].lstrip().partition(" = "))
                j -= 1
            read = set(value.findall(test))
            for name, _, code in first:
                if name in read:
                    read.update(value.findall(code))
            assert {name for name, _, _ in first} <= read, (lines, test)
            j = i + 1
            while lines[j].startswith(indent + " "):  # the skip
                j += 1
            while j < len(lines) and lines[j].startswith(indent + "v"):
                deferred += 1
                j += 1
            levels += 1
    assert levels > 50 and deferred > 10


class _CountingReads(list):
    """A table that counts its reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_a_decided_block_reads_no_table_and_counts_in_full(classical_sig):
    # the premise #i <= p fails for every (p, i) with i not below p: no
    # dia(@m) under it is read, and every valuation of its block is
    # counted; a premise that fails before any loop reads none at all
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    table = dle.ops["dia"] = _CountingReads(dle.ops["dia"])
    i, m, p = Nominal("i"), Conominal("m"), Var("p")
    dia_m = App(classical_sig.decl("dia"), (m,))
    total = dle.n_elem * len(dle.jirr) * len(dle.mirr)
    below = sum(dle.leq(j, x) for x in range(dle.n_elem) for j in dle.jirr)
    for terms, reads in (((i, p, dia_m, TOP), below * len(dle.mirr)),
                         ((TOP, BOT, i, p, dia_m, TOP), 0)):
        table.reads = 0
        plan = models._plan(terms)
        budget = Budget()
        assert plan.search(dle, plan.heads, budget) is None
        assert budget.used == total
        assert table.reads == reads < total


def test_add_op_drops_the_verdicts(classical_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", classical_sig, Layer.DLE)
    steps = list(rule_steps(run_alba(iq, classical_sig, "alba", "auto")))
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    # the first approximation fails here, as the input does, and so does
    # a system with its goal and no antecedents, which fails everywhere
    _, parent, _ = steps[0]
    crossed = [System((), parent.goal)]
    assert verify_rule_step(parent, crossed, dle)
    assert _verdicts(dle)
    # with dia at bottom and box at top the parent's antecedents hold
    # nowhere, so it holds
    for name, value in (("dia", dle.bot), ("box", dle.top)):
        dle.add_op(name, [value] * dle.n_elem, validate=False)
    assert _verdicts(dle) == {}
    assert not verify_rule_step(parent, crossed, dle)
    assert not verify_rule_step(parent, crossed, _fresh_copy(dle))


def test_add_op_leaves_no_stale_table_or_verdict(classical_sig):
    # with box fixed, replacing dia changes the role axioms' verdict, the
    # residual of dia, the adjoint of Dia[pi] and a check that reads them:
    # once dia is replaced, each answers from the new table, as on a fresh
    # lattice, whether or not its old answer was known
    dia, p = classical_sig.decl("dia"), Var("p")
    checks = [Inequality(Residual(dia, 1, (p,)), p), Inequality(p, adjoint("pi", p))]

    def answers(dle):
        return (models.role_axioms_hold(dle), dle.residual_table(dia, 1),
                dle.black_table("pi"), [check_validity(iq, dle) for iq in checks])

    box = Relation.from_pairs(2, [(1, 0), (1, 1)])
    dle = FiniteDLE(antichain(2), classical_sig,
                    {"dia": Relation.from_pairs(2, [(1, 1)]), "box": box})
    before = answers(dle)
    assert dle._cache and before[0]
    dle.add_op("dia", Relation.from_pairs(2, [(0, 0), (1, 1)]))
    after = answers(dle)
    assert after == answers(_fresh_copy(dle))
    assert all(old != new for old, new in zip(before, after))


def test_a_goalless_system_is_refused_even_with_known_terms(bare_sig):
    # the goalless system's check terms are those of a system with a goal
    # whose verdict is known: it is still refused
    i, m = Nominal("i"), Conominal("m")
    antecedent = SysIneq(Inequality(i, App(bare_sig.decl("dia"), (Var("p"),))))
    with_goal = System((antecedent,), Inequality(i, m))
    goalless = System((antecedent, SysIneq(Inequality(i, m))))
    assert goalless.check_terms == with_goal.check_terms
    dle = relational_dle(bare_sig, 2, [(0, 1)])
    assert verify_rule_step(with_goal, [with_goal], dle)
    assert with_goal.check_terms in _verdicts(dle)
    for parent, children in ((goalless, [with_goal]), (with_goal, [goalless])):
        with pytest.raises(models.ModelError, match="^system has no goal$"):
            verify_rule_step(parent, children, dle)


def test_validity_and_quasi_checks_keep_no_verdicts(classical_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", classical_sig, Layer.DLE)
    d = run_alba(iq, classical_sig, "alba", "auto")
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    _, parent, children = next(iter(rule_steps(d)))
    assert not check_validity(iq, dle)[0]
    for si in (*parent.ineqs, *children[0].ineqs):
        check_validity(si.ineq, dle)
    assert not check_quasi(d.status.pure_systems, dle)
    assert dle._cache and _verdicts(dle) == {}


def test_dropped_lattices_release_their_verdicts_terms(classical_sig):
    # a lattice's verdicts hold the check terms of the systems they are
    # about: once the derivation and the plans are gone they keep its
    # terms interned, and dropping the lattice releases them
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", classical_sig, Layer.DLE)
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    models._plan.cache_clear()
    gc.collect()
    before = len(language._TERMS)
    d = run_alba(iq, classical_sig, "alba", "auto")
    assert d.status.kind == "success"
    assert all(verify_rule_step(parent, children, dle)
               for _, parent, children in rule_steps(d))
    del d
    models._plan.cache_clear()
    gc.collect()
    assert len(language._TERMS) > before
    del dle
    gc.collect()
    assert len(language._TERMS) == before


def test_load_dle_text_format(classical_sig, mixed_sig):
    text = """
    # two-point chain with a relational diamond/box and a table
    points 2
    leq 0<=1
    rel dia : (0,1) (1,1)
    rel box : (0,1) (1,1)
    """
    dle = load_dle(text, classical_sig)
    assert dle.n_elem == 3
    assert "dia" in dle.ops and "box" in dle.ops
    text2 = """
    points 1
    table dia : 0 1
    table box : 0 1
    """
    dle2 = load_dle(text2, classical_sig)
    assert dle2.ops["dia"] == [0, 1]
    # row-major table lines of any arity nest back into the tables they
    # were read from
    rng = random.Random(15)
    source = FiniteDLE(antichain(2), mixed_sig)
    lines = ["points 2"]
    for decl in mixed_sig.connectives:
        source.add_op(decl.name, models.random_normal_table(rng, source, decl))
        values = [_lookup(source.ops[decl.name], args)
                  for args in product(range(source.n_elem), repeat=decl.arity)]
        lines.append(f"table {decl.name} : " + " ".join(map(str, values)))
    dle3 = load_dle("\n".join(lines), mixed_sig)
    assert dle3.ops == source.ops
    assert len(dle3.ops["oplus"]) == len(dle3.ops["oplus"][0]) == 4
    with pytest.raises(models.ModelError, match="expected 16 entries, got 3"):
        load_dle("points 2\ntable oplus : 0 0 0", mixed_sig)


@pytest.mark.parametrize("text, message", [
    ("points x", "line 1: cannot parse 'x'"),
    ("points 2 3", "line 1: cannot parse '2 3'"),
    ("points 9", "line 1: poset size must be 1..8"),
    ("points 2\n\npoints 2", "line 3: a second 'points' line"),
    ("leq 0<=1", "missing 'points' line"),
    ("points 2\nleq 0<1", "line 2: cannot parse '0<1'"),
    ("points 2\nleq 5<=0", r"line 2: point 5 is not in 0\.\.1"),
    ("points 2\nleq -1<=0", r"line 2: point -1 is not in 0\.\.1"),
    ("points 2\nleq 0<=1\nleq 1<=0", "line 2: 0<=1 lies on a cycle"),
    ("points 2\nrel dia : (0,7)", r"line 2: point 7 is not in 0\.\.1"),
    ("points 2\nrel dia : (0 1)", "line 2: cannot parse '0'"),
    ("points 1\ntable dia : 0 5", r"line 2: element 5 is not in 0\.\.1"),
    ("points 1\ntable dia : 0 -1", r"line 2: element -1 is not in 0\.\.1"),
    ("points 1\ntable dia : 0 x", "line 2: cannot parse '0 x'"),
    ("points 1\ntable dia : 0", "line 2: table dia: expected 2 entries, got 1"),
    ("points 1\ntable nope : 0 1", "line 2: operation 'nope' is not in the signature"),
    ("points 1\n# unit\ntable dia : 1 1", "line 3: dia coordinate 1: unit not sent"),
    ("points 1\nfoo 3", "line 2: cannot parse 'foo 3'"),
    ("points 2\nrel dia : (0,1)\ntable dia : 0 1 2 3", "line 3: a second line for dia"),
])
def test_load_dle_names_the_malformed_line(classical_sig, text, message):
    with pytest.raises(models.ModelError, match="^" + message):
        load_dle(text, classical_sig)


def test_verify_correspondence_on_church_rosser(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    d = run_alba(iq, bare_sig, "alba", "auto")
    lattices = []
    for rel in models.canonical_relations(antichain(2)):
        dle = FiniteDLE(antichain(2), bare_sig)
        dle.add_op("dia", rel, validate=False)
        dle.add_op("box", rel, validate=False)
        lattices.append(dle)
    report = models.verify_correspondence(iq, d, lattices)
    assert report.agree and report.lattices == len(lattices)


def test_additive_by_construction_validates_additivity(classical_sig):
    # wherever the role axioms hold, the additivity inequality itself is
    # valid under full quantification
    pi = lambda t: classical_sig.role_instance("pi", t)
    iq = Inequality(pi(join(Var("p"), Var("q"))),
                    join(pi(Var("p")), pi(Var("q"))))
    seen = 0
    for pairs in ([], [(0, 1)], [(0, 0), (1, 1)]):
        dle = relational_dle(classical_sig, 2, pairs)
        if models.role_axioms_hold(dle):
            seen += 1
            assert check_validity(iq, dle)[0]
    assert seen


def test_tense_correspondent_tracks_confluence(bare_sig):
    eq10 = parse_inequality("res(box,1)(dia(#j)) <= dia(res(box,1)(#j))",
                            bare_sig, Layer.DLEPLUS)
    confluent = relational_dle(bare_sig, 3,
                               [(i, j) for i in range(3) for j in range(3)])
    fork = relational_dle(bare_sig, 3, [(0, 1), (0, 2)])
    assert check_validity(eq10, confluent)[0]
    assert not check_validity(eq10, fork)[0]


def test_simple_roles_correspondence_never_skips(bare_sig):
    # with the diamond itself as the pi role and the box as sigma, the
    # role axioms hold on every relational lattice, so the enhanced run
    # of the confluence inequality is checked everywhere
    sig = parse_signature("conn dia F 1 (1)\nconn box G 1 (1)\n"
                          "term pi = dia(p)\nterm sigma = box(p)")
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", sig, Layer.DLE)
    d = run_alba(iq, sig, "albae", "auto")
    assert d.status.kind == "success"
    lattices = []
    for rel in models.canonical_relations(antichain(3)):
        dle = FiniteDLE(antichain(3), sig)
        dle.add_op("dia", rel, validate=False)
        dle.add_op("box", rel, validate=False)
        lattices.append(dle)
    report = models.verify_correspondence(iq, d, lattices)
    assert report.skipped == 0
    assert report.agree and report.lattices == len(lattices)


LR_SIG_TEXT = """\
conn lhdc F 1 (d)
conn rhdc G 1 (d)
term lambda = lhdc(p)
term rho = rhdc(p)
"""


def test_lemma_suite_covers_galois_roles():
    sig = parse_signature(LR_SIG_TEXT)
    rng = random.Random(4)
    for _ in range(6):
        dle = random_dle(rng, sig, max_points=3, validate=True)
        report = check_lemma_suite(dle)
        assert report.ok, report.role_results
        assert "galois" in report.role_results["lambda"]
        assert "galois" in report.role_results["rho"]
        # antitone defined maps: exhaustive pair sweep
        for role in ("lambda", "rho"):
            tab = dle.def_table(role)
            blk = dle.black_table(role)
            for a in range(dle.n_elem):
                for b in range(dle.n_elem):
                    if dle.leq(a, b):
                        assert dle.leq(tab[b], tab[a])
                        assert dle.leq(blk[b], blk[a])


def _cache_key(kind: str, role: str) -> tuple:
    """The cache key of the role table, the defined table ("def") or the
    adjoint table ("black") of ``role``: the adjoint's is that of the
    defined modality's residual."""
    if kind != "black":
        return kind, role
    decl = SPEC_BY_ROLE[role].defined_decl
    return "res", decl.name, decl.family, decl.order_type.entries, 1


def lemmas_records():
    """role_results of the lemma suite on the 3-point relational sweep and
    on 300 random lattices of a signature with all four roles, one line per
    lattice: each role's verdicts, 1 for a check that holds, in the order
    of the header line.  On every other lattice one entry of each role,
    defined and adjoint table is redrawn, so that failing checks show."""
    rng = random.Random(11)
    classical_sig = parse_signature(CLASSICAL_SIG_TEXT)
    four_roles = parse_signature(CLASSICAL_SIG_TEXT + LR_SIG_TEXT)
    lattices = [dle for _, dle in models.relational_sweep(classical_sig, 3)]
    lattices += [random_dle(rng, four_roles, max_points=3) for _ in range(300)]
    checks, lines = {}, []
    for k, dle in enumerate(lattices):
        roles = [reg.role for reg in dle.sig.registered]
        for role in roles:
            dle.black_table(role)  # after the defined and the role table
        if k % 2:
            for key in product(("role", "def", "black"), roles):
                key = _cache_key(*key)
                table = list(dle._cache[key])
                table[rng.randrange(dle.n_elem)] = rng.randrange(dle.n_elem)
                dle._cache[key] = table
        if k % 5:
            # the suite once drew 50 random subsets here; drawing the same
            # bits keeps the redrawn entries, and so the records, as pinned
            rng.getrandbits(64 * 50 * dle.n_elem)
        results = check_lemma_suite(dle).role_results
        for role, res in results.items():
            assert checks.setdefault(role, list(res)) == list(res)
        lines.append(f"{k} " + " ".join(
            f"{role}={''.join(str(int(v)) for v in res.values())}"
            for role, res in results.items()))
    return ["# " + " ".join(f"{role}={','.join(c)}" for role, c in checks.items()),
            *lines]


def test_lemma_suite_pinned():
    # 1700 sweep and 300 four-role lattices: 26400 entries, 9059 of them
    # failing, every check of every role among them; the records are those
    # pinned with the four hand-written role branches that the table
    # replaced, less their random-subset entries
    lines = lemmas_records()
    verdicts = "".join(f.split("=")[1] for line in lines[1:] for f in line.split()[1:])
    assert (len(verdicts), verdicts.count("0")) == (26400, 9059)
    assert_records("lemmas", lines)


def test_binary_joins_give_every_subset_join(classical_sig):
    # why the suite checks no subset joins: wherever pi's defined modality
    # keeps the bottom and binary joins, it keeps the join of every subset
    # of the elements; on each lattice of the 3-point relational sweep, as
    # it is and with one entry of the defined modality redrawn
    rng = random.Random(23)
    held = failed = 0
    for _, dle in models.relational_sweep(classical_sig, 3):
        for redrawn in (False, True):
            if redrawn:
                g = list(dle.def_table("pi"))
                g[rng.randrange(dle.n_elem)] = rng.randrange(dle.n_elem)
                dle._cache["def", "pi"] = g
            if not check_lemma_suite(dle).role_results["pi"]["join_preserving"]:
                failed += 1
                continue
            g, held = dle.def_table("pi"), held + 1
            for bits in product((False, True), repeat=dle.n_elem):
                s = [x for x, b in enumerate(bits) if b]
                assert g[dle.join_all(s)] == dle.join_all(g[x] for x in s), (dle.poset, s)
    assert held > failed > 0


def _pair_checks_by_definition(dle, role):
    """The axiom of ``role`` and the lemma suite's checks of it over element
    pairs and over elements, each pair or element compared on its own
    through the nested-list tables: the definitions that the bit-sliced
    checks compute."""
    spec = SPEC_BY_ROLE[role]
    f, g, adj = dle.role_table(role), dle.def_table(role), dle.black_table(role)
    is_f, mono = spec.family == "F", spec.tone == MONO
    leq, r = dle.leq_table, range(dle.n_elem)
    below = leq if is_f else [list(col) for col in zip(*leq)]  # G: order turned round
    inner = dle.join_table if spec.bot_unit else dle.meet_table
    outer, bound = (dle.join_table, dle.bot) if is_f else (dle.meet_table, dle.top)
    unit = dle.bot if spec.bot_unit else dle.top
    axiom = all(below[f[inner[a][b]]][outer[f[a]][f[b]]] for a in r for b in r)
    res = {"adjunction" if mono else "galois": all(
        below[g[u]][w] == (below[u][adj[w]] if mono else below[adj[w]][u])
        for u in r for w in r)}
    if mono:
        res["join_preserving" if is_f else "meet_preserving"] = (
            g[bound] == bound
            and all(g[outer[a][b]] == outer[g[a]][g[b]] for a in r for b in r))
    res["below_f" if is_f else "above_f"] = all(below[g[u]][f[u]] for u in r)
    if role == "pi":
        res["irreducible_form"] = all(
            g[u] == dle.join_all(j2 for j2 in dle.jirr
                                 if any(leq[i][u] and leq[j2][f[i]] for i in dle.jirr))
            for u in r)
    name = ("additive" if is_f else "multiplicative") if mono else "axiom"
    res[f"identity_iff_{name}"] = axiom == all(
        f[u] == outer[f[unit]][g[u]] for u in r)
    return axiom, res


def test_pair_checks_match_their_definitions(classical_sig):
    # the bit-sliced pair checks of the lemma suite and the role axiom
    # against every pair compared on its own, with one entry of each role,
    # defined and adjoint table redrawn on every other lattice: on the
    # 3-point relational sweep, the 4-point antichain's relational
    # lattices, four-role random lattices, and at the byte-width edges, a
    # 1-point poset (2 elements) and the 8-point antichain (256 elements:
    # index 255, mask bit 7)
    rng = random.Random(25)
    four_roles = parse_signature(CLASSICAL_SIG_TEXT + LR_SIG_TEXT)
    lattices = [dle for _, dle in models.relational_sweep(classical_sig, 3)]
    lattices += [dle for _, dle in
                 models.relational_lattices(classical_sig, antichain(4))]
    lattices += [random_dle(rng, four_roles, max_points=3) for _ in range(300)]
    for poset in [chain(1)] * 4 + [antichain(8)] * 2:
        dle = FiniteDLE(poset, four_roles)
        for decl in four_roles.connectives:
            dle.add_op(decl.name, random_normal_table(rng, dle, decl), validate=False)
        lattices.append(dle)
    seen = Counter()
    for k, dle in enumerate(lattices):
        roles = [reg.role for reg in dle.sig.registered]
        for role in roles:
            dle.black_table(role)  # after the defined and the role table
        if k % 2:
            for key in product(("role", "def", "black"), roles):
                key = _cache_key(*key)
                table = list(dle._cache[key])
                table[rng.randrange(dle.n_elem)] = rng.randrange(dle.n_elem)
                dle._cache[key] = table
        want = {role: _pair_checks_by_definition(dle, role) for role in roles}
        report = check_lemma_suite(dle)
        for role, (axiom, res) in want.items():
            assert models.role_axiom_holds(dle, role) == axiom, (k, role)
            got = report.role_results[role]
            assert {key: got[key] for key in res} == res, (k, role)
            seen.update([("axiom", axiom), *res.items()])
    # each check holds on some lattice and fails on another
    assert all(seen[key, True] and seen[key, False] for key, _ in seen), seen


def test_checks_compile_only_search(classical_sig, monkeypatch):
    # one kernel per plan, and evaluating terms compiles none
    compiled = []
    define = models._define
    monkeypatch.setattr(models, "_define",
                        lambda name, lines: compiled.append(name) or define(name, lines))
    models._plan.cache_clear()
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", classical_sig, Layer.DLE)
    d = run_alba(iq, classical_sig, "alba", "auto")
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    assert not check_validity(iq, dle)[0]
    assert all(verify_rule_step(parent, children, dle)
               for _, parent, children in rule_steps(d))
    assert set(compiled) == {"search"}
    assert len(compiled) == models._plan.cache_info().currsize
    compiled.clear()
    models._plan.cache_clear()
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    dia, box = dle.ops["dia"], dle.ops["box"]
    assert eval_term(iq.lhs, dle, Valuation(var_map={"p": dle.top})) == dia[box[dle.top]]
    assert [dle.role_table(role) for role in ("pi", "sigma")]
    assert compiled == []
