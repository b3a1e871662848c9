import hashlib
import random
from itertools import product

import pytest

from conftest import relational_dle
from dlecorr import models
from dlecorr.engine import SysIneq, System, run_alba
from dlecorr.language import (
    BOT, TOP, BlackBox, Conominal, DefDia, Inequality, Layer, Nominal,
    Var, join, meet,
)
from dlecorr.models import (
    Budget, BudgetExceeded, FiniteDLE, NormalityError, Poset, Relation,
    Valuation, antichain, chain, check_lemma_suite, check_quasi,
    check_validity, enumerate_posets, eval_term, load_dle, random_dle,
    verify_rule_step,
)
from dlecorr.parsing import parse_inequality, parse_signature


def test_poset_counts():
    assert len(enumerate_posets(1)) == 1
    assert len(enumerate_posets(2)) == 3
    assert len(enumerate_posets(3)) == 19
    assert len(enumerate_posets(3, up_to_iso=True)) == 5
    assert len(enumerate_posets(4, up_to_iso=True)) == 16


def test_poset_validation():
    with pytest.raises(models.ModelError):
        Poset(2, (0b01, 0b01))  # not reflexive at point 1
    with pytest.raises(models.ModelError):
        Poset(2, (0b11, 0b11))  # not antisymmetric


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


def test_relational_generators_always_normal(bare_sig):
    rng = random.Random(9)
    for _ in range(30):
        poset = models.random_poset(rng, 3)
        rel = Relation(tuple(rng.randrange(1 << poset.n)
                             for _ in range(poset.n)))
        dle = FiniteDLE(poset, bare_sig)
        dle.add_op("dia", rel)  # validates on construction
        dle.add_op("box", rel)


def test_random_dle_enumerates_each_poset_size_once(classical_sig, monkeypatch):
    calls = []
    real = models.enumerate_posets

    def counting(n, up_to_iso=False):
        calls.append(n)
        return real(n, up_to_iso)

    monkeypatch.setattr(models, "enumerate_posets", counting)
    rng = random.Random(12)
    draws = [random_dle(rng, classical_sig) for _ in range(50)]
    assert {d.poset.n for d in draws} == {1, 2, 3, 4}
    assert len(calls) == len(set(calls)) <= 4
    # the draws are the ones the uncached enumeration gave
    fingerprint = repr([(d.poset.up, sorted(d.ops.items())) for d in draws])
    assert hashlib.sha256(fingerprint.encode()).hexdigest() == \
        "37865c8d27b081513cfdf96d151dc4a5732c6a11012a6fc46fff7fcf703867ff"


def test_orbit_representatives_pinned():
    # which representative each orbit keeps, and in what order: posets up
    # to isomorphism and relations up to the poset's automorphisms
    posets = [p for n in range(1, 5) for p in enumerate_posets(n, up_to_iso=True)]
    relations = [[r.rows for r in models.canonical_relations(p)]
                 for p in posets if p.n <= 3 or p == antichain(4)]
    assert sum(map(len, relations)) == 4744
    fingerprint = repr(([p.up for p in posets], relations))
    assert hashlib.sha256(fingerprint.encode()).hexdigest() == \
        "48a25162e566c4cf768e528be472ac8cfd00ea92ff85bb2380756b6191b84f62"


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
                        v = dle.op_value(decl.name, args)
                        lhs = dle.leq(v, y) if decl.family == "F" else dle.leq(y, v)
                        below = (decl.family == "F") == \
                            (decl.order_type[coord - 1] == "1")
                        rhs = dle.leq(x, rv) if below else dle.leq(rv, x)
                        assert lhs == rhs, (decl.name, coord, args, y)


def test_random_normal_tables_validate(mixed_sig):
    rng = random.Random(10)
    draws = []
    for _ in range(10):
        dle = random_dle(rng, mixed_sig, max_points=3, validate=True)
        assert set(dle.ops) == {d.name for d in mixed_sig.connectives}
        draws.append(dle)
    # pins the RNG stream and the tables on binary and antitone
    # coordinates of both families
    fingerprint = repr([(d.poset.up, sorted(d.ops.items())) for d in draws])
    assert hashlib.sha256(fingerprint.encode()).hexdigest() == \
        "b4ccb747be2da3d16229e52082add58e523ee8016380087ca3d498b0553416d3"


def test_eval_def_dia_bottom(classical_sig):
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    val = Valuation()
    assert eval_term(DefDia((BOT,)), dle, val) == dle.bot


def test_eval_unbound_symbol(classical_sig):
    dle = relational_dle(classical_sig, 2, [(0, 1)])
    with pytest.raises(models.ModelError):
        eval_term(Var("p"), dle, Valuation())


def test_eval_unregistered_role(bare_sig):
    dle = relational_dle(bare_sig, 2, [(0, 1)])
    with pytest.raises(models.ModelError):
        eval_term(DefDia((BOT,)), dle, Valuation())


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
                    SysIneq(Inequality(Var("p"), BlackBox((Conominal("m0"),)))),
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


def test_lemma_suite_identity_role():
    sig = parse_signature("conn dia F 1 (1)\nconn box G 1 (1)\nterm pi = p")
    dle = relational_dle(sig, 2, [(0, 1)])
    report = check_lemma_suite(dle)
    assert report.ok


def test_lemma_suite_relational_sweep(classical_sig):
    rng = random.Random(0)
    for n in (1, 2):
        for rel in models.canonical_relations(antichain(n)):
            dle = FiniteDLE(antichain(n), classical_sig)
            dle.add_op("dia", rel, validate=False)
            dle.add_op("box", rel, validate=False)
            report = check_lemma_suite(dle, rng)
            assert report.ok, report.role_results


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
    with pytest.raises(BudgetExceeded):
        check_validity(iq, dle, Budget(limit=10))


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
        values = [source.op_value(decl.name, args)
                  for args in product(range(source.n_elem), repeat=decl.arity)]
        lines.append(f"table {decl.name} : " + " ".join(map(str, values)))
    dle3 = load_dle("\n".join(lines), mixed_sig)
    assert dle3.ops == source.ops
    assert len(dle3.ops["oplus"]) == len(dle3.ops["oplus"][0]) == 4
    with pytest.raises(models.ModelError, match="expected 16 entries, got 3"):
        load_dle("points 2\ntable oplus : 0 0 0", mixed_sig)


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
        report = check_lemma_suite(dle, rng)
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
