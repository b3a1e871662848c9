"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line with the
numbers it established.  Tolerances are exact boolean agreement
throughout (the subject matter is order-theoretic, not numeric).
"""

import random
import subprocess
import sys

import pytest

from conftest import CLASSICAL_SIG_TEXT, SIG, adjoint, defined, dotted
from dlecorr import classify, engine, generators, models
from dlecorr.engine import is_safe, run_alba
from dlecorr.language import (
    BOT, TOP, Conominal, Inequality, Layer, Nominal, Var, join,
)
from dlecorr.models import antichain
from dlecorr.parsing import parse_inequality, parse_signature


@pytest.fixture(scope="module")
def sig():
    return parse_signature(CLASSICAL_SIG_TEXT)


@pytest.fixture(scope="module")
def antichain4_lattices(sig):
    """dia/box from every relation up to automorphism on the discrete
    4-point poset, built once for criteria 1 and 6."""
    return [dle for _, dle in models.relational_lattices(sig, antichain(4))]


@pytest.fixture(scope="module")
def church_rosser_derivation(sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", sig, Layer.DLE)
    d = run_alba(iq, sig, "alba", "auto")
    assert d.status.kind == "success"
    return iq, d


@pytest.fixture(scope="module")
def golden_albae_derivations(sig):
    pi = lambda t: sig.role_instance("pi", t)
    sg = lambda t: sig.role_instance("sigma", t)
    additivity = Inequality(pi(join(Var("p"), Var("q"))),
                            join(pi(Var("p")), pi(Var("q"))))
    geach = Inequality(pi(sg(Var("p"))), sg(pi(Var("p"))))
    d_add = run_alba(additivity, sig, "albae", "auto")
    d_geach = run_alba(geach, sig, "albae", "auto")
    return (additivity, d_add), (geach, d_geach)


@pytest.fixture(scope="module")
def random_alba_suite():
    rng = random.Random(20260811)
    runs = []
    while len(runs) < 200:
        rsig = generators.random_signature(rng)
        iq = generators.random_inductive(rng, rsig)
        d = run_alba(iq, rsig, "alba", "auto")
        runs.append((rsig, iq, d))
    return runs


@pytest.fixture(scope="module")
def random_albae_suite(sig):
    rng = random.Random(6031769)
    runs = []
    while len(runs) < 100:
        star = generators.random_inductive(rng, sig, star=True, max_depth=4)
        img = generators.phi_image(star, sig)
        d = run_alba(img, sig, "albae", "auto")
        runs.append((star, img, d))
    return runs


def test_criterion_1_church_rosser(sig, church_rosser_derivation,
                                   antichain4_lattices):
    iq, d = church_rosser_derivation
    eq10 = parse_inequality(
        "res(box,1)(dia(#j)) <= dia(res(box,1)(#j))", sig, Layer.DLEPLUS)
    lattices = [dle for _, dle in models.relational_sweep(sig, 3)]
    lattices += antichain4_lattices
    assert len(lattices) > 3000
    for dle in lattices:
        valid_input = models.check_validity(iq, dle)[0]
        quasi = models.check_quasi(d.status.pure_systems, dle)
        valid_eq10 = models.check_validity(eq10, dle)[0]
        assert quasi == valid_input, "output diverges from input validity"
        assert valid_eq10 == valid_input, "output diverges from the tense form"
    print(f"\nACCEPTANCE 1: PASS - pure output and the tense correspondent "
          f"agree with input validity on {len(lattices)} relational lattices")


def test_criterion_2_worked_traces(sig, golden_albae_derivations):
    (additivity, d_add), (geach, d_geach) = golden_albae_derivations
    pi = lambda t: sig.role_instance("pi", t)
    sg = lambda t: sig.role_instance("sigma", t)

    assert d_add.status.kind == "success" and is_safe(d_add)
    (system,) = d_add.status.pure_systems
    bsq = adjoint("pi", Conominal("m0"))
    assert set(system.inequalities()) == {
        Inequality(Nominal("i0"), pi(join(bsq, bsq))),
        Inequality(pi(BOT), Conominal("m0")),
    }
    assert {si.ineq for si in system.ineqs if si.side} == {
        Inequality(pi(BOT), Conominal("m0"))}

    assert d_geach.status.kind == "success" and is_safe(d_geach)
    systems = [set(s.inequalities()) for s in d_geach.status.pure_systems]
    assert systems == [
        {Inequality(Nominal("i0"), pi(BOT)),
         Inequality(sg(pi(BOT)), Conominal("m0"))},
        {Inequality(Nominal("i0"), defined("pi", Nominal("j1"))),
         Inequality(sg(pi(adjoint("sigma", Nominal("j1")))), Conominal("m0")),
         Inequality(Nominal("j1"), sg(TOP))},
    ]
    sides = [{si.ineq for si in s.ineqs if si.side}
             for s in d_geach.status.pure_systems]
    assert Inequality(Nominal("j1"), sg(TOP)) in sides[1]
    print("\nACCEPTANCE 2: PASS - additivity and composition-swap runs "
          "reproduce the worked final systems, side conditions included")


def test_criterion_3_success_on_random_inductive(random_alba_suite):
    for rsig, iq, d in random_alba_suite:
        assert d.status.kind == "success", iq
        for system in d.status.pure_systems:
            for si in system.ineqs:
                assert not (si.ineq.lhs.var_names or si.ineq.rhs.var_names)
    print(f"\nACCEPTANCE 3: PASS - {len(random_alba_suite)}/"
          f"{len(random_alba_suite)} random inductive inequalities reduce "
          f"to pure systems")


def test_criterion_4_success_on_substitution_images(sig, random_albae_suite):
    nodes_checked = 0
    for star, img, d in random_albae_suite:
        assert d.status.kind == "success", img
        assert is_safe(d)
        for node in d.nodes:
            system = d.node_system_concrete(node.id)
            if system.goal is None:
                continue
            nodes_checked += 1
            assert engine.check_topological_adequacy(system, sig)
            assert engine.check_compact_appropriate(system)
    print(f"\nACCEPTANCE 4: PASS - {len(random_albae_suite)}/"
          f"{len(random_albae_suite)} enhanced runs safe and successful; "
          f"adequacy and compact-appropriateness hold at {nodes_checked} nodes")


def _lattice_pool(rng, rsig, need_roles: bool, count: int = 20,
                  max_points: int = 2):
    # systems in random derivations can carry six or more quantified
    # symbols, so the pool stays on small posets to keep the sweeps exact
    pool = []
    tries = 0
    while len(pool) < count and tries < 600:
        tries += 1
        dle = models.random_dle(rng, rsig, max_points=max_points)
        if need_roles and not models.role_axioms_hold(dle):
            continue
        pool.append(dle)
    assert len(pool) >= count, "could not assemble the lattice pool"
    return pool


def test_criterion_5_rule_soundness(sig, church_rosser_derivation,
                                    golden_albae_derivations,
                                    random_alba_suite, random_albae_suite):
    rng = random.Random(91)
    albae_pool = _lattice_pool(rng, sig, need_roles=True)
    golden_pool = _lattice_pool(rng, sig, need_roles=True, max_points=3)
    plain_pool_for_sig = _lattice_pool(rng, sig, need_roles=False,
                                       max_points=3)

    checked = 0
    derivs = [(sig, church_rosser_derivation[1], plain_pool_for_sig)]
    for (_, d_add), (_, d_geach) in [golden_albae_derivations]:
        derivs.append((sig, d_add, golden_pool))
        derivs.append((sig, d_geach, golden_pool))
    pools = {}
    for rsig, _, d in random_alba_suite:
        key = id(rsig)
        if key not in pools:
            pools[key] = _lattice_pool(rng, rsig, need_roles=False)
        derivs.append((rsig, d, pools[key]))
    for _, _, d in random_albae_suite:
        derivs.append((sig, d, albae_pool))

    for rsig, d, pool in derivs:
        for rule, parent, children in engine.rule_steps(d):
            for dle in pool:
                assert models.verify_rule_step(parent, children, dle), (
                    rule.label(), dle.poset)
                checked += 1
    print(f"\nACCEPTANCE 5: PASS - {checked} rule-step/lattice checks, "
          f"all semantically sound")


def test_criterion_6_lemma_suite(sig, antichain4_lattices):
    lattices = [dle for _, dle in models.relational_sweep(sig, 3)]
    lattices += random.Random(23).sample(antichain4_lattices, 40)

    nonadditive_with_witness = 0
    for dle in lattices:
        report = models.check_lemma_suite(dle)
        assert report.ok, report.role_results
        f = dle.role_table("pi")
        g = dle.def_table("pi")
        adj = dle.black_table("pi")
        additive = all(
            dle.leq(f[dle.join(a, b)], dle.join(f[a], f[b]))
            for a in range(dle.n_elem) for b in range(dle.n_elem))
        if not additive:
            identity_fails = any(
                f[u] != dle.join(f[dle.bot], g[u]) for u in range(dle.n_elem))
            c_pi_fails = any(
                dle.leq(f[dle.bot], m) and not dle.leq(f[adj[m]], m)
                for m in dle.mirr)
            assert identity_fails and c_pi_fails
            nonadditive_with_witness += 1
    assert nonadditive_with_witness > 0
    print(f"\nACCEPTANCE 6: PASS - lemma suite exact on {len(lattices)} "
          f"lattices; {nonadditive_with_witness} non-additive instances "
          f"falsify the identity and the pseudo-correspondent")


def test_criterion_7_classification_ground_truth(sig):
    mckinsey = parse_inequality(
        "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))", sig, Layer.DLE)
    assert classify.is_sahlqvist(mckinsey) is None
    assert classify.is_inductive(mckinsey) is None
    meta = classify.is_meta_inductive(mckinsey, sig)
    assert meta is not None
    assert meta[0] == Inequality(dotted("pi", dotted("sigma", Var("p"))),
                                 dotted("sigma", dotted("pi", Var("p"))))
    cr = parse_inequality("dia(box(p)) <= box(dia(p))", sig, Layer.DLE)
    assert classify.is_sahlqvist(cr) is not None
    print("\nACCEPTANCE 7: PASS - the composition-expanded inequality is "
          "neither Sahlqvist nor inductive but is meta-inductive; the "
          "confluence inequality is Sahlqvist")


def test_criterion_8_determinism(tmp_path):
    outs = {"reduce": [], "verify": []}
    for command, extra in (("reduce", []), ("verify", ["--budget", "2", "--seed", "11"])):
        for i in (1, 2):
            out = tmp_path / f"{command}{i}.txt"
            r = subprocess.run(
                [sys.executable, "-m", "dlecorr.cli", command,
                 "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                 "--sig", str(SIG), "--mode", "albae", "--out", str(out)] + extra,
                capture_output=True, text=True)
            assert r.returncode == 0, r.stdout + r.stderr
            outs[command].append(out.read_bytes())
    assert outs["reduce"][0] == outs["reduce"][1]
    assert outs["verify"][0] == outs["verify"][1]
    print("\nACCEPTANCE 8: PASS - repeated seeded runs are byte-identical")
