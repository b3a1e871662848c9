import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_any_term
from dlecorr import classify, generators
from dlecorr.classify import (
    DELTA, SLR, SRA, branches, is_inductive, is_meta_inductive, is_sahlqvist,
    node_classes,
)
from dlecorr.language import (
    ANTI, MONO, DotBox, DotDia, Inequality, Layer, Nominal, OrderType,
    Var, TOP, join, meet, var_occurrences,
)
from dlecorr.parsing import parse_inequality, parse_signature, parse_term


def signs_of(t, var):
    return {s for name, s, _ in var_occurrences(t) if name == var}


def test_polarity_examples(classical_sig):
    pi = parse_term("dia(box(dia(p)))", classical_sig, Layer.DLE)
    assert signs_of(pi, "p") == {MONO}
    sig = parse_signature("conn rhd G 1 (d)")
    t1 = parse_term("rhd(p)", sig, Layer.DLE)
    assert signs_of(t1, "p") == {ANTI}
    t3 = parse_term("rhd(rhd(rhd(p)))", sig, Layer.DLE)
    assert signs_of(t3, "p") == {ANTI}
    assert signs_of(t3, "q") == set()
    both = meet(Var("p"), parse_term("rhd(p)", sig, Layer.DLE))
    assert signs_of(both, "p") == {MONO, ANTI}


def test_signed_tree_classes(bare_sig):
    t = parse_term("dia(box(p))", bare_sig, Layer.DLE)
    [br] = branches(t, MONO)
    assert br.var == "p" and br.leaf_sign == MONO
    assert SLR in br.p2[0].classes        # positive F-connective
    assert SRA in br.p1[0].classes        # positive unary G-connective
    assert br.p1[0].term == t.args[0] and br.p1[0].sign == MONO

    neg_join = branches(join(Var("p"), Var("q")), ANTI)
    assert [br.var for br in neg_join] == ["p", "q"]
    assert all(DELTA in br.p2[0].classes for br in neg_join)

    assert branches(TOP, MONO) == []
    assert node_classes(TOP, MONO) == {classify.CONSTANT}
    # Table 1 has seven class sets; a node gets one of them, not a copy
    assert node_classes(t, MONO) is node_classes(t.args[0], ANTI)


def test_signed_tree_rejects_expanded_layers(classical_sig):
    with pytest.raises(classify.ClassifyError, match="DLE/DLEstar"):
        branches(Nominal("i0"), MONO)
    with pytest.raises(classify.ClassifyError, match="DLE/DLEstar"):
        branches(meet(Var("p"), Nominal("i0")), MONO)


def test_polarity_matches_leaf_signs(mixed_sig):
    # the leaves of the branch analyses are the variable occurrences
    rng = random.Random(11)
    for _ in range(200):
        t = random_any_term(rng, mixed_sig, Layer.DLESTAR, 4)
        for sign in (MONO, ANTI):
            assert [(br.var, br.leaf_sign) for br in branches(t, sign)] == \
                [(name, s) for name, s, _ in var_occurrences(t, sign)]


def test_sahlqvist_classical(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    assert is_sahlqvist(iq) == OrderType(("1",))


def test_sahlqvist_dotted_geach(mixed_sig):
    star = Inequality(DotDia((DotBox((Var("p"),)),)),
                      DotBox((DotDia((Var("p"),)),)))
    assert is_sahlqvist(star) is not None


def test_mckinsey_shape_rejected(bare_sig):
    iq = parse_inequality("dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                          bare_sig, Layer.DLE)
    assert is_sahlqvist(iq) is None
    assert is_inductive(iq) is None


def test_trivial_classifications(bare_sig):
    iq = parse_inequality("p <= p", bare_sig, Layer.DLE)
    w = is_inductive(iq)
    assert w is not None
    assert w.epsilon == OrderType(("1",))
    assert w.omega == frozenset()
    assert is_inductive(parse_inequality("top <= bot", bare_sig, Layer.DLE))


def test_every_sahlqvist_witness_is_inductive(mixed_sig):
    rng = random.Random(23)
    found = 0
    for _ in range(400):
        lhs = random_any_term(rng, mixed_sig, Layer.DLESTAR, 3)
        rhs = random_any_term(rng, mixed_sig, Layer.DLESTAR, 3)
        iq = Inequality(lhs, rhs)
        eps = is_sahlqvist(iq)
        if eps is None:
            continue
        found += 1
        ws = {w.epsilon: w for w in classify.inductive_witnesses(iq)}
        assert eps in ws and ws[eps].omega == frozenset()
    assert found > 20


def test_branch_analysis_of_dotted_additivity():
    # dotted additivity: the -rhs branches have a one-node PIA block
    star = Inequality(DotDia((join(Var("p"), Var("q")),)),
                      join(DotDia((Var("p"),)), DotDia((Var("q"),))))
    for br in branches(star.rhs, ANTI):
        assert br.is_good and br.is_excellent
        assert len(br.p1) == 1 and SRA in br.p1[0].classes
        assert len(br.p2) == 1 and DELTA in br.p2[0].classes


def test_srr_obligations_force_dependency_order():
    sig = parse_signature("conn g2 G 2 (1,1)\nconn dia F 1 (1)")
    # g2(q,p) <= dia(q): solving p through the SRR node g2 forces the
    # sibling variable below it in the dependency order
    iq = parse_inequality("g2(q, p) <= dia(q)", sig, Layer.DLE)
    w = is_inductive(iq)
    assert w is not None
    assert w.epsilon == OrderType(("1", "d"))
    assert ("q", "p") in w.omega


def test_srr_cycle_is_rejected():
    sig = parse_signature("conn g3 G 2 (d,1)")
    # two SRR nodes guarding each other: every order type either fails
    # the side-term agreement or forces a cyclic dependency order
    iq = parse_inequality("g3(q, p) & g3(p, q) <= top", sig, Layer.DLE)
    assert is_inductive(iq) is None


def test_meta_inductive_mckinsey(classical_sig):
    iq = parse_inequality("dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                          classical_sig, Layer.DLE)
    found = is_meta_inductive(iq, classical_sig)
    assert found is not None
    pre, w = found
    assert pre == Inequality(DotDia((DotBox((Var("p"),)),)),
                             DotBox((DotDia((Var("p"),)),)))


def test_meta_inductive_additivity(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    iq = Inequality(pi(join(Var("p"), Var("q"))),
                    join(pi(Var("p")), pi(Var("q"))))
    found = is_meta_inductive(iq, classical_sig)
    assert found is not None
    pre, w = found
    expected = Inequality(DotDia((join(Var("p"), Var("q")),)),
                          join(DotDia((Var("p"),)), DotDia((Var("q"),))))
    assert pre == expected
    assert is_inductive(expected) is not None


def test_meta_inductive_identity_fallback(classical_sig):
    # no registered-term occurrence: the only preimage is the input itself
    iq = parse_inequality("p <= p", classical_sig, Layer.DLE)
    found = is_meta_inductive(iq, classical_sig)
    assert found is not None
    assert found[0] == iq

    bad = parse_inequality("dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                           classical_sig, Layer.DLE)
    no_roles = parse_signature("conn dia F 1 (1)\nconn box G 1 (1)")
    assert is_meta_inductive(bad, no_roles) is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_meta_inductive_recovers_random_images(seed, classical_sig):
    from dlecorr import generators
    rng = random.Random(seed)
    star = generators.random_inductive(rng, classical_sig, star=True, max_depth=3)
    img = generators.phi_image(star, classical_sig)
    assert is_meta_inductive(img, classical_sig) is not None


def test_variable_cap(classical_sig):
    sig = parse_signature("conn dia F 1 (1)")
    big = Var("x0")
    for i in range(1, 13):
        big = join(big, Var(f"x{i}"))
    with pytest.raises(classify.ClassifyError):
        is_inductive(Inequality(big, TOP))
    # outside DLEstar as well: the cap is reported before the layer, by the
    # epsilon loop and the meta-inductive search alike
    iq = Inequality(join(big, Nominal("i0")), TOP)
    with pytest.raises(classify.ClassifyError, match="capped"):
        is_inductive(iq)
    with pytest.raises(classify.ClassifyError, match="capped"):
        is_meta_inductive(iq, classical_sig)
    with pytest.raises(classify.ClassifyError, match="DLE/DLEstar"):
        is_inductive(Inequality(Nominal("i0"), TOP))


def _classifier_inputs(classical_sig, mixed_sig, draws):
    """Seeded (signature, inequality) inputs: inductive images on random
    signatures, phi-images of dotted inductive inequalities, and random
    term pairs (SRR nodes with side terms on the mixed signature, role
    matches on the classical one)."""
    rng = random.Random(7)
    for k in range(draws):
        if k % 4 == 0:
            sig = generators.random_signature(rng)
            iq = generators.random_inductive(rng, sig, max_depth=3)
        elif k % 4 == 1:
            sig = classical_sig
            iq = generators.phi_image(
                generators.random_inductive(rng, sig, star=True, max_depth=3), sig)
        else:
            sig, layer = ((mixed_sig, Layer.DLESTAR), (classical_sig, Layer.DLE))[k % 2]
            iq = Inequality(random_any_term(rng, sig, layer, 4),
                            random_any_term(rng, sig, layer, 4))
        yield sig, iq


def _classifier_records(classical_sig, mixed_sig, draws):
    """Everything the classifier answers on the seeded inputs."""
    witness = lambda w: (w.variables, w.epsilon.entries, sorted(w.omega))
    out = []
    for k, (sig, iq) in enumerate(_classifier_inputs(classical_sig, mixed_sig, draws)):
        eps = is_sahlqvist(iq)
        ws = classify.inductive_witnesses(iq)
        meta = classify.meta_inductive_witnesses(iq, sig)
        shown = eps if eps is not None else (ws[0].epsilon if ws else None)
        out.append((
            k, repr(iq), eps and eps.entries,
            [witness(w) for w in ws],
            [(repr(pre), witness(w)) for pre, w in meta],
            classify.branch_report(iq, shown), classify.branch_report(iq)))
    return out


def test_classifier_differential_pinned(classical_sig, mixed_sig):
    # 400 inputs: 370 Sahlqvist, 380 inductive (26 with a non-empty
    # omega), 1379 meta-inductive pairs; 274 side terms disagree with the
    # opposite order type and 36 dependency orders are cyclic.  The digest
    # was taken while each order type still rebuilt both signed trees and
    # every meta-inductive pair was classified from scratch
    records = _classifier_records(classical_sig, mixed_sig, 400)
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "858ac8e0d3a4e21f1d72fea08d2d1b7b23ad505cd4997ef1c35b9cc144921266"


def test_meta_search_answers_its_first_pair(classical_sig, mixed_sig, monkeypatch):
    # the meta search analyses each preimage when a pair first needs it:
    # is_meta_inductive stops at the first inductive pair, which is the
    # first entry of the full search, pair order and budget alike
    for sig, iq in _classifier_inputs(classical_sig, mixed_sig, 400):
        found = classify.meta_inductive_witnesses(iq, sig)
        assert is_meta_inductive(iq, sig) == (found[0] if found else None), repr(iq)
    iq = parse_inequality("dia(box(dia(p))) <= box(q)", classical_sig, Layer.DLE)
    trees = []
    analyse = classify.branches
    monkeypatch.setattr(classify, "branches",
                        lambda t, sign: trees.append((t, sign)) or analyse(t, sign))
    pair = is_meta_inductive(iq, classical_sig)
    assert pair is not None and trees == [(pair[0].lhs, MONO), (pair[0].rhs, ANTI)]
    trees.clear()
    assert len(classify.meta_inductive_witnesses(iq, classical_sig)) > 1
    assert len(trees) == len(set(trees)) > 2
    monkeypatch.undo()
    # above DLEstar the first pair's analysis raises, on either side
    for text in ("#i0 <= box(q)", "dia(p) <= box(@m0)"):
        iq = parse_inequality(text, classical_sig, Layer.DLEPLUS)
        for search in (is_meta_inductive, classify.meta_inductive_witnesses):
            with pytest.raises(classify.ClassifyError, match="DLE/DLEstar"):
                search(iq, classical_sig)
