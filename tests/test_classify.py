import gc
import random
import sys
import threading
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CLASSICAL_SIG_TEXT, MIXED_SIG_TEXT, assert_records, dotted, random_any_term,
    short_hash,
)
from dlecorr import classify, engine, generators, language
from dlecorr.classify import (
    DELTA, PIA, SKELETON, SLR, SRA, SRR, BranchAnalysis, SignedNode, branches,
    is_inductive, is_meta_inductive, is_sahlqvist, node_classes,
)
from dlecorr.language import (
    ANTI, BOT, JOIN, MEET, MONO, App, Inequality, Join, Layer, Meet,
    Nominal, OrderType, Residual, Var, TOP, dotted_spec, join, meet,
    signed_leaves, subterms, var_occurrences,
)
from dlecorr.parsing import parse_inequality, parse_signature, parse_term
from dlecorr.printing import print_inequality, print_term


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
            leaves = [(name, s) for name, s, _ in var_occurrences(t, sign)]
            assert [(br.var, br.leaf_sign) for br in branches(t, sign)] == leaves
            assert signed_leaves(t, sign) == tuple(dict.fromkeys(leaves))


def test_sahlqvist_classical(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    assert is_sahlqvist(iq) == OrderType(("1",))


def test_sahlqvist_dotted_geach(mixed_sig):
    star = Inequality(dotted("pi", dotted("sigma", Var("p"))),
                      dotted("sigma", dotted("pi", Var("p"))))
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
    star = Inequality(dotted("pi", join(Var("p"), Var("q"))),
                      join(dotted("pi", Var("p")), dotted("pi", Var("q"))))
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
    assert pre == Inequality(dotted("pi", dotted("sigma", Var("p"))),
                             dotted("sigma", dotted("pi", Var("p"))))


def test_meta_inductive_additivity(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    iq = Inequality(pi(join(Var("p"), Var("q"))),
                    join(pi(Var("p")), pi(Var("q"))))
    found = is_meta_inductive(iq, classical_sig)
    assert found is not None
    pre, w = found
    expected = Inequality(dotted("pi", join(Var("p"), Var("q"))),
                          join(dotted("pi", Var("p")), dotted("pi", Var("q"))))
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


def test_a_declared_meet_is_drawn_as_filler():
    # a declared connective named like a lattice operation is drawn as
    # itself: the generator draws declarations, not names
    sig = parse_signature("conn meet F 1 (1)\nconn g G 1 (1)")
    drawn = {s.decl.name for seed in range(300) for s in subterms(
        generators._Draw(random.Random(seed), sig, ("p",), {"p": "1"}, {"p": 0}, False)
        .noncrit(MONO, 4)) if isinstance(s, App)}
    assert drawn == {"meet", "g"}


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


def _term_key(t):
    """``t`` encoded apart from the node classes that build it: a leaf is
    printed, and every other head is its declaration's name, family and
    order type, a residual's with its coordinate first; a dotted marker's
    name is marked as the branch report marks it (``dia.``)."""
    if not t.args and not isinstance(t, App):
        return print_term(t)
    decl = {Meet: MEET, Join: JOIN}.get(type(t)) or t.decl
    head = (decl.name + "." if dotted_spec(t) else decl.name, decl.family,
            decl.order_type.entries)
    if isinstance(t, Residual):
        head = ("res", t.coord, *head)
    return (*head, tuple(_term_key(a) for a in t.args))


def _ineq_key(iq):
    return _term_key(iq.lhs), _term_key(iq.rhs)


def classifier_records():
    """Everything the classifier answers on the seeded inputs, one line per
    input: its index, the order type of its Sahlqvist verdict ("-" for
    none), its numbers of inductive witnesses and meta-inductive pairs, a
    hash of all the answers, and the input."""
    classical_sig, mixed_sig = map(parse_signature, (CLASSICAL_SIG_TEXT, MIXED_SIG_TEXT))
    witness = lambda w: (w.variables, w.epsilon.entries, sorted(w.omega))
    lines = ["# index sahlqvist inductive meta answers-sha256 input"]
    for k, (sig, iq) in enumerate(_classifier_inputs(classical_sig, mixed_sig, 400)):
        eps = is_sahlqvist(iq)
        ws = classify.inductive_witnesses(iq)
        meta = classify.meta_inductive_witnesses(iq, sig)
        shown = eps if eps is not None else (ws[0].epsilon if ws else None)
        answers = (
            k, _ineq_key(iq), eps and eps.entries,
            [witness(w) for w in ws],
            [(_ineq_key(pre), witness(w)) for pre, w in meta],
            classify.branch_report(iq, shown), classify.branch_report(iq))
        lines.append(f"{k} {'-' if eps is None else eps} {len(ws)} {len(meta)} "
                     f"{short_hash(repr(answers))} {print_inequality(iq)}")
    return lines


def test_classifier_differential_pinned():
    # 400 inputs: 370 Sahlqvist, 380 inductive (26 with a non-empty
    # omega), 1379 meta-inductive pairs; 274 side terms disagree with the
    # opposite order type and 36 dependency orders are cyclic.  The records
    # were pinned while each order type still rebuilt both signed trees and
    # every meta-inductive pair was classified from scratch, and re-keyed
    # to ``_term_key`` where it was ``repr``, which spells node classes: on
    # these inputs both tell apart the same 1105 of the 3558 sides of the
    # inputs and their preimages (``print_term`` tells apart only 568)
    assert_records("classifier", classifier_records())


def test_meta_search_answers_its_first_pair(classical_sig, mixed_sig, monkeypatch):
    # is_meta_inductive answers the first inductive pair, which is the
    # first entry of the full search, pair order and budget alike
    for sig, iq in _classifier_inputs(classical_sig, mixed_sig, 400):
        found = classify.meta_inductive_witnesses(iq, sig)
        assert is_meta_inductive(iq, sig) == (found[0] if found else None), repr(iq)
    iq = parse_inequality("dia(box(dia(p))) <= box(q)", classical_sig, Layer.DLE)
    classify._input.cache_clear()
    trees = _counted_walks(monkeypatch)
    pair = is_meta_inductive(iq, classical_sig)
    # the record walks the input's sides, which are their own preimages;
    # the search analyses every other (preimage, sign) once
    assert pair is not None and trees[:2] == [(iq.lhs, MONO), (iq.rhs, ANTI)]
    assert {(pair[0].lhs, MONO), (pair[0].rhs, ANTI)} <= set(trees)
    assert len(trees) == len(set(trees)) > 2
    trees.clear()
    assert len(classify.meta_inductive_witnesses(iq, classical_sig)) > 1
    assert trees == []  # the search is the record's
    monkeypatch.undo()
    # above DLEstar the walk of the input raises, on either side
    for text in ("#i0 <= box(q)", "dia(p) <= box(@m0)"):
        iq = parse_inequality(text, classical_sig, Layer.DLEPLUS)
        for search in (is_meta_inductive, classify.meta_inductive_witnesses):
            with pytest.raises(classify.ClassifyError, match="DLE/DLEstar"):
                search(iq, classical_sig)


def _leaf_by_leaf(t, sign, trail=()):
    """The branch analyses as each leaf reads them off its trail of
    (signed node, coordinate taken), root first: the Skeleton block is the
    longest Skeleton run from the root, the rest is P1, and the side leaves
    of P1's SRR nodes are collected through ``var_occurrences``."""
    if isinstance(t, Var):
        k = 0
        while k < len(trail) and trail[k][0].classes & SKELETON:
            k += 1
        pia = trail[k:][::-1]
        good = all(node.classes & PIA for node, _ in pia)
        excellent = good and all(SRA in node.classes for node, _ in pia)
        srr = {(v, s) for node, taken in pia if good and SRR in node.classes
               for i, (a, tone) in enumerate(zip(node.term.args, node.term.tonicities()))
               if i != taken for v, s, _ in var_occurrences(a, node.sign * tone)}
        return [BranchAnalysis(t.name, sign, good, excellent,
                               tuple(node for node, _ in pia),
                               tuple(node for node, _ in reversed(trail[:k])),
                               frozenset(srr))]
    node = SignedNode(t, sign, node_classes(t, sign))
    return [br for k, (a, tone) in enumerate(zip(t.args, t.tonicities()))
            for br in _leaf_by_leaf(a, sign * tone, trail + ((node, k),))]


def _inequalities_up_to(sig, size):
    """Every inequality of at most ``size`` nodes, both sides counted: the
    leaves are p, q, top and bot, the nodes & and | and each connective."""
    heads = [(Meet, 2), (Join, 2)] + [(lambda args, d=d: App(d, args), d.arity)
                                      for d in sig.connectives]
    by_size = {1: [Var("p"), Var("q"), TOP, BOT]}
    for n in range(2, size):
        by_size[n] = [make(args) for make, arity in heads
                      for sizes in product(range(1, n), repeat=arity) if sum(sizes) == n - 1
                      for args in product(*(by_size[s] for s in sizes))]
    return [Inequality(lhs, rhs) for n in range(2, size + 1) for left in range(1, n)
            for lhs in by_size[left] for rhs in by_size[n - left]]


def test_walk_matches_leaf_by_leaf_analysis(classical_sig, mixed_sig):
    # the walk carries the P1/P2 split, the good and excellent flags and
    # the SRR side leaves down the tree; each leaf used to rescan its trail
    inputs = [iq for _, iq in _classifier_inputs(classical_sig, mixed_sig, 400)]
    inputs += _inequalities_up_to(classical_sig, 5) + _inequalities_up_to(mixed_sig, 5)
    assert len(inputs) == 400 + 3088 + 2720
    side_leaves = 0
    for iq in inputs:
        for t in (iq.lhs, iq.rhs):
            for sign in (MONO, ANTI):
                found = branches(t, sign)
                assert found == _leaf_by_leaf(t, sign), (repr(iq), sign)
                side_leaves += sum(len(br.srr_leaves) for br in found)
    assert side_leaves > 1000


@pytest.fixture
def empty_slot():
    """No input's record cached when this test starts."""
    classify._input.cache_clear()


def _counted_walks(monkeypatch):
    trees = []
    walk = classify.branches
    monkeypatch.setattr(classify, "branches",
                        lambda t, sign: trees.append((t, sign)) or walk(t, sign))
    return trees


def test_one_input_slot_answers_like_a_fresh_walk(classical_sig, monkeypatch):
    first = parse_inequality("dia(box(p)) <= box(dia(p))", classical_sig, Layer.DLE)
    second = parse_inequality("box(p | dia(q)) <= dia(box(q & p))", classical_sig, Layer.DLE)
    asks = (is_sahlqvist, is_inductive, classify.inductive_witnesses, classify.branch_report)
    fresh = {}
    for iq in (first, second):
        for ask in asks:
            classify._input.cache_clear()
            fresh[iq, ask] = ask(iq)
    for ask in asks:
        for iq in (first, second, second, first):
            assert ask(iq) == fresh[iq, ask]
    # a rejected input raises on every call and leaves the cache to the
    # input before it, the first input, which is not walked again
    above = parse_inequality("#i0 <= box(q)", classical_sig, Layer.DLEPLUS)
    wide = Inequality(Var("x0"), Var("x1"))
    for i in range(2, 13):
        wide = Inequality(join(wide.lhs, Var(f"x{i}")), wide.rhs)
    trees = _counted_walks(monkeypatch)
    for bad, message in ((above, "DLE/DLEstar"), (wide, "capped")):
        for _ in range(2):
            for ask in asks[:3]:
                with pytest.raises(classify.ClassifyError, match=message):
                    ask(bad)
        for ask in asks:
            assert ask(first) == fresh[first, ask]
    assert trees == [(above.lhs, MONO)] * 6


def test_an_operation_walks_each_side_once(classical_sig, empty_slot, monkeypatch):
    # is_sahlqvist, is_inductive and run_alba's witnesses share one walk
    iq = parse_inequality("dia(box(p)) & q <= box(dia(p & q))", classical_sig, Layer.DLE)
    trees = _counted_walks(monkeypatch)
    assert is_sahlqvist(iq) is not None and is_inductive(iq) is not None
    assert engine.run_alba(iq, classical_sig, "alba", "auto").status.kind == "success"
    assert trees == [(iq.lhs, MONO), (iq.rhs, ANTI)]


def _interned_var_names():
    """The ``var_names`` of every live interned term; the table holds weak
    references, and the names hold no term alive."""
    live = (found() for found in list(language._TERMS.values()))
    return [t.var_names for t in live if t is not None]


def test_the_slot_releases_the_previous_input(classical_sig, empty_slot):
    # the cache keeps the last input's terms alive and no more: classifying
    # the next input releases them from the interning table.  The names
    # are this test's own, so no other test keeps these terms alive
    def subterm_refs(iq):
        refs, stack = [], [iq.lhs, iq.rhs]
        while stack:
            t = stack.pop()
            refs.append(weakref.ref(t))
            stack += t.args
        return refs

    held = []
    for k in range(3):
        iq = parse_inequality(f"dia(box(slot{k})) <= box(dia(slot{k} & keep{k}))",
                              classical_sig, Layer.DLE)
        assert is_inductive(iq) is not None
        held.append(subterm_refs(iq))
        del iq
        gc.collect()
        assert all(ref() is not None for ref in held[-1])
        assert all(ref() is None for refs in held[:-1] for ref in refs)
        assert not any(f"slot{j}" in names for names in _interned_var_names()
                       for j in range(k))


def _answers(sig, iq):
    """The three order-type answers and both meta-inductive answers."""
    return (is_sahlqvist(iq), is_inductive(iq), classify.inductive_witnesses(iq),
            is_meta_inductive(iq, sig), classify.meta_inductive_witnesses(iq, sig))


def test_slot_answers_like_a_cleared_slot(classical_sig, mixed_sig):
    # one order-type table and one meta search per input, read by every
    # call in turn, answer as each call on a cleared slot does
    inputs = list(_classifier_inputs(classical_sig, mixed_sig, 400))
    shared = [_answers(sig, iq) for sig, iq in inputs]
    for (sig, iq), answers in zip(inputs, shared):
        alone = []
        for ask in (is_sahlqvist, is_inductive, classify.inductive_witnesses):
            classify._input.cache_clear()
            alone.append(ask(iq))
        for ask in (is_meta_inductive, classify.meta_inductive_witnesses):
            classify._input.cache_clear()
            alone.append(ask(iq, sig))
        assert answers == tuple(alone), repr(iq)
    # the Sahlqvist order type is the first whose critical branches are
    # all excellent, read off the table of workable order types
    assert sum(answers[0] is not None for answers in shared) == 370


def _counted(monkeypatch, name):
    calls = []
    orig = getattr(classify, name)
    monkeypatch.setattr(classify, name,
                        lambda *args: calls.append(args[:2]) or orig(*args))
    return calls


def _raising_once(search):
    """``search``, except that its first call raises."""
    calls = []

    def wrapped(*args):
        if not calls:
            calls.append(args)
            raise RuntimeError("interrupted")
        return search(*args)
    return wrapped


def test_meta_calls_share_one_search(classical_sig, empty_slot, monkeypatch):
    # is_meta_inductive keeps its search and meta_inductive_witnesses
    # takes it: the preimages are searched once and each (preimage, sign)
    # is analysed once in all
    iq = parse_inequality("dia(box(dia(p))) <= box(q)", classical_sig, Layer.DLE)
    want = classify.meta_inductive_witnesses(iq, classical_sig)
    classify._input.cache_clear()
    trees = _counted_walks(monkeypatch)
    searches = _counted(monkeypatch, "_preimages")
    assert is_meta_inductive(iq, classical_sig) == want[0]
    first, searched = len(trees), len(searches)
    assert classify.meta_inductive_witnesses(iq, classical_sig) == want
    assert len(want) > 1 and 2 < first == len(trees) == len(set(trees))
    assert len(searches) == searched > 0
    # taken by meta_inductive_witnesses, the search leaves the record: a
    # third call searches again
    assert classify.meta_inductive_witnesses(iq, classical_sig) == want
    assert len(searches) == 2 * searched


def test_meta_slot_reads_only_its_own_search(classical_sig, empty_slot, monkeypatch):
    iq = parse_inequality("dia(box(dia(p))) <= box(q)", classical_sig, Layer.DLE)
    want = classify.meta_inductive_witnesses(iq, classical_sig)
    twin = parse_signature(CLASSICAL_SIG_TEXT)
    assert twin == classical_sig and twin is not classical_sig
    searches = _counted(monkeypatch, "_preimages")
    assert is_meta_inductive(iq, classical_sig) == want[0]
    searched = len(searches)
    # another Signature object, equal or not, gets a search of its own
    assert classify.meta_inductive_witnesses(iq, twin) == want
    assert len(searches) == 2 * searched
    # a search that raises is not kept: the next call searches anew, in
    # full, and answers
    search = classify._preimages
    monkeypatch.setattr(classify, "_preimages", _raising_once(search))
    with pytest.raises(RuntimeError, match="interrupted"):
        is_meta_inductive(iq, classical_sig)
    assert classify._input(iq.lhs, iq.rhs).meta is None
    searches = _counted(monkeypatch, "_preimages")
    assert is_meta_inductive(iq, classical_sig) == want[0]
    assert len(searches) == searched
    # an input whose search raises raises on every call: here the sides
    # walk, the search hits the cap
    wide = Inequality(Var("x0"), Var("x1"))
    for i in range(2, 13):
        wide = Inequality(join(wide.lhs, Var(f"x{i}")), wide.rhs)
    assert classify.branch_report(wide)
    for search in (is_meta_inductive, classify.meta_inductive_witnesses) * 2:
        with pytest.raises(classify.ClassifyError, match="capped"):
            search(wide, classical_sig)
        assert classify._input(wide.lhs, wide.rhs).meta is None


def test_threads_answer_as_one_thread_does(classical_sig):
    # threads that classify two inputs in turn share one cached record and
    # switch threads every microsecond: each call answers as it does alone
    iqs = [parse_inequality(text, classical_sig, Layer.DLE) for text in (
        "dia(box(dia(p))) <= box(q)", "dia(box(dia(box(p)))) <= box(dia(box(dia(q))))")]

    def answers(iq):
        return (is_meta_inductive(iq, classical_sig),
                classify.meta_inductive_witnesses(iq, classical_sig),
                classify.inductive_witnesses(iq))

    want = [answers(iq) for iq in iqs]
    wrong = []

    def rounds():
        try:
            for _ in range(300):
                for iq, expected in zip(iqs, want):
                    if answers(iq) != expected:
                        wrong.append(repr(iq))
        except Exception as exc:  # reported below, not lost in the thread
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rounds) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_the_meta_slot_releases_the_previous_input(classical_sig, empty_slot):
    # the record keeps the pairs of is_meta_inductive's search, with the
    # preimages they hold, until the next input: then they leave the
    # interning table.  The names are this test's own, so no other test
    # keeps these terms alive
    held = []
    for k in range(3):
        iq = parse_inequality(f"dia(box(dia(meta{k}))) <= box(kept{k})",
                              classical_sig, Layer.DLE)
        pre, _ = is_meta_inductive(iq, classical_sig)
        assert classify._input(iq.lhs, iq.rhs).meta is not None
        held.append([weakref.ref(pre.lhs), weakref.ref(pre.rhs)])
        del iq, pre
        gc.collect()
        assert all(ref() is not None for ref in held[-1])
        assert all(ref() is None for refs in held[:-1] for ref in refs)
        assert not any(f"meta{j}" in names for names in _interned_var_names()
                       for j in range(k))
