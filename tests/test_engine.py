import gc
import hashlib
import itertools
import random
import weakref

import pytest

from conftest import (
    CLASSICAL_SIG_TEXT, MIXED_SIG_TEXT, adjoint, defined, dotted, random_any_term,
    relational_dle, subterm_at,
)
from dlecorr import classify, engine, generators, language, models
from dlecorr.engine import (
    AckermannShapeError, DerivNode, Derivation, EngineError, Inequality, RuleApplication,
    RuleMatchError, SysIneq, System, _Stage, apply_rule, find_preprocess_step,
    check_compact_appropriate, check_topological_adequacy, is_safe,
    is_syntactically_closed, is_syntactically_open, run_alba, trace_lines,
)
from dlecorr.language import (
    BOT, ROLE_SPECS, SPEC_BY_ROLE, TOP, App, ConnectiveDecl, Conominal, Layer,
    Nominal, Residual, Var, join, meet,
)
from dlecorr.parsing import parse_inequality, parse_signature, parse_term
from dlecorr.printing import print_inequality


def mk_system(items, goal=None):
    return System(tuple(SysIneq(iq, side) for iq, side in items), goal)


def derivation_at(sig, mode, system):
    d = Derivation(Inequality(TOP, TOP), sig, mode)
    d.nodes[0] = DerivNode(0, None, None, system)
    return d


GOAL = Inequality(Nominal("i0"), Conominal("m0"))

P, Q, R = Var("p"), Var("q"), Var("r")
I0, M0, J1, N1 = Nominal("i0"), Conominal("m0"), Nominal("j1"), Conominal("n1")
OPLUS, ARROW2, NABLA = parse_signature(MIXED_SIG_TEXT).connectives


def oplus(a, b):
    return App(OPLUS, (a, b))


def arrow2(a, b):
    return App(ARROW2, (a, b))


def nabla(a):
    return App(NABLA, (a,))


# ----------------------------------------------------------------------
# stage one: distribution, splitting, monotone elimination

def stage_fully(d, eps_map):
    """Run stage one from ``d`` to its end: the ended derivation and the
    ids of its pieces."""
    stage, analyses = _Stage(d, (0,), ()), {}
    while (nxt := stage.advance(eps_map, analyses)) is not None:
        stage = nxt
    return stage.ended


def stage_one_pieces(iq, sig, eps_map, mode="alba"):
    d, pieces = stage_fully(Derivation(iq, sig, mode), eps_map)
    return [d.node(i).system.ineqs[0].ineq for i in pieces]


def eps_maps(iq):
    """Every order type on the variables of ``iq``, as a map."""
    names = sorted(iq.lhs.var_names | iq.rhs.var_names)
    return [dict(zip(names, entries)) for entries in itertools.product("1d", repeat=len(names))]


def test_preprocess_leaves_concrete_image_alone(classical_sig):
    # plain mode does not read the registered terms in a concrete image
    pi = lambda t: classical_sig.role_instance("pi", t)
    iq = Inequality(pi(join(Var("p"), Var("q"))),
                    join(pi(Var("p")), pi(Var("q"))))
    for eps in eps_maps(iq):
        assert stage_one_pieces(iq, classical_sig, eps) == [iq]


def test_preprocess_distributes_and_splits(bare_sig):
    iq = parse_inequality("dia(p | q) <= r & s", bare_sig, Layer.DLE)
    d, pieces = stage_fully(Derivation(iq, bare_sig, "alba"), dict.fromkeys("pqrs", "1"))
    # diamond pushed over the join, the join split, the meet split
    assert d.steps == 4
    assert [d.node(n).rule.label() for n in d.nodes[0].children] == \
        ["DistributePre(1) @ 0/0"]
    assert [print_inequality(d.node(i).system.ineqs[0].ineq) for i in pieces] == \
        ["dia(p) <= r", "dia(p) <= s", "dia(q) <= r", "dia(q) <= s"]


def test_split_order_depends_on_the_stage(bare_sig):
    # on p | q <= r & s a stage-one piece splits the join first, into two
    # pieces; a system entry splits the meet first, into two entries that
    # keep its side flag
    iq = parse_inequality("p | q <= r & s", bare_sig, Layer.DLE)
    S = Var("s")
    r_s = meet(R, S)
    d = Derivation(iq, bare_sig, "alba")
    kids = apply_rule(d, RuleApplication("Split", ineq_index=0))
    assert [d.node(k).system for k in kids] == [
        mk_system([(Inequality(P, r_s), False)]), mk_system([(Inequality(Q, r_s), False)])]
    assert [d.node(k).rule.branch for k in kids] == ["A", "B"]
    d = derivation_at(bare_sig, "alba", mk_system([(iq, True)], GOAL))
    (kid,) = apply_rule(d, RuleApplication("Split", ineq_index=0), 0)
    assert d.node(kid).system == mk_system(
        [(Inequality(join(P, Q), R), True), (Inequality(join(P, Q), S), True)], GOAL)


def test_preprocess_distribution_blocked_below_pia(bare_sig):
    # the join below the box (a PIA node) must not be distributed
    iq = parse_inequality("dia(box(p | q)) <= r", bare_sig, Layer.DLE)
    for eps in eps_maps(iq):
        assert stage_one_pieces(iq, bare_sig, eps) == [iq]


def test_preprocess_distributes_only_over_critical_leaves(bare_sig):
    # the join is cleared for a critical p or q and kept when neither is
    iq = parse_inequality("dia(p | q) <= r", bare_sig, Layer.DLE)
    for eps in eps_maps(iq):
        pieces = stage_one_pieces(iq, bare_sig, eps)
        assert len(pieces) == (1 if eps["p"] == eps["q"] == "d" else 2)


def test_preprocess_monotone_elimination(bare_sig):
    # p negative left, positive right: substitute bottom
    sig = parse_signature("conn rhd G 1 (d)")
    iq = parse_inequality("rhd(p) <= p | q", sig, Layer.DLE)
    for eps in eps_maps(iq):
        out = stage_one_pieces(iq, sig, eps)
        assert all("p" not in (x.lhs.var_names | x.rhs.var_names) for x in out)


def test_preprocess_keeps_uniform_positive_variable(bare_sig):
    iq = parse_inequality("p <= p | q", bare_sig, Layer.DLE)
    # p occurs positively on both sides, so no elimination applies to it
    for eps in eps_maps(iq):
        pieces = stage_one_pieces(iq, bare_sig, eps)
        assert any("p" in x.lhs.var_names for x in pieces)


def test_preprocess_semantic_equivalence_oracle(bare_sig):
    # brute-force oracle: stage one preserves validity on lattices, for
    # the two uniform order types (between them they clear every delta
    # node with a variable below it)
    rng = random.Random(3)
    lattices = []
    for pairs in ([(0, 1)], [(0, 1), (1, 0)], [(0, 0), (0, 1), (1, 1)]):
        lattices.append(relational_dle(bare_sig, 2, pairs))
    for _ in range(40):
        lhs = random_any_term(rng, bare_sig, Layer.DLE, 3)
        rhs = random_any_term(rng, bare_sig, Layer.DLE, 3)
        iq = Inequality(lhs, rhs)
        for entry in "1d":
            pieces = stage_one_pieces(iq, bare_sig, dict.fromkeys("pqr", entry))
            for dle in lattices:
                whole = models.check_validity(iq, dle)[0]
                split = all(models.check_validity(p, dle)[0] for p in pieces)
                assert whole == split, print_inequality(iq)


STAGE_ONE_INPUT = "box(box(q) | (top | p)) <= box((bot | bot) & dia(q))"


def test_stage_one_runs_once_per_candidate(classical_sig, monkeypatch):
    # three attempts (two fail) share their candidates' stage one: the
    # candidates' stage-one nodes ask for a step 9 times in all, where
    # rerunning stage one in every attempt asked 18 times
    calls = []
    find = engine.find_preprocess_step
    monkeypatch.setattr(engine, "find_preprocess_step",
                        lambda *args: calls.append(args) or find(*args))
    iq = parse_inequality(STAGE_ONE_INPUT, classical_sig, Layer.DLE)
    d = run_alba(iq, classical_sig, "alba", "auto")
    assert d.status.kind == "success"
    assert len(calls) == 9


def test_stage_one_step_budget(classical_sig, monkeypatch):
    iq = parse_inequality(STAGE_ONE_INPUT, classical_sig, Layer.DLE)
    eps = {"p": "d", "q": "d"}
    d, pieces = stage_fully(Derivation(iq, classical_sig, "alba"), eps)
    assert (pieces, d.steps) == ([2, 3], 2)
    monkeypatch.setattr(engine, "_MAX_ATTEMPT_STEPS", 1)
    with pytest.raises(EngineError, match="step budget"):
        stage_fully(Derivation(iq, classical_sig, "alba"), eps)


def test_attempt_step_budget(classical_sig, monkeypatch):
    # the candidates' stage ones take 0, 2 and 2 steps, and the attempts
    # of the last, the only ones that succeed, 8 more: a budget of 9 fits
    # every stage one and drops those attempts, so the run reports the
    # failure of the first candidate
    calls = []
    find = engine.find_preprocess_step
    monkeypatch.setattr(engine, "find_preprocess_step",
                        lambda *args: calls.append(args) or find(*args))
    iq = parse_inequality(STAGE_ONE_INPUT, classical_sig, Layer.DLE)
    outcomes = {}
    for budget in (2, 9, 10):
        monkeypatch.setattr(engine, "_MAX_ATTEMPT_STEPS", budget)
        calls.clear()
        d = run_alba(iq, classical_sig, "alba", "auto")
        assert len(calls) == 9  # every candidate's stage one ran to its end
        outcomes[budget] = d.status.stuck.message if d.status.stuck else d.status.kind
    assert outcomes == {
        2: "no workable witness",
        9: "no display rule for q in res(box,1)(#i0) <= box(q) | (top | top)",
        10: "success",
    }


def seeded_draws(seed, n):
    """``n`` seeded inputs with their modes and candidates, alternately
    random inductive inequalities (alba) and images of dotted ones (albae)."""
    rng = random.Random(seed)
    sig_e = parse_signature(CLASSICAL_SIG_TEXT)
    for k in range(n):
        if k % 2 == 0:
            sig = generators.random_signature(rng)
            iq = generators.random_inductive(rng, sig)
            yield iq, sig, "alba", [(iq, w) for w in classify.inductive_witnesses(iq)]
        else:
            star = generators.random_inductive(rng, sig_e, star=True, max_depth=3)
            iq = generators.phi_image(star, sig_e)
            yield iq, sig_e, "albae", classify.meta_inductive_witnesses(iq, sig_e)


def eager_order(iq, sig, mode, cands):
    """The attempt order written out: stage every candidate to its end,
    drop the ones whose stage one raises, then sort stably by the
    capped count of rewrites."""
    staged = []
    for internal, w in cands:
        try:
            d, pieces = stage_fully(Derivation(iq, sig, mode, internal_root=internal),
                                    dict(zip(w.variables, w.epsilon.entries)))
        except EngineError:
            continue
        staged.append((w, pieces, d.steps))
    return sorted(staged, key=lambda item: min(item[2], engine._STAGE_ONE_CAP))


@pytest.mark.parametrize("cap, budget", [(200, 10_000), (1, 10_000), (2, 10_000), (200, 3)])
def test_lazy_stage_one_order_is_the_eager_order(cap, budget, monkeypatch):
    # a cap of 1 or 2 sends most candidates past it, where they finish in
    # candidate order; a budget of 3 drops the candidates whose stage one
    # needs more rewrites
    monkeypatch.setattr(engine, "_STAGE_ONE_CAP", cap)
    monkeypatch.setattr(engine, "_MAX_ATTEMPT_STEPS", budget)
    passed = dropped = 0
    for iq, sig, mode, cands in seeded_draws(7, 120):
        lazy = [(w, pieces, d.steps)
                for d, pieces, _, w in engine._staged(iq, sig, mode, cands, {})]
        eager = eager_order(iq, sig, mode, cands)
        assert lazy == eager, print_inequality(iq)
        passed += sum(steps > cap for _, _, steps in eager)
        dropped += len(cands) - len(eager)
    assert (passed > 0) == (cap < 200) and (dropped > 0) == (budget == 3)


def _node_rows(d):
    return [(n.id, n.parent, n.rule, n.system, n.children) for n in d.nodes]


@pytest.mark.parametrize("cap, budget", [(200, 10_000), (1, 10_000), (200, 3)])
def test_shared_stage_one_builds_each_candidates_own_nodes(cap, budget, monkeypatch):
    # candidates share stage-one points while their steps agree and part
    # where their steps differ, in level order, past the cap and next to a
    # step that ran out of budget alike: each staged derivation has the
    # nodes, pieces and count its candidate's own stage one builds, and
    # each distinct rewrite, one that raised included, copies once; more
    # than 10 points have candidates that part there
    monkeypatch.setattr(engine, "_STAGE_ONE_CAP", cap)
    monkeypatch.setattr(engine, "_MAX_ATTEMPT_STEPS", budget)
    copies, points = [], []
    copy, init = Derivation.copy, _Stage.__init__
    monkeypatch.setattr(Derivation, "copy", lambda d: copies.append(d) or copy(d))
    monkeypatch.setattr(_Stage, "__init__",
                        lambda stage, *args: points.append(stage) or init(stage, *args))
    yielded, shared, parted = 0, set(), 0
    for iq, sig, mode, cands in seeded_draws(7, 120):
        copies.clear()
        points.clear()
        staged = list(engine._staged(iq, sig, mode, cands, {}))
        assert len(copies) == sum(len(point.after) for point in points)
        parted += sum(len(point.after) > 1 for point in points)
        for d, pieces, eps_map, _ in staged:
            own, own_pieces = stage_fully(
                Derivation(iq, sig, mode, internal_root=d.nodes[0].system.ineqs[0].ineq),
                eps_map)
            assert (_node_rows(d), pieces, d.steps) == \
                (_node_rows(own), own_pieces, own.steps), print_inequality(iq)
            yielded += 1
            shared.add(id(d))
    assert len(shared) < yielded and parted > 10


def test_stage_one_points_never_change(monkeypatch):
    # a point's derivation is its own: a step from it rewrites a copy, so
    # the nodes of every point stay as they were when it was made
    made = []
    init = _Stage.__init__

    def recorded(stage, d, *args):
        made.append((stage, _node_rows(d)))
        init(stage, d, *args)

    monkeypatch.setattr(_Stage, "__init__", recorded)
    for iq, sig, mode, cands in seeded_draws(7, 120):
        list(engine._staged(iq, sig, mode, cands, {}))
    assert len(made) > 900
    assert all(_node_rows(stage.d) == rows for stage, rows in made)


def test_first_candidate_success_stages_the_rest_in_part(bare_sig, monkeypatch):
    # the first candidate in attempt order, the seventh of 8 and the
    # first with no stage-one rewrite, succeeds: the six before it make
    # one rewrite each, so stage one asks for a step 7 times, where
    # staging all 8 to their ends asked 32 times
    calls = []
    find = engine.find_preprocess_step
    monkeypatch.setattr(engine, "find_preprocess_step",
                        lambda *args: calls.append(args) or find(*args))
    attempts = []
    attempt = engine._attempt
    monkeypatch.setattr(engine, "_attempt",
                        lambda *args: attempts.append(args) or attempt(*args))
    iq = parse_inequality("dia(p | q) & r <= box(p | r)", bare_sig, Layer.DLE)
    assert len(classify.inductive_witnesses(iq)) == 8
    d = run_alba(iq, bare_sig, "alba", "auto")
    assert d.status.kind == "success"
    assert (len(attempts), len(calls)) == (1, 7)


def test_stage_one_makes_each_shared_rewrite_once(bare_sig, monkeypatch):
    # the 8 candidates share their root, and six of them take the same
    # three rewrites: staged to their ends they rewrite 18 times, 3 times
    # distinct, and each distinct (inequality, step) pair is applied once
    applied = []
    apply = engine.apply_rule

    def counted(d, app, node_id=None):
        if app.rule_id != "FirstApprox" and d.node(node_id).system.goal is None:
            applied.append((d.node(node_id).system.ineqs[0].ineq, app))
        return apply(d, app, node_id)

    monkeypatch.setattr(engine, "apply_rule", counted)
    iq = parse_inequality("dia(p | q) & r <= box(p | r)", bare_sig, Layer.DLE)
    assert run_alba(iq, bare_sig, "alba", "auto").status.kind == "success"
    assert len(applied) == 1  # one rewrite for the six that had one
    applied.clear()
    cands = [(iq, w) for w in classify.inductive_witnesses(iq)]
    staged = list(engine._staged(iq, bare_sig, "alba", cands, {}))
    assert [d.steps for d, *_ in staged] == [0, 0, 3, 3, 3, 3, 3, 3]
    assert len(applied) == len(set(applied)) == 3
    # candidates that end at one point share its derivation and pieces
    assert len({id(d) for d, *_ in staged}) == 2


def _reference_distribution(t, sign, eps_map, path):
    # the search as it was written before it was split at the order type
    classes = classify.node_classes(t, sign)
    if classes.isdisjoint(classify.SKELETON):
        return None
    tones = t.tonicities()
    for k, child in enumerate(t.args):
        if engine._distributes(t, sign, classes, k) and any(
                classify.is_critical(s, eps_map[name])
                for name, s, _ in language.var_occurrences(child, sign * tones[k])):
            return path, k
    for k, child in enumerate(t.args):
        found = _reference_distribution(child, sign * tones[k], eps_map, path + (k,))
        if found is not None:
            return found
    return None


def _reference_preprocess_step(ineq, eps_map, role_mode):
    sides = ((ineq.lhs, 1), (ineq.rhs, -1))
    for side_idx, (term, sign) in enumerate(sides):
        found = _reference_distribution(term, sign, eps_map, ())
        if found is not None:
            pos, k = found
            spec = language.dotted_spec(subterm_at(term, pos))
            rid = "Dist" + spec.rule_suffix if role_mode and spec else "DistributePre"
            return RuleApplication(rid, ineq_index=0, path=(side_idx,) + pos, coord=k + 1)
    if isinstance(ineq.lhs, language.Join) or isinstance(ineq.rhs, language.Meet):
        return RuleApplication("Split", ineq_index=0)
    left, right = {}, {}
    for signs, (term, sign) in zip((left, right), sides):
        for name, s, _ in language.var_occurrences(term, sign):
            signs.setdefault(name, set()).add(s)
    for v in sorted(left.keys() & right.keys()):
        if left[v] == right[v] and len(left[v]) == 1:
            return RuleApplication("MonotoneElim", ineq_index=0, pivot=v,
                                   coord=0 if -1 in left[v] else 1)
    return None


def test_preprocess_analysis_matches_the_search_per_order_type():
    # every inequality that stage one meets on the seeded draws, under
    # every order type on its variables and in both modes, with one
    # analyses dict per mode shared by all of them and with a new one
    seen = {}
    for iq, sig, mode, cands in seeded_draws(11, 80):
        for internal, w in cands:
            d, _ = stage_fully(Derivation(iq, sig, mode, internal_root=internal),
                               dict(zip(w.variables, w.epsilon.entries)))
            for node in d.nodes:
                seen.setdefault(node.system.ineqs[0].ineq, None)
    assert len(seen) > 300
    distributed = 0
    for role_mode in (False, True):
        analyses = {}
        for ineq in seen:
            for eps in eps_maps(ineq):
                want = _reference_preprocess_step(ineq, eps, role_mode)
                assert find_preprocess_step(ineq, eps, role_mode, analyses) == want
                assert find_preprocess_step(ineq, eps, role_mode, {}) == want
                distributed += want is not None and want.rule_id.startswith("Dist")
        assert set(analyses) == set(seen)
    assert distributed > 0


def test_distribution_refuses_expanded_layer_nodes(classical_sig):
    # Table 1 classifies base and dotted nodes only; a script that points
    # distribution at an arrow is refused like any other mismatch
    iq = parse_inequality("(r -> (p | q)) & r <= p", classical_sig, Layer.DLEPLUS)
    d = Derivation(iq, classical_sig, "alba")
    with pytest.raises(RuleMatchError, match="does not match"):
        apply_rule(d, RuleApplication("DistributePre", ineq_index=0, path=(0, 0), coord=2))


# ----------------------------------------------------------------------
# first approximation and single rules

def test_first_approximation_shape(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    d = Derivation(iq, bare_sig, "alba")
    (child,) = apply_rule(d, RuleApplication("FirstApprox"))
    system = d.node(child).system
    assert system.goal == GOAL
    assert system.inequalities() == (
        Inequality(Nominal("i0"), iq.lhs), Inequality(iq.rhs, Conominal("m0")))
    assert d.node(child).principal == iq
    assert d.node(child).fresh == ("#i0", "@m0")


def test_first_approximation_constants(bare_sig):
    d = Derivation(Inequality(TOP, TOP), bare_sig, "alba")
    (child,) = apply_rule(d, RuleApplication("FirstApprox"))
    assert d.node(child).system.inequalities() == (
        Inequality(Nominal("i0"), TOP), Inequality(TOP, Conominal("m0")))


def test_adj_pi_rule(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    system = mk_system([(Inequality(pi(Var("p")), Conominal("m0")), False)], GOAL)
    d = derivation_at(classical_sig, "albae", system)
    (child,) = apply_rule(d, RuleApplication("AdjPi", ineq_index=0), 0)
    out = d.node(child).system
    assert out.inequalities() == (
        Inequality(Var("p"), adjoint("pi", Conominal("m0"))),
        Inequality(pi(BOT), Conominal("m0")))
    assert out.ineqs[1].side and not out.ineqs[0].side


def test_approx_pi_branches(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    psi = parse_term("box(p)", classical_sig, Layer.DLE)
    system = mk_system([(Inequality(Nominal("j0"), pi(psi)), False)], GOAL)
    d = derivation_at(classical_sig, "albae", system)
    kids = apply_rule(d, RuleApplication("ApproxPi", ineq_index=0), 0)
    assert len(kids) == 2
    side_sys = d.node(kids[0]).system
    main_sys = d.node(kids[1]).system
    assert side_sys.inequalities() == (Inequality(Nominal("j0"), pi(BOT)),)
    assert side_sys.ineqs[0].side
    assert main_sys.inequalities() == (
        Inequality(Nominal("j0"), defined("pi", Nominal("j1"))),
        Inequality(Nominal("j1"), psi))
    assert d.node(kids[0]).rule.branch == "A"
    assert d.node(kids[1]).rule.branch == "B"


def test_ackermann_right_collects_premises(bare_sig):
    box = lambda t: parse_term("box(p)", bare_sig, Layer.DLE).with_args((t,))
    system = mk_system([
        (Inequality(Nominal("j1"), Var("p")), False),
        (Inequality(Nominal("j2"), Var("p")), False),
        (Inequality(box(Var("p")), Conominal("m0")), False),
    ], GOAL)
    d = derivation_at(bare_sig, "alba", system)
    (child,) = apply_rule(d, RuleApplication("AckermannRight", pivot="p"), 0)
    out = d.node(child).system
    assert out.inequalities() == (
        Inequality(box(join(Nominal("j1"), Nominal("j2"))), Conominal("m0")),)


def test_ackermann_empty_premises_substitute_bounds(bare_sig):
    box = lambda t: parse_term("box(p)", bare_sig, Layer.DLE).with_args((t,))
    system = mk_system([(Inequality(box(Var("p")), Conominal("m0")), False)], GOAL)
    d = derivation_at(bare_sig, "alba", system)
    (child,) = apply_rule(d, RuleApplication("AckermannRight", pivot="p"), 0)
    assert d.node(child).system.inequalities() == (
        Inequality(box(BOT), Conominal("m0")),)
    system2 = mk_system([(Inequality(Nominal("j0"), box(Var("p"))), False)], GOAL)
    d2 = derivation_at(bare_sig, "alba", system2)
    (child2,) = apply_rule(d2, RuleApplication("AckermannLeft", pivot="p"), 0)
    assert d2.node(child2).system.inequalities() == (
        Inequality(Nominal("j0"), box(TOP)),)


def test_ackermann_shape_violation(bare_sig):
    # pivot occurs positively on the right: wrong polarity for the
    # right-handed rule
    system = mk_system([
        (Inequality(Nominal("j1"), Var("p")), False),
        (Inequality(Nominal("j2"), join(Var("p"), Var("q"))), False),
    ], GOAL)
    d = derivation_at(bare_sig, "alba", system)
    with pytest.raises(AckermannShapeError):
        apply_rule(d, RuleApplication("AckermannRight", pivot="p"), 0)


def test_rule_mismatch_raises(bare_sig, mixed_sig):
    system = mk_system([(Inequality(Var("p"), Var("q")), False)], GOAL)
    d = derivation_at(bare_sig, "alba", system)
    with pytest.raises(RuleMatchError):
        apply_rule(d, RuleApplication("Split", ineq_index=0), 0)
    with pytest.raises(RuleMatchError):
        apply_rule(d, RuleApplication("ResidF", ineq_index=0, coord=1), 0)
    # stage-one rules on a system that already has a goal
    for rid in ("MonotoneElim", "DistributePre", "DistPi"):
        with pytest.raises(RuleMatchError) as exc:
            apply_rule(d, RuleApplication(rid, ineq_index=0, pivot="p"), 0)
        assert str(exc.value) == f"{rid} only applies before FirstApprox"
    with pytest.raises(RuleMatchError, match="unknown rule 'NoSuchRule'"):
        apply_rule(d, RuleApplication("NoSuchRule", ineq_index=0), 0)
    # the connective rules name the shape they need
    cases = [
        ("ResidF", Inequality(P, oplus(P, Q)), 1,
         "ResidF needs an F-connective on the left"),
        ("ResidF", Inequality(oplus(P, Q), R), None, "ResidF needs a coordinate"),
        ("ResidF", Inequality(oplus(P, Q), R), 3, "ResidF has no coordinate 3"),
        ("ResidG", Inequality(arrow2(P, Q), R), 1,
         "ResidG needs a G-connective on the right"),
        ("ResidG", Inequality(R, nabla(P)), 0, "ResidG has no coordinate 0"),
        ("ApproxF", Inequality(I0, arrow2(P, Q)), None,
         "ApproxF needs nominal <= f(...)"),
        ("ApproxF", Inequality(P, oplus(P, Q)), None,
         "ApproxF needs nominal <= f(...)"),
        ("ApproxG", Inequality(oplus(P, Q), M0), None,
         "ApproxG needs g(...) <= conominal"),
        ("ApproxG", Inequality(nabla(P), R), None,
         "ApproxG needs g(...) <= conominal"),
    ]
    # the plain rules are the connective rules on a dotted marker
    for spec in ROLE_SPECS:
        f = spec.family == "F"
        cases += [
            ("Adj" + spec.dot_suffix, Inequality(P, nabla(P)), None,
             f"Adj{spec.dot_suffix} needs " + ("an F-connective on the left" if f
                                               else "a G-connective on the right")),
            ("Approx" + spec.dot_suffix, Inequality(P, R), None,
             f"Approx{spec.dot_suffix} needs " + ("nominal <= f(...)" if f
                                                  else "g(...) <= conominal")),
        ]
    # a plain rule takes its own marker only, not a declared connective of
    # the same spelling and type; ResidF, ... take neither a marker nor a
    # defined modality
    needs = {("Resid", "F"): "an F-connective on the left",
             ("Resid", "G"): "a G-connective on the right",
             ("Approx", "F"): "nominal <= f(...)", ("Approx", "G"): "g(...) <= conominal"}
    for spec in ROLE_SPECS:
        f = spec.family == "F"
        twin = App(ConnectiveDecl(spec.dotted, spec.family, 1, spec.decl.order_type), (P,))
        for kind, plain in (("Resid", "Adj"), ("Approx", "Approx")):
            for rid, occ in ((plain + spec.dot_suffix, twin),
                             (kind + spec.family, App(spec.decl, (P,))),
                             (kind + spec.family, App(spec.defined_decl, (P,)))):
                target = (Inequality(occ, R) if f else Inequality(R, occ)) if kind == "Resid" \
                    else (Inequality(I0, occ) if f else Inequality(occ, M0))
                cases.append((rid, target, 1 if rid.startswith("Resid") else None,
                              f"{rid} needs {needs[kind, spec.family]}"))
    for rid, target, coord, message in cases:
        d = derivation_at(mixed_sig, "alba", mk_system([(target, False)], GOAL))
        with pytest.raises(RuleMatchError) as exc:
            apply_rule(d, RuleApplication(rid, ineq_index=0, coord=coord), 0)
        assert str(exc.value) == message
    # in albae mode a marker stands for a registered term, not a connective
    for spec in ROLE_SPECS:
        adj = Inequality(App(spec.decl, (P,)), M0) if spec.family == "F" else \
            Inequality(I0, App(spec.decl, (P,)))
        approx = Inequality(I0, App(spec.decl, (P,))) if spec.family == "F" else \
            Inequality(App(spec.decl, (P,)), M0)
        for rid, target in (("Adj" + spec.dot_suffix, adj),
                            ("Approx" + spec.dot_suffix, approx)):
            # the mode is checked before the coordinate
            for coord in (None, 2):
                d = derivation_at(mixed_sig, "albae", mk_system([(target, False)], GOAL))
                with pytest.raises(RuleMatchError) as exc:
                    apply_rule(d, RuleApplication(rid, ineq_index=0, coord=coord), 0)
                assert str(exc.value) == f"{rid} applies in alba mode only"


def test_a_defined_modality_has_no_display_rule():
    # the display rules free a pivot from a declared connective or a
    # dotted marker; under a defined modality it stays stuck in both modes
    iq = Inequality(defined("pi", Var("p")), Conominal("m0"))
    for role_mode in (False, True):
        step = engine._display_step(mk_system([(iq, False)], GOAL), "p", "d", role_mode)
        assert step.message == "no display rule for p in Dia[pi](p) <= @m0"


def test_role_rules_in_alba_mode_are_refused(classical_sig):
    # alba mode does not assume the role axioms on which the role rules
    # rest: ApproxPi would put Dia[pi] into the system, which is unsound
    # wherever pi is not additive.  Every role rule is refused there, before
    # it is matched or its coordinate is checked, and the derivation gets
    # no node for it
    iq = parse_inequality("dia(box(dia(p))) <= q", classical_sig, Layer.DLE)
    script = "FirstApprox\nApproxPi @ 0"
    d = engine.run_scripted(iq, classical_sig, "alba", script)
    assert d.status.kind == "failure" and len(d.nodes) == 2
    assert d.status.stuck.message == "ApproxPi applies in albae mode only"
    assert len(engine.run_scripted(iq, classical_sig, "albae", script).nodes) == 4
    proto = mk_system([(iq, False)])
    first = mk_system([(Inequality(I0, iq.lhs), False), (Inequality(iq.rhs, M0), False)],
                      GOAL)
    for rid, (kind, _) in engine._ROLE_RULES.items():
        d = derivation_at(classical_sig, "alba", proto if kind == "Dist" else first)
        with pytest.raises(RuleMatchError) as exc:
            apply_rule(d, RuleApplication(rid, ineq_index=0, path=(0,), coord=1), 0)
        assert str(exc.value) == f"{rid} applies in albae mode only"
        assert len(d.nodes) == 1


def test_approximation_freshness(bare_sig):
    iq = parse_inequality("dia(p) <= box(q)", bare_sig, Layer.DLE)
    d = run_alba(iq, bare_sig, "alba", "auto")
    assert d.status.kind == "success"
    for node in d.nodes:
        if node.rule and node.fresh:
            parent_syms = d.node(node.parent).system.symbols()
            for name in node.fresh:
                assert name.lstrip("#@") not in parent_syms


def test_first_approximation_refuses_the_names_it_introduces(bare_sig):
    # FirstApprox introduces #i0 and @m0; an input with a symbol of either
    # name is refused by the fresh-symbol check, as every rule is
    for text, fresh in (("dia(i0) <= box(q)", "#i0"), ("dia(p) <= m0", "@m0")):
        d = Derivation(parse_inequality(text, bare_sig, Layer.DLE), bare_sig, "alba")
        with pytest.raises(engine.FreshnessError,
                           match=f"^fresh symbol {fresh} already occurs in the system$"):
            apply_rule(d, RuleApplication("FirstApprox"))
        assert len(d.nodes) == 1
        scripted = run_alba(d.root, bare_sig, "alba", "script", script="FirstApprox\n")
        assert scripted.status.kind == "failure"
        assert len(scripted.nodes) == 1


# ----------------------------------------------------------------------
# whole runs

def test_run_church_rosser_reaches_pure_tense_shape(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    d = run_alba(iq, bare_sig, "alba", "auto")
    assert d.status.kind == "success"
    (system,) = d.status.pure_systems
    expected = (
        parse_inequality("#i0 <= dia(#j1)", bare_sig, Layer.DLEPLUS),
        parse_inequality("box(dia(res(box,1)(#j1))) <= @m0", bare_sig, Layer.DLEPLUS),
    )
    assert system.inequalities() == expected


def test_run_additivity_matches_worked_trace(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    iq = Inequality(pi(join(Var("p"), Var("q"))),
                    join(pi(Var("p")), pi(Var("q"))))
    d = run_alba(iq, classical_sig, "albae", "auto")
    assert d.status.kind == "success" and is_safe(d)
    (system,) = d.status.pure_systems
    bsq = adjoint("pi", Conominal("m0"))
    expected = {
        Inequality(Nominal("i0"), pi(join(bsq, bsq))),
        Inequality(pi(BOT), Conominal("m0")),
    }
    assert set(system.inequalities()) == expected
    sides = {si.ineq for si in system.ineqs if si.side}
    assert sides == {Inequality(pi(BOT), Conominal("m0"))}


def test_run_geach_matches_worked_trace(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    sg = lambda t: classical_sig.role_instance("sigma", t)
    iq = Inequality(pi(sg(Var("p"))), sg(pi(Var("p"))))
    d = run_alba(iq, classical_sig, "albae", "auto")
    assert d.status.kind == "success" and is_safe(d)
    systems = [set(s.inequalities()) for s in d.status.pure_systems]
    branch_a = {
        Inequality(Nominal("i0"), pi(BOT)),
        Inequality(sg(pi(BOT)), Conominal("m0")),
    }
    branch_b = {
        Inequality(Nominal("i0"), defined("pi", Nominal("j1"))),
        Inequality(sg(pi(adjoint("sigma", Nominal("j1")))), Conominal("m0")),
        Inequality(Nominal("j1"), sg(TOP)),
    }
    assert systems == [branch_a, branch_b]


def test_runs_leave_no_reference_cycles(bare_sig, classical_sig):
    # a reduction's derivation is freed by reference counting alone
    runs = [
        (parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE),
         bare_sig, "alba"),
        (parse_inequality("dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                          classical_sig, Layer.DLE), classical_sig, "albae"),
    ]
    gc.collect()
    gc.disable()
    try:
        for iq, sig, mode in runs:
            d = run_alba(iq, sig, mode, "auto")
            assert d.status.kind == "success"
            ref = weakref.ref(d)
            del d
            assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_runs_leave_no_dead_terms_interned(classical_sig):
    # the interning table holds its terms weakly: once a derivation is
    # dropped, every term it built has left the table.  The classifier's
    # cached record starts empty: the run's input takes it over and would
    # release an earlier test's input, which the count before includes
    classify._input.cache_clear()
    iq = parse_inequality("dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                          classical_sig, Layer.DLE)
    gc.collect()
    before = len(language._TERMS)
    d = run_alba(iq, classical_sig, "albae", "auto")
    assert d.status.kind == "success"
    assert len(language._TERMS) > before
    del d
    gc.collect()
    assert len(language._TERMS) == before


def test_reduction_traces_pinned(classical_sig):
    # 800 seeded inputs, alternately random inductive inequalities (alba)
    # and images of dotted random inductive ones (albae); the first attempt
    # fails on 11 of them (8 alba, 3 albae).  The digest was taken while
    # every attempt still ran stage one again
    rng = random.Random(4)
    digest = hashlib.sha256()
    for k in range(800):
        if k % 2 == 0:
            sig = generators.random_signature(rng)
            iq, mode = generators.random_inductive(rng, sig), "alba"
        else:
            sig = classical_sig
            star = generators.random_inductive(rng, sig, star=True, max_depth=3)
            iq, mode = generators.phi_image(star, sig), "albae"
        d = run_alba(iq, sig, mode, "auto")
        digest.update("\n".join(trace_lines(d)).encode() + b"\n\n")
    assert digest.hexdigest() == \
        "0866fd390b757eb51004a44c429276158d1c582ea84e1a6ab4bf6ec0bb18cfe1"


def test_run_noninductive_fails_as_value(bare_sig):
    iq = parse_inequality("dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                          bare_sig, Layer.DLE)
    d = run_alba(iq, bare_sig, "alba", "auto")
    assert d.status.kind == "failure"
    assert d.status.stuck is not None


@pytest.mark.parametrize("mode", ["alba", "albae"])
def test_run_above_dlestar_raises(classical_sig, mode):
    # a defined modality is a DLEpp term: the classifier refuses it, and
    # run_alba passes the refusal on instead of a failure status
    iq = parse_inequality("Dia[pi](p) <= box(p)", classical_sig, Layer.DLEPP)
    with pytest.raises(classify.ClassifyError, match="DLE/DLEstar terms only"):
        run_alba(iq, classical_sig, mode)


def test_output_purity_invariant(bare_sig):
    rng = random.Random(1)
    for _ in range(40):
        sig = generators.random_signature(rng)
        iq = generators.random_inductive(rng, sig)
        d = run_alba(iq, sig, "alba", "auto")
        assert d.status.kind == "success"
        for system in d.status.pure_systems:
            for si in system.ineqs:
                assert not (si.ineq.lhs.var_names or si.ineq.rhs.var_names)


# ----------------------------------------------------------------------
# safety, closed/open, adequacy

def test_safe_on_auto_albae_runs(classical_sig):
    rng = random.Random(2)
    for _ in range(15):
        star = generators.random_inductive(rng, classical_sig, star=True,
                                           max_depth=3)
        img = generators.phi_image(star, classical_sig)
        d = run_alba(img, classical_sig, "albae", "auto")
        assert d.status.kind == "success"
        assert is_safe(d)


def test_unsafe_when_side_condition_is_rewritten(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    system = mk_system([
        (Inequality(pi(Var("p")), Conominal("m0")), False),
    ], GOAL)
    d = derivation_at(classical_sig, "albae", system)
    (child,) = apply_rule(d, RuleApplication("AdjPi", ineq_index=0), 0)
    # now rewrite the side condition pi(bot) <= m0 itself
    apply_rule(d, RuleApplication("AdjPi", ineq_index=1), child)
    assert not is_safe(d)


def test_safe_vacuous_without_role_rules(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    d = run_alba(iq, bare_sig, "alba", "auto")
    assert is_safe(d)


def test_syntactically_closed_open_examples(classical_sig):
    i0 = Nominal("i0")
    assert is_syntactically_closed(i0)
    assert not is_syntactically_open(i0)
    bsq = adjoint("pi", Conominal("m0"))
    assert is_syntactically_open(bsq)
    assert not is_syntactically_closed(bsq)
    pi_bsq = classical_sig.role_instance("pi", bsq)
    assert not is_syntactically_closed(pi_bsq)
    assert is_syntactically_open(pi_bsq)


def test_residual_polarity_in_closed_terms(bare_sig, mixed_sig):
    # the residual of a type-(1) G-connective behaves like a backward
    # diamond: positive in closed terms
    t = parse_term("res(box,1)(#j1)", bare_sig, Layer.DLEPLUS)
    assert is_syntactically_closed(t)
    assert not is_syntactically_open(t)
    # the residual of a type-(1) F-connective behaves like a box
    t2 = parse_term("res(dia,1)(@m0)", bare_sig, Layer.DLEPLUS)
    assert is_syntactically_open(t2)
    assert not is_syntactically_closed(t2)
    # on a (d) coordinate the groups swap: an F residual is closed-positive,
    # a G residual closed-negative; the passive coordinates keep their
    # order-type entries
    t3 = parse_term("res(oplus,2)(#j1, @m0)", mixed_sig, Layer.DLEPLUS)
    assert is_syntactically_closed(t3)
    assert not is_syntactically_open(t3)
    t4 = parse_term("res(arrow2,1)(#j1, @m0)", mixed_sig, Layer.DLEPLUS)
    assert is_syntactically_open(t4)
    assert not is_syntactically_closed(t4)


# every residual head on nominal and conominal arguments, with its verdict
# in the closed/open audit: the lattice implications, the adjoints of the
# defined modalities and the adjoints of the dotted markers
AUDIT_SIG = """\
conn f F 1 (1)
conn g G 1 (1)
conn l F 1 (d)
conn r G 1 (d)
term pi = f(p)
term sigma = g(p)
term lambda = l(p)
term rho = r(p)
"""
_AUDIT_CASES = [
    ("#i -> #j", "neither"), ("#i -> @m", "open"),
    ("@m -> #i", "neither"), ("@m -> @n", "neither"),
    ("#i -. #j", "neither"), ("#i -. @m", "closed"),
    ("@m -. #i", "neither"), ("@m -. @n", "neither"),
    ("bsq[pi](#i)", "neither"), ("bsq[pi](@m)", "open"),
    ("bdia[sigma](#i)", "closed"), ("bdia[sigma](@m)", "neither"),
    ("blhd[lambda](#i)", "neither"), ("blhd[lambda](@m)", "closed"),
    ("brhd[rho](#i)", "open"), ("brhd[rho](@m)", "neither"),
    ("res(dia,1)(#i)", "neither"), ("res(dia,1)(@m)", "open"),
    ("res(box,1)(#i)", "closed"), ("res(box,1)(@m)", "neither"),
    ("res(lhd,1)(#i)", "neither"), ("res(lhd,1)(@m)", "closed"),
    ("res(rhd,1)(#i)", "open"), ("res(rhd,1)(@m)", "neither"),
]


@pytest.mark.parametrize("text, verdict", _AUDIT_CASES,
                         ids=[text for text, _ in _AUDIT_CASES])
def test_residual_heads_in_the_closed_open_audit(text, verdict):
    t = parse_term(text, parse_signature(AUDIT_SIG))
    assert (is_syntactically_closed(t), is_syntactically_open(t)) == \
        {"closed": (True, False), "open": (False, True),
         "neither": (False, False)}[verdict]


def test_adequacy_examples(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    bsq = adjoint("pi", Conominal("m0"))
    good = mk_system([
        (Inequality(Var("p"), bsq), False),
        (Inequality(pi(BOT), Conominal("m0")), True),
    ], GOAL)
    assert check_topological_adequacy(good, classical_sig)
    assert check_compact_appropriate(good)
    bad = mk_system([(Inequality(Var("p"), bsq), False)], GOAL)
    assert not check_topological_adequacy(bad, classical_sig)
    empty = mk_system([], GOAL)
    assert check_topological_adequacy(empty, classical_sig)
    assert check_compact_appropriate(empty)


def test_adequacy_through_additivity_trace(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    iq = Inequality(pi(join(Var("p"), Var("q"))),
                    join(pi(Var("p")), pi(Var("q"))))
    d = run_alba(iq, classical_sig, "albae", "auto")
    for node in d.nodes:
        system = d.node_system_concrete(node.id)
        if system.goal is None:
            continue
        assert check_topological_adequacy(system, classical_sig)
        assert check_compact_appropriate(system)


# ----------------------------------------------------------------------
# scripted runs

EQ_SCRIPT = """\
# replay of the tense-logic reduction of the confluence axiom
FirstApprox
ApproxF @ 0
ResidG(1) @ 2
AckermannRight @ p
"""


def test_scripted_replay_reaches_tense_shape(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    d = run_alba(iq, bare_sig, "alba", "script", script=EQ_SCRIPT)
    assert d.status.kind == "success"
    (system,) = d.status.pure_systems
    assert print_inequality(system.inequalities()[1]) == \
        "box(dia(res(box,1)(#j1))) <= @m0"


def test_scripted_incomplete_is_failure(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    d = run_alba(iq, bare_sig, "alba", "script", script="FirstApprox\n")
    assert d.status.kind == "failure"


def test_trace_lines_are_stable(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    t1 = trace_lines(run_alba(iq, bare_sig, "alba", "auto"))
    t2 = trace_lines(run_alba(iq, bare_sig, "alba", "auto"))
    assert t1 == t2
    assert t1[0].startswith("node:0 | parent:- | rule:- |")


def test_scripted_rewrite_rule(classical_sig):
    # formula-rewriting: a role occurrence unfolds to its bounded
    # composition with the defined modality
    pi = lambda t: classical_sig.role_instance("pi", t)
    system = mk_system([(Inequality(Nominal("j0"), pi(Var("p"))), False)], GOAL)
    d = derivation_at(classical_sig, "albae", system)
    (child,) = apply_rule(
        d, RuleApplication("RewritePi", ineq_index=0, path=(1,)), 0)
    out = d.node(child).system.inequalities()[0]
    assert out == Inequality(Nominal("j0"),
                             join(pi(BOT), defined("pi", Var("p"))))


def test_rewrite_step_is_sound_on_additive_lattices(classical_sig):
    pi = lambda t: classical_sig.role_instance("pi", t)
    goal = Inequality(Nominal("i0"), Conominal("m0"))
    parent = mk_system([(Inequality(Nominal("i0"), pi(Var("p"))), False)], goal)
    child = mk_system([(Inequality(Nominal("i0"),
                                   join(pi(BOT), defined("pi", Var("p")))), False)],
                      goal)
    checked = 0
    for pairs in ([], [(0, 1)], [(0, 0), (1, 1)], [(0, 1), (1, 0)]):
        dle = relational_dle(classical_sig, 2, pairs)
        if not models.role_axioms_hold(dle):
            continue
        checked += 1
        assert models.verify_rule_step(parent, [child], dle)
    assert checked


PSEUDO_SCRIPT = """\
# pseudo-correspondent derivation: split, adjoint flip, eliminate p
FirstApprox
Split @ 1
AdjPi @ 1
AckermannLeft @ p
"""


def test_scripted_pseudo_correspondent_shape(classical_sig):
    # from f(p) <= dia_f(p) | f(bot) down to the pure quasi-inequality
    # "f(bot) <= m0 implies f(bsq(m0)) <= m0"
    pi = lambda t: classical_sig.role_instance("pi", t)
    iq = Inequality(pi(Var("p")), join(defined("pi", Var("p")), pi(BOT)))
    d = run_alba(iq, classical_sig, "albae", "script", script=PSEUDO_SCRIPT)
    assert d.status.kind == "success"
    (system,) = d.status.pure_systems
    assert set(system.inequalities()) == {
        Inequality(Nominal("i0"), pi(adjoint("pi", Conominal("m0")))),
        Inequality(pi(BOT), Conominal("m0")),
    }


def test_pseudo_correspondent_tracks_additivity(classical_sig):
    # the pure output of the scripted derivation holds on a lattice
    # exactly when the role term is additive there
    pi = lambda t: classical_sig.role_instance("pi", t)
    iq = Inequality(pi(Var("p")), join(defined("pi", Var("p")), pi(BOT)))
    d = run_alba(iq, classical_sig, "albae", "script", script=PSEUDO_SCRIPT)
    seen_additive = seen_nonadditive = 0
    for n in (2, 3):
        for rel in models.canonical_relations(models.antichain(n)):
            dle = models.FiniteDLE(models.antichain(n), classical_sig)
            dle.add_op("dia", rel, validate=False)
            dle.add_op("box", rel, validate=False)
            f = dle.role_table("pi")
            additive = all(
                dle.leq(f[dle.join(a, b)], dle.join(f[a], f[b]))
                for a in range(dle.n_elem) for b in range(dle.n_elem))
            holds = models.check_quasi(d.status.pure_systems, dle)
            assert holds == additive
            seen_additive += additive
            seen_nonadditive += not additive
    assert seen_additive and seen_nonadditive


def test_plain_run_on_dotted_geach(mixed_sig):
    # the dotted skeleton reduces with the dotted rules and the adjoint
    # of the dotted box in the output
    star = Inequality(dotted("pi", dotted("sigma", Var("p"))),
                      dotted("sigma", dotted("pi", Var("p"))))
    d = run_alba(star, mixed_sig, "alba", "auto")
    assert d.status.kind == "success"
    (system,) = d.status.pure_systems
    box_adj = Residual(SPEC_BY_ROLE["sigma"].decl, 1, (Nominal("j1"),))
    expected = (
        Inequality(Nominal("i0"), dotted("pi", Nominal("j1"))),
        Inequality(dotted("sigma", dotted("pi", box_adj)), Conominal("m0")),
    )
    assert system.inequalities() == expected


LR_SIG = """\
conn lhdc F 1 (d)
conn rhdc G 1 (d)
term lambda = lhdc(p)
term rho = rhdc(p)
"""


def test_lambda_rho_roles_end_to_end():
    sig = parse_signature(LR_SIG)
    lam = lambda t: sig.role_instance("lambda", t)
    rho = lambda t: sig.role_instance("rho", t)
    # the lambda axiom shape reduces through the lambda adjunction
    iq = Inequality(lam(meet(Var("p"), Var("q"))),
                    join(lam(Var("p")), lam(Var("q"))))
    d = run_alba(iq, sig, "albae", "auto")
    assert d.status.kind == "success" and is_safe(d)
    (system,) = d.status.pure_systems
    blk = adjoint("lambda", Conominal("m0"))
    assert set(system.inequalities()) == {
        Inequality(Nominal("i0"), lam(meet(blk, blk))),
        Inequality(lam(TOP), Conominal("m0")),
    }
    # the rho axiom shape reduces through the rho approximation
    iq2 = Inequality(meet(rho(Var("p")), rho(Var("q"))),
                     rho(join(Var("p"), Var("q"))))
    d2 = run_alba(iq2, sig, "albae", "auto")
    assert d2.status.kind == "success" and is_safe(d2)
    used = {n.rule.rule_id for n in d2.nodes if n.rule}
    assert "ApproxRho" in used or "AdjRho" in used


def test_role_distribution_fires_when_needed(classical_sig):
    # the only workable witness solves p through the right side, whose
    # meet below the sigma occurrence must be distributed first
    iq = parse_inequality("box(p | box(p)) <= box(p & box(p))",
                          classical_sig, Layer.DLE)
    d = run_alba(iq, classical_sig, "albae", "auto")
    assert d.status.kind == "success" and is_safe(d)
    used = {n.rule.rule_id for n in d.nodes if n.rule}
    assert "DistSigma" in used


def test_residuation_of_f_connectives_in_run(bare_sig):
    # solving through a negative diamond goes by residuation
    iq = parse_inequality("box(dia(p)) <= dia(p)", bare_sig, Layer.DLE)
    d = run_alba(iq, bare_sig, "alba", "auto")
    assert d.status.kind == "success"
    used = {n.rule.rule_id for n in d.nodes if n.rule}
    assert "ResidF" in used
    (system,) = d.status.pure_systems
    assert print_inequality(system.inequalities()[0]) == \
        "#i0 <= box(dia(res(dia,1)(@m0)))"


def test_scripted_rewrite_variants(classical_sig):
    # the other three formula-rewriting rules, applied at a subterm
    sg = lambda t: classical_sig.role_instance("sigma", t)
    system = mk_system([(Inequality(Nominal("j0"), sg(Var("p"))), False)], GOAL)
    d = derivation_at(classical_sig, "albae", system)
    (child,) = apply_rule(
        d, RuleApplication("RewriteSigma", ineq_index=0, path=(1,)), 0)
    out = d.node(child).system.inequalities()[0]
    assert out == Inequality(Nominal("j0"),
                             meet(sg(TOP), defined("sigma", Var("p"))))

    lr = parse_signature(LR_SIG)
    lam = lambda t: lr.role_instance("lambda", t)
    rho = lambda t: lr.role_instance("rho", t)
    system2 = mk_system([(Inequality(lam(Var("p")), Conominal("m0")), False),
                         (Inequality(Nominal("j0"), rho(Var("p"))), False)], GOAL)
    d2 = derivation_at(lr, "albae", system2)
    (c1,) = apply_rule(
        d2, RuleApplication("RewriteLambda", ineq_index=0, path=(0,)), 0)
    (c2,) = apply_rule(
        d2, RuleApplication("RewriteRho", ineq_index=1, path=(1,)), c1)
    outs = d2.node(c2).system.inequalities()
    assert outs[0] == Inequality(join(lam(TOP), defined("lambda", Var("p"))),
                                 Conominal("m0"))
    assert outs[1] == Inequality(Nominal("j0"),
                                 meet(rho(BOT), defined("rho", Var("p"))))


def test_approximation_rejects_nullary_connectives():
    sig = parse_signature("conn c F 0 ()\nconn k G 0 ()\nconn dia F 1 (1)")
    for rid, target in (
            ("ApproxF", Inequality(Nominal("i0"), parse_term("c()", sig, Layer.DLE))),
            ("ApproxG", Inequality(parse_term("k()", sig, Layer.DLE), Conominal("m0")))):
        d = derivation_at(sig, "alba", mk_system([(target, False)], GOAL))
        with pytest.raises(RuleMatchError,
                           match="approximation does not apply to 0-ary connectives"):
            apply_rule(d, RuleApplication(rid, ineq_index=0), 0)


# ----------------------------------------------------------------------
# every role rule, every dotted rule and the connective rules on mixed
# order types, pinned on a minimal system

def _pinned_rule_cases():
    """Case id -> (rule id, signature, mode, target inequality, target
    side flag, path, coord, expected children as (branch tag, ((inequality,
    side), ...)), fresh names).  ``u(role, t)`` is the registered term of
    ``role`` applied to ``t``; ``dot_adj(role, t)`` is the adjoint of
    the role's dotted marker, its residual in coordinate 1, at ``t``."""
    Iq = Inequality

    def dot_adj(role, t):
        return Residual(SPEC_BY_ROLE[role].decl, 1, (t,))

    return {
        "DistPi": ("DistPi", "classical", "albae",
                   lambda u: Iq(dotted("pi", join(P, Q)), R), False, (0,), 1,
                   lambda u: [(None, [(Iq(join(dotted("pi", P), dotted("pi", Q)), R), False)])],
                   ()),
        "DistSigma": ("DistSigma", "classical", "albae",
                      lambda u: Iq(R, dotted("sigma", meet(P, Q))), False, (1,), 1,
                      lambda u: [(None, [(Iq(R, meet(dotted("sigma", P), dotted("sigma", Q))),
                                          False)])],
                      ()),
        "DistLambda": ("DistLambda", "lr", "albae",
                       lambda u: Iq(dotted("lambda", meet(P, Q)), R), False, (0,), 1,
                       lambda u: [(None, [(Iq(join(dotted("lambda", P), dotted("lambda", Q)), R),
                                           False)])],
                       ()),
        "DistRho": ("DistRho", "lr", "albae",
                    lambda u: Iq(R, dotted("rho", join(P, Q))), False, (1,), 1,
                    lambda u: [(None, [(Iq(R, meet(dotted("rho", P), dotted("rho", Q))), False)])],
                    ()),
        "AdjPi": ("AdjPi", "classical", "albae",
                  lambda u: Iq(dotted("pi", P), M0), False, (), None,
                  lambda u: [(None, [(Iq(P, adjoint("pi", M0)), False),
                                     (Iq(u("pi", BOT), M0), True)])],
                  ()),
        "AdjSigma": ("AdjSigma", "classical", "albae",
                     lambda u: Iq(I0, dotted("sigma", P)), False, (), None,
                     lambda u: [(None, [(Iq(adjoint("sigma", I0), P), False),
                                        (Iq(I0, u("sigma", TOP)), True)])],
                     ()),
        "AdjLambda": ("AdjLambda", "lr", "albae",
                      lambda u: Iq(dotted("lambda", P), M0), False, (), None,
                      lambda u: [(None, [(Iq(adjoint("lambda", M0), P), False),
                                         (Iq(u("lambda", TOP), M0), True)])],
                      ()),
        "AdjRho": ("AdjRho", "lr", "albae",
                   lambda u: Iq(I0, dotted("rho", P)), False, (), None,
                   lambda u: [(None, [(Iq(P, adjoint("rho", I0)), False),
                                      (Iq(I0, u("rho", BOT)), True)])],
                   ()),
        "AdjPi-flip": ("AdjPi", "classical", "albae",
                       lambda u: Iq(defined("pi", P), M0), True, (), None,
                       lambda u: [(None, [(Iq(P, adjoint("pi", M0)), True)])],
                       ()),
        "AdjSigma-flip": ("AdjSigma", "classical", "albae",
                          lambda u: Iq(I0, defined("sigma", P)), True, (), None,
                          lambda u: [(None, [(Iq(adjoint("sigma", I0), P), True)])],
                          ()),
        "AdjLambda-flip": ("AdjLambda", "lr", "albae",
                           lambda u: Iq(defined("lambda", P), M0), True, (), None,
                           lambda u: [(None, [(Iq(adjoint("lambda", M0), P), True)])],
                           ()),
        "AdjRho-flip": ("AdjRho", "lr", "albae",
                        lambda u: Iq(I0, defined("rho", P)), True, (), None,
                        lambda u: [(None, [(Iq(P, adjoint("rho", I0)), True)])],
                        ()),
        "ApproxPi": ("ApproxPi", "classical", "albae",
                     lambda u: Iq(I0, dotted("pi", P)), False, (), None,
                     lambda u: [("A", [(Iq(I0, u("pi", BOT)), True)]),
                                ("B", [(Iq(I0, defined("pi", J1)), False),
                                       (Iq(J1, P), False)])],
                     ("#j1",)),
        "ApproxSigma": ("ApproxSigma", "classical", "albae",
                        lambda u: Iq(dotted("sigma", P), M0), False, (), None,
                        lambda u: [("A", [(Iq(u("sigma", TOP), M0), True)]),
                                   ("B", [(Iq(defined("sigma", N1), M0), False),
                                          (Iq(P, N1), False)])],
                        ("@n1",)),
        "ApproxLambda": ("ApproxLambda", "lr", "albae",
                         lambda u: Iq(I0, dotted("lambda", P)), False, (), None,
                         lambda u: [("A", [(Iq(I0, u("lambda", TOP)), True)]),
                                    ("B", [(Iq(I0, defined("lambda", N1)), False),
                                           (Iq(P, N1), False)])],
                         ("@n1",)),
        "ApproxRho": ("ApproxRho", "lr", "albae",
                      lambda u: Iq(dotted("rho", P), M0), False, (), None,
                      lambda u: [("A", [(Iq(u("rho", BOT), M0), True)]),
                                 ("B", [(Iq(defined("rho", J1), M0), False),
                                        (Iq(J1, P), False)])],
                      ("#j1",)),
        "RewritePi": ("RewritePi", "classical", "albae",
                      lambda u: Iq(I0, dotted("pi", P)), False, (1,), None,
                      lambda u: [(None, [(Iq(I0, join(u("pi", BOT), defined("pi", P))), False)])],
                      ()),
        "RewriteSigma": ("RewriteSigma", "classical", "albae",
                         lambda u: Iq(dotted("sigma", P), M0), False, (0,), None,
                         lambda u: [(None, [(Iq(meet(u("sigma", TOP), defined("sigma", P)), M0),
                                             False)])],
                         ()),
        "RewriteLambda": ("RewriteLambda", "lr", "albae",
                          lambda u: Iq(dotted("lambda", P), M0), False, (0,), None,
                          lambda u: [(None, [(Iq(join(u("lambda", TOP), defined("lambda", P)), M0),
                                              False)])],
                          ()),
        "RewriteRho": ("RewriteRho", "lr", "albae",
                       lambda u: Iq(I0, dotted("rho", P)), False, (1,), None,
                       lambda u: [(None, [(Iq(I0, meet(u("rho", BOT), defined("rho", P))),
                                           False)])],
                       ()),
        "AdjDotDia": ("AdjDotDia", "classical", "alba",
                      lambda u: Iq(dotted("pi", P), M0), False, (), None,
                      lambda u: [(None, [(Iq(P, dot_adj("pi", M0)), False)])],
                      ()),
        "AdjDotBox": ("AdjDotBox", "classical", "alba",
                      lambda u: Iq(I0, dotted("sigma", P)), False, (), None,
                      lambda u: [(None, [(Iq(dot_adj("sigma", I0), P), False)])],
                      ()),
        "AdjDotLhd": ("AdjDotLhd", "lr", "alba",
                      lambda u: Iq(dotted("lambda", P), M0), False, (), None,
                      lambda u: [(None, [(Iq(dot_adj("lambda", M0), P), False)])],
                      ()),
        "AdjDotRhd": ("AdjDotRhd", "lr", "alba",
                      lambda u: Iq(I0, dotted("rho", P)), False, (), None,
                      lambda u: [(None, [(Iq(P, dot_adj("rho", I0)), False)])],
                      ()),
        "ApproxDotDia": ("ApproxDotDia", "classical", "alba",
                         lambda u: Iq(I0, dotted("pi", P)), False, (), None,
                         lambda u: [(None, [(Iq(I0, dotted("pi", J1)), False),
                                            (Iq(J1, P), False)])],
                         ("#j1",)),
        "ApproxDotBox": ("ApproxDotBox", "classical", "alba",
                         lambda u: Iq(dotted("sigma", P), M0), False, (), None,
                         lambda u: [(None, [(Iq(dotted("sigma", N1), M0), False),
                                            (Iq(P, N1), False)])],
                         ("@n1",)),
        "ApproxDotLhd": ("ApproxDotLhd", "lr", "alba",
                         lambda u: Iq(I0, dotted("lambda", P)), False, (), None,
                         lambda u: [(None, [(Iq(I0, dotted("lambda", N1)), False),
                                            (Iq(P, N1), False)])],
                         ("@n1",)),
        "ApproxDotRhd": ("ApproxDotRhd", "lr", "alba",
                         lambda u: Iq(dotted("rho", P), M0), False, (), None,
                         lambda u: [(None, [(Iq(dotted("rho", J1), M0), False),
                                            (Iq(J1, P), False)])],
                         ("#j1",)),
        # residuation puts the argument below the residual exactly on the
        # coordinates whose unit is bottom: (1) of F, (d) of G
        "ResidF-oplus1": ("ResidF", "mixed", "alba",
                          lambda u: Iq(oplus(P, Q), R), False, (), 1,
                          lambda u: [(None, [(Iq(P, Residual(OPLUS, 1, (R, Q))),
                                              False)])],
                          ()),
        "ResidF-oplus2": ("ResidF", "mixed", "alba",
                          lambda u: Iq(oplus(P, Q), R), True, (), 2,
                          lambda u: [(None, [(Iq(Residual(OPLUS, 2, (P, R)), Q),
                                              True)])],
                          ()),
        "ResidG-arrow2-1": ("ResidG", "mixed", "alba",
                            lambda u: Iq(R, arrow2(P, Q)), False, (), 1,
                            lambda u: [(None, [(Iq(P, Residual(ARROW2, 1, (R, Q))),
                                                False)])],
                            ()),
        "ResidG-arrow2-2": ("ResidG", "mixed", "alba",
                            lambda u: Iq(R, arrow2(P, Q)), False, (), 2,
                            lambda u: [(None, [(Iq(Residual(ARROW2, 2, (P, R)), Q),
                                                False)])],
                            ()),
        "ResidG-nabla1": ("ResidG", "mixed", "alba",
                          lambda u: Iq(R, nabla(P)), False, (), 1,
                          lambda u: [(None, [(Iq(P, Residual(NABLA, 1, (R,))),
                                              False)])],
                          ()),
        # approximation: a nominal below each bottom-unit coordinate's
        # argument, a conominal above the others, named in coordinate order
        "ApproxF-oplus": ("ApproxF", "mixed", "alba",
                          lambda u: Iq(I0, oplus(P, Q)), False, (), None,
                          lambda u: [(None, [(Iq(I0, oplus(J1, N1)), False),
                                             (Iq(J1, P), False),
                                             (Iq(Q, N1), False)])],
                          ("#j1", "@n1")),
        "ApproxG-arrow2": ("ApproxG", "mixed", "alba",
                           lambda u: Iq(arrow2(P, Q), M0), False, (), None,
                           lambda u: [(None, [(Iq(arrow2(J1, N1), M0), False),
                                              (Iq(J1, P), False),
                                              (Iq(Q, N1), False)])],
                           ("#j1", "@n1")),
        "ApproxG-nabla": ("ApproxG", "mixed", "alba",
                          lambda u: Iq(nabla(P), M0), True, (), None,
                          lambda u: [(None, [(Iq(nabla(J1), M0), True),
                                             (Iq(J1, P), False)])],
                          ("#j1",)),
    }


PINNED_RULE_CASES = _pinned_rule_cases()


@pytest.fixture(scope="module")
def pinned_pools(classical_sig, mixed_sig):
    """Small lattices per (signature, mode): the registered terms satisfy
    their axioms, and in plain mode all four dotted modalities have
    random normal tables.  The mixed signature has plain lattices only,
    with random normal tables for its own connectives."""
    sigs = {"classical": classical_sig, "lr": parse_signature(LR_SIG)}
    rng = random.Random(11)
    pools = {}
    for name, sig in sigs.items():
        role_pool, plain_pool = [], []
        for _ in range(12):
            dle = models.random_dle(rng, sig, max_points=2)
            if models.role_axioms_hold(dle):
                role_pool.append(dle)
            plain = models.FiniteDLE(dle.poset, sig)
            for decl in (spec.decl for spec in ROLE_SPECS):
                plain.add_op(decl.name, models.random_normal_table(rng, plain, decl))
            plain_pool.append(plain)
        if name == "classical":
            for n in (1, 2):
                for poset in models.enumerate_posets(n, up_to_iso=True):
                    role_pool += [dle for _, dle in models.relational_lattices(sig, poset)
                                  if models.role_axioms_hold(dle)]
        pools[name] = (sig, role_pool, plain_pool)
    mixed_rng = random.Random(12)
    pools["mixed"] = (mixed_sig, [], [
        models.random_dle(mixed_rng, mixed_sig, max_points=2, validate=True)
        for _ in range(8)])
    return pools


@pytest.mark.parametrize("case", sorted(PINNED_RULE_CASES))
def test_pinned_rule_outputs(case, pinned_pools):
    rid, sig_name, mode, target, side, path, coord, expected, fresh = \
        PINNED_RULE_CASES[case]
    sig, role_pool, plain_pool = pinned_pools[sig_name]
    u = sig.role_instance
    goal = None if rid.startswith("Dist") else GOAL
    d = derivation_at(sig, mode, mk_system([(target(u), side)], goal))
    kids = apply_rule(d, RuleApplication(rid, ineq_index=0, path=path, coord=coord), 0)

    got = [(d.node(k).rule.branch,
            [(si.ineq, si.side) for si in d.node(k).system.ineqs]) for k in kids]
    assert got == expected(u)
    assert all(d.node(k).system.goal == goal for k in kids)
    assert all(d.node(k).fresh == fresh for k in kids)
    assert all(d.node(k).rule.rule_id == rid for k in kids)

    # the step is sound on every pool lattice, read on the concrete image
    parent = d.node_system_concrete(0)
    children = [d.node_system_concrete(k) for k in kids]
    pool = plain_pool if mode == "alba" else role_pool
    assert pool
    for dle in pool:
        if goal is None:
            whole = models.check_validity(parent.ineqs[0].ineq, dle)[0]
            assert whole == all(models.check_validity(c.ineqs[0].ineq, dle)[0]
                                for c in children)
        else:
            assert models.verify_rule_step(parent, children, dle)

    # a role adjunction pairs its adjoint with the side condition the
    # adequacy check looks for; without that condition the check fails
    if rid.startswith("Adj") and mode == "albae" and not case.endswith("flip"):
        (child,) = children
        assert check_topological_adequacy(child, sig)
        bare = System(tuple(si for si in child.ineqs if not si.side), child.goal)
        assert not check_topological_adequacy(bare, sig)


def test_adequacy_of_galois_adjoints():
    sig = parse_signature(LR_SIG)
    lam_top = sig.role_instance("lambda", TOP)
    rho_bot = sig.role_instance("rho", BOT)
    lhd_sys = mk_system([(Inequality(adjoint("lambda", M0), P), False),
                         (Inequality(lam_top, M0), True)], GOAL)
    rhd_sys = mk_system([(Inequality(P, adjoint("rho", I0)), False),
                         (Inequality(I0, rho_bot), True)], GOAL)
    assert check_topological_adequacy(lhd_sys, sig)
    assert check_topological_adequacy(rhd_sys, sig)
    # the side condition must mention the adjoint's own argument
    assert not check_topological_adequacy(
        mk_system([(Inequality(adjoint("lambda", N1), P), False),
                   (Inequality(lam_top, M0), True)], GOAL), sig)
    assert not check_topological_adequacy(
        mk_system([(Inequality(P, adjoint("rho", J1)), False),
                   (Inequality(I0, rho_bot), True)], GOAL), sig)
    # and the role must be registered at all
    classical = parse_signature("conn dia F 1 (1)\nconn box G 1 (1)")
    assert not check_topological_adequacy(lhd_sys, classical)
    assert not check_topological_adequacy(rhd_sys, classical)
