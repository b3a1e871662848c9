import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLASSICAL_SIG_TEXT, random_any_term
from dlecorr import generators
from dlecorr.language import (
    ANTI, App, Arrow, BlackBox, BlackDia, BlackLhd, BlackRhd, Bot, Coimp,
    ConnectiveDecl, Conominal, DefBox, DefDia, DefLhd, DefRhd, DotBox,
    DotBoxAdj, DotDia, DotDiaAdj, DotLhd, DotLhdAdj, DotRhd, DotRhdAdj,
    Inequality, Join, Layer, Meet, MONO, Nominal, OrderType, Residual, Top,
    Var, BOT, TOP, join, layer_of, meet, replace_at, substitute,
)
from dlecorr.parsing import ParseError, parse_inequality, parse_signature, parse_term
from dlecorr.printing import print_term


def test_order_type_opposite_involution():
    eps = OrderType(("1", "d", "d"))
    assert eps.opposite().opposite() == eps
    assert eps.opposite() == OrderType(("d", "1", "1"))


def test_order_type_rejects_junk():
    with pytest.raises(ValueError):
        OrderType(("1", "x"))


def test_signature_duplicate_and_arity_errors():
    with pytest.raises(ParseError):
        parse_signature("conn dia F 1 (1)\nconn dia G 1 (1)")
    with pytest.raises(ParseError):
        parse_signature("conn h F 2 (1)")
    with pytest.raises(ParseError):
        parse_signature("conn Dia F 1 (1)")  # reserved


def test_registered_term_polarity_checks():
    # pi must be positive in its variable
    with pytest.raises(ParseError):
        parse_signature("conn rhd G 1 (d)\nterm pi = rhd(p)")
    sig = parse_signature("conn rhd G 1 (d)\nterm rho = rhd(p)")
    assert sig.role("rho") is not None
    # example from the signature operations: a triple-negation-style term
    sig2 = parse_signature("conn dia F 1 (1)\nconn box G 1 (1)\n"
                           "term pi = dia(box(dia(p)))")
    assert sig2.role("pi").var == "p"


@pytest.mark.parametrize("role, term, got", [
    ("pi", "rhd(p)", "negative"),
    ("pi", "p & rhd(p)", "both"),
    ("rho", "p", "positive"),
    ("rho", "p & rhd(p)", "both"),
])
def test_registered_term_tone_refusals(role, term, got):
    # pi takes a term positive in its variable, rho a negative one
    want = "positive" if role == "pi" else "negative"
    with pytest.raises(ParseError) as info:
        parse_signature(f"conn rhd G 1 (d)\nterm {role} = {term}")
    assert str(info.value) == (f"line 2: role {role} requires a term {want} "
                               f"in p (got {got}) (at position 0)")


def test_registered_term_needs_single_variable():
    with pytest.raises(ParseError):
        parse_signature("conn dia F 1 (1)\nterm pi = dia(p) | q")


def test_parse_classical_inequality_at_dle(bare_sig):
    iq = parse_inequality("dia(box(p)) <= box(dia(p))", bare_sig, Layer.DLE)
    dia = bare_sig.decl("dia")
    box = bare_sig.decl("box")
    assert iq == Inequality(App(dia, (App(box, (Var("p"),)),)),
                            App(box, (App(dia, (Var("p"),)),)))


def test_parse_goal_shape_with_defined_diamond(classical_sig):
    iq = parse_inequality("#i0 <= Dia[pi](#j1)", classical_sig, Layer.DLEPP)
    assert iq.lhs == Nominal("i0")
    assert iq.rhs == DefDia((Nominal("j1"),))


def test_parse_constants_only(bare_sig):
    iq = parse_inequality("top <= bot", bare_sig, Layer.DLE)
    assert iq == Inequality(TOP, BOT)


def test_layer_violations(bare_sig):
    with pytest.raises(ParseError):
        parse_term("#i0", bare_sig, Layer.DLE)
    with pytest.raises(ParseError):
        parse_term("res(dia,1)(p)", bare_sig, Layer.DLESTAR)
    with pytest.raises(ParseError):
        parse_term("bsq[pi](p)", bare_sig, Layer.DLEPP)  # role not registered


_LAYER_CASES = [
    (Nominal, "#i <= p", Layer.DLEPLUS),
    (Conominal, "p <= @m", Layer.DLEPLUS),
    (Arrow, "p -> q <= p", Layer.DLEPLUS),
    (Coimp, "p -. q <= p", Layer.DLEPLUS),
    (Residual, "res(oplus,1)(p, q) <= p", Layer.DLEPLUS),
    (DotDiaAdj, "res(dia,1)(p) <= p", Layer.DLEPLUS),
    (DotLhd, "lhd(p) <= p", Layer.DLESTAR),
]


@pytest.mark.parametrize("node, text, layer", _LAYER_CASES,
                         ids=[node.__name__ for node, _, _ in _LAYER_CASES])
def test_layer_checks_read_the_node_class(node, text, layer, mixed_sig, monkeypatch):
    # the parser admits a node kind from the layer its class declares
    parse_inequality(text, mixed_sig, layer)
    monkeypatch.setattr(node, "layer", Layer(layer + 1))
    with pytest.raises(ParseError) as exc:
        parse_inequality(text, mixed_sig, layer)
    assert f"not admitted at layer {layer.name}" in str(exc.value)


def test_unknown_connective_and_position(bare_sig):
    with pytest.raises(ParseError) as exc:
        parse_term("p & mystery(q)", bare_sig, Layer.DLE)
    assert "mystery" in str(exc.value)
    assert exc.value.pos == 4


def test_dotted_builtin_vs_shadowing(bare_sig, mixed_sig):
    # bare_sig declares dia/box: the names resolve to the declared symbols
    t = parse_term("dia(p)", bare_sig, Layer.DLESTAR)
    assert isinstance(t, App)
    # mixed_sig does not: the dotted builtin is available from DLEstar up
    t2 = parse_term("dia(p)", mixed_sig, Layer.DLESTAR)
    assert type(t2) is DotDia
    with pytest.raises(ParseError):
        parse_term("dia(p)", mixed_sig, Layer.DLE)


def test_printer_conventions(classical_sig):
    assert print_term(meet(Var("p"), Var("q"))) == "p & q"
    assert print_term(BlackBox((Conominal("m0"),))) == "bsq[pi](@m0)"
    assert print_term(join(meet(Var("p"), Var("q")), Var("r"))) == "p & q | r"
    assert print_term(meet(join(Var("p"), Var("q")), Var("r"))) == "(p | q) & r"


def test_substitution_examples(bare_sig):
    box = bare_sig.decl("box")
    t = App(box, (Var("p"),))
    out = substitute(t, {"p": join(Var("q"), Var("r"))})
    assert out == App(box, (join(Var("q"), Var("r")),))
    assert substitute(t, {}) is t


def test_phi_substitution_into_dotted_skeleton(classical_sig):
    # replacing the dotted modalities by the registered terms turns the
    # dotted Geach skeleton into its concrete image
    from dlecorr.engine import concretize
    star = Inequality(DotDia((DotBox((Var("p"),)),)),
                      DotBox((DotDia((Var("p"),)),)))
    img = Inequality(concretize(star.lhs, classical_sig),
                     concretize(star.rhs, classical_sig))
    expected = parse_inequality(
        "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
        classical_sig, Layer.DLE)
    assert img == expected


def test_substitute_is_homomorphic(mixed_sig):
    rng = random.Random(5)
    mapping = {"p": join(Var("q"), TOP), "q": Var("r")}
    for _ in range(100):
        t = random_any_term(rng, mixed_sig, Layer.DLEPP, 4)
        out = substitute(t, mapping)
        if t.args:
            rebuilt = t.with_args(tuple(substitute(a, mapping) for a in t.args))
            assert out == rebuilt


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 9), depth=st.integers(0, 8))
def test_roundtrip_random_terms(seed, depth, mixed_sig):
    rng = random.Random(seed)
    t = random_any_term(rng, mixed_sig, Layer.DLEPP, depth)
    printed = print_term(t)
    back = parse_term(printed, mixed_sig, Layer.DLEPP)
    assert back == t, printed


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_roundtrip_random_over_random_signatures(seed):
    from dlecorr.generators import random_signature
    rng = random.Random(seed)
    sig = random_signature(rng)
    t = random_any_term(rng, sig, Layer.DLEPP, rng.randint(0, 8))
    assert parse_term(print_term(t), sig, Layer.DLEPP) == t


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_layer_monotonicity(seed, mixed_sig):
    rng = random.Random(seed)
    low = rng.choice((Layer.DLE, Layer.DLESTAR, Layer.DLEPLUS))
    t = random_any_term(rng, mixed_sig, low, 4)
    lo = layer_of(t)
    assert lo <= low
    for higher in Layer:
        if higher >= lo:
            # admitted at every higher layer: reparse succeeds
            assert parse_term(print_term(t), mixed_sig, higher) == t


def test_roundtrip_registered_role_terms(classical_sig):
    reg = classical_sig.role("pi")
    assert parse_term(print_term(reg.term), classical_sig, Layer.DLE) == reg.term


_H = ConnectiveDecl("h", "G", 2, OrderType(("1", "d")))
_P, _Q = Var("p"), Var("q")
# every node class: a fresh instance, its tonicities and its least layer
_NODE_TABLE = [
    (lambda: Var("p"), (), Layer.DLE),
    (lambda: Nominal("i0"), (), Layer.DLEPLUS),
    (lambda: Conominal("m0"), (), Layer.DLEPLUS),
    (lambda: Top(), (), Layer.DLE),
    (lambda: Bot(), (), Layer.DLE),
    (lambda: Meet((_P, _Q)), (MONO, MONO), Layer.DLE),
    (lambda: Join((_P, _Q)), (MONO, MONO), Layer.DLE),
    (lambda: Arrow((_P, _Q)), (ANTI, MONO), Layer.DLEPLUS),
    (lambda: Coimp((_P, _Q)), (MONO, ANTI), Layer.DLEPLUS),
    (lambda: App(_H, (_P, _Q)), (MONO, ANTI), Layer.DLE),
    (lambda: Residual(_H, 1, (_P, _Q)), (MONO, MONO), Layer.DLEPLUS),
    (lambda: Residual(_H, 2, (_P, _Q)), (MONO, ANTI), Layer.DLEPLUS),
] + [
    (lambda cls=cls: cls((_P,)), (tone,), layer)
    for classes, layer in (((DotDia, DotBox, DotLhd, DotRhd), Layer.DLESTAR),
                           ((DotDiaAdj, DotBoxAdj, DotLhdAdj, DotRhdAdj), Layer.DLEPLUS),
                           ((DefDia, DefBox, DefLhd, DefRhd), Layer.DLEPP),
                           ((BlackBox, BlackDia, BlackLhd, BlackRhd), Layer.DLEPP))
    for cls, tone in zip(classes, (MONO, MONO, ANTI, ANTI))
]


@pytest.mark.parametrize("make, tones, layer", _NODE_TABLE,
                         ids=[type(make()).__name__ for make, _, _ in _NODE_TABLE])
def test_node_shape_table(make, tones, layer):
    t = make()
    assert t.tonicities() == tones
    assert t.layer == layer
    rebuilt = t.with_args(t.args)
    assert type(rebuilt) is type(t) and rebuilt == t
    twin = make()
    assert twin == t and hash(twin) == hash(t)
    # no instance of another class compares equal
    assert all(other() != t for other, _, _ in _NODE_TABLE
               if type(other()) is not type(t))


def test_equal_terms_are_one_object():
    # terms are interned: every way of building a term returns the one
    # live node equal to it, whatever signature object its decls come from
    sig, twin_sig = parse_signature(CLASSICAL_SIG_TEXT), parse_signature(CLASSICAL_SIG_TEXT)
    dia, box = sig.decl("dia"), sig.decl("box")
    p, q, r = Var("p"), Var("q"), Var("r")
    t = parse_term("dia(p & box(q)) | top", sig, Layer.DLE)
    built = Join((App(dia, (Meet((p, App(box, (q,)))),)), TOP))
    assert t is built
    assert parse_term("dia(p & box(q)) | top", twin_sig, Layer.DLE) is t
    assert parse_inequality("dia(p & box(q)) | top <= r", sig, Layer.DLE).lhs is t
    # rebuilding paths
    assert substitute(t, {"q": join(p, r)}) is parse_term(
        "dia(p & box(p | r)) | top", sig, Layer.DLE)
    assert replace_at(t, (0, 0, 1), r) is parse_term("dia(p & r) | top", sig, Layer.DLE)
    assert t.with_args((t.args[0], BOT)) is Join((built.args[0], Bot()))
    assert sig.role_instance("pi", q) is parse_term("dia(box(dia(q)))", sig, Layer.DLE)
    assert twin_sig.role_instance("sigma", t) is App(box, (t,))
    draws = [generators.random_inductive(random.Random(11), sig) for _ in range(2)]
    assert draws[0].lhs is draws[1].lhs and draws[0].rhs is draws[1].rhs
    # keyword construction, in whole or in part
    assert Var(name="p") is p
    assert App(decl=dia, args=(p,)) is App(dia, (p,))
    assert Residual(dia, args=(q,), coord=1) is Residual(dia, 1, (q,))
    # copies and replacements
    for node in (p, TOP, t, Residual(box, 1, (t,)), DotDia((t,))):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert dataclasses.replace(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    assert dataclasses.replace(p, name="q") is q
    assert dataclasses.replace(t, args=(BOT, TOP)) is join(BOT, TOP)
    with pytest.raises(TypeError):
        Var("p", name="q")
    with pytest.raises(TypeError):
        Residual(dia, args=(q,))
