import copy
import dataclasses
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLASSICAL_SIG_TEXT, adjoint, random_any_term
from dlecorr import generators
from dlecorr.language import (
    ANTI, JOIN, MEET, App, Bot, ConnectiveDecl, Conominal, DefBox, DefDia,
    DefLhd, DefRhd, DotBox, DotDia, DotLhd, DotRhd, Inequality, Join, Layer,
    Meet, MONO, Nominal, OrderType, ROLE_SPECS, Residual, SPEC_BY_ROLE, Top,
    Var, BOT, TOP, join, layer_of, meet, replace_at, substitute,
)
from dlecorr.parsing import ParseError, parse_inequality, parse_signature, parse_term
from dlecorr.printing import print_term


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


def test_signature_comments_run_to_the_end_of_the_line():
    # a '#' comment takes the rest of its physical line, ';' included
    sig = parse_signature("conn dia F 1 (1)  # a diamond; conn box G 1 (1)")
    assert [d.name for d in sig.connectives] == ["dia"]
    sig = parse_signature("conn dia F 1 (1) # note; see below")
    assert [d.name for d in sig.connectives] == ["dia"]
    # errors name physical lines
    with pytest.raises(ParseError, match="^line 2: cannot parse 'see below'"):
        parse_signature("conn dia F 1 (1)\nsee below # note; conn box G 1 (1)")


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


# the lattice implications are residuals too
_LAYER_CASES = [
    ("Nominal", Nominal, "#i <= p", Layer.DLEPLUS),
    ("Conominal", Conominal, "p <= @m", Layer.DLEPLUS),
    ("Arrow", Residual, "p -> q <= p", Layer.DLEPLUS),
    ("Coimp", Residual, "p -. q <= p", Layer.DLEPLUS),
    ("Residual", Residual, "res(oplus,1)(p, q) <= p", Layer.DLEPLUS),
    ("Residual-dotted", Residual, "res(dia,1)(p) <= p", Layer.DLEPLUS),
    ("DotLhd", DotLhd, "lhd(p) <= p", Layer.DLESTAR),
]


@pytest.mark.parametrize("node, text, layer", [case[1:] for case in _LAYER_CASES],
                         ids=[case[0] for case in _LAYER_CASES])
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
    # the adjoint of a dotted builtin is the residual of its declaration
    assert parse_term("res(dia,1)(p)", bare_sig) is Residual(bare_sig.decl("dia"), 1, (Var("p"),))
    assert parse_term("res(lhd,1)(p)", mixed_sig) is \
        Residual(SPEC_BY_ROLE["lambda"].decl, 1, (Var("p"),))
    for text, message in (("res(dia,2)(p)", "coordinate 2 out of range for dia"),
                          ("res(dia,1)(p, q)", "res(dia,1) takes 1 arguments")):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_term(text, mixed_sig)


def test_printer_conventions(classical_sig):
    assert print_term(meet(Var("p"), Var("q"))) == "p & q"
    assert print_term(adjoint("pi", Conominal("m0"))) == "bsq[pi](@m0)"
    assert print_term(join(meet(Var("p"), Var("q")), Var("r"))) == "p & q | r"
    assert print_term(meet(join(Var("p"), Var("q")), Var("r"))) == "(p | q) & r"


@pytest.mark.parametrize("decl, coord, text", [
    (MEET, 1, "res(&,1)(p, q)"), (MEET, 2, "p -> q"),
    (JOIN, 1, "p -. q"), (JOIN, 2, "res(|,2)(p, q)"),
], ids=["meet1", "meet2", "join1", "join2"])
def test_lattice_residuals_round_trip(decl, coord, text, bare_sig):
    # the residuals of the meet and the join in either coordinate: the two
    # without an infix spelling name the operation by its operator
    t = Residual(decl, coord, (Var("p"), Var("q")))
    assert print_term(t) == text
    assert parse_term(text, bare_sig) is t
    assert parse_term(f"res({decl.name},{coord})(p, q)", bare_sig) is t


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
# every node kind: its name, a fresh instance, its tonicities and its
# least layer
_NODE_TABLE = [
    ("Var", lambda: Var("p"), (), Layer.DLE),
    ("Nominal", lambda: Nominal("i0"), (), Layer.DLEPLUS),
    ("Conominal", lambda: Conominal("m0"), (), Layer.DLEPLUS),
    ("Top", lambda: Top(), (), Layer.DLE),
    ("Bot", lambda: Bot(), (), Layer.DLE),
    ("Meet", lambda: Meet((_P, _Q)), (MONO, MONO), Layer.DLE),
    ("Join", lambda: Join((_P, _Q)), (MONO, MONO), Layer.DLE),
    # the lattice implications: residuals of the meet and the join
    ("Arrow", lambda: Residual(MEET, 2, (_P, _Q)), (ANTI, MONO), Layer.DLEPLUS),
    ("Coimp", lambda: Residual(JOIN, 1, (_P, _Q)), (MONO, ANTI), Layer.DLEPLUS),
    ("App", lambda: App(_H, (_P, _Q)), (MONO, ANTI), Layer.DLE),
    ("Residual0", lambda: Residual(_H, 1, (_P, _Q)), (MONO, MONO), Layer.DLEPLUS),
    ("Residual1", lambda: Residual(_H, 2, (_P, _Q)), (MONO, ANTI), Layer.DLEPLUS),
] + [
    (cls.__name__, lambda cls=cls: cls((_P,)), (tone,), layer)
    for classes, layer in (((DotDia, DotBox, DotLhd, DotRhd), Layer.DLESTAR),
                           ((DefDia, DefBox, DefLhd, DefRhd), Layer.DLEPP))
    for cls, tone in zip(classes, (MONO, MONO, ANTI, ANTI))
] + [
    # the adjoint of a defined modality: its residual in coordinate 1
    (name, lambda spec=spec: Residual(spec.defined_decl, 1, (_P,)), (spec.tone,),
     Layer.DLEPP)
    for name, spec in zip(("BlackBox", "BlackDia", "BlackLhd", "BlackRhd"), ROLE_SPECS)
] + [
    # the adjoint of a dotted marker: its residual in coordinate 1
    (f"Residual{k}", lambda spec=spec: Residual(spec.decl, 1, (_P,)), (spec.tone,),
     Layer.DLEPLUS)
    for k, spec in enumerate(ROLE_SPECS, start=2)
]


@pytest.mark.parametrize("make, tones, layer", [case[1:] for case in _NODE_TABLE],
                         ids=[case[0] for case in _NODE_TABLE])
def test_node_shape_table(make, tones, layer):
    t = make()
    assert t.tonicities() == tones
    assert t.layer == layer
    rebuilt = t.with_args(t.args)
    assert type(rebuilt) is type(t) and rebuilt == t
    twin = make()
    assert twin == t and hash(twin) == hash(t)
    # no other entry builds a node equal to it
    assert sum(other() == t for _, other, _, _ in _NODE_TABLE) == 1


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
