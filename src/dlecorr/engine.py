"""Variable-elimination engine for inequalities over perfect lattices.

A derivation starts from one inequality, preprocesses it into pieces,
turns each piece into a system { i0 <= lhs, rhs <= m0 } with goal
i0 <= m0, and then rewrites systems with residuation, adjunction,
approximation, splitting and the two Ackermann rules until no
propositional variable is left.  Success yields a set of pure systems,
read as universally quantified quasi-inequalities.  Split is one rule in
both stages: it turns a piece into two pieces and a system entry into
two entries.

Two modes are supported, and one table (``_MODE_OF_RULE``) names the
rules that apply in one of them only.  Plain mode works on the base
language plus the dotted modalities as primitive connectives: the plain
rules (AdjDotDia, ApproxDotDia, ...) apply to a dotted marker read as
the unary connective of its role's declaration.
Role mode (the enhanced calculus) treats an input that is a substitution
image of a dotted inequality: internally the derivation carries the
dotted preimage, where each dotted node marks an occurrence of the
registered term for its role (pi/sigma/lambda/rho).  Rules on those markers are the role rules, which
introduce side conditions (flagged, and never rewritten afterwards except
by Ackermann substitution), the defined modalities Dia/Box/Lhd/Rhd and
their adjoints bsq/bdia/blhd/brhd, which are their residuals.  Traces and
results always show the concrete image, with markers expanded to the
registered terms.

Failure is a value: a stuck report naming the offending variable and the
blocking inequality.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import classify
from .language import (
    ANTI, BOT, MONO, ROLE_SPECS, SPEC_BY_DEFINED, TOP, App, ConnectiveDecl, Conominal,
    Inequality, Join, Layer, Meet, Nominal, Residual, RoleSpec, Signature, Term, Var,
    big_join, big_meet, bot_unit, dotted_spec, join, meet, replace_at, signed_leaves,
    substitute, var_occurrences,
)
from .printing import print_inequality, print_term


class EngineError(ValueError):
    pass


class RuleMatchError(EngineError):
    pass


class FreshnessError(EngineError):
    pass


class AckermannShapeError(EngineError):
    pass


@dataclass(frozen=True)
class SysIneq:
    ineq: Inequality
    side: bool = False


@lru_cache(maxsize=1024)
def _shared(names: frozenset[str]) -> frozenset[str]:
    """An equal set seen before, or ``names``: every system keeps its
    symbol set, and the thousands of systems of many derivations have a
    few hundred distinct ones."""
    return names


@dataclass(frozen=True)
class System:
    ineqs: tuple[SysIneq, ...]
    goal: Inequality | None = None

    def __post_init__(self) -> None:
        if self.goal is not None:
            if not isinstance(self.goal.lhs, Nominal) or not isinstance(self.goal.rhs, Conominal):
                raise EngineError("goal must be nominal <= conominal")

    def inequalities(self) -> tuple[Inequality, ...]:
        return tuple(si.ineq for si in self.ineqs)

    def contains(self, ineq: Inequality) -> bool:
        return any(si.ineq == ineq for si in self.ineqs)

    @classmethod
    def of(cls, entries, goal: Inequality | None) -> "System":
        """The system of ``entries`` in order, each inequality at its first
        occurrence only."""
        first: dict[Inequality, SysIneq] = {}
        for si in entries:
            first.setdefault(si.ineq, si)
        return cls(tuple(first.values()), goal)

    def replace_index(self, idx: int, items: list[SysIneq]) -> "System":
        """Replace entry ``idx`` by ``items``."""
        return System.of((*self.ineqs[:idx], *items, *self.ineqs[idx + 1:]), self.goal)

    def append(self, items: list[SysIneq]) -> "System":
        return System.of((*self.ineqs, *items), self.goal)

    @cached_property
    def check_terms(self) -> tuple[Term, ...]:
        """Each antecedent's two sides in order, then the goal's: the
        terms a semantic check of the system evaluates.  Terms are
        interned, so the tuple hashes by their identities."""
        goal = () if self.goal is None else (self.goal,)
        return tuple(t for iq in (*self.inequalities(), *goal) for t in (iq.lhs, iq.rhs))

    @cached_property
    def _symbols(self) -> frozenset[str]:
        return _shared(frozenset().union(*(t.symbol_names for t in self.check_terms)))

    def symbols(self) -> frozenset[str]:
        """Names of the variables, nominals and conominals that occur,
        collected once per system."""
        return self._symbols


@dataclass(frozen=True)
class RuleApplication:
    rule_id: str
    ineq_index: int | None = None
    path: tuple[int, ...] = ()
    coord: int | None = None
    pivot: str | None = None
    branch: str | None = None  # set on child nodes of branching rules

    def label(self) -> str:
        head = self.rule_id
        if self.coord is not None:
            head += f"({self.coord})"
        if self.pivot is not None:
            head += f" @ {self.pivot}"
        elif self.ineq_index is not None:
            head += f" @ {self.ineq_index}"
            if self.path:
                head += "/" + ".".join(str(i) for i in self.path)
        if self.branch:
            head += f" [{self.branch}]"
        return head


@dataclass(frozen=True)
class StuckReport:
    variables: tuple[str, ...]
    blocking: tuple[Inequality, ...]
    message: str


@dataclass(frozen=True)
class RunStatus:
    kind: str  # "running" | "success" | "failure"
    pure_systems: tuple[System, ...] = ()
    stuck: StuckReport | None = None


@dataclass
class DerivNode:
    id: int
    parent: int | None
    rule: RuleApplication | None
    system: System
    principal: Inequality | None = None
    fresh: tuple[str, ...] = ()
    target_was_side: bool = False
    children: list[int] = field(default_factory=list)


ACKERMANN_RULE_IDS = frozenset({"AckermannRight", "AckermannLeft"})


class Derivation:
    def __init__(self, root: Inequality, sig: Signature, mode: str,
                 internal_root: Inequality | None = None):
        self.root = root
        self.sig = sig
        self.mode = mode  # "alba" | "albae"
        self.role_mode = mode == "albae"
        self.nodes: list[DerivNode] = [
            DerivNode(0, None, None, System((SysIneq(internal_root or root),), None))
        ]
        self.status = RunStatus("running")
        self.steps = 0  # rewrites of the auto run, against _MAX_ATTEMPT_STEPS
        self._fresh_counts = {"j": 0, "n": 0}
        self.closed: set[int] = set()

    # -- bookkeeping ----------------------------------------------------

    def copy(self, size: int | None = None) -> "Derivation":
        """A copy whose nodes can be extended apart from this one's; with
        ``size``, of the derivation as it was with its first ``size``
        nodes (a rewrite gives a leaf all its children at once)."""
        d = copy.copy(self)
        d.nodes = [DerivNode(n.id, n.parent, n.rule, n.system, n.principal, n.fresh,
                             n.target_was_side,
                             [] if size is not None and n.children and n.children[0] >= size
                             else list(n.children)) for n in self.nodes[:size]]
        d._fresh_counts = dict(self._fresh_counts)
        d.closed = set(self.closed)
        return d

    def node(self, node_id: int) -> DerivNode:
        return self.nodes[node_id]

    def leaves(self) -> list[int]:
        return [n.id for n in self.nodes if not n.children]

    def open_leaves(self) -> list[int]:
        return [i for i in self.leaves() if i not in self.closed]

    def _add_child(self, parent: int, rule: RuleApplication, system: System,
                   principal: Inequality | None, fresh: tuple[str, ...],
                   target_was_side: bool) -> int:
        nid = len(self.nodes)
        node = DerivNode(nid, parent, rule, system, principal, fresh, target_was_side)
        self.nodes.append(node)
        self.nodes[parent].children.append(nid)
        return nid

    # -- concretization ---------------------------------------------------

    def concretize_term(self, t: Term) -> Term:
        if not self.role_mode:
            return t
        return concretize(t, self.sig)

    def concretize_system(self, system: System) -> System:
        if not self.role_mode:
            return system
        return System(
            tuple(SysIneq(Inequality(self.concretize_term(si.ineq.lhs),
                                     self.concretize_term(si.ineq.rhs)), si.side)
                  for si in system.ineqs),
            system.goal,
        )

    def node_system_concrete(self, node_id: int) -> System:
        return self.concretize_system(self.nodes[node_id].system)


def concretize(t: Term, sig: Signature) -> Term:
    """Expand dotted role markers to their registered terms."""
    spec = dotted_spec(t)
    if spec is not None:
        return sig.role_instance(spec.role, concretize(t.args[0], sig))
    if not t.args:
        return t
    return t.with_args(tuple(concretize(a, sig) for a in t.args))


# ----------------------------------------------------------------------
# rule implementations
#
# Each helper takes the derivation, the target node's system and the
# application record, and returns a list of successor systems together
# with the principal inequality and the fresh names it introduced.


def _target(system: System, app: RuleApplication) -> tuple[int, SysIneq]:
    if app.ineq_index is None:
        raise RuleMatchError(f"{app.rule_id} needs an inequality index")
    if not (0 <= app.ineq_index < len(system.ineqs)):
        raise RuleMatchError(f"inequality index {app.ineq_index} out of range")
    return app.ineq_index, system.ineqs[app.ineq_index]


def _at_path(ineq: Inequality, path: tuple[int, ...]) -> tuple[Term, int]:
    """The subterm of ``ineq`` at ``path``, which starts with the side (0
    left, 1 right), and the subterm's sign in +lhs/-rhs."""
    if not path or path[0] not in (0, 1):
        raise RuleMatchError("a subterm path starts with side 0 or 1")
    sub = ineq.lhs if path[0] == 0 else ineq.rhs
    sign = MONO if path[0] == 0 else ANTI
    for i in path[1:]:
        if i >= len(sub.args):
            raise RuleMatchError(
                f"path {'.'.join(map(str, path))} points past a leaf")
        sign *= sub.tonicities()[i]
        sub = sub.args[i]
    return sub, sign


def _replaced_at(ineq: Inequality, path: tuple[int, ...], new: Term) -> Inequality:
    """``ineq`` with ``new`` in place of its subterm at ``path``."""
    sides = [ineq.lhs, ineq.rhs]
    sides[path[0]] = replace_at(sides[path[0]], path[1:], new)
    return Inequality(*sides)


def _oriented(x: Term, y: Term, below: bool) -> Inequality:
    """x <= y if ``below``, else y <= x."""
    return Inequality(x, y) if below else Inequality(y, x)


def _substituted(ineq: Inequality, mapping: dict[str, Term]) -> Inequality:
    return Inequality(substitute(ineq.lhs, mapping), substitute(ineq.rhs, mapping))


def _occurrence_arg(t: Term, spec: RoleSpec, sig: Signature) -> Term | None:
    """Argument of an occurrence of ``spec``'s role at the root of ``t``:
    a dotted marker (role-mode derivations) or a match of the registered
    term (concrete systems in scripted runs)."""
    if dotted_spec(t) is spec:
        return t.args[0]
    reg = sig.role(spec.role)
    if reg is None:
        return None
    arg = classify.match_role(t, reg)
    if arg is not None and arg != t:
        return arg
    return None


def _adjunction_condition(sig: Signature, spec: RoleSpec, other: Term) -> Inequality:
    """Side condition of a role adjunction: the role term at its unit, on
    the role's side (left for F roles), against ``other``."""
    const = sig.role_instance(spec.role, spec.unit)
    return _oriented(const, other, spec.family == "F")


def _split(d: Derivation, system: System, app: RuleApplication):
    """A join on the left or a meet on the right splits into its two
    arguments.  A stage-one piece (no goal yet) becomes two pieces and
    splits a join first; a system entry becomes two entries and splits a
    meet first."""
    idx, si = _target(system, app)
    a, b = si.ineq.lhs, si.ineq.rhs
    piece = system.goal is None
    if isinstance(a, Join) and (piece or not isinstance(b, Meet)):
        items = [SysIneq(Inequality(x, b), si.side) for x in a.args]
    elif isinstance(b, Meet):
        items = [SysIneq(Inequality(a, y), si.side) for y in b.args]
    else:
        raise RuleMatchError("Split needs a meet on the right or a join on the left")
    if piece:
        return [system.replace_index(idx, [item]) for item in items], si.ineq, ()
    return [system.replace_index(idx, items)], si.ineq, ()


# Rule id -> (family, role) of the connective rules: ResidF, ... take the
# declared connectives, the plain rules (AdjDotDia, ApproxDotDia, ...) the
# dotted marker of the role, read as the unary connective ``RoleSpec.decl``.
_CONNECTIVE_RULES = {
    **{kind + family: (family, None) for kind in ("Resid", "Approx") for family in "FG"},
    **{kind + spec.dot_suffix: (spec.family, spec)
       for spec in ROLE_SPECS for kind in ("Adj", "Approx")},
}


def _connective(t: Term, family: str, spec: RoleSpec | None) -> ConnectiveDecl | None:
    """The declaration of ``t`` if the rule takes it: a declared connective
    of ``family`` or else, for a plain rule, the marker of ``spec``."""
    if type(t) is not App:
        return None
    decl = t.decl
    if spec is not None:
        return decl if decl == spec.decl else None
    return decl if decl.role is None and decl.family == family else None


def _residuation(d: Derivation, system: System, app: RuleApplication):
    """Residuation of an F connective on the left (ResidF) or a G
    connective on the right (ResidG) in one coordinate: the argument goes
    below the residual exactly when the coordinate has bottom as unit.
    A plain adjunction (AdjDotDia, ...) is residuation of a dotted marker
    in its one coordinate."""
    family, spec = _CONNECTIVE_RULES[app.rule_id]
    idx, si = _target(system, app)
    a, b = si.ineq.lhs, si.ineq.rhs
    occ, other = (a, b) if family == "F" else (b, a)
    decl = _connective(occ, family, spec)
    if decl is None:
        raise RuleMatchError(f"{app.rule_id} needs " + (
            "an F-connective on the left" if family == "F"
            else "a G-connective on the right"))
    coord = 1 if spec is not None and app.coord is None else app.coord
    if coord is None:
        raise RuleMatchError(f"{app.rule_id} needs a coordinate")
    if not 1 <= coord <= decl.arity:
        raise RuleMatchError(f"{app.rule_id} has no coordinate {coord}")
    h = coord - 1
    res = Residual(decl, coord, occ.args[:h] + (other,) + occ.args[h + 1:])
    new = _oriented(occ.args[h], res, bot_unit(family, decl.tonicities()[h]))
    return [system.replace_index(idx, [SysIneq(new, si.side)])], si.ineq, ()


def _adjunction(d: Derivation, system: System, app: RuleApplication):
    """Adjunction on the role side: the occurrence is on the left for F
    roles, on the right for G roles.  A role occurrence flips to the
    defined modality's adjoint and adds the flagged side condition; a
    target rooted in the defined modality itself takes the bare flip
    (sound unconditionally: the defined maps are complete operators)."""
    _, spec = _ROLE_RULES[app.rule_id]
    idx, si = _target(system, app)
    a, b = si.ineq.lhs, si.ineq.rhs
    occ, other = (a, b) if spec.family == "F" else (b, a)
    adj = Residual(spec.defined_decl, 1, (other,))
    if type(occ) is App and occ.decl == spec.defined_decl:
        items = [SysIneq(_oriented(occ.args[0], adj, spec.bot_unit), si.side)]
    else:
        arg = _occurrence_arg(occ, spec, d.sig)
        if arg is None:
            raise RuleMatchError(f"{app.rule_id} does not match {print_inequality(si.ineq)}")
        items = [SysIneq(_oriented(arg, adj, spec.bot_unit)),
                 SysIneq(_adjunction_condition(d.sig, spec, other), side=True)]
    return [system.replace_index(idx, items)], si.ineq, ()


def _approximation(d: Derivation, system: System, app: RuleApplication):
    """Approximation on the side opposite to the adjunction: a nominal
    below an F role, a conominal above a G role.  The occurrence's argument
    is approximated by a fresh nominal (bottom-unit roles) or conominal
    under the defined modality, with branch A the side condition and
    branch B the main system."""
    _, spec = _ROLE_RULES[app.rule_id]
    idx, si = _target(system, app)
    a, b = si.ineq.lhs, si.ineq.rhs
    on_left = spec.family == "G"
    occ, other = (a, b) if on_left else (b, a)
    arg = _occurrence_arg(occ, spec, d.sig)
    if arg is None or not isinstance(other, Conominal if on_left else Nominal):
        raise RuleMatchError(f"{app.rule_id} does not match {print_inequality(si.ineq)}")
    const = d.sig.role_instance(spec.role, spec.unit)
    side = system.replace_index(idx, [SysIneq(_oriented(const, other, on_left), side=True)])
    atom, fresh, approx = _approximant(d, system, arg, spec.bot_unit)
    new = _oriented(App(spec.defined_decl, (atom,)), other, on_left)
    main = system.replace_index(idx, [SysIneq(new, si.side)])
    return [side, main.append([SysIneq(approx)])], si.ineq, (fresh,)


def _approximant(d: Derivation, system: System, arg: Term,
                 bot: bool) -> tuple[Term, str, Inequality]:
    """The next nominal j<k> below ``arg`` (``bot``: the coordinate has
    bottom as unit) or conominal n<k> above it that does not occur in
    ``system``, with its tagged name and that inequality; the two kinds
    are numbered apart."""
    prefix, cls, tag = ("j", Nominal, "#") if bot else ("n", Conominal, "@")
    symbols = system.symbols()
    while True:
        d._fresh_counts[prefix] += 1
        name = f"{prefix}{d._fresh_counts[prefix]}"
        if name not in symbols:
            atom = cls(name)
            return atom, tag + name, _oriented(atom, arg, bot)


def _approx_connective(d: Derivation, system: System, app: RuleApplication):
    """Approximation of an F connective against a nominal on the left
    (ApproxF) or a G connective against a conominal on the right (ApproxG),
    with one fresh approximant per coordinate, in coordinate order; a
    plain approximation (ApproxDotDia, ...) does this to a dotted marker."""
    family, spec = _CONNECTIVE_RULES[app.rule_id]
    idx, si = _target(system, app)
    a, b = si.ineq.lhs, si.ineq.rhs
    on_left = family == "G"
    occ, other = (a, b) if on_left else (b, a)
    decl = _connective(occ, family, spec)
    if decl is None or not isinstance(other, Conominal if on_left else Nominal):
        raise RuleMatchError(f"{app.rule_id} needs " + (
            "g(...) <= conominal" if on_left else "nominal <= f(...)"))
    if decl.arity == 0:
        raise RuleMatchError("approximation does not apply to 0-ary connectives")
    # the counters make each approximant differ from the ones before it
    atoms, fresh, approx = zip(*(_approximant(d, system, arg, bot_unit(family, tone))
                                 for arg, tone in zip(occ.args, decl.tonicities())))
    new = _oriented(occ.with_args(atoms), other, on_left)
    sys2 = system.replace_index(idx, [SysIneq(new, si.side)])
    return [sys2.append([SysIneq(iq) for iq in approx])], si.ineq, fresh


def _ackermann(d: Derivation, system: System, app: RuleApplication):
    pivot = app.pivot
    if pivot is None:
        raise RuleMatchError("Ackermann rules need a pivot variable")
    # the right rule collects premises alpha <= p, substitutes their join
    # and needs every other occurrence of p positive in +lhs/-rhs; the
    # left rule is its order dual
    right = app.rule_id == "AckermannRight"
    want = MONO if right else ANTI
    var = Var(pivot)
    bounds: list[Term] = []
    others: list[SysIneq] = []
    for si in system.ineqs:
        lhs, rhs = si.ineq.lhs, si.ineq.rhs
        bound, end = (lhs, rhs) if right else (rhs, lhs)
        if end == var and pivot not in bound.var_names:
            bounds.append(bound)
        elif any(name == pivot and _red_sign(side, s) != want
                 for side, term in enumerate((lhs, rhs)) if pivot in term.var_names
                 for name, s in signed_leaves(term)):
            raise AckermannShapeError(
                f"pivot {pivot} occurs with the wrong polarity in "
                f"{print_inequality(si.ineq)}")
        else:
            others.append(si)
    mapping = {pivot: (big_join if right else big_meet)(bounds)}
    return [System.of((SysIneq(_substituted(si.ineq, mapping), si.side) for si in others),
                      system.goal)], None, ()


def _rewrite_role(d: Derivation, system: System, app: RuleApplication):
    """A role occurrence unfolds to the bounded composition of its unit
    value with the defined modality: a join for F roles, a meet for G."""
    _, spec = _ROLE_RULES[app.rule_id]
    idx, si = _target(system, app)
    sub, _ = _at_path(si.ineq, app.path)
    arg = _occurrence_arg(sub, spec, d.sig)
    if arg is None:
        raise RuleMatchError(f"{app.rule_id} does not match {print_term(sub)}")
    new_sub = (join if spec.family == "F" else meet)(
        d.sig.role_instance(spec.role, spec.unit), App(spec.defined_decl, (arg,)))
    new = _replaced_at(si.ineq, app.path, new_sub)
    return [system.replace_index(idx, [SysIneq(new, si.side)])], si.ineq, ()


# Rule id -> (kind, role spec) of the role rules (AdjPi, ...), which read
# the dotted modalities as markers of the registered terms.
_ROLE_RULES = {kind + spec.rule_suffix: (kind, spec) for spec in ROLE_SPECS
               for kind in ("Dist", "Adj", "Approx", "Rewrite")}


# ----------------------------------------------------------------------
# preprocessing (applies to proto nodes: goal is None, single inequality)

def _distributes(parent: Term, sign: int, classes: frozenset[str], k: int) -> bool:
    """Whether ``parent``, of sign ``sign`` and Table-1 classes ``classes``,
    distributes over its child ``k``: the child is a positive join or a
    negative meet (a delta-adjoint) and the parent an SLR node (an F node,
    dotted markers and meets included, in positive position or a G node in
    negative position).  Such a parent takes a join child exactly in a
    coordinate with bottom as unit, so the coordinate needs no test of its
    own."""
    child_sign = sign * parent.tonicities()[k]
    return classify.SLR in classes and \
        isinstance(parent.args[k], Join if child_sign == MONO else Meet)


# a distribution step with the (name, sign) leaves of the child it distributes over
_Site = tuple[RuleApplication, tuple[tuple[str, int], ...]]


def _distribution_sites(t: Term, sign: int, path: tuple[int, ...], role_mode: bool,
                        out: list[_Site]) -> None:
    """Append each coordinate where a node of ``t`` distributes, as its
    step with the distinct signed variable leaves of the child, in
    pre-order: a node's coordinates first, then its children's subtrees.
    Only the skeleton distributes, the part of each branch above its PIA
    block: the walk ends at a leaf, a constant or a PIA-only node."""
    classes = classify.node_classes(t, sign)
    if classes.isdisjoint(classify.SKELETON):
        return
    tones = t.tonicities()
    for k, child in enumerate(t.args):
        if _distributes(t, sign, classes, k):
            spec = dotted_spec(t)
            rid = "Dist" + spec.rule_suffix if role_mode and spec else "DistributePre"
            out.append((RuleApplication(rid, ineq_index=0, path=path, coord=k + 1),
                        signed_leaves(child, sign * tones[k])))
    for k, child in enumerate(t.args):
        _distribution_sites(child, sign * tones[k], path + (k,), role_mode, out)


def _preprocess_analysis(ineq: Inequality,
                         role_mode: bool) -> tuple[list[_Site], RuleApplication | None]:
    """The part of ``find_preprocess_step`` that reads no order type: the
    distribution sites of +lhs and then of -rhs, and the step to take when
    no site has a critical leaf (Split, MonotoneElim or none)."""
    sides = ((ineq.lhs, MONO), (ineq.rhs, ANTI))
    sites: list[_Site] = []
    for side_idx, (term, sign) in enumerate(sides):
        _distribution_sites(term, sign, (side_idx,), role_mode, sites)
    if isinstance(ineq.lhs, Join) or isinstance(ineq.rhs, Meet):
        return sites, RuleApplication("Split", ineq_index=0)
    # each variable's signs in +lhs/-rhs, per side: one on both sides, all
    # of it negative, goes to bottom (coord 0); all of it positive, to top
    left: dict[str, set[int]] = {}
    right: dict[str, set[int]] = {}
    for signs, (term, sign) in zip((left, right), sides):
        for name, s in signed_leaves(term, sign):
            signs.setdefault(name, set()).add(s)
    for v in sorted(left.keys() & right.keys()):
        if left[v] == right[v] and len(left[v]) == 1:
            return sites, RuleApplication("MonotoneElim", ineq_index=0, pivot=v,
                                          coord=0 if ANTI in left[v] else 1)
    return sites, None


def find_preprocess_step(ineq: Inequality, eps_map: dict[str, str], role_mode: bool,
                         analyses: dict) -> RuleApplication | None:
    """First applicable stage-one step: distribution, splitting, variable
    elimination.  Only delta nodes with a leaf critical for ``eps_map``
    below them are distributed.  The rest of the search reads no order
    type: ``analyses``, a dict that one run keeps for one mode, holds it
    per inequality."""
    found = analyses.get(ineq)
    if found is None:
        found = analyses[ineq] = _preprocess_analysis(ineq, role_mode)
    sites, fallback = found
    for step, leaves in sites:
        if any(classify.is_critical(s, eps_map[name]) for name, s in leaves):
            return step
    return fallback


def _distribute(d: Derivation, system: System, app: RuleApplication):
    idx, si = _target(system, app)
    parent, sign = _at_path(si.ineq, app.path)
    if app.coord is None or not (1 <= app.coord <= len(parent.args)):
        raise RuleMatchError("distribution needs a coordinate")
    k = app.coord - 1
    # scripts may point past the base and dotted layers, which Table 1 omits
    if parent.layer > Layer.DLESTAR or \
            not _distributes(parent, sign, classify.node_classes(parent, sign), k):
        raise RuleMatchError("distribution does not match at this position")
    one, two = (parent.with_args(parent.args[:k] + (half,) + parent.args[k + 1:])
                for half in parent.args[k].args)
    # the combinator is a join when the parent is positively signed
    new = _replaced_at(si.ineq, app.path, (join if sign == MONO else meet)(one, two))
    return [system.replace_index(idx, [SysIneq(new, si.side)])], si.ineq, ()


def _monotone_elim(d: Derivation, system: System, app: RuleApplication):
    idx, si = _target(system, app)
    if app.pivot is None:
        raise RuleMatchError("MonotoneElim needs a variable")
    new = _substituted(si.ineq, {app.pivot: BOT if app.coord == 0 else TOP})
    return [system.replace_index(idx, [SysIneq(new, si.side)])], si.ineq, ()


def _first_approx(d: Derivation, system: System, app: RuleApplication):
    if system.goal is not None or len(system.ineqs) != 1:
        raise RuleMatchError("FirstApprox applies to a single preprocessed inequality")
    ineq = system.ineqs[0].ineq
    i0, m0 = Nominal("i0"), Conominal("m0")
    sys2 = System(
        (SysIneq(Inequality(i0, ineq.lhs)), SysIneq(Inequality(ineq.rhs, m0))),
        goal=Inequality(i0, m0))
    return [sys2], ineq, ("#i0", "@m0")


# ----------------------------------------------------------------------
# dispatcher

# Stage-one rules rewrite a bare inequality, a system with no goal yet.
_STAGE_ONE_RULES = {
    "DistributePre": _distribute, "MonotoneElim": _monotone_elim,
    **{rid: _distribute for rid, (kind, _) in _ROLE_RULES.items() if kind == "Dist"},
}
# Every other rule id; Split applies before and after FirstApprox.
_RULES = {
    "FirstApprox": _first_approx, "Split": _split,
    "AckermannRight": _ackermann, "AckermannLeft": _ackermann,
    **{rid: _approx_connective if rid.startswith("Approx") else _residuation
       for rid in _CONNECTIVE_RULES},
    **{rid: {"Adj": _adjunction, "Approx": _approximation, "Rewrite": _rewrite_role}[kind]
       for rid, (kind, _) in _ROLE_RULES.items() if kind != "Dist"},
}
# The rules that read a coordinate: residuation (a dotted marker's in
# coordinate 1 only), distribution and MonotoneElim; the others refuse one.
_COORD_RULES = {"MonotoneElim", *(rid for rid in [*_CONNECTIVE_RULES, *_STAGE_ONE_RULES]
                                  if rid.startswith(("Resid", "Adj", "Dist")))}
# The rules of one mode only.  The role rules are sound only where the
# role axioms hold (pi additive, ...), which alba mode does not assume;
# the plain rules read a dotted marker as a normal connective, but in
# albae mode it stands for its registered term, which need not be normal.
_MODE_OF_RULE = {
    **dict.fromkeys(_ROLE_RULES, "albae"),
    **{rid: "alba" for rid, (_, spec) in _CONNECTIVE_RULES.items() if spec is not None},
}


def apply_rule(d: Derivation, app: RuleApplication,
               node_id: int | None = None) -> list[int]:
    """Apply ``app`` at a leaf (default: leftmost open leaf); returns the
    new node ids (two for branching rules)."""
    if node_id is None:
        leaves = d.open_leaves()
        if not leaves:
            raise EngineError("no open leaf to extend")
        node_id = leaves[0]
    node = d.node(node_id)
    if node.children:
        raise EngineError(f"node {node_id} is not a leaf")
    system = node.system

    rid = app.rule_id
    rule = (_STAGE_ONE_RULES.get(rid) if system.goal is None else None) or _RULES.get(rid)
    if rule is None and rid in _STAGE_ONE_RULES:
        raise RuleMatchError(f"{rid} only applies before FirstApprox")
    if rule is None:
        raise RuleMatchError(f"unknown rule {rid!r}")
    mode = _MODE_OF_RULE.get(rid, d.mode)
    if mode != d.mode:
        raise RuleMatchError(f"{rid} applies in {mode} mode only")
    if app.coord is not None and rid not in _COORD_RULES:
        raise RuleMatchError(f"{rid} takes no coordinate, got {app.coord}")
    results, principal, fresh = rule(d, system, app)

    if fresh:
        symbols = system.symbols()
        for name in fresh:
            if name.lstrip("#@") in symbols:
                raise FreshnessError(f"fresh symbol {name} already occurs in the system")

    target_side = False
    if app.ineq_index is not None and 0 <= app.ineq_index < len(system.ineqs):
        target_side = system.ineqs[app.ineq_index].side

    out = []
    # the branching rules are role approximation and stage-one Split
    for tag, sys2 in zip(("A", "B") if len(results) > 1 else (None,), results):
        child_app = RuleApplication(app.rule_id, app.ineq_index, app.path, app.coord,
                                    app.pivot, tag) if tag else app
        out.append(d._add_child(node_id, child_app, sys2, principal, fresh, target_side))
    return out


# ----------------------------------------------------------------------
# automatic strategy

def _red_sign(side: int, tree_sign: int) -> int:
    """Sign of an occurrence inside a system inequality: occurrences on
    the left keep their tree sign, occurrences on the right flip it.
    (Antecedent inequalities sit on the assumption side of the implied
    quasi-inequality, which dualizes the preprocessing convention.)"""
    return tree_sign if side == 0 else -tree_sign


def _critical_red(eps_entry: str) -> int:
    # Displayed premises for an eps=1 pivot have shape alpha <= p, whose
    # p sits negatively in the reduction sense; dually for eps=d.
    return ANTI if eps_entry == "1" else MONO


def _display_step(system: System, pivot: str, eps_entry: str,
                  role_mode: bool) -> RuleApplication | StuckReport | None:
    want = _critical_red(eps_entry)
    var = Var(pivot)
    for idx, si in enumerate(system.ineqs):
        ineq = si.ineq
        a, b = ineq.lhs, ineq.rhs
        # displayed premises: alpha <= p for eps=1, p <= alpha for eps=d
        bound, end = (a, b) if eps_entry == "1" else (b, a)
        if end == var:
            if pivot in bound.var_names:
                return StuckReport((pivot,), (ineq,),
                                   f"pivot {pivot} occurs inside its own premise")
            continue
        occ = next(((side, path) for side, term in ((0, a), (1, b))
                    if pivot in term.var_names
                    for name, s, path in var_occurrences(term)
                    if name == pivot and _red_sign(side, s) == want), None)
        if occ is None:
            continue
        if si.side:
            return StuckReport((pivot,), (ineq,),
                               f"critical occurrence of {pivot} inside a side condition")
        occ_side, path = occ
        app = _display_rule(system, idx, occ_side, path, role_mode)
        if app is None:
            return StuckReport((pivot,), (ineq,),
                               f"no display rule for {pivot} in {print_inequality(ineq)}")
        return app
    return None


def _display_rule(system: System, idx: int, occ_side: int,
                  path: tuple[int, ...], role_mode: bool) -> RuleApplication | None:
    ineq = system.ineqs[idx].ineq
    root, other = (ineq.rhs, ineq.lhs) if occ_side else (ineq.lhs, ineq.rhs)
    if isinstance(root, Meet if occ_side else Join):
        return RuleApplication("Split", ineq_index=idx)
    # a defined modality has no display rule
    if type(root) is not App or root.decl in SPEC_BY_DEFINED:
        return None
    decl = root.decl
    family = decl.family
    spec = dotted_spec(root)
    suffix = None if spec is None else \
        spec.rule_suffix if role_mode else spec.dot_suffix
    # G roots are freed by adjunction or residuation on the right, F roots
    # on the left; otherwise they need approximation, against a nominal on
    # the left or a conominal on the right
    if family == ("G" if occ_side else "F"):
        if suffix is not None:
            return RuleApplication("Adj" + suffix, ineq_index=idx)
        return RuleApplication("Resid" + family, ineq_index=idx, coord=path[0] + 1)
    if decl.arity > 0 and isinstance(other, Nominal if occ_side else Conominal):
        return RuleApplication("Approx" + (suffix or family), ineq_index=idx)
    return None


def _occurs(system: System, pivot: str) -> bool:
    return any(pivot in si.ineq.lhs.var_names or pivot in si.ineq.rhs.var_names
               for si in system.ineqs)


def _variables(*systems: System) -> list[str]:
    """The variables that occur in the inequalities of ``systems``, sorted."""
    return sorted(frozenset().union(*(t.var_names for system in systems
                                      for si in system.ineqs
                                      for t in (si.ineq.lhs, si.ineq.rhs))))


_MAX_ATTEMPT_STEPS = 10_000


def _tick(d: Derivation) -> None:
    """Count one rewrite of the auto run against the step budget."""
    d.steps += 1
    if d.steps > _MAX_ATTEMPT_STEPS:
        raise EngineError("the auto run exceeded its step budget")


def _eliminate(d: Derivation, nid: int, k: int, order: tuple[str, ...],
               eps_map: dict[str, str]) -> list[tuple[int, int]] | StuckReport:
    """Run the elimination cycle on leaf ``nid`` from pivot ``order[k]``.

    Returns the (child, pivot index) pairs to continue from when a rule
    branches, [] when the leaf ends pure, and the reason when it gets stuck.
    """
    while k < len(order):
        pivot = order[k]
        system = d.node(nid).system
        step = _display_step(system, pivot, eps_map[pivot], d.role_mode)
        if isinstance(step, StuckReport):
            return step
        if step is None:
            if _occurs(system, pivot):
                rid = "AckermannRight" if eps_map[pivot] == "1" else "AckermannLeft"
                try:
                    _tick(d)
                    ids = apply_rule(d, RuleApplication(rid, pivot=pivot), nid)
                except AckermannShapeError as exc:
                    return StuckReport((pivot,), (), str(exc))
                nid = ids[0]
            k += 1
            continue
        _tick(d)
        try:
            ids = apply_rule(d, step, nid)
        except EngineError as exc:
            return StuckReport((pivot,), (), str(exc))
        if len(ids) > 1:
            return [(child, k) for child in ids]
        nid = ids[0]
    leftover = _variables(d.node(nid).system)
    if leftover:
        return StuckReport(tuple(leftover), d.node(nid).system.inequalities(),
                           "variables left after the elimination cycle")
    return []


class _Stage:
    """A point of stage one, reached by the same rewrites from one root:
    the derivation, the nodes left to stage (the last one next), the
    pieces so far and the rewrites made.  Stage-one rules take no fresh
    symbols, so candidates whose steps agree share their points: ``after``
    keeps each step taken from here (the node it rewrites and the rule) and
    the point it led to, or the message of the ``EngineError`` it raised.

    The first step taken from a point extends its derivation in place;
    the point then still reads its first ``size`` nodes, which no later
    rewrite changes, and a step that forks from it extends a copy of them.
    ``ended`` is the candidates' (derivation, pieces) when the nodes left
    are all pieces; a derivation handed out there is not extended."""

    __slots__ = ("d", "size", "steps", "work", "pieces", "after", "ended")

    def __init__(self, d: Derivation, work: tuple[int, ...], pieces: tuple[int, ...]):
        self.d, self.size, self.steps = d, len(d.nodes), d.steps
        self.work, self.pieces = work, pieces
        self.after: dict = {}
        self.ended: tuple[Derivation, list[int]] | None = None

    def _own(self) -> Derivation:
        """The derivation as at this point, for a step from here or a
        candidate that ends here: the shared one while nothing has extended
        it and none was handed out here, else a copy of its first nodes."""
        if len(self.d.nodes) == self.size and self.ended is None:
            d = self.d
        else:
            d = self.d.copy(self.size)
        d.steps = self.steps  # a step that raised may have ticked
        return d

    def advance(self, eps_map: dict[str, str], analyses: dict) -> "_Stage | None":
        """The point after the candidate's next rewrite, for ``eps_map``, or
        None when the nodes left are all pieces.  Asks for a step at each
        node it takes, depth first with the first child first, and at no
        other."""
        d, work = self.d, self.work
        for i in range(len(work) - 1, -1, -1):
            nid = work[i]
            step = find_preprocess_step(d.nodes[nid].system.ineqs[0].ineq, eps_map,
                                        d.role_mode, analyses)
            if step is None:
                continue
            key = nid, step
            nxt = self.after.get(key)
            if nxt is None:
                try:
                    own = self._own()
                    _tick(own)
                    ids = apply_rule(own, step, nid)
                except EngineError as exc:
                    nxt = str(exc)
                else:
                    nxt = _Stage(own, work[:i] + tuple(reversed(ids)),
                                 self.pieces + work[:i:-1])
                self.after[key] = nxt
            if isinstance(nxt, str):
                raise EngineError(nxt)
            return nxt
        if self.ended is None:
            self.ended = self._own(), list(self.pieces + work[::-1])
        return None


# Stage-one rewrites past this many do not move a candidate further back.
_STAGE_ONE_CAP = 200


def _staged(ineq: Inequality, sig: Signature, mode: str,
            cands: list[tuple[Inequality, classify.InductiveWitness]], analyses: dict):
    """The candidates' staged derivations (derivation, pieces, epsilon map,
    witness) in attempt order: fewest stage-one rewrites first, counted up
    to ``_STAGE_ONE_CAP``, ties in candidate order.  Each stage one runs
    only as far as this order needs: at level s, in candidate order, every
    live candidate is asked for one more rewrite, and one that has none
    ends with s rewrites and comes next; at the cap the live ones finish,
    in candidate order.  A candidate whose stage one raises
    ``EngineError`` is dropped: no attempt of it could finish.

    Candidates with the same internal root share their stage one
    (``_Stage``) for as long as their steps agree, so a rewrite that
    several of them take is made once per run; candidates that end at
    one point are handed one derivation, which the attempts copy."""
    roots: dict[Inequality, _Stage] = {}
    live = []
    for internal, w in cands:
        root = roots.get(internal)
        if root is None:
            root = roots[internal] = _Stage(
                Derivation(ineq, sig, mode, internal_root=internal), (0,), ())
        live.append((root, dict(zip(w.variables, w.epsilon.entries)), w))
    level = 0
    while live:
        going = []
        for stage, eps_map, w in live:
            try:
                nxt = stage.advance(eps_map, analyses)
                if level < _STAGE_ONE_CAP and nxt is not None:
                    going.append((nxt, eps_map, w))
                    continue
                while nxt is not None:  # at the cap: to the end
                    stage, nxt = nxt, nxt.advance(eps_map, analyses)
            except EngineError:
                continue
            yield (*stage.ended, eps_map, w)
        live = going
        level += 1


def _attempt(staged: Derivation, pieces: list[int], eps_map: dict[str, str],
             order: tuple[str, ...]) -> Derivation:
    """Eliminate the variables in ``order`` from each stage-one piece, on a
    copy of ``staged``, whose steps count against the same budget."""
    d = staged.copy()
    stuck: StuckReport | None = None
    for nid in pieces:
        _tick(d)
        # depth first over branching rules, first child first
        work = [(apply_rule(d, RuleApplication("FirstApprox"), nid)[0], 0)]
        while work:
            branches = _eliminate(d, *work.pop(), order, eps_map)
            if isinstance(branches, StuckReport):
                stuck = stuck or branches  # the first report is the one shown
            else:
                work.extend(reversed(branches))

    if stuck is None:
        pure = tuple(d.node_system_concrete(leaf) for leaf in d.leaves())
        d.status = RunStatus("success", pure_systems=pure)
    else:
        d.status = RunStatus("failure", stuck=stuck)
    return d


def run_alba(ineq: Inequality, sig: Signature, mode: str = "alba",
             strategy: str = "auto", script: str | None = None) -> Derivation:
    """Reduce an inequality to pure quasi-inequalities.

    Auto strategy: the candidate witnesses (order types with their
    dependency orders) are attempted in a fixed order -- fewest stage-one
    rewrites first, counted up to ``_STAGE_ONE_CAP``, then lexicographic
    order type with 1 before d -- and each elimination order linearizing
    a candidate's dependency order continues from a copy of that
    candidate's stage one.  Stage one is lazy (``_staged``): it runs at
    most once per candidate, and only as far as the order needs to place
    the next candidate, so the candidates after the first success are
    staged in part or not at all.  Candidates with one internal root share
    their stage one while their steps agree, so a rewrite that several of
    them take is made once.  The first successful attempt is returned.
    A DLE/DLEstar input that is not (meta-)inductive yields a failure
    status, not an exception; an input above DLEstar, with a nominal, a
    residual or a defined modality such as ``Dia[pi]``, raises
    ``classify.ClassifyError`` in both modes.
    The witnesses come from the classifier's cached record of the last
    input, so a caller that classified the input first has done part of
    that work already.
    """
    if mode not in ("alba", "albae"):
        raise ValueError(f"unknown mode {mode!r}")
    if strategy != "auto":
        return run_scripted(ineq, sig, mode, script or "")

    if mode == "alba":
        witnesses = classify.inductive_witnesses(ineq)
        cands = [(ineq, w) for w in witnesses]
        why = "input is not inductive"
    else:
        cands = classify.meta_inductive_witnesses(ineq, sig)
        why = "input is not meta-inductive"
    if not cands:
        d = Derivation(ineq, sig, mode)
        d.status = RunStatus("failure", stuck=StuckReport(
            classify.variables_of(ineq), (ineq,), why))
        return d

    first_failure: Derivation | None = None
    analyses: dict = {}  # for this run only: never kept on the terms
    for d0, pieces, eps_map, w in _staged(ineq, sig, mode, cands, analyses):
        for order in w.linearizations():
            try:
                d = _attempt(d0, pieces, eps_map, order)
            except EngineError:
                continue
            if d.status.kind == "success":
                return d
            if first_failure is None:
                first_failure = d
    if first_failure is None:
        d = Derivation(ineq, sig, mode)
        d.status = RunStatus("failure", stuck=StuckReport(
            classify.variables_of(ineq), (ineq,), "no workable witness"))
        return d
    return first_failure


# ----------------------------------------------------------------------
# safety and syntactic invariants

def is_safe(d: Derivation) -> bool:
    """No flagged side condition is rewritten except by Ackermann
    substitution."""
    for node in d.nodes:
        if node.rule is None:
            continue
        if node.rule.rule_id in ACKERMANN_RULE_IDS:
            continue
        if node.target_was_side:
            return False
    return True


# Def-A.1 style polarity audit.  Members of the closed-positive group
# must occur positively in syntactically closed terms (negatively in open
# ones), members of the closed-negative group dually.
def _group(t: Term) -> int:
    """+1 for closed-positive nominals, -1 for closed-negative conominals,
    0 for neither.  A residual of a bottom-unit coordinate is
    closed-negative, like a box (a -> b, bsq, brhd), one of any other
    coordinate closed-positive (a -. b, bdia, blhd)."""
    if isinstance(t, Residual):
        return -1 if bot_unit(t.decl.family, t.decl.tonicities()[t.coord - 1]) else 1
    return 1 if isinstance(t, Nominal) else -1 if isinstance(t, Conominal) else 0


def _audit(t: Term, sign: int, closed: bool) -> bool:
    group = _group(t)
    if group == 1 and (sign == MONO) != closed:
        return False
    if group == -1 and (sign == ANTI) != closed:
        return False
    return all(_audit(a, sign * tone, closed)
               for a, tone in zip(t.args, t.tonicities()))


def is_syntactically_closed(t: Term) -> bool:
    return _audit(t, MONO, True)


def is_syntactically_open(t: Term) -> bool:
    return _audit(t, MONO, False)


def check_topological_adequacy(system: System, sig: Signature) -> bool:
    """Every adjoint-headed inequality has its paired side condition."""
    for si in system.ineqs:
        for spec in ROLE_SPECS:
            # the adjunction rule puts the adjoint on the right exactly
            # for bottom-unit roles
            adj = si.ineq.rhs if spec.bot_unit else si.ineq.lhs
            if type(adj) is Residual and adj.decl == spec.defined_decl and (
                    sig.role(spec.role) is None or not system.contains(
                        _adjunction_condition(sig, spec, adj.args[0]))):
                return False
    return True


def check_compact_appropriate(system: System) -> bool:
    """Left sides syntactically closed, right sides open, for every
    inequality still mentioning a propositional variable.  (Pure
    inequalities need no shape: the Ackermann lemmas place them in the
    untouched part of the system.)"""
    for si in system.ineqs:
        if not (si.ineq.lhs.var_names or si.ineq.rhs.var_names):
            continue
        if not is_syntactically_closed(si.ineq.lhs):
            return False
        if not is_syntactically_open(si.ineq.rhs):
            return False
    return True


# ----------------------------------------------------------------------
# rule steps, trace export and scripts

def rule_steps(d: Derivation):
    """(rule, parent, children) for every rule application whose parent
    and children all have goals, in node order, as concrete systems: the
    steps whose soundness ``models.verify_rule_step`` decides."""
    for node in d.nodes:
        if not node.children:
            continue
        parent = d.node_system_concrete(node.id)
        children = [d.node_system_concrete(c) for c in node.children]
        if parent.goal is None or any(c.goal is None for c in children):
            continue
        yield d.node(node.children[0]).rule, parent, children


def trace_lines(d: Derivation) -> list[str]:
    lines = []
    # printed subterms, concrete images of terms and printed concrete
    # inequalities, for this call only: each inequality is printed once
    memo: dict[Term, str] = {}
    concrete: dict[Term, Term] = {}
    printed: dict[Inequality, str] = {}

    def shown(ineq: Inequality) -> str:
        line = printed.get(ineq)
        if line is None:
            sides = []
            for t in (ineq.lhs, ineq.rhs):
                c = concrete.get(t)
                if c is None:
                    c = concrete[t] = d.concretize_term(t)
                sides.append(c)
            line = printed[ineq] = print_inequality(Inequality(*sides), memo)
        return line

    for node in d.nodes:
        system = node.system
        side = sorted(i for i, si in enumerate(system.ineqs) if si.side)
        body = " ;; ".join(shown(si.ineq) for si in system.ineqs)
        goal = print_inequality(system.goal, memo) if system.goal else "-"
        principal = "-" if node.principal is None else shown(node.principal)
        rule = node.rule.label() if node.rule else "-"
        parent = "-" if node.parent is None else str(node.parent)
        lines.append(
            f"node:{node.id} | parent:{parent} | rule:{rule} | "
            f"principal:{principal} | side:{{{','.join(map(str, side))}}} | "
            f"system: {body} |- {goal}")
    if d.status.kind == "failure" and d.status.stuck is not None:
        s = d.status.stuck
        lines.append(f"stuck: vars={','.join(s.variables)} : {s.message}")
    lines.append(f"status: {d.status.kind}")
    return lines


_SCRIPT_RE = re.compile(
    r"^(?P<rid>[A-Za-z]+)(?:\((?P<coord>\d+)\))?"
    r"(?:\s*@\s*(?P<target>[A-Za-z0-9_]+))?"
    r"(?:\s*/\s*(?P<path>\d+(?:\.\d+)*|-))?\s*$")


def parse_script(text: str) -> list[RuleApplication | str]:
    out: list[RuleApplication | str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "done":
            out.append("done")
            continue
        m = _SCRIPT_RE.match(line)
        if not m:
            raise EngineError(f"script line {lineno}: cannot parse {line!r}")
        rid = m.group("rid")
        coord = int(m.group("coord")) if m.group("coord") else None
        target = m.group("target")
        ineq_index = None
        pivot = None
        if target is not None:
            if target.isdigit():
                ineq_index = int(target)
            else:
                pivot = target
        path: tuple[int, ...] = ()
        if m.group("path") and m.group("path") != "-":
            path = tuple(int(x) for x in m.group("path").split("."))
        out.append(RuleApplication(rid, ineq_index=ineq_index, path=path,
                                   coord=coord, pivot=pivot))
    return out


def run_scripted(ineq: Inequality, sig: Signature, mode: str,
                 script_text: str) -> Derivation:
    """Apply the script's rules in order, each to the leftmost open leaf."""
    d = Derivation(ineq, sig, mode)
    try:
        steps = parse_script(script_text)
        for step in steps:
            if step == "done":
                leaves = d.open_leaves()
                if leaves:
                    d.closed.add(leaves[0])
                continue
            apply_rule(d, step)
    except EngineError as exc:
        d.status = RunStatus("failure", stuck=StuckReport((), (), str(exc)))
        return d
    leaves = d.leaves()
    left = _variables(*(d.node(leaf).system for leaf in leaves))
    raw = [str(leaf) for leaf in leaves if d.node(leaf).system.goal is None]
    if raw:
        d.status = RunStatus("failure", stuck=StuckReport(tuple(left), (), (
            f"script left {'leaf' if len(raw) == 1 else 'leaves'} {','.join(raw)} "
            "without first approximation")))
    elif left:
        d.status = RunStatus("failure", stuck=StuckReport(
            tuple(left), (), "script left a non-pure system"))
    else:
        d.status = RunStatus(
            "success",
            pure_systems=tuple(d.node_system_concrete(l) for l in d.leaves()))
    return d
