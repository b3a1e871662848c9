"""Variable-elimination engine for inequalities over perfect lattices.

A derivation starts from one inequality, preprocesses it into pieces,
turns each piece into a system { i0 <= lhs, rhs <= m0 } with goal
i0 <= m0, and then rewrites systems with residuation, adjunction,
approximation, splitting and the two Ackermann rules until no
propositional variable is left.  Success yields a set of pure systems,
read as universally quantified quasi-inequalities.

Two modes are supported.  Plain mode works on the base language plus the
dotted modalities as primitive connectives: the connective rules apply to
a dotted marker read as the unary connective of its role's declaration.
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
from functools import cached_property

from . import classify
from .language import (
    ANTI, BOT, MONO, ROLE_SPECS, TOP, App, ConnectiveDecl, Conominal, Inequality,
    Join, Layer, Meet, Nominal, Residual, RoleSpec, Signature, Term, Var, big_join, big_meet, bot_unit, connective_decl, dotted_spec,
    join, meet, replace_at, signed_leaves, substitute, var_occurrences,
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

    def replace_index(self, idx: int, items: list[SysIneq]) -> "System":
        """Replace entry ``idx`` by ``items``; first occurrence wins on dupes."""
        merged: list[SysIneq] = []
        for i, si in enumerate(self.ineqs):
            if i == idx:
                merged.extend(items)
            else:
                merged.append(si)
        out: list[SysIneq] = []
        seen: set[Inequality] = set()
        for si in merged:
            if si.ineq not in seen:
                seen.add(si.ineq)
                out.append(si)
        return System(tuple(out), self.goal)

    def append(self, items: list[SysIneq]) -> "System":
        out = list(self.ineqs)
        for item in items:
            if not any(o.ineq == item.ineq for o in out):
                out.append(item)
        return System(tuple(out), self.goal)

    @cached_property
    def check_terms(self) -> tuple[Term, ...]:
        """Each antecedent's two sides in order, then the goal's: the
        terms a semantic check of the system evaluates.  Terms are
        interned, so the tuple hashes by their identities."""
        goal = () if self.goal is None else (self.goal,)
        return tuple(t for iq in (*self.inequalities(), *goal) for t in (iq.lhs, iq.rhs))

    def symbols(self) -> frozenset[str]:
        """Names of the variables, nominals and conominals that occur."""
        return frozenset().union(*(t.symbol_names for t in self.check_terms))


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

    def copy(self) -> "Derivation":
        """A copy whose nodes can be extended apart from this one's."""
        d = copy.copy(self)
        d.nodes = [DerivNode(n.id, n.parent, n.rule, n.system, n.principal, n.fresh,
                             n.target_was_side, list(n.children)) for n in self.nodes]
        d._fresh_counts = dict(self._fresh_counts)
        d.closed = set(self.closed)
        return d

    def node(self, node_id: int) -> DerivNode:
        return self.nodes[node_id]

    def leaves(self) -> list[int]:
        return [n.id for n in self.nodes if not n.children]

    def open_leaves(self) -> list[int]:
        return [i for i in self.leaves() if i not in self.closed]

    def fresh_approximant(self, system: System, bot: bool) -> Nominal | Conominal:
        """The next nominal j<k> (``bot``) or conominal n<k> that does not
        occur in ``system``; the two kinds are numbered apart."""
        prefix, cls = ("j", Nominal) if bot else ("n", Conominal)
        symbols = system.symbols()
        while True:
            self._fresh_counts[prefix] += 1
            name = f"{prefix}{self._fresh_counts[prefix]}"
            if name not in symbols:
                return cls(name)

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


def _at_path(ineq: Inequality, path: tuple[int, ...]) -> tuple[int, Term, Term, int]:
    """The side ``path[0]`` of ``ineq`` (0 left, 1 right), that side's
    term, its subterm at ``path[1:]`` and the subterm's sign in +lhs/-rhs."""
    if not path or path[0] not in (0, 1):
        raise RuleMatchError("a subterm path starts with side 0 or 1")
    term = sub = ineq.lhs if path[0] == 0 else ineq.rhs
    sign = MONO if path[0] == 0 else ANTI
    for i in path[1:]:
        if i >= len(sub.args):
            raise RuleMatchError(
                f"path {'.'.join(map(str, path))} points past a leaf")
        sign *= sub.tonicities()[i]
        sub = sub.args[i]
    return path[0], term, sub, sign


def _occurrence_arg(t: Term, spec: RoleSpec, sig: Signature) -> Term | None:
    """Argument of an occurrence of ``spec``'s role at the root of ``t``:
    a dotted marker (role-mode derivations) or a match of the registered
    term (concrete systems in scripted runs)."""
    if type(t) is spec.dot:
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
    return Inequality(const, other) if spec.family == "F" else Inequality(other, const)


def _split(d: Derivation, system: System, app: RuleApplication):
    idx, si = _target(system, app)
    a, b = si.ineq.lhs, si.ineq.rhs
    if isinstance(b, Meet):
        items = [SysIneq(Inequality(a, b.args[0]), si.side),
                 SysIneq(Inequality(a, b.args[1]), si.side)]
    elif isinstance(a, Join):
        items = [SysIneq(Inequality(a.args[0], b), si.side),
                 SysIneq(Inequality(a.args[1], b), si.side)]
    else:
        raise RuleMatchError("Split needs a meet on the right or a join on the left")
    return [system.replace_index(idx, items)], si.ineq, ()


# Rule id -> (family, node class) of the connective rules.  The plain
# rules (AdjDotDia, ApproxDotDia, ...) read a dotted marker as the unary
# connective ``RoleSpec.decl``, in plain mode only: in role mode a marker
# stands for its registered term, which need not be normal.
_CONNECTIVE_RULES = {
    **{kind + family: (family, App) for kind in ("Resid", "Approx") for family in "FG"},
    **{kind + spec.dot_suffix: (spec.family, spec.dot)
       for spec in ROLE_SPECS for kind in ("Adj", "Approx")},
}


def _connective_rule(d: Derivation, app: RuleApplication) -> tuple[str, type]:
    """The family and node class of the connectives ``app``'s rule takes."""
    family, cls = _CONNECTIVE_RULES[app.rule_id]
    if cls is not App and d.role_mode:
        raise RuleMatchError(f"{app.rule_id} applies in alba mode only")
    return family, cls


def _connective(t: Term, family: str, cls: type) -> ConnectiveDecl | None:
    decl = connective_decl(t) if type(t) is cls else None
    return decl if decl is not None and decl.family == family else None


def _residuation(d: Derivation, system: System, app: RuleApplication):
    """Residuation of an F connective on the left (ResidF) or a G
    connective on the right (ResidG) in one coordinate: the argument goes
    below the residual exactly when the coordinate has bottom as unit.
    A plain adjunction (AdjDotDia, ...) is residuation of a dotted marker
    in its one coordinate."""
    family, cls = _connective_rule(d, app)
    idx, si = _target(system, app)
    a, b = si.ineq.lhs, si.ineq.rhs
    occ, other = (a, b) if family == "F" else (b, a)
    decl = _connective(occ, family, cls)
    if decl is None:
        raise RuleMatchError(f"{app.rule_id} needs " + (
            "an F-connective on the left" if family == "F"
            else "a G-connective on the right"))
    coord = 1 if cls is not App and app.coord is None else app.coord
    if coord is None:
        raise RuleMatchError(f"{app.rule_id} needs a coordinate")
    if not 1 <= coord <= decl.arity:
        raise RuleMatchError(f"{app.rule_id} has no coordinate {coord}")
    h = coord - 1
    arg = occ.args[h]
    res = Residual(decl, coord, occ.args[:h] + (other,) + occ.args[h + 1:])
    new = Inequality(arg, res) if bot_unit(family, decl.tonicities()[h]) \
        else Inequality(res, arg)
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

    def flipped(arg: Term) -> Inequality:
        adj = Residual(spec.defined_decl, 1, (other,))
        return Inequality(arg, adj) if spec.bot_unit else Inequality(adj, arg)

    if type(occ) is spec.defined:
        items = [SysIneq(flipped(occ.args[0]), si.side)]
    else:
        arg = _occurrence_arg(occ, spec, d.sig)
        if arg is None:
            raise RuleMatchError(f"{app.rule_id} does not match {print_inequality(si.ineq)}")
        items = [SysIneq(flipped(arg)),
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

    def with_occ(t: Term) -> Inequality:
        return Inequality(t, b) if on_left else Inequality(a, t)

    const = d.sig.role_instance(spec.role, spec.unit)
    side = system.replace_index(idx, [SysIneq(with_occ(const), side=True)])
    atom, fresh, approx = _approximant(d, system, arg, spec.bot_unit)
    main = system.replace_index(idx, [SysIneq(with_occ(spec.defined((atom,))), si.side)])
    return [side, main.append([SysIneq(approx)])], si.ineq, (fresh,)


def _approximant(d: Derivation, system: System, arg: Term,
                 bot: bool) -> tuple[Term, str, Inequality]:
    """A fresh nominal below ``arg`` (``bot``: the coordinate has bottom as
    unit) or a fresh conominal above it, with its tagged name and that
    inequality."""
    atom = d.fresh_approximant(system, bot)
    if bot:
        return atom, "#" + atom.name, Inequality(atom, arg)
    return atom, "@" + atom.name, Inequality(arg, atom)


def _approx_connective(d: Derivation, system: System, app: RuleApplication):
    """Approximation of an F connective against a nominal on the left
    (ApproxF) or a G connective against a conominal on the right (ApproxG),
    with one fresh approximant per coordinate, in coordinate order; a
    plain approximation (ApproxDotDia, ...) does this to a dotted marker."""
    family, cls = _connective_rule(d, app)
    idx, si = _target(system, app)
    a, b = si.ineq.lhs, si.ineq.rhs
    on_left = family == "G"
    occ, other = (a, b) if on_left else (b, a)
    decl = _connective(occ, family, cls)
    if decl is None or not isinstance(other, Conominal if on_left else Nominal):
        raise RuleMatchError(f"{app.rule_id} needs " + (
            "g(...) <= conominal" if on_left else "nominal <= f(...)"))
    if decl.arity == 0:
        raise RuleMatchError("approximation does not apply to 0-ary connectives")
    fresh: list[str] = []
    atoms: list[Term] = []
    comps: list[SysIneq] = []
    sys_now = system
    for arg, tone in zip(occ.args, decl.tonicities()):
        atom, name, approx = _approximant(d, sys_now, arg, bot_unit(family, tone))
        fresh.append(name)
        atoms.append(atom)
        comps.append(SysIneq(approx))
        sys_now = sys_now.append([comps[-1]])
    head = occ.with_args(tuple(atoms))
    new = Inequality(head, b) if on_left else Inequality(a, head)
    sys2 = system.replace_index(idx, [SysIneq(new, si.side)]).append(comps)
    return [sys2], si.ineq, tuple(fresh)


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
    out: list[SysIneq] = []
    seen: set[Inequality] = set()
    for si in others:
        new = Inequality(substitute(si.ineq.lhs, mapping),
                         substitute(si.ineq.rhs, mapping))
        if new not in seen:
            seen.add(new)
            out.append(SysIneq(new, si.side))
    return [System(tuple(out), system.goal)], None, ()


def _rewrite_role(d: Derivation, system: System, app: RuleApplication):
    """A role occurrence unfolds to the bounded composition of its unit
    value with the defined modality: a join for F roles, a meet for G."""
    _, spec = _ROLE_RULES[app.rule_id]
    idx, si = _target(system, app)
    side_idx, term, sub, _ = _at_path(si.ineq, app.path)
    arg = _occurrence_arg(sub, spec, d.sig)
    if arg is None:
        raise RuleMatchError(f"{app.rule_id} does not match {print_term(sub)}")
    new_sub = (join if spec.family == "F" else meet)(
        d.sig.role_instance(spec.role, spec.unit), spec.defined((arg,)))
    new_term = replace_at(term, app.path[1:], new_sub)
    new = Inequality(new_term, si.ineq.rhs) if side_idx == 0 else \
        Inequality(si.ineq.lhs, new_term)
    return [system.replace_index(idx, [SysIneq(new, si.side)])], si.ineq, ()


# Rule id -> (kind, role spec) of the role rules (AdjPi, ...), which read
# the dotted modalities as markers of the registered terms.
_ROLE_RULES = {kind + spec.rule_suffix: (kind, spec) for spec in ROLE_SPECS
               for kind in ("Dist", "Adj", "Approx", "Rewrite")}


# ----------------------------------------------------------------------
# preprocessing (applies to proto nodes: goal is None, single inequality)

def _distributes(parent: Term, sign: int, k: int) -> bool:
    """Whether ``parent``, of sign ``sign``, distributes over its child
    ``k``: the child is a positive join or a negative meet (a delta-adjoint)
    and the parent an SLR node of Table 1 (an F node, dotted markers and
    meets included, in positive position or a G node in negative
    position).  Such a parent takes a join child exactly in a coordinate
    with bottom as unit, so the coordinate needs no test of its own."""
    child_sign = sign * parent.tonicities()[k]
    return isinstance(parent.args[k], Join if child_sign == MONO else Meet) and \
        classify.SLR in classify.node_classes(parent, sign)


# a distribution step with the (name, sign) leaves of the child it distributes over
_Site = tuple[RuleApplication, tuple[tuple[str, int], ...]]


def _distribution_sites(t: Term, sign: int, path: tuple[int, ...], role_mode: bool,
                        out: list[_Site]) -> None:
    """Append each coordinate where a node of ``t`` distributes, as its
    step with the distinct signed variable leaves of the child, in
    pre-order: a node's coordinates first, then its children's subtrees.
    Only the skeleton distributes, the part of each branch above its PIA
    block: the walk ends at a leaf, a constant or a PIA-only node."""
    if classify.node_classes(t, sign).isdisjoint(classify.SKELETON):
        return
    tones = t.tonicities()
    for k, child in enumerate(t.args):
        if _distributes(t, sign, k):
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
    ineq = si.ineq
    side_idx, term, parent, sign = _at_path(ineq, app.path)
    pos = app.path[1:]
    if app.coord is None or not (1 <= app.coord <= len(parent.args)):
        raise RuleMatchError("distribution needs a coordinate")
    k = app.coord - 1
    child = parent.args[k]
    # scripts may point past the base and dotted layers, which Table 1 omits
    if parent.layer > Layer.DLESTAR or not _distributes(parent, sign, k):
        raise RuleMatchError("distribution does not match at this position")
    one, two = (parent.with_args(parent.args[:k] + (half,) + parent.args[k + 1:])
                for half in child.args)
    # the combinator is a join when the parent is positively signed
    new_term = replace_at(term, pos, (join if sign == MONO else meet)(one, two))
    new = Inequality(new_term, ineq.rhs) if side_idx == 0 else \
        Inequality(ineq.lhs, new_term)
    return [system.replace_index(idx, [SysIneq(new, si.side)])], ineq, ()


def _split_piece(d: Derivation, system: System, app: RuleApplication):
    _, si = _target(system, app)
    a, b = si.ineq.lhs, si.ineq.rhs
    if isinstance(a, Join):
        parts = [Inequality(a.args[0], b), Inequality(a.args[1], b)]
    elif isinstance(b, Meet):
        parts = [Inequality(a, b.args[0]), Inequality(a, b.args[1])]
    else:
        raise RuleMatchError("preprocessing Split does not match")
    return [System((SysIneq(p),), None) for p in parts], si.ineq, ()


def _monotone_elim(d: Derivation, system: System, app: RuleApplication):
    idx, si = _target(system, app)
    if app.pivot is None:
        raise RuleMatchError("MonotoneElim needs a variable")
    value = {app.pivot: BOT if app.coord == 0 else TOP}
    new = Inequality(substitute(si.ineq.lhs, value), substitute(si.ineq.rhs, value))
    return [system.replace_index(idx, [SysIneq(new, si.side)])], si.ineq, ()


def _first_approx(d: Derivation, system: System, app: RuleApplication):
    if system.goal is not None or len(system.ineqs) != 1:
        raise RuleMatchError("FirstApprox applies to a single preprocessed inequality")
    ineq = system.ineqs[0].ineq
    i0, m0 = Nominal("i0"), Conominal("m0")
    if not system.symbols().isdisjoint(("i0", "m0")):
        raise FreshnessError("input already uses the reserved names i0/m0")
    sys2 = System(
        (SysIneq(Inequality(i0, ineq.lhs)), SysIneq(Inequality(ineq.rhs, m0))),
        goal=Inequality(i0, m0))
    return [sys2], ineq, ("#i0", "@m0")


# ----------------------------------------------------------------------
# dispatcher

# Stage-one rules rewrite a bare inequality, a system with no goal yet.
_STAGE_ONE_RULES = {
    "DistributePre": _distribute, "Split": _split_piece, "MonotoneElim": _monotone_elim,
    **{rid: _distribute for rid, (kind, _) in _ROLE_RULES.items() if kind == "Dist"},
}
# Every other rule id.  Split here splits one entry of a system.
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
    if rid in _ROLE_RULES and not d.role_mode:
        # the role rules are sound only where the role axioms hold (pi
        # additive, ...), which alba mode does not assume
        raise RuleMatchError(f"{rid} applies in albae mode only")
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
    decl = connective_decl(root)
    if decl is None:
        return None
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


def _stage_one(d: Derivation, eps_map: dict[str, str], pieces: list[int],
               analyses: dict):
    """Stage one on the root of ``d``: distribution, splitting and monotone
    elimination, depth first with the first child first.  Appends the ids
    of the pieces to ``pieces``, first piece first, and yields after each
    rewrite; ``d.steps`` counts the rewrites.  ``analyses`` is
    ``find_preprocess_step``'s."""
    work = [0]
    while work:
        nid = work.pop()
        step = find_preprocess_step(d.node(nid).system.ineqs[0].ineq, eps_map,
                                    d.role_mode, analyses)
        if step is None:
            pieces.append(nid)
            continue
        _tick(d)
        work += reversed(apply_rule(d, step, nid))
        yield


# Stage-one rewrites past this many do not move a candidate further back.
_STAGE_ONE_CAP = 200
_ENDED = object()


def _staged(ineq: Inequality, sig: Signature, mode: str,
            cands: list[tuple[Inequality, classify.InductiveWitness]], analyses: dict):
    """The candidates' staged derivations (derivation, pieces, epsilon map,
    witness) in attempt order: fewest stage-one rewrites first, counted up
    to ``_STAGE_ONE_CAP``, ties in candidate order.  Each stage one runs
    only as far as this order needs: at level s, in candidate order, every
    live candidate is asked for one more rewrite, and one that has none
    ends with s rewrites and comes next; at the cap the live ones finish,
    in candidate order.  A candidate whose stage one raises
    ``EngineError`` is dropped: no attempt of it could finish."""
    live = []
    for internal, w in cands:
        eps_map = dict(zip(w.variables, w.epsilon.entries))
        d = Derivation(ineq, sig, mode, internal_root=internal)
        pieces: list[int] = []
        live.append(((d, pieces, eps_map, w), _stage_one(d, eps_map, pieces, analyses)))
    level = 0
    while live:
        going = []
        for staged, run in live:
            try:
                if level < _STAGE_ONE_CAP and next(run, _ENDED) is not _ENDED:
                    going.append((staged, run))
                    continue
                for _ in run:  # at the cap: to the end
                    pass
            except EngineError:
                continue
            yield staged
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
    staged in part or not at all.  The first successful attempt is
    returned.  Non-(meta-)inductive inputs yield a failure status, not an
    exception.
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
    # printed subterms and concrete images of terms, for this call only
    memo: dict[Term, str] = {}
    concrete: dict[Term, Term] = {}

    def shown(ineq: Inequality) -> str:
        sides = []
        for t in (ineq.lhs, ineq.rhs):
            c = concrete.get(t)
            if c is None:
                c = concrete[t] = d.concretize_term(t)
            sides.append(c)
        return print_inequality(Inequality(*sides), memo)

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
