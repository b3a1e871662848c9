"""Signed generation trees and the syntactic inequality hierarchy.

Nodes of a signed tree are classified by the standard two-column table:
Skeleton nodes (delta-adjoints and SLR) support approximation from the
outside in, PIA nodes (SRA and SRR) support residuation/adjunction from
the inside out.  A branch is good when, read from the leaf, it is a block
of PIA nodes followed by a block of Skeleton nodes; excellent when the
PIA block contains only SRA nodes.

Some node shapes are eligible for several classes (e.g. a positive meet
is a delta-adjoint, SRA and SLR).  Goodness is decided per branch by the
split with the shortest PIA block, which both maximizes goodness and
minimizes SRR obligations.

An inequality is epsilon-Sahlqvist when every epsilon-critical branch of
+lhs and -rhs is excellent, and (Omega, epsilon)-inductive when every
critical branch is good and the side terms of SRR nodes on critical
branches agree with the opposite order type and only mention strictly
Omega-smaller variables.  Meta-inductive inequalities are the images of
inductive dotted-language inequalities under substitution of registered
role terms for the dotted modalities.  Each signed tree is analysed in
one walk that builds no tree and carries the P1/P2 split, the good and
excellent flags and the SRR side leaves down to each leaf; every order
type, preimage pairing and branch report reads the analyses.  The public
calls share one cached record of the last input (``_input``), so that
they do each piece of work once per input: its analyses, its order-type
table (the witness and Sahlqvist flag of each workable order type) and
the pairs of one meta-inductive search with their Signature object,
until ``meta_inductive_witnesses`` takes them.  It keeps that input's
subterms alive until the next input.  The classes of Table 1, which the
engine's stage one reads too, are seven fixed sets, and ``is_critical``
is the one test of a leaf's criticality for classifier, engine and
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .language import (
    ANTI, MONO, ROLE_SPECS, App, Bot, Inequality, Join, Layer, Meet,
    OrderType, RegisteredTerm, Signature, Term, Top, Var, dotted_spec,
    signed_leaves,
)

DELTA = "delta"
SRA = "sra"
SLR = "slr"
SRR = "srr"
LEAF = "leaf"
CONSTANT = "constant"

SKELETON = frozenset({DELTA, SLR})
PIA = frozenset({SRA, SRR})

# Table 1: the seven class sets a signed node can have
_LEAF = frozenset({LEAF})
_CONSTANT = frozenset({CONSTANT})
_DELTA_SRA_SLR = frozenset({DELTA, SRA, SLR})  # +meet, -join
_DELTA_SRR = frozenset({DELTA, SRR})  # -meet, +join
_SLR = frozenset({SLR})
_SRA = frozenset({SRA})
_SRR = frozenset({SRR})

MAX_VARIABLES = 12


class ClassifyError(ValueError):
    pass


def is_critical(sign: int, eps_entry: str) -> bool:
    """Whether a leaf of sign ``sign`` is critical for order-type entry
    ``eps_entry``: positive for 1, negative for d."""
    return (sign == MONO) == (eps_entry == "1")


def node_classes(t: Term, sign: int) -> frozenset[str]:
    """Table-1 eligibility set of a signed node (DLE/DLEstar shapes only)."""
    if isinstance(t, Var):
        return _LEAF
    if isinstance(t, (Top, Bot)) or (isinstance(t, App) and t.decl.arity == 0):
        return _CONSTANT
    if isinstance(t, Meet):
        return _DELTA_SRA_SLR if sign == MONO else _DELTA_SRR
    if isinstance(t, Join):
        return _DELTA_SRR if sign == MONO else _DELTA_SRA_SLR
    if isinstance(t, App):  # a declared connective or a dotted marker
        if (t.decl.family == "F") == (sign == MONO):
            return _SLR
        return _SRA if t.decl.arity == 1 else _SRR
    raise ClassifyError(f"node {type(t).__name__} has no Table-1 classification")


@dataclass(frozen=True)
class SignedNode:
    term: Term
    sign: int
    classes: frozenset[str]


@dataclass(frozen=True)
class BranchAnalysis:
    var: str
    leaf_sign: int
    is_good: bool
    is_excellent: bool
    p1: tuple[SignedNode, ...]  # PIA block, leaf side first
    p2: tuple[SignedNode, ...]  # Skeleton block, up to the root
    srr_leaves: frozenset[tuple[str, int]]  # (var, sign) in P1's SRR side terms


def branches(t: Term, sign: int) -> list[BranchAnalysis]:
    """Analyses of all variable-leaf branches of the signed generation
    tree of ``t`` at ``sign``, leftmost first."""
    out: list[BranchAnalysis] = []
    _walk(t, sign, [], 0, True, True, _NO_LEAVES, out)
    return out


_NO_LEAVES: frozenset[tuple[str, int]] = frozenset()
_DLESTAR = Layer.DLESTAR  # an enum member costs a class lookup per read


def _walk(t: Term, sign: int, trail: list[SignedNode], k: int, good: bool,
          excellent: bool, srr: frozenset[tuple[str, int]],
          out: list[BranchAnalysis]) -> None:
    # trail: the nodes above t, root first.  Its first k nodes are the
    # Skeleton block, still open while k == len(trail); the rest is the PIA
    # block so far, good/excellent so far, with the SRR side leaves ``srr``
    if t.layer > _DLESTAR:
        raise ClassifyError(
            "signed generation trees are defined for DLE/DLEstar terms only")
    if isinstance(t, Var):
        out.append(BranchAnalysis(t.name, sign, good, excellent, tuple(trail[k:][::-1]),
                                  tuple(trail[:k][::-1]), srr if good else _NO_LEAVES))
        return
    node = SignedNode(t, sign, node_classes(t, sign))
    tones = t.tonicities()
    sides: list[frozenset[tuple[str, int]]] = []
    if k == len(trail) and not node.classes.isdisjoint(SKELETON):
        k += 1
    else:  # a PIA-block node: side terms count while the branch is good
        good = good and not node.classes.isdisjoint(PIA)
        excellent = excellent and SRA in node.classes
        if good and SRR in node.classes:
            sides = [frozenset(signed_leaves(a, sign * tone))
                     for a, tone in zip(t.args, tones)]
    trail.append(node)
    for taken, (a, tone) in enumerate(zip(t.args, tones)):
        _walk(a, sign * tone, trail, k, good, excellent,
              srr.union(*sides[:taken], *sides[taken + 1:]) if sides else srr, out)
    trail.pop()


@dataclass(slots=True)
class _Input:
    """What the public calls have learned about one input: the branch
    analyses of +lhs and -rhs, its order-type table, made in full when a
    call first reads it, and one meta-inductive search's
    ``(Signature, pairs)``."""

    sides: tuple[tuple[BranchAnalysis, ...], tuple[BranchAnalysis, ...]]
    table: tuple | None = None
    meta: tuple | None = None


@lru_cache(maxsize=1)
def _input(lhs: Term, rhs: Term) -> _Input:
    """The record of the last input, with its sides walked; terms are
    interned, so the cache compares them by identity.  A walk that raises
    is not cached, and the previous input's record stays."""
    return _Input((tuple(branches(lhs, MONO)), tuple(branches(rhs, ANTI))))


@dataclass(frozen=True)
class InductiveWitness:
    variables: tuple[str, ...]
    epsilon: OrderType
    omega: frozenset[tuple[str, str]]  # (smaller, larger) pairs, transitive

    def linearizations(self):
        """All variable orders compatible with omega, lexicographically."""
        from itertools import permutations
        for perm in permutations(self.variables):
            pos = {v: i for i, v in enumerate(perm)}
            if all(pos[a] < pos[b] for a, b in self.omega):
                yield perm


def variables_of(ineq: Inequality) -> tuple[str, ...]:
    return tuple(sorted(ineq.lhs.var_names | ineq.rhs.var_names))


def _transitive_closure(edges: set[tuple[str, str]]) -> frozenset[tuple[str, str]] | None:
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    if any(a == b for a, b in closure):
        return None
    return frozenset(closure)


def _check_eps(analyses: tuple[BranchAnalysis, ...], variables: tuple[str, ...],
               entries: tuple[str, ...]) -> tuple[InductiveWitness, bool] | None:
    """The inductive witness of order type ``entries``, if it has one, and
    whether the order type is Sahlqvist too: every critical branch
    excellent.  An excellent branch is good and has no SRR node in P1, so
    a Sahlqvist order type always has a witness, with an empty omega."""
    eps = dict(zip(variables, entries))
    edges: set[tuple[str, str]] = set()
    excellent = True
    for br in analyses:
        if not is_critical(br.leaf_sign, eps[br.var]):
            continue
        if not br.is_good:
            return None
        excellent = excellent and br.is_excellent
        # SRR side terms must agree with the opposite order type
        if any(is_critical(sign, eps[q]) for q, sign in br.srr_leaves):
            return None
        edges.update((q, br.var) for q, _ in br.srr_leaves)
    omega = _transitive_closure(edges)
    if omega is None:
        return None
    return InductiveWitness(variables, OrderType(entries), omega), excellent


def _capped_variables(ineq: Inequality) -> tuple[str, ...]:
    variables = variables_of(ineq)
    if len(variables) > MAX_VARIABLES:
        raise ClassifyError(
            f"order-type search is capped at {MAX_VARIABLES} variables, "
            f"got {len(variables)}")
    return variables


def _eps_table(variables: tuple[str, ...], analyses: tuple[BranchAnalysis, ...]):
    """(witness, Sahlqvist flag) of each workable epsilon,
    lexicographically (1 before d)."""
    for entries in product("1d", repeat=len(variables)):
        found = _check_eps(analyses, variables, entries)
        if found is not None:
            yield found


def _table(ineq: Inequality) -> tuple[tuple[InductiveWitness, bool], ...]:
    """The input's order-type table, made once per input in its record."""
    variables = _capped_variables(ineq)  # before any tree is built
    rec = _input(ineq.lhs, ineq.rhs)
    if rec.table is None:
        lhs, rhs = rec.sides
        rec.table = tuple(_eps_table(variables, lhs + rhs))
    return rec.table


def is_sahlqvist(ineq: Inequality) -> OrderType | None:
    """Smallest (lexicographic, 1 before d) Sahlqvist order type, if any."""
    return next((w.epsilon for w, sahlqvist in _table(ineq) if sahlqvist), None)


def is_inductive(ineq: Inequality) -> InductiveWitness | None:
    """First (lexicographic epsilon, minimal Omega) inductive witness."""
    return next((w for w, _ in _table(ineq)), None)


def inductive_witnesses(ineq: Inequality) -> list[InductiveWitness]:
    """All inductive witnesses, one per workable epsilon, lexicographically."""
    return [w for w, _ in _table(ineq)]


# -- meta-inductive search (anti-substitution) -------------------------

class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, n: int = 1) -> bool:
        self.left -= n
        return self.left >= 0


def match_role(term: Term, reg: RegisteredTerm) -> Term | None:
    """If ``term`` is reg.term with some argument substituted for its
    variable, return that argument; otherwise None."""
    found: list[Term] = []
    if not _match(reg.term, term, reg.var, found) or not found:
        return None
    first = found[0]
    if any(f != first for f in found[1:]):
        return None
    return first


def _match(pat: Term, t: Term, var: str, found: list[Term]) -> bool:
    """Whether ``t`` is ``pat`` with terms substituted for ``var``; the
    substituted terms are appended to ``found``."""
    if isinstance(pat, Var) and pat.name == var:
        found.append(t)
        return True
    if type(pat) is not type(t):
        return False
    if isinstance(pat, App) and pat.decl != t.decl:  # type: ignore[union-attr]
        return False
    if isinstance(pat, Var):
        return pat == t
    if len(pat.args) != len(t.args):
        return False
    return all(_match(pa, ta, var, found) for pa, ta in zip(pat.args, t.args))


def _preimages(term: Term, sig: Signature, budget: _Budget) -> list[Term]:
    """Dotted-language preimages of ``term`` under role substitution,
    role matches enumerated before plain structural copies."""
    if not budget.spend():
        return []
    out: list[Term] = []
    seen: set[Term] = set()
    for spec in ROLE_SPECS:
        reg = sig.role(spec.role)
        if reg is None:
            continue
        arg = match_role(term, reg)
        if arg is None or arg == term:  # identity matches make no progress
            continue
        for sub in _preimages(arg, sig, budget):
            cand = App(spec.decl, (sub,))
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
    if not term.args:
        if term not in seen:
            out.append(term)
        return out
    child_lists = [_preimages(a, sig, budget) for a in term.args]
    for combo in product(*child_lists):
        if not budget.spend():
            return out
        cand = term.with_args(tuple(combo))
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


ANTI_SUBSTITUTION_BUDGET = 10 ** 5


def _meta_witnesses(ineq: Inequality, sig: Signature, variables: tuple[str, ...],
                    sides: tuple[tuple[BranchAnalysis, ...], ...]):
    """The first witness of each inductive (lhs, rhs) preimage pair.  Each
    preimage is analysed when a pair first needs it, once per search; the
    input is its own preimage, with the analyses ``sides``.  Every
    preimage has the input's ``variables``: registered terms have one."""
    b = _Budget(ANTI_SUBSTITUTION_BUDGET)
    lhs_pre = _preimages(ineq.lhs, sig, b)
    rhs_pre = _preimages(ineq.rhs, sig, b)
    analysed = {(ineq.lhs, MONO): sides[0], (ineq.rhs, ANTI): sides[1]}

    def analysis(t: Term, sign: int) -> tuple[BranchAnalysis, ...]:
        found = analysed.get((t, sign))
        if found is None:
            found = analysed[t, sign] = tuple(branches(t, sign))
        return found

    for ls in lhs_pre:
        for rs in rhs_pre:
            if not b.spend(10):
                return
            found = next(_eps_table(variables, analysis(ls, MONO) + analysis(rs, ANTI)), None)
            if found is not None:
                yield Inequality(ls, rs), found[0]


def _meta(ineq: Inequality, sig: Signature, keep: bool):
    """The pairs of the input's meta-inductive search over ``sig``: one
    search per input and Signature object, kept in the input's record if
    ``keep``.  A search that raises is not kept."""
    variables = _capped_variables(ineq)  # before any tree is built
    rec = _input(ineq.lhs, ineq.rhs)
    meta = rec.meta
    if meta is None or meta[0] is not sig:
        meta = sig, tuple(_meta_witnesses(ineq, sig, variables, rec.sides))
    rec.meta = meta if keep else None
    return meta[1]


def meta_inductive_witnesses(ineq: Inequality,
                             sig: Signature) -> list[tuple[Inequality, InductiveWitness]]:
    """All (dotted preimage, witness) pairs, in deterministic search order.
    The record lets them go: they hold new dotted terms, which live as
    long as the caller keeps them."""
    return list(_meta(ineq, sig, False))


def is_meta_inductive(ineq: Inequality,
                      sig: Signature) -> tuple[Inequality, InductiveWitness] | None:
    """The first (dotted preimage, witness) pair, if any."""
    pairs = _meta(ineq, sig, True)
    return pairs[0] if pairs else None


# -- reporting ---------------------------------------------------------

def _node_label(node: SignedNode) -> str:
    t = node.term
    sgn = "+" if node.sign == MONO else "-"
    spec = dotted_spec(t)
    if spec is not None:
        return sgn + spec.dotted + "."
    if isinstance(t, App):
        return sgn + t.decl.name
    return sgn + {Meet: "&", Join: "|"}.get(type(t), type(t).__name__)


def branch_report(ineq: Inequality, eps: OrderType | None = None) -> str:
    """Per-branch P1/P2 split of both signed trees, for the CLI report."""
    variables = variables_of(ineq)
    eps_map = dict(zip(variables, eps.entries)) if eps is not None else None
    lines = []
    for label, side in zip(("+lhs", "-rhs"), _input(ineq.lhs, ineq.rhs).sides):
        for br in side:
            sgn = "+" if br.leaf_sign == MONO else "-"
            flags = []
            if eps_map is not None:
                flags.append(
                    "critical" if is_critical(br.leaf_sign, eps_map[br.var])
                    else "noncritical")
            flags.append("excellent" if br.is_excellent
                         else "good" if br.is_good else "not-good")
            p1 = ".".join(_node_label(n) for n in br.p1) or "-"
            p2 = ".".join(_node_label(n) for n in br.p2) or "-"
            lines.append(
                f"  branch {label} {sgn}{br.var}: P1=[{p1}] P2=[{p2}] "
                f"({', '.join(flags)})")
    return "\n".join(lines)
