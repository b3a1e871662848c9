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
role terms for the dotted modalities.  Each signed tree is analysed once,
in one walk that builds no tree: every order type, preimage pairing and
branch report reads the analyses.  The classes of Table 1, which the
engine's stage one reads too, are seven fixed sets, and ``is_critical``
is the one test of a leaf's criticality for classifier, engine and
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .language import (
    ANTI, MONO, ROLE_SPECS, App, Bot, Inequality, Join, Layer, Meet,
    OrderType, RegisteredTerm, Signature, Term, Top, Var, connective_decl,
    dotted_spec, var_occurrences,
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
    decl = connective_decl(t)  # a declared connective or a dotted marker
    if decl is not None:
        if (decl.family == "F") == (sign == MONO):
            return _SLR
        return _SRA if decl.arity == 1 else _SRR
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
    _walk(t, sign, [], out)
    return out


def _walk(t: Term, sign: int, trail: list[tuple[SignedNode, int]],
          out: list[BranchAnalysis]) -> None:
    # trail: the nodes above t, root first, each with the coordinate taken
    if t.layer > Layer.DLESTAR:
        raise ClassifyError(
            "signed generation trees are defined for DLE/DLEstar terms only")
    if isinstance(t, Var):
        out.append(_analyse(t.name, sign, trail))
        return
    node = SignedNode(t, sign, node_classes(t, sign))
    for k, (a, tone) in enumerate(zip(t.args, t.tonicities())):
        trail.append((node, k))
        _walk(a, sign * tone, trail, out)
        trail.pop()


def _analyse(var: str, leaf_sign: int,
             trail: list[tuple[SignedNode, int]]) -> BranchAnalysis:
    k = 0  # the Skeleton block is the longest run of Skeleton nodes from the root
    while k < len(trail) and trail[k][0].classes & SKELETON:
        k += 1
    pia = trail[k:][::-1]  # leaf side first
    p1 = tuple(node for node, _ in pia)
    good = all(node.classes & PIA for node in p1)
    excellent = good and all(SRA in node.classes for node in p1)
    srr_leaves: set[tuple[str, int]] = set()
    if good:
        for node, taken in pia:
            if SRR in node.classes:
                tones = node.term.tonicities()
                for i, a in enumerate(node.term.args):
                    if i != taken:  # a side term of the branch
                        srr_leaves.update(
                            (v, s) for v, s, _ in var_occurrences(a, node.sign * tones[i]))
    return BranchAnalysis(
        var=var, leaf_sign=leaf_sign, is_good=good, is_excellent=excellent,
        p1=p1, p2=tuple(node for node, _ in reversed(trail[:k])),
        srr_leaves=frozenset(srr_leaves))


def _sides(ineq: Inequality) -> tuple[list[BranchAnalysis], list[BranchAnalysis]]:
    """Branch analyses of +lhs and of -rhs."""
    return branches(ineq.lhs, MONO), branches(ineq.rhs, ANTI)


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


def _check_eps(analyses: list[BranchAnalysis], variables: tuple[str, ...],
               entries: tuple[str, ...], require_excellent: bool) -> InductiveWitness | None:
    eps = dict(zip(variables, entries))
    edges: set[tuple[str, str]] = set()
    for br in analyses:
        if not is_critical(br.leaf_sign, eps[br.var]):
            continue
        if not (br.is_excellent if require_excellent else br.is_good):
            return None
        # SRR side terms must agree with the opposite order type
        if any(is_critical(sign, eps[q]) for q, sign in br.srr_leaves):
            return None
        edges.update((q, br.var) for q, _ in br.srr_leaves)
    omega = _transitive_closure(edges)
    if omega is None:
        return None
    return InductiveWitness(variables, OrderType(entries), omega)


def _capped_variables(ineq: Inequality) -> tuple[str, ...]:
    variables = variables_of(ineq)
    if len(variables) > MAX_VARIABLES:
        raise ClassifyError(
            f"order-type search is capped at {MAX_VARIABLES} variables, "
            f"got {len(variables)}")
    return variables


def _eps_witnesses(variables: tuple[str, ...], analyses: list[BranchAnalysis],
                   require_excellent: bool):
    """The witness of each workable epsilon, lexicographically (1 before d)."""
    for entries in product("1d", repeat=len(variables)):
        w = _check_eps(analyses, variables, entries, require_excellent)
        if w is not None:
            yield w


def _witnesses(ineq: Inequality, require_excellent: bool):
    variables = _capped_variables(ineq)  # before any tree is built
    lhs, rhs = _sides(ineq)
    return _eps_witnesses(variables, lhs + rhs, require_excellent)


def is_sahlqvist(ineq: Inequality) -> OrderType | None:
    """Smallest (lexicographic, 1 before d) Sahlqvist order type, if any."""
    return next((w.epsilon for w in _witnesses(ineq, True)), None)


def is_inductive(ineq: Inequality) -> InductiveWitness | None:
    """First (lexicographic epsilon, minimal Omega) inductive witness."""
    return next(_witnesses(ineq, False), None)


def inductive_witnesses(ineq: Inequality) -> list[InductiveWitness]:
    """All inductive witnesses, one per workable epsilon, lexicographically."""
    return list(_witnesses(ineq, False))


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
            cand = spec.dot((sub,))
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


def _meta_witnesses(ineq: Inequality, sig: Signature):
    """The first witness of each inductive (lhs, rhs) preimage pair.  Each
    preimage is analysed when a pair first needs it, once per call."""
    b = _Budget(ANTI_SUBSTITUTION_BUDGET)
    lhs_pre = _preimages(ineq.lhs, sig, b)
    rhs_pre = _preimages(ineq.rhs, sig, b)
    # every preimage has the input's variables: registered terms have one
    variables = _capped_variables(ineq)
    analysed: dict[tuple[Term, int], list[BranchAnalysis]] = {}

    def analysis(t: Term, sign: int) -> list[BranchAnalysis]:
        found = analysed.get((t, sign))
        if found is None:
            found = analysed[t, sign] = branches(t, sign)
        return found

    for ls in lhs_pre:
        for rs in rhs_pre:
            if not b.spend(10):
                return
            w = next(_eps_witnesses(variables, analysis(ls, MONO) + analysis(rs, ANTI),
                                    False), None)
            if w is not None:
                yield Inequality(ls, rs), w


def meta_inductive_witnesses(ineq: Inequality,
                             sig: Signature) -> list[tuple[Inequality, InductiveWitness]]:
    """All (dotted preimage, witness) pairs, in deterministic search order."""
    return list(_meta_witnesses(ineq, sig))


def is_meta_inductive(ineq: Inequality,
                      sig: Signature) -> tuple[Inequality, InductiveWitness] | None:
    """The first (dotted preimage, witness) pair, if any."""
    return next(_meta_witnesses(ineq, sig), None)


# -- reporting ---------------------------------------------------------

def _node_label(node: SignedNode) -> str:
    t = node.term
    sgn = "+" if node.sign == MONO else "-"
    if isinstance(t, App):
        return sgn + t.decl.name
    spec = dotted_spec(t)
    if spec is not None:
        return sgn + spec.dotted + "."
    return sgn + {Meet: "&", Join: "|"}.get(type(t), type(t).__name__)


def branch_report(ineq: Inequality, eps: OrderType | None = None) -> str:
    """Per-branch P1/P2 split of both signed trees, for the CLI report."""
    variables = variables_of(ineq)
    eps_map = dict(zip(variables, eps.entries)) if eps is not None else None
    lines = []
    for label, side in zip(("+lhs", "-rhs"), _sides(ineq)):
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
