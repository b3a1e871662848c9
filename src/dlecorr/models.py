"""Finite perfect lattices of upsets, with brute-force semantic oracles.

A poset on n points (n small) gives the lattice of its upsets, encoded as
bitmasks over points: joins are unions, meets intersections.  Completely
join-irreducible elements are the principal upsets, completely
meet-irreducible ones the complements of principal downsets.  Every
finite distributive lattice arises this way, and a finite lattice is its
own canonical extension, so identities proved for canonical extensions
can be checked here exhaustively.

Operations for the signature's connectives are given by tables, by
relational generators (diamond/box of a binary relation on the points,
forced into the lattice with an upward closure/interior), or sampled
from values on irreducible tuples, which produces normal operations by
construction.  Defined modalities, their adjoints, residuals and the
lattice implications are computed from the tables by exhaustive adjoint
sweeps and cached.

Quantified checks (validity, pure quasi-inequalities, rule soundness)
enumerate valuations: propositional variables over all elements,
nominals over join-irreducibles, conominals over meet-irreducibles.  A
budget caps the number of valuations; exceeding it raises
BudgetExceeded rather than truncating silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product

from .language import (
    MONO, ROLE_SPECS, SPEC_BY_NODE, SPEC_BY_ROLE, App, Arrow, Bot, Coimp,
    ConnectiveDecl, Conominal, Inequality, Join, Meet, Nominal, OrderType,
    Residual, RoleSpec, Signature, Term, Top, Var, bot_unit, conominals_of,
    free_vars, nominals_of,
)
from .engine import System
from .printing import print_inequality

MAX_POINTS = 8
DEFAULT_BUDGET = 10 ** 7


class ModelError(ValueError):
    pass


class NormalityError(ModelError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class Budget:
    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(f"quantifier budget of {self.limit} exceeded")


@dataclass(frozen=True)
class Poset:
    """Points 0..n-1; up[i] is the bitmask of {j : i <= j}."""

    n: int
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (1 <= self.n <= MAX_POINTS):
            raise ModelError(f"poset size must be 1..{MAX_POINTS}")
        for i in range(self.n):
            if not self.up[i] & (1 << i):
                raise ModelError("order not reflexive")
            for j in range(self.n):
                if self.up[i] & (1 << j):
                    if i != j and self.up[j] & (1 << i):
                        raise ModelError("order not antisymmetric")
                    if self.up[j] & ~self.up[i]:
                        raise ModelError("order not transitive")

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] & (1 << j))

    def down(self, i: int) -> int:
        return sum(1 << j for j in range(self.n) if self.leq(j, i))

    def is_upset(self, mask: int) -> bool:
        return all(self.up[i] & mask == self.up[i] or not (mask & (1 << i))
                   for i in range(self.n))


def antichain(n: int) -> Poset:
    return Poset(n, tuple(1 << i for i in range(n)))


def chain(n: int) -> Poset:
    full = (1 << n) - 1
    return Poset(n, tuple(full & ~((1 << i) - 1) for i in range(n)))


def enumerate_posets(n: int, up_to_iso: bool = False) -> list[Poset]:
    """All posets on n labelled points, deterministic order; optionally
    one representative per isomorphism class."""
    if not (1 <= n <= 5):
        raise ModelError("poset enumeration supports 1..5 points")
    ups: list[tuple[int, ...]] = []
    # candidate strict orders as lists of (i, j) pairs below the diagonal
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits & (1 << k):
                rel[i][j] = True
        ok = True
        for i in range(n):
            for j in range(n):
                if i != j and rel[i][j] and rel[j][i]:
                    ok = False
                for k in range(n):
                    if rel[i][j] and rel[j][k] and not rel[i][k]:
                        ok = False
        if not ok:
            continue
        # the code of ``up`` grows with ``bits``, so ``ups`` ascends by code
        ups.append(tuple(sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)))
    if up_to_iso:
        ups = _orbit_representatives(ups, list(permutations(range(n))))
    return [Poset(n, up) for up in ups]


@lru_cache(maxsize=256)  # every permutation of up to 5 points
def _relabelling(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Every bitmask over ``len(perm)`` points with point j moved to perm[j]."""
    return tuple(sum(1 << perm[j] for j in range(len(perm)) if mask & (1 << j))
                 for mask in range(1 << len(perm)))


def _permute_rows(rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Row bitmasks over n points (a poset's ``up``, a relation's ``rows``)
    relabelled by ``perm``: row i becomes row perm[i]."""
    image = _relabelling(perm)
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = image[row]
    return tuple(out)


def _orbit_representatives(candidates, perms) -> list[tuple[int, ...]]:
    """The first of each orbit under ``perms`` among ``candidates``, row
    tuples in ascending order of their code sum(rows[i] << n*i): those
    that no permutation maps to a smaller code.  Codes compare as the
    reversed row tuples."""
    return [rows for rows in candidates
            if all(_permute_rows(rows, p)[::-1] >= rows[::-1] for p in perms)]


@dataclass(frozen=True)
class Relation:
    """Binary relation on poset points, as successor-row bitmasks."""

    rows: tuple[int, ...]

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Relation":
        rows = [0] * n
        for x, y in pairs:
            rows[x] |= 1 << y
        return cls(tuple(rows))

    def pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x, row in enumerate(self.rows)
                for y in range(len(self.rows)) if row & (1 << y)]


def diamond_of(poset: Poset, rel: Relation, mask: int) -> int:
    """Upward closure of the relational preimage; join-preserving and
    bottom-preserving on upsets by construction."""
    pre = 0
    for x in range(poset.n):
        if rel.rows[x] & mask:
            pre |= poset.up[x]
    return pre


def box_of(poset: Poset, rel: Relation, mask: int) -> int:
    """Largest upset inside {x : every successor of x lies in mask}."""
    core = sum(1 << x for x in range(poset.n) if rel.rows[x] & ~mask == 0)
    return sum(1 << x for x in range(poset.n) if poset.up[x] & ~core == 0)


@dataclass
class Valuation:
    var_map: dict[str, int] = field(default_factory=dict)
    nom_map: dict[str, int] = field(default_factory=dict)
    conom_map: dict[str, int] = field(default_factory=dict)

    def of_kind(self, kind: str) -> dict[str, int]:
        """The map of the symbols of ``kind``: "var", "nom" or "conom"."""
        return {"var": self.var_map, "nom": self.nom_map, "conom": self.conom_map}[kind]

    def describe(self, dle: "FiniteDLE") -> str:
        return " ".join(
            f"{tag}{name}={dle.element_points(idx)}"
            for tag, names in (("", self.var_map), ("#", self.nom_map),
                               ("@", self.conom_map))
            for name, idx in sorted(names.items()))


class FiniteDLE:
    """Lattice of upsets of a poset plus operation tables.

    Tables are nested lists indexed by element index (arity 0 is a bare
    index).  Normality is validated at construction per the declared
    order types; relational generators are accepted for unary
    connectives, diamonds for the F-family, boxes for the G-family.
    """

    def __init__(self, poset: Poset, sig: Signature, ops: dict | None = None,
                 validate: bool = True):
        self.poset = poset
        self.sig = sig
        self.elements: tuple[int, ...] = tuple(sorted(
            m for m in range(1 << poset.n) if poset.is_upset(m)))
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.n_elem = len(self.elements)
        self.bot = self.index[0]
        self.top = self.index[(1 << poset.n) - 1]
        self.join_table = [[self.index[a | b] for b in self.elements]
                           for a in self.elements]
        self.meet_table = [[self.index[a & b] for b in self.elements]
                           for a in self.elements]
        self.leq_table = [[(a & ~b) == 0 for b in self.elements]
                          for a in self.elements]
        self.jirr = tuple(self.index[poset.up[x]] for x in range(poset.n))
        self.mirr = tuple(self.index[((1 << poset.n) - 1) & ~poset.down(x)]
                          for x in range(poset.n))
        # denseness at finite scale: every element is the join of the
        # irreducibles below it and the meet of those above it
        for u in range(self.n_elem):
            assert self.join_all(self.approximants(u, True)) == u
            assert self.meet_all(self.approximants(u, False)) == u
        self.ops: dict[str, object] = {}
        self._cache: dict = {}
        for name, spec in sorted((ops or {}).items()):
            self.add_op(name, spec, validate=validate)

    # -- structure -------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return self.leq_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join_all(self, items) -> int:
        out = self.bot
        for x in items:
            out = self.join_table[out][x]
        return out

    def meet_all(self, items) -> int:
        out = self.top
        for x in items:
            out = self.meet_table[out][x]
        return out

    def approximants(self, u: int, bot: bool) -> list[int]:
        """The join-irreducibles below ``u`` (``bot``) or the
        meet-irreducibles above it, in point order."""
        if bot:
            return [j for j in self.jirr if self.leq_table[j][u]]
        return [m for m in self.mirr if self.leq_table[u][m]]

    def element_points(self, idx: int) -> str:
        mask = self.elements[idx]
        return "{" + ",".join(str(i) for i in range(self.poset.n)
                              if mask & (1 << i)) + "}"

    # -- operations -------------------------------------------------------

    def _decl_for(self, name: str):
        decl = self.sig.decl(name)
        if decl is not None:
            return decl
        for spec in ROLE_SPECS:
            if name == spec.dotted:
                entry = "1" if spec.tone == MONO else "d"
                return ConnectiveDecl(name, spec.family, 1, OrderType((entry,)))
        raise ModelError(f"operation {name!r} is not in the signature")

    def add_op(self, name: str, spec, validate: bool = True) -> None:
        decl = self._decl_for(name)
        if isinstance(spec, Relation):
            if decl.arity != 1 or decl.order_type[0] != "1":
                raise ModelError(
                    f"relational generator only fits unary (1) connectives, not {name}")
            gen = diamond_of if decl.family == "F" else box_of
            table = [self.index[gen(self.poset, spec, m)] for m in self.elements]
        else:
            table = spec
        self.ops[name] = table
        if validate:
            try:
                self._validate_normality(decl, table)
            except ModelError:
                del self.ops[name]
                raise
        self._cache.clear()

    def op_value(self, name: str, args: tuple[int, ...]) -> int:
        table = self.ops[name]
        for a in args:
            table = table[a]
        return table

    def _validate_normality(self, decl, table) -> None:
        """Each coordinate sends its unit to the operation's bound (bottom
        for F, top for G) and turns binary joins (bottom-unit coordinates)
        or meets into joins (F) or meets (G) of values."""
        arity = decl.arity
        if arity == 0:
            if not isinstance(table, int):
                raise ModelError(f"nullary {decl.name} needs a bare element index")
            return
        if decl.family == "F":
            bound, bound_name, outer = self.bot, "bottom", self.join_table
        else:
            bound, bound_name, outer = self.top, "top", self.meet_table
        idx_ranges = [range(self.n_elem)] * (arity - 1)
        for coord, tone in enumerate(decl.tonicities()):
            if bot_unit(decl.family, tone):
                unit, inner = self.bot, self.join_table
            else:
                unit, inner = self.top, self.meet_table
            for rest in product(*idx_ranges):
                def val(x: int) -> int:
                    args = list(rest[:coord]) + [x] + list(rest[coord:])
                    return self.op_value(decl.name, tuple(args))

                if val(unit) != bound:
                    raise NormalityError(
                        f"{decl.name} coordinate {coord + 1}: unit not "
                        f"sent to {bound_name} (args {rest})")
                for a in range(self.n_elem):
                    for b in range(a + 1, self.n_elem):
                        if val(inner[a][b]) != outer[val(a)][val(b)]:
                            raise NormalityError(
                                f"{decl.name} coordinate {coord + 1} fails "
                                f"normality at elements "
                                f"{self.element_points(a)},{self.element_points(b)}"
                                f" (args {rest})")

    # -- derived tables (cached) ------------------------------------------

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def role_table(self, role: str) -> list[int]:
        reg = self.sig.role(role)
        if reg is None:
            raise ModelError(f"role {role!r} has no registered term")

        def build():
            symbols, (f,) = _compile_terms([reg.term], self)
            return [f(_env(symbols, Valuation(var_map={reg.var: u})))
                    for u in range(self.n_elem)]

        return self._cached(("role", role), build)

    def def_table(self, role: str) -> list[int]:
        """The defined modality: the role term read off the irreducibles
        below (bottom-unit roles) or above the argument, joined for F
        roles and met for G roles."""
        spec = SPEC_BY_ROLE[role]

        def build():
            f = self.role_table(role)
            gather = self.join_all if spec.family == "F" else self.meet_all
            return [gather(f[x] for x in self.approximants(u, spec.bot_unit))
                    for u in range(self.n_elem)]

        return self._cached(("def", role), build)

    def black_table(self, role: str) -> list[int]:
        spec = SPEC_BY_ROLE[role]
        return self._cached(("black", role),
                            lambda: self._adjoint(spec, self.def_table(role)))

    def dot_adj_table(self, kind: str) -> list[int]:
        spec = {s.dotted + "_adj": s for s in ROLE_SPECS}[kind]
        if spec.dotted not in self.ops:
            raise ModelError(f"dotted connective {spec.dotted!r} has no table")
        return self._cached(("dotadj", kind),
                            lambda: self._adjoint(spec, self.ops[spec.dotted]))

    def _adjoint(self, spec: RoleSpec, t: list[int]) -> list[int]:
        """Adjoint of the unary operation ``t`` of ``spec``'s shape: the
        right adjoint of a diamond, the left adjoint of a box, the Galois
        adjoints of the two antitone ones."""
        return self._residual(1, 1, spec.family, spec.bot_unit, lambda args: t)

    def _residual(self, arity: int, coord: int, family: str, bot: bool, values):
        """The residual of an operation in ``coord``: at each argument
        tuple, the join (``bot``) or meet of the elements w whose value
        ``values(args)[w]``, the operation's with w in ``coord``, lies
        below (F) or above (G) the residuated argument."""
        h, leq, r = coord - 1, self.leq_table, range(self.n_elem)
        gather = self.join_all if bot else self.meet_all

        def residual_value(args: tuple[int, ...]) -> int:
            chi, vals = args[h], values(args)
            if family == "F":
                return gather(w for w in r if leq[vals[w]][chi])
            return gather(w for w in r if leq[chi][vals[w]])

        return _tabulate(self.n_elem, arity, residual_value)

    def residual_table(self, decl, coord: int):
        """The residual of ``decl`` in ``coord``, gathered by joins on
        bottom-unit coordinates and by meets on the others."""
        def build():
            if decl.arity > 3:
                raise ModelError("residual tables support arity <= 3")
            h = coord - 1
            return self._residual(
                decl.arity, coord, decl.family,
                bot_unit(decl.family, decl.tonicities()[h]),
                lambda args: [self.op_value(decl.name, args[:h] + (w,) + args[h + 1:])
                              for w in range(self.n_elem)])

        return self._cached(("res", decl.name, coord), build)

    def arrow_table(self):
        """a -> b: the meet's residual in its second coordinate."""
        return self._cached(("arrow",), lambda: self._residual(
            2, 2, "F", True, lambda args: self.meet_table[args[0]]))

    def coimp_table(self):
        """a -. b: the join's residual in its first coordinate."""
        return self._cached(("coimp",), lambda: self._residual(
            2, 1, "G", False, lambda args: self.join_table[args[1]]))


# ----------------------------------------------------------------------
# term compilation and evaluation

_LEAF_KINDS = {Var: "var", Nominal: "nom", Conominal: "conom"}


def _head_table(t: Term, dle: FiniteDLE):
    """The table of ``t``'s head on ``dle``: nested lists indexed by the
    arguments, a bare element for constants."""
    cls = type(t)
    if cls is Top:
        return dle.top
    if cls is Bot:
        return dle.bot
    if cls is Meet:
        return dle.meet_table
    if cls is Join:
        return dle.join_table
    if cls is Arrow:
        return dle.arrow_table()
    if cls is Coimp:
        return dle.coimp_table()
    if cls is App:
        if t.decl.name not in dle.ops:
            raise ModelError(f"no table for connective {t.decl.name!r}")
        return dle.ops[t.decl.name]
    if cls is Residual:
        return dle.residual_table(t.decl, t.coord)
    spec = SPEC_BY_NODE.get(cls)
    if spec is None:
        raise ModelError(f"cannot evaluate {cls.__name__}")
    if cls is spec.dot:
        if spec.dotted not in dle.ops:
            raise ModelError(
                f"dotted connective has no table on this lattice ({cls.__name__})")
        return dle.ops[spec.dotted]
    if cls is spec.dot_adj:
        return dle.dot_adj_table(spec.dotted + "_adj")
    if cls is spec.defined:
        return dle.def_table(spec.role)
    return dle.black_table(spec.role)


def _compile(t: Term, dle: FiniteDLE, pos: dict[tuple[str, str], int]):
    kind = _LEAF_KINDS.get(type(t))
    if kind is not None:
        i = pos[(kind, t.name)]
        return lambda env: env[i]
    table = _head_table(t, dle)
    subs = [_compile(a, dle, pos) for a in t.args]
    if not subs:
        return lambda env: table
    if len(subs) == 1:
        f = subs[0]
        return lambda env: table[f(env)]
    if len(subs) == 2:
        f, g = subs
        return lambda env: table[f(env)][g(env)]

    def apply_n(env):
        cur = table
        for s in subs:
            cur = cur[s(env)]
        return cur

    return apply_n


def _compile_terms(terms, dle: FiniteDLE):
    """The symbols of ``terms`` (variables, nominals, conominals, each
    sorted) and each term compiled to a function of an environment, the
    tuple of the symbols' values."""
    vs: set[str] = set()
    ns: set[str] = set()
    cs: set[str] = set()
    for t in terms:
        vs |= free_vars(t)
        ns |= nominals_of(t)
        cs |= conominals_of(t)
    symbols = ([("var", v) for v in sorted(vs)] + [("nom", v) for v in sorted(ns)]
               + [("conom", v) for v in sorted(cs)])
    pos = {sym: i for i, sym in enumerate(symbols)}
    return symbols, [_compile(t, dle, pos) for t in terms]


def _env(symbols, val: Valuation) -> tuple[int, ...]:
    env = []
    for kind, name in symbols:
        source = val.of_kind(kind)
        if name not in source:
            raise ModelError(f"unbound {kind} {name!r}")
        env.append(source[name])
    return tuple(env)


def eval_term(t: Term, dle: FiniteDLE, val: Valuation,
              budget: Budget | None = None) -> int:
    """Evaluate one term under one valuation."""
    if budget is not None:
        budget.spend()
    symbols, (f,) = _compile_terms([t], dle)
    return f(_env(symbols, val))


def _domain(dle: FiniteDLE, kind: str) -> tuple[int, ...]:
    if kind == "var":
        return tuple(range(dle.n_elem))
    if kind == "nom":
        return dle.jirr
    return dle.mirr


def _counterexample(premises, conclusion: Inequality, dle: FiniteDLE,
                    budget: Budget) -> Valuation | None:
    """The first valuation, in enumeration order, under which every
    premise holds and the conclusion fails; one budget unit per
    valuation tried."""
    ineqs = [*premises, conclusion]
    symbols, fs = _compile_terms([t for iq in ineqs for t in (iq.lhs, iq.rhs)], dle)
    *ants, (gl, gr) = zip(fs[::2], fs[1::2])
    leq = dle.leq_table
    for env in product(*(_domain(dle, kind) for kind, _ in symbols)):
        budget.spend()
        if not leq[gl(env)][gr(env)] and all(leq[l(env)][r(env)] for l, r in ants):
            val = Valuation()
            for (kind, name), x in zip(symbols, env):
                val.of_kind(kind)[name] = x
            return val
    return None


def check_validity(ineq: Inequality, dle: FiniteDLE,
                   budget: Budget | None = None
                   ) -> tuple[bool, Valuation | None]:
    """Quantify everything universally; on failure return the first
    counterexample valuation."""
    ce = _counterexample((), ineq, dle, budget or Budget())
    return ce is None, ce


def _quasi_holds(system: System, dle: FiniteDLE, budget: Budget) -> bool:
    """Universal closure of (all antecedents) => goal."""
    if system.goal is None:
        raise ModelError("system has no goal")
    return _counterexample([si.ineq for si in system.ineqs], system.goal,
                           dle, budget) is None


def check_quasi(systems, dle: FiniteDLE, budget: Budget | None = None) -> bool:
    """Validity of a set of pure quasi-inequalities (success output)."""
    budget = budget or Budget()
    for system in systems:
        for si in system.ineqs:
            if free_vars(si.ineq.lhs) | free_vars(si.ineq.rhs):
                raise ModelError(
                    f"quasi-inequality is not pure: {print_inequality(si.ineq)}")
        if not _quasi_holds(system, dle, budget):
            return False
    return True


def verify_rule_step(parent: System, children, dle: FiniteDLE,
                     budget: Budget | None = None) -> bool:
    """Semantic soundness of one rule application: the parent system's
    quasi-inequality holds iff all children's do (fresh symbols of a
    child are quantified on the child side)."""
    budget = budget or Budget()
    before = _quasi_holds(parent, dle, budget)
    after = all(_quasi_holds(child, dle, budget) for child in children)
    return before == after


def role_axiom_holds(dle: FiniteDLE, role: str) -> bool:
    """The registered term of ``role`` satisfies the role's axiom: it sends
    binary joins (bottom-unit roles) or meets into joins of values (F
    roles), or values' meets into it (G roles).  For pi this is
    additivity, for sigma multiplicativity."""
    spec = SPEC_BY_ROLE[role]
    f = dle.role_table(role)
    leq = dle.leq_table
    inner = dle.join_table if spec.bot_unit else dle.meet_table
    r = range(dle.n_elem)
    if spec.family == "F":
        outer = dle.join_table
        return all(leq[f[inner[a][b]]][outer[f[a]][f[b]]] for a in r for b in r)
    outer = dle.meet_table
    return all(leq[outer[f[a]][f[b]]][f[inner[a][b]]] for a in r for b in r)


def role_axioms_hold(dle: FiniteDLE) -> bool:
    """The registered terms satisfy their additivity-style axioms."""
    return all(role_axiom_holds(dle, reg.role) for reg in dle.sig.registered)


@dataclass
class CorrespondenceReport:
    lattices: int = 0
    skipped: int = 0
    divergences: list = field(default_factory=list)

    @property
    def agree(self) -> bool:
        return not self.divergences


def verify_correspondence(ineq: Inequality, derivation, dles,
                          budget: Budget | None = None) -> CorrespondenceReport:
    """Check input validity against the reduced output on each lattice.

    Lattices that do not satisfy the registered role axioms are skipped
    for enhanced-mode derivations (the role rules are only sound there).
    """
    if derivation.status.kind != "success":
        raise ModelError("verify_correspondence needs a successful derivation")
    systems = derivation.status.pure_systems
    report = CorrespondenceReport()
    for dle in dles:
        if derivation.mode == "albae" and not role_axioms_hold(dle):
            report.skipped += 1
            continue
        report.lattices += 1
        b = budget or Budget()
        left, _ = check_validity(ineq, dle, b)
        right = check_quasi(systems, dle, b)
        if left != right:
            report.divergences.append((dle, left, right))
    return report


@dataclass
class LemmaSuiteReport:
    role_results: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(all(v for v in res.values()) for res in self.role_results.values())


def check_lemma_suite(dle: FiniteDLE, rng=None) -> LemmaSuiteReport:
    """Exhaustive check of the defined-modality identities on one lattice:
    adjunctions, join/meet preservation, the irreducible-witness form,
    the bounded-composition identity against the additivity axiom, and
    the pseudo-correspondent biconditional for pi."""
    report = LemmaSuiteReport()
    n = dle.n_elem
    rng_subsets: list[list[int]] = []
    if rng is not None:
        rng_subsets = [[x for x in range(n) if rng.random() < 0.5]
                       for _ in range(50)]
    for reg in dle.sig.registered:
        role = reg.role
        f = dle.role_table(role)
        g = dle.def_table(role)
        adj = dle.black_table(role)
        res: dict[str, bool] = {}
        if role == "pi":
            res["adjunction"] = all(
                dle.leq(g[u], w) == dle.leq(u, adj[w])
                for u in range(n) for w in range(n))
            res["join_preserving"] = g[dle.bot] == dle.bot and all(
                g[dle.join(a, b)] == dle.join(g[a], g[b])
                for a in range(n) for b in range(n))
            if rng_subsets:
                res["join_preserving_subsets"] = all(
                    g[dle.join_all(s)] == dle.join_all(g[x] for x in s)
                    for s in rng_subsets)
            res["below_f"] = all(dle.leq(g[u], f[u]) for u in range(n))
            res["agrees_on_jirr"] = all(g[j] == f[j] for j in dle.jirr)
            res["irreducible_form"] = all(
                g[u] == dle.join_all(
                    j2 for j2 in dle.jirr
                    if any(dle.leq(i, u) and dle.leq(j2, f[i]) for i in dle.jirr))
                for u in range(n))
            additive = role_axiom_holds(dle, role)
            identity = all(f[u] == dle.join(f[dle.bot], g[u]) for u in range(n))
            c_pi = all(
                (not dle.leq(f[dle.bot], m)) or dle.leq(f[adj[m]], m)
                for m in dle.mirr)
            res["identity_iff_additive"] = identity == additive
            res["c_pi_iff_additive"] = c_pi == additive
            report.notes.append(
                f"pi: additive={additive} identity={identity} c_pi={c_pi}")
        elif role == "sigma":
            res["adjunction"] = all(
                dle.leq(adj[u], w) == dle.leq(u, g[w])
                for u in range(n) for w in range(n))
            res["meet_preserving"] = g[dle.top] == dle.top and all(
                g[dle.meet(a, b)] == dle.meet(g[a], g[b])
                for a in range(n) for b in range(n))
            res["above_f"] = all(dle.leq(f[u], g[u]) for u in range(n))
            res["agrees_on_mirr"] = all(g[m] == f[m] for m in dle.mirr)
            multiplicative = role_axiom_holds(dle, role)
            identity = all(f[u] == dle.meet(f[dle.top], g[u]) for u in range(n))
            res["identity_iff_multiplicative"] = identity == multiplicative
            report.notes.append(
                f"sigma: multiplicative={multiplicative} identity={identity}")
        elif role == "lambda":
            res["galois"] = all(
                dle.leq(g[u], w) == dle.leq(adj[w], u)
                for u in range(n) for w in range(n))
            res["below_f"] = all(dle.leq(g[u], f[u]) for u in range(n))
            res["agrees_on_mirr"] = all(g[m] == f[m] for m in dle.mirr)
            axiom = role_axiom_holds(dle, role)
            identity = all(f[u] == dle.join(f[dle.top], g[u]) for u in range(n))
            res["identity_iff_axiom"] = identity == axiom
        else:  # rho
            res["galois"] = all(
                dle.leq(u, g[w]) == dle.leq(w, adj[u])
                for u in range(n) for w in range(n))
            res["above_f"] = all(dle.leq(f[u], g[u]) for u in range(n))
            res["agrees_on_jirr"] = all(g[j] == f[j] for j in dle.jirr)
            axiom = role_axiom_holds(dle, role)
            identity = all(f[u] == dle.meet(f[dle.bot], g[u]) for u in range(n))
            res["identity_iff_axiom"] = identity == axiom
        report.role_results[role] = res
    return report


# ----------------------------------------------------------------------
# lattice/ops import format

def load_dle(text: str, sig: Signature) -> FiniteDLE:
    """Text format: ``points N``; ``leq a<=b ...`` pairs (closure taken);
    ``rel name : (a,b) (c,d)`` relational generators; ``table name : i i
    ...`` row-major element indices."""
    npoints = None
    pairs: list[tuple[int, int]] = []
    op_lines: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "points":
            npoints = int(rest.strip())
        elif head == "leq":
            for chunk in rest.split():
                a, _, b = chunk.partition("<=")
                pairs.append((int(a), int(b)))
        elif head in ("rel", "table"):
            name, _, body = rest.partition(":")
            op_lines.append((head, name.strip(), body.strip()))
        else:
            raise ModelError(f"line {lineno}: cannot parse {line!r}")
    if npoints is None:
        raise ModelError("missing 'points' line")
    up = [1 << i for i in range(npoints)]
    for a, b in pairs:
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(npoints):
            for j in range(npoints):
                if up[i] & (1 << j) and up[j] & ~up[i]:
                    up[i] |= up[j]
                    changed = True
    poset = Poset(npoints, tuple(up))
    dle = FiniteDLE(poset, sig)
    for kind, name, body in op_lines:
        if kind == "rel":
            rel_pairs = []
            for chunk in body.replace("(", " ").replace(")", " ").split():
                a, _, b = chunk.partition(",")
                rel_pairs.append((int(a), int(b)))
            dle.add_op(name, Relation.from_pairs(npoints, rel_pairs))
        else:
            values = [int(v) for v in body.split()]
            decl = dle._decl_for(name)
            need = dle.n_elem ** decl.arity
            if len(values) != need:
                raise ModelError(
                    f"table {name}: expected {need} entries, got {len(values)}")
            it = iter(values)
            dle.add_op(name, _tabulate(dle.n_elem, decl.arity, lambda _: next(it)))
    return dle


def _tabulate(n: int, arity: int, value, prefix: tuple[int, ...] = ()):
    """Nested-list table of ``value`` over all argument tuples of ``arity``
    elements out of ``n``, computed in row-major order; a bare value at
    arity 0."""
    if len(prefix) == arity:
        return value(prefix)
    return [_tabulate(n, arity, value, prefix + (x,)) for x in range(n)]


# ----------------------------------------------------------------------
# sweeps and random operations

def canonical_relations(poset: Poset) -> list[Relation]:
    """All relations on the poset's points, one per orbit under the
    poset's automorphism group, in ascending encoding order."""
    n = poset.n
    autos = [p for p in permutations(range(n)) if _permute_rows(poset.up, p) == poset.up]
    row = (1 << n) - 1
    codes = (tuple((code >> (n * i)) & row for i in range(n))
             for code in range(1 << (n * n)))
    return [Relation(rows) for rows in _orbit_representatives(codes, autos)]


def relational_lattices(sig: Signature, poset: Poset,
                        names: tuple[str, ...] = ("dia", "box")):
    """All complex-algebra style lattices over one poset: each canonical
    relation interprets every listed unary connective (diamonds for the
    F-family, boxes for the G-family, same relation throughout)."""
    for rel in canonical_relations(poset):
        dle = FiniteDLE(poset, sig)
        for name in names:
            dle.add_op(name, rel, validate=False)
        yield rel, dle


def relational_sweep(sig: Signature, max_points: int = 3):
    """(relation, lattice) for every poset up to isomorphism on 1 to
    ``max_points`` points and every relation up to automorphism, the
    relation interpreting all unary type-(1) connectives.  Empty unless
    every connective of the signature is one of those."""
    names = tuple(d.name for d in sig.connectives
                  if d.arity == 1 and d.order_type[0] == "1")
    if not names or len(names) != len(sig.connectives):
        return
    for n in range(1, max_points + 1):
        for poset in enumerate_posets(n, up_to_iso=True):
            yield from relational_lattices(sig, poset, names)


@lru_cache(maxsize=None)
def _labelled_posets(n: int) -> tuple[Poset, ...]:
    return tuple(enumerate_posets(n))


def random_poset(rng, max_points: int = 4) -> Poset:
    n = rng.randint(1, max_points)
    posets = _labelled_posets(n)
    return posets[rng.randrange(len(posets))]


def random_normal_table(rng, dle: FiniteDLE, decl):
    """Random normal operation from values on irreducible tuples: each
    bottom-unit coordinate ranges over join-irreducibles below its argument,
    each other one over meet-irreducibles above it, and the values of the
    tuples in range are joined (F) or met (G)."""
    n = dle.n_elem
    if decl.arity == 0:
        return rng.randrange(n)
    bots = [bot_unit(decl.family, tone) for tone in decl.tonicities()]
    gens = [dle.jirr if bot else dle.mirr for bot in bots]
    assignment = {combo: rng.randrange(n) for combo in product(*gens)}
    gather = dle.join_all if decl.family == "F" else dle.meet_all

    def value(args: tuple[int, ...]) -> int:
        return gather(assignment[combo] for combo in product(
            *(dle.approximants(u, bot) for u, bot in zip(args, bots))))

    return _tabulate(n, decl.arity, value)


def random_dle(rng, sig: Signature, max_points: int = 4,
               validate: bool = False) -> FiniteDLE:
    poset = random_poset(rng, max_points)
    dle = FiniteDLE(poset, sig)
    for decl in sig.connectives:
        dle.add_op(decl.name, random_normal_table(rng, dle, decl),
                   validate=validate)
    return dle
