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
construction.

Derived tables (the role terms, the defined modalities off them, and
every residual, the adjoints and the lattice implications included) are
built in bulk and cached in the lattice's ``_cache``, under keys that are
tuples starting with a string; a known table, like the role axioms'
verdicts, is one dict read.  A defined modality and each vector of a
residual are pushed from the irreducibles (``_push``),
bit-sliced over the elements, one byte each: the value's upset mask
times the skeleton's int of the elements above or below the
irreducible, or-ed over the irreducibles and read back to indices by one
``bytes.translate``.  A residual in any coordinate of any arity takes
that one path, its other coordinates moved round by zip-transposes.

Quantified checks (validity, pure quasi-inequalities, rule soundness)
enumerate valuations: propositional variables over all elements,
nominals over join-irreducibles, conominals over meet-irreducibles.  A
budget caps the number of valuations, counted in enumeration order up to
the one found, whether tried or skipped; exceeding it raises
BudgetExceeded rather than truncating silently.  They run through
compiled search kernels (``_Plan``), one per tuple of interned terms,
kept in a bounded cache.  ``verify_rule_step`` keeps one verdict per
system on each lattice, in ``_cache`` under the system's check terms (a
tuple of terms, never equal to a derived table's key); ``add_op`` clears
the tables and verdicts, and the other checks keep none.

``check_lemma_suite`` and ``role_axiom_holds`` check every element pair
bit-sliced, one byte per pair (a, b) in row-major order: a table becomes
a 256-byte translation table from element index to the upset mask of its
value, the poset's pair strings read through it give the table at every
pair as one int, and on such ints the lattice's join is ``|``, its meet
``&`` and its order inclusion.  A mask fits a byte, as ``MAX_POINTS`` is
8, and an index too, as a lattice then has at most 256 elements.

The part of a lattice that depends only on its poset (elements, bounds,
join, meet and order tables, irreducibles, the bit-sliced ints and
translation tables) is built once per ``Poset`` and shared, read-only,
by every lattice on it.

The relational sweep walks relations by code, one per orbit under the
poset's automorphisms (``canonical_relations``), on at most
``RELATION_POINTS`` (4) points; a relation's diamond and box tables are a
few ``bytes.translate`` calls over point masks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import permutations, product
from operator import and_, getitem, mul, or_

from .language import (
    JOIN, MEET, MONO, SPEC_BY_DEFINED, SPEC_BY_DOTTED, SPEC_BY_ROLE, App, Bot,
    Conominal, Inequality, Join, Meet, Nominal, Residual, Signature, Term, Top,
    Var, bot_unit,
)
from .printing import print_inequality

# an upset mask fits a byte, and so does an element index (at most 256
# elements), which the bit-sliced pair checks need
MAX_POINTS = 8
DEFAULT_BUDGET = 10 ** 7
# relations are enumerated by code, 2^(n*n) of them on n points, with one
# orbit mark per code: 64 KiB at 4 points, 32 MiB at 5
RELATION_POINTS = 4
# the cache keys of each role's tables and axiom verdict: a lattice stores
# these tuples, not its own equal ones, so its keys take no memory
_ROLE_KEYS = {key: key for role in SPEC_BY_ROLE
              for key in (("role", role), ("def", role), ("axiom", role))}


class ModelError(ValueError):
    pass


class NormalityError(ModelError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class Budget:
    """A cap on the valuations the quantified checks enumerate.  A unit is
    a valuation in enumeration order up to the one a search finds, or to
    the last: tried or skipped, since a skipped valuation is one that an
    order test at an outer loop already decided.  Spending past ``limit``
    raises BudgetExceeded; a search stops at the first unit past it."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(f"quantifier budget of {self.limit} exceeded")

    def replay(self, n: int) -> None:
        """Spend what a search of ``n`` valuations spends: ``n`` when it
        fits the room left, in one addition, else one more than the room
        left, which raises as the search does."""
        room = self.limit - self.used
        if n <= room:
            self.used += n
        else:
            self.spend(min(n, max(room, 0) + 1))


@dataclass(frozen=True)
class Poset:
    """Points 0..n-1; up[i] is the bitmask of {j : i <= j}."""

    n: int
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (1 <= self.n <= MAX_POINTS):
            raise ModelError(f"poset size must be 1..{MAX_POINTS}")
        if len(self.up) != self.n or any(row >> self.n for row in self.up):
            raise ModelError(f"up must be {self.n} bitmasks over {self.n} points")
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

    @cached_property
    def skeleton(self) -> "_Skeleton":
        """Its upset lattice without operations, shared by every lattice
        on this poset."""
        return _Skeleton(self)


class _Skeleton:
    """The upsets of a poset as element indices, in ascending mask order,
    with the bounds, the join, meet and order tables, the irreducibles,
    and, bit-sliced over the elements, one byte each, the elements above
    each element x (``above[x]``: byte u is 1 exactly when x lies below
    u) and below it.  Translation tables: element index to upset mask
    (``mask_of``); ``codes[join]``, that and upset mask back to index,
    for a meet (``join`` false) both through the complement, as a meet is
    the complement of the join of the complements; upward and downward
    closure over point masks.  The pair checks read every element pair
    (a, b) as byte ``a * n_elem + b`` of ``pair_a`` and ``pair_b``, and
    the join and meet tables flattened in that order.  Nothing writes to
    these tables, so lattices share them; each lattice copies the
    ``LATTICE`` slots as attributes of its own."""

    LATTICE = ("elements", "index", "n_elem", "bot", "top", "join_table",
               "meet_table", "leq_table", "jirr", "mirr")
    __slots__ = LATTICE + ("above", "below", "mask_of", "codes", "pair_a", "pair_b",
                           "join_flat", "meet_flat", "upclose", "downclose")

    def __init__(self, poset: Poset):
        full = (1 << poset.n) - 1
        self.elements: tuple[int, ...] = tuple(
            m for m in range(full + 1) if poset.is_upset(m))
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.n_elem = len(self.elements)
        self.bot = self.index[0]
        self.top = self.index[full]
        self.join_table = [[self.index[a | b] for b in self.elements]
                           for a in self.elements]
        self.meet_table = [[self.index[a & b] for b in self.elements]
                           for a in self.elements]
        self.leq_table = [[(a & ~b) == 0 for b in self.elements]
                          for a in self.elements]
        self.above = tuple(int.from_bytes(bytes(row), "little") for row in self.leq_table)
        self.below = tuple(int.from_bytes(bytes(col), "little")
                           for col in zip(*self.leq_table))
        self.jirr = tuple(self.index[poset.up[x]] for x in range(poset.n))
        self.mirr = tuple(self.index[full & ~poset.down(x)] for x in range(poset.n))
        r = range(self.n_elem)
        self.mask_of = bytes(self.elements).ljust(256, b"\0")
        self.codes = tuple((bytes(flip ^ m for m in self.elements).ljust(256, b"\0"),
                            bytes(self.index.get(flip ^ m, 0) for m in range(256)))
                           for flip in (full, 0))
        self.pair_a = bytes(a for a in r for _ in r)
        self.pair_b = bytes(r) * self.n_elem
        self.join_flat = bytes(v for row in self.join_table for v in row)
        self.meet_flat = bytes(v for row in self.meet_table for v in row)
        self.upclose = _unions(poset.up)
        self.downclose = _unions([poset.down(x) for x in range(poset.n)])
        # denseness at finite scale: every element is the join of the
        # irreducibles below it and the meet of those above it
        ups = [self.elements[j] for j in self.jirr]
        downs = [self.elements[m] for m in self.mirr]
        for u in self.elements:
            assert reduce(or_, (j for j in ups if j & ~u == 0), 0) == u
            assert reduce(and_, (m for m in downs if u & ~m == 0), full) == u


def antichain(n: int) -> Poset:
    return Poset(n, tuple(1 << i for i in range(n)))


def chain(n: int) -> Poset:
    full = (1 << n) - 1
    return Poset(n, tuple(full & ~((1 << i) - 1) for i in range(n)))


def enumerate_posets(n: int, up_to_iso: bool = False) -> list[Poset]:
    """All posets on n labelled points, in ascending order of their code
    sum(up[i] << n*i), which compares as the reversed ``up``; optionally
    one representative per isomorphism class.

    Each poset on points 0..m extends one on 0..m-1 by the point m with a
    strict upset ``above`` and a disjoint strict downset ``below`` whose
    points all lie under ``above``.
    """
    if not (1 <= n <= 5):
        raise ModelError("poset enumeration supports 1..5 points")
    ups: list[tuple[int, ...]] = [()]
    for m in range(n):
        new = 1 << m
        extended = []
        for up in ups:
            upsets = [s for s in range(new)
                      if all(up[i] & ~s == 0 for i in range(m) if s >> i & 1)]
            downsets = [(new - 1) & ~s for s in upsets]
            for above in upsets:
                room = sum(1 << i for i in range(m) if above & ~up[i] == 0)
                for below in downsets:
                    if below & ~room == 0 and not below & above:
                        extended.append(tuple(row | new if below >> i & 1 else row
                                              for i, row in enumerate(up))
                                        + (above | new,))
        ups = extended
    ups.sort(key=lambda rows: rows[::-1])
    if up_to_iso:
        position = {up: i for i, up in enumerate(ups)}
        perms = list(permutations(range(n)))[1:]
        ups = [ups[i] for i in _orbit_representatives(
            len(ups), lambda i: [position[_permute_rows(ups[i], p)] for p in perms])]
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


def _orbit_representatives(size: int, images) -> list[int]:
    """The least member of each orbit of the codes 0..size-1 under a
    group, in ascending order, where ``images(code)`` gives the code's
    images under the group's elements (the identity's may be left out).
    Walked in ascending order, the first unmarked code of an orbit is its
    least member: it is kept and its images are marked, one byte per
    code."""
    marks = bytearray(size)
    kept = []
    code = 0
    while code >= 0:
        kept.append(code)
        for image in images(code):
            marks[image] = 1
        code = marks.find(0, code + 1)
    return kept


def _unions(rows) -> bytes:
    """The translation table whose byte s is the union of ``rows[x]`` over
    the points x in the point mask s, for every s."""
    out = [0]
    for row in rows:
        out += [u | row for u in out]
    return bytes(out).ljust(256, b"\0")


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

    def preimages(self) -> bytes:
        """The translation table whose byte m is the mask of the points
        with a successor in the point mask m, for every m."""
        return _unions([sum((row >> y & 1) << x for x, row in enumerate(self.rows))
                        for y in range(len(self.rows))])


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
    The lattice structure (elements, bounds, join/meet/order tables,
    irreducibles) is the poset's shared skeleton; the operations and the
    derived tables belong to the lattice.
    """

    def __init__(self, poset: Poset, sig: Signature, ops: dict | None = None,
                 validate: bool = True):
        self.poset = poset
        self.sig = sig
        skeleton = poset.skeleton
        for name in _Skeleton.LATTICE:
            setattr(self, name, getattr(skeleton, name))
        self.ops: dict[str, object] = {}
        # derived tables, keyed by tuples that start with a string, and
        # rule-step verdicts, keyed by tuples of terms (verify_rule_step)
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
        decl = self.sig.connective(name)
        if decl is None:
            raise ModelError(f"operation {name!r} is not in the signature")
        return decl

    def add_op(self, name: str, spec, validate: bool = True) -> None:
        decl = self._decl_for(name)
        if isinstance(spec, Relation):
            if len(spec.rows) != self.poset.n:
                raise ModelError(f"a relation on {len(spec.rows)} points does "
                                 f"not fit a poset on {self.poset.n}")
            spec = self._relational_table(decl, spec.preimages())
        if validate:  # a rejected table leaves the lattice as it was
            self._validate_normality(decl, spec)
        self.ops[name] = spec
        self._cache.clear()

    def _relational_table(self, decl, pre: bytes) -> list[int]:
        """The diamond (F) or box (G) of a relation whose preimage table
        (``Relation.preimages``) is ``pre``, at every element.  The
        diamond of an upset is the upward closure of its preimage; the
        box, its dual, the complement of the downward closure of the
        preimage of its complement: the largest upset whose points have
        all their successors in it."""
        if decl.arity != 1 or decl.order_type[0] != "1":
            raise ModelError(
                f"relational generator only fits unary (1) connectives, not {decl.name}")
        sk, is_f = self.poset.skeleton, decl.family == "F"
        into, out = sk.codes[is_f]
        closure = sk.upclose if is_f else sk.downclose
        return list(into[:self.n_elem].translate(pre).translate(closure).translate(out))

    def _validate_normality(self, decl, table) -> None:
        """``table`` is a nested list, ``decl.arity`` deep, of element
        indices; each coordinate sends its unit to the operation's bound
        (bottom for F, top for G) and turns binary joins (bottom-unit
        coordinates) or meets into joins (F) or meets (G) of values,
        checked at every pair at once (``_pair_sides``) on each vector of
        the table along the coordinate."""
        arity, n = decl.arity, self.n_elem
        if not _well_formed(table, arity, n):
            raise ModelError(f"{decl.name} needs " + (
                f"a bare element index below {n}" if arity == 0 else
                f"a table nested {arity} deep with {n} rows a level and entries below {n}"))
        if arity == 0:
            return
        is_f = decl.family == "F"
        bound, bound_name = (self.bot, "bottom") if is_f else (self.top, "top")
        for coord, tone in enumerate(decl.tonicities()):
            bot = bot_unit(decl.family, tone)
            for rest, val in zip(product(range(n), repeat=arity - 1),
                                 _vectors(table, coord, arity)):
                if val[self.bot if bot else self.top] != bound:
                    raise NormalityError(
                        f"{decl.name} coordinate {coord + 1}: unit not "
                        f"sent to {bound_name} (args {rest})")
                x, y = _pair_sides(self.poset.skeleton, val, bot, is_f)
                if x != y:  # the lowest byte that differs: the first pair, a < b
                    diff = x ^ y
                    a, b = divmod((diff & -diff).bit_length() - 1 >> 3, n)
                    raise NormalityError(
                        f"{decl.name} coordinate {coord + 1} fails normality at elements "
                        f"{self.element_points(a)},{self.element_points(b)} (args {rest})")

    # -- derived tables (cached) ------------------------------------------

    def role_table(self, role: str) -> list[int]:
        key = "role", role
        table = self._cache.get(key)
        if table is None:
            reg = self.sig.role(role)
            if reg is None:
                raise ModelError(f"role {role!r} has no registered term")
            table = self._cache[_ROLE_KEYS.get(key, key)] = _row(reg.term, reg.var, self)
        return table

    def _push(self, xs, vs, up: bool, join: bool) -> list[int]:
        """The table whose entry at u joins (``join``) or meets the values
        ``vs[k]`` whose ``xs[k]`` lies below u (``up``) or above it.
        Bit-sliced, one byte per element: one multiply-or per pair places
        the value's upset mask (complemented for a meet) at the elements
        above or below x, and one translation reads the masks back as
        indices (``_Skeleton.codes``)."""
        sk = self.poset.skeleton
        into, out = sk.codes[join]
        reach, acc = sk.above if up else sk.below, 0
        for x, mask in zip(xs, bytes(vs).translate(into)):
            acc |= reach[x] * mask
        return list(acc.to_bytes(self.n_elem, "little").translate(out))

    def def_table(self, role: str) -> list[int]:
        """The defined modality: the role term read off the irreducibles
        below (bottom-unit roles) or above the argument, joined for F
        roles and met for G roles."""
        key = "def", role
        table = self._cache.get(key)
        if table is None:
            spec = SPEC_BY_ROLE[role]
            f, gens = self.role_table(role), self.jirr if spec.bot_unit else self.mirr
            table = self._cache[_ROLE_KEYS.get(key, key)] = self._push(
                gens, map(f.__getitem__, gens), spec.bot_unit, spec.family == "F")
        return table

    def op_table(self, decl):
        """The table of the operation ``decl``: the one in ``ops``, by name,
        where a connective and a dotted marker may share a name and so a
        table, else the lattice's meet or join, or a defined modality's
        (``SPEC_BY_DEFINED``), whose names no signature can declare
        (``HARD_RESERVED``)."""
        name = decl.name
        table = self.ops.get(name)
        if table is not None:
            return table
        if name == MEET.name:
            return self.meet_table
        if name == JOIN.name:
            return self.join_table
        spec = SPEC_BY_DEFINED.get(decl)
        if spec is None:
            raise ModelError(f"no table for connective {name!r}")
        return self.def_table(spec.role)

    def residual_table(self, decl, coord: int):
        """The residual of the normal operation ``decl`` in ``coord``: at
        each argument tuple, the join (bottom-unit coordinates) or meet of
        the elements w, by normality the irreducibles w, whose value, the
        operation's with w in ``coord`` (``op_table``), lies below (F) or
        above (G) the residuated argument (``_residual``).  (A table added
        unvalidated that is not normal is no DLE operation.)  The cache key
        holds the declaration as plain values that hash fast; a residual of
        a dotted marker shares its entry with that of a connective of its
        name."""
        key = "res", decl.name, decl.family, decl.order_type.entries, coord
        table = self._cache.get(key)
        if table is None:
            op = self.op_table(decl)
            if decl.arity > 3:
                raise ModelError("residual tables support arity <= 3")
            h, up = coord - 1, decl.family == "F"
            bot = bot_unit(decl.family, decl.tonicities()[h])
            gens = self.jirr if bot else self.mirr
            table = self._cache[key] = self._residual(op, h, decl.arity, gens, up, bot)
        return table

    def _residual(self, table, h: int, arity: int, gens, up: bool, join: bool):
        """Each vector of ``table``, ``arity`` deep, along axis ``h``, read
        at the irreducibles ``gens`` and pushed to the residual's vector
        there, in every arity: the axes after h are moved in front of it
        and back by zip-transposes, a call per vector, none per entry."""
        if arity == 1:
            return self._push(map(table.__getitem__, gens), gens, up, join)
        if h:
            return [self._residual(row, h - 1, arity - 1, gens, up, join) for row in table]
        return [list(v) for v in zip(*[self._residual(col, 0, arity - 1, gens, up, join)
                                       for col in zip(*table)])]

    def black_table(self, role: str) -> list[int]:
        """The adjoint of the defined modality of ``role``."""
        return self.residual_table(SPEC_BY_ROLE[role].defined_decl, 1)

    def dot_adj_table(self, kind: str) -> list[int]:
        """The adjoint of the dotted marker ``kind`` names ("dia_adj")."""
        return self.residual_table(SPEC_BY_DOTTED[kind.removesuffix("_adj")].decl, 1)

    def arrow_table(self):
        """a -> b: the meet's residual in its second coordinate."""
        return self.residual_table(MEET, 2)

    def coimp_table(self):
        """a -. b: the join's residual in its first coordinate."""
        return self.residual_table(JOIN, 1)


# ----------------------------------------------------------------------
# term plans and evaluation

_LEAF_KINDS = {Var: "var", Nominal: "nom", Conominal: "conom"}  # in symbol order
# plans kept: about 1.4 times the 2700-2900 distinct plans that checking
# every rule step of 650 seeded derivations on their lattices cycles through
_PLANS = 4096
_NESTED = 16  # symbols bound by a loop of their own; CPython nests 20 blocks
# heads read off the lattice itself, by the attribute that holds them
_STRUCTURE = {Top: "top", Bot: "bot", Meet: "meet_table", Join: "join_table"}


def _head_table(t: Term, dle: FiniteDLE):
    """The table of ``t``'s head on ``dle``: nested lists indexed by the
    arguments, a bare element for constants."""
    cls = type(t)
    if cls in _STRUCTURE:
        return getattr(dle, _STRUCTURE[cls])
    if cls is Residual:
        return dle.residual_table(t.decl, t.coord)
    return dle.op_table(t.decl)  # an App


def _define(name: str, lines: list[str]):
    """The function ``name`` that ``lines`` define, taken out of its
    namespace so that the function and its globals form no cycle."""
    namespace = {"product": product, "head_table": _head_table}
    exec(compile("\n".join(lines), "<plan>", "exec"), namespace)
    return namespace.pop(name)


# the domain of each kind of symbol: elements, join- or meet-irreducibles
_DOMAINS = {"var": ("V", "range(dle.n_elem)"), "nom": ("J", "dle.jirr"),
            "conom": ("M", "dle.mirr")}


class _Plan:
    """A tuple of terms compiled once into a search kernel that binds
    itself to any lattice.

    The symbols are the variables, nominals and conominals of the terms,
    each kind sorted.  Equal subterms are evaluated once, each distinct
    head reads one table, and a subterm is evaluated at the outermost loop
    where all its symbols are bound: as a named value when it is an output
    or is read more than once or further in, else inside the one
    expression that reads it.  Each order test is made at the outermost
    loop where both its terms are bound: a premise that fails there, or
    the goal that holds there, decides the whole block of valuations
    below, which the kernel skips and counts in one addition of its size.
    A value of that loop that only loops further in read is computed after
    the skip test.  The tests past the last loop that decides are made on
    each valuation: symbols past the first 16 are bound by one
    ``itertools.product`` loop, which skips nothing.  The generated code
    names the tables ``T<h>``, symbols ``s<i>``, values ``v<k>`` and block
    sizes ``B<d>``, so no name from the terms reaches its source.

    ``search(dle, heads, budget)``, called with the plan's own ``heads``
    (one term per distinct head), returns the first environment, in
    enumeration order, under which the last pair of terms is not in order
    and every other pair is.  The kernel binds itself to ``dle``: the
    bounds, the meet, join and order tables and the domains are read off
    the lattice, a connective's table off ``dle.ops``, and every other
    head, or a missing connective with its error, through
    ``_head_table``, which builds a derived table on first use.  Each
    environment in enumeration order up to the one returned, or to the
    last, tried or skipped, is one unit of ``budget``, counted against the
    room left in it: past that room it is spent through ``Budget.spend``
    or ``Budget.replay``, which raise, else added in one step on success
    and at the end.  The skips change neither the environment returned nor
    the count.  A plan keeps only its symbols, heads and kernel.
    """

    __slots__ = ("symbols", "heads", "search")

    def __init__(self, terms: tuple[Term, ...]):
        self.symbols, self.heads, steps, outputs = _analyse(terms)
        self.search = _define("search", self._search_lines(steps, outputs))

    def valuation(self, env: tuple[int, ...]) -> Valuation:
        var: dict[str, int] = {}
        nom: dict[str, int] = {}
        conom: dict[str, int] = {}
        maps = {"var": var, "nom": nom, "conom": conom}
        for (kind, name), x in zip(self.symbols, env):
            maps[kind][name] = x
        return Valuation(var, nom, conom)

    def _search_lines(self, steps: list[list[str]], outputs: list) -> list[str]:
        k = len(self.symbols)
        # each test, the goal first, either decides the block of the
        # outermost level where it is bound (a premise that fails, a goal
        # that holds) or, past the last level that decides, is tested on
        # each valuation; dicts keep each condition once, in order
        nested, outer = min(k, _NESTED), min(k - 1, _NESTED)
        decides: list[dict[str, None]] = [{} for _ in range(nested + 1)]
        found: dict[str, None] = {}
        pairs = list(zip(outputs[::2], outputs[1::2]))
        for j, ((lhs, dl), (rhs, dr)) in enumerate([pairs[-1], *pairs[:-1]]):
            test, d = f"leq[{lhs}][{rhs}]", max(dl, dr)
            if d <= outer:
                decides[d]["not " * (j > 0) + test] = None
            else:
                found["not " * (j == 0) + test] = None
        domain = [_DOMAINS[kind][0] for kind, _ in self.symbols]
        lines = ["def search(dle, H, budget):", *self._bind_lines(),
                 "    room = budget.limit - budget.used", "    n = 0"]
        first = next((d for d, conds in enumerate(decides) if conds), k)
        lines += [f"    B{d} = " + f"B{d + 1} * " * (d < k - 1) + f"len({domain[d]})"
                  for d in range(k - 1, first - 1, -1)]
        indent = "    "
        for d in range(nested + 1):
            if d:
                lines.append(f"{indent}for s{d - 1} in {domain[d - 1]}:")
                indent += "    "
            # the values the level's skip test reads come before it, the
            # others, read only further in, after it
            tested = _read_by(steps[d], decides[d])
            lines += [indent + step for step in steps[d] if step in tested]
            if decides[d]:
                lines.append(f"{indent}if {' or '.join(decides[d])}:")
                lines += [f"{indent}    {line}" for line in (
                    ["budget.replay(B0)", "return"] if d == 0 else
                    [f"n += B{d}", "if n > room:", "    budget.replay(n)", "continue"])]
            lines += [indent + step for step in steps[d] if step not in tested]
        if k > _NESTED:
            tail = range(_NESTED, k)
            lines.append(indent + "for " + "".join(f"s{i}, " for i in tail)
                         + "in product(" + ", ".join(domain[i] for i in tail) + "):")
            indent += "    "
            lines += [indent + step for level in steps[_NESTED + 1:] for step in level]
        symbols = "(" + "".join(f"s{i}, " for i in range(k)) + ")"
        # n never passes the room at a return: it is added in place
        return lines + [f"{indent}n += 1", f"{indent}if n > room:",
                        f"{indent}    budget.spend(n)", f"{indent}if {' and '.join(found)}:",
                        f"{indent}    budget.used += n", f"{indent}    return {symbols}",
                        "    budget.used += n"]

    def _bind_lines(self) -> list[str]:
        """The kernel's preamble: each head's table, in head order, so
        that the first missing one raises, then the order table and the
        symbols' domains."""
        lines = ["    ops = dle.ops"] if any(type(t) is App for t in self.heads) else []
        for h, t in enumerate(self.heads):
            cls = type(t)
            if cls in _STRUCTURE:
                lines.append(f"    T{h} = dle.{_STRUCTURE[cls]}")
            elif cls is App:
                lines += [f"    T{h} = ops.get(H[{h}].decl.name)",
                          f"    if T{h} is None:",
                          f"        T{h} = head_table(H[{h}], dle)"]
            else:
                lines.append(f"    T{h} = head_table(H[{h}], dle)")
        kinds = {kind for kind, _ in self.symbols}
        return lines + ["    leq = dle.leq_table"] + [
            f"    {name} = {source}" for kind, (name, source) in _DOMAINS.items()
            if kind in kinds]


_VALUE = re.compile(r"\bv\d+\b")  # a named value of the generated code


def _read_by(steps: list[str], tests) -> set[str]:
    """The steps of one level (``v<k> = <code>``, each reading only steps
    before it) whose values ``tests`` read, directly or through others."""
    read, out = set(_VALUE.findall(" ".join(tests))), set()
    for step in reversed(steps):
        name, _, code = step.partition(" = ")
        if name in read:
            out.add(step)
            read.update(_VALUE.findall(code))
    return out


def _analyse(terms: tuple[Term, ...]) -> tuple[list, list, list[list[str]], list]:
    """The symbols and heads of a plan of ``terms``, the steps of its
    generated code by the number of leading symbols they need, and the
    code and depth of each term's value."""
    nodes: list = []  # (subterm, head, arguments), distinct, children first
    heads: dict = {}  # head key -> (its index, the first subterm with it)
    index: dict[Term, int] = {}
    roots = [_collect(t, index, nodes, heads) for t in terms]
    leaves = sorted((i for i, (_, h, _) in enumerate(nodes) if h is None),
                    key=lambda i: (list(_LEAF_KINDS).index(type(nodes[i][0])),
                                   nodes[i][0].name))
    symbols = [(_LEAF_KINDS[type(nodes[i][0])], nodes[i][0].name) for i in leaves]
    # depth: the number of leading symbols a subterm needs
    depth = [0] * len(nodes)
    code = [""] * len(nodes)  # a name or an expression
    for k, i in enumerate(leaves):
        depth[i], code[i] = k + 1, f"s{k}"
    readers: list[list[int]] = [[] for _ in nodes]  # their depths
    for i, (_, h, args) in enumerate(nodes):
        if h is not None:
            depth[i] = max((depth[a] for a in args), default=0)
            for a in args:
                readers[a].append(depth[i])
    for i in roots:
        readers[i].append(-1)
    steps: list[list[str]] = [[] for _ in range(len(leaves) + 1)]
    for i, (_, h, args) in enumerate(nodes):
        if h is None:
            continue
        code[i] = f"T{h}" + "".join(f"[{code[a]}]" for a in args)
        if readers[i] != [depth[i]]:
            steps[depth[i]].append(f"v{i} = {code[i]}")
            code[i] = f"v{i}"
    return (symbols, [t for _, t in heads.values()], steps,
            [(code[i], depth[i]) for i in roots])


def _head_key(t: Term) -> tuple:
    """What ``_head_table`` reads of ``t``."""
    return type(t), getattr(t, "decl", None), getattr(t, "coord", None)


def _collect(t: Term, index: dict, nodes: list, heads: dict) -> int:
    """The position of ``t`` in ``nodes``, adding it after its arguments
    and its head, if new, to ``heads`` before them."""
    i = index.get(t)
    if i is None:
        h = None
        if type(t) not in _LEAF_KINDS:
            h = heads.setdefault(_head_key(t), (len(heads), t))[0]
        args = [_collect(a, index, nodes, heads) for a in t.args]
        i = index[t] = len(nodes)
        nodes.append((t, h, args))
    return i


@lru_cache(maxsize=_PLANS)
def _plan(terms: tuple[Term, ...]) -> _Plan:
    return _Plan(terms)


def eval_term(t: Term, dle: FiniteDLE, val: Valuation) -> int:
    """Evaluate one term under one valuation: its head's table read at
    its arguments' values."""
    kind = _LEAF_KINDS.get(type(t))
    if kind is not None:
        source = val.of_kind(kind)
        if t.name not in source:
            raise ModelError(f"unbound {kind} {t.name!r}")
        return source[t.name]
    table = _head_table(t, dle)
    for a in t.args:
        table = table[eval_term(a, dle, val)]
    return table


def _row(t: Term, var: str, dle: FiniteDLE):
    """``t`` at every element as the value of ``var``: a node's row is its
    head's table ``map``ped over its arguments' rows."""
    if type(t) is Var and t.name == var:
        return list(range(dle.n_elem))
    if type(t) in _LEAF_KINDS:
        raise ModelError(f"unbound {_LEAF_KINDS[type(t)]} {t.name!r}")
    table, args = _head_table(t, dle), t.args
    if not args:
        return [table] * dle.n_elem
    vals = map(table.__getitem__, _row(args[0], var, dle))
    for a in args[1:]:
        vals = map(getitem, vals, _row(a, var, dle))
    return list(vals)


def check_validity(ineq: Inequality, dle: FiniteDLE,
                   budget: Budget | None = None
                   ) -> tuple[bool, Valuation | None]:
    """Quantify everything universally; on failure return the first
    counterexample valuation, in enumeration order (one budget unit per
    valuation up to it, or to the last, tried or skipped)."""
    plan = _plan((ineq.lhs, ineq.rhs))
    env = plan.search(dle, plan.heads, budget or Budget())
    return env is None, None if env is None else plan.valuation(env)


def _quasi_terms(system) -> tuple[Term, ...]:
    """The terms of the universal closure of an engine system's (all
    antecedents) => goal: its own tuple of check terms."""
    if system.goal is None:
        raise ModelError("system has no goal")
    return system.check_terms


def _quasi_holds(terms: tuple[Term, ...], dle: FiniteDLE, budget: Budget) -> bool:
    plan = _plan(terms)
    return plan.search(dle, plan.heads, budget) is None


def check_quasi(systems, dle: FiniteDLE, budget: Budget | None = None) -> bool:
    """Validity of a set of pure quasi-inequalities (success output)."""
    budget = budget or Budget()
    for system in systems:
        for si in system.ineqs:
            if si.ineq.lhs.var_names or si.ineq.rhs.var_names:
                raise ModelError(
                    f"quasi-inequality is not pure: {print_inequality(si.ineq)}")
        if not _quasi_holds(_quasi_terms(system), dle, budget):
            return False
    return True


def _system_holds(system, dle: FiniteDLE, memo: dict, budget: Budget) -> bool:
    """Whether an engine system's quasi-inequality holds on ``dle``: its
    verdict in ``memo``, by its check terms, with the valuations it stands
    for spent again, else its search, whose count is stored.  A goalless
    system is refused before the memo is read."""
    if system.goal is None:
        raise ModelError("system has no goal")
    terms = system.check_terms
    known = memo.get(terms)
    if known is None:
        used = budget.used
        plan = _plan(terms)
        held = plan.search(dle, plan.heads, budget) is None
        memo[terms] = budget.used - used if held else used - budget.used
        return held
    budget.replay(known if known > 0 else -known)
    return known > 0


def verify_rule_step(parent, children, dle: FiniteDLE,
                     budget: Budget | None = None) -> bool:
    """Semantic soundness of one rule application: the parent system's
    quasi-inequality holds iff all children's do (fresh symbols of a
    child are quantified on the child side).  Each system's verdict is
    kept in the lattice's cache, by its check terms, as one int: the
    valuations its search spent (at least one), negated when it fails; a
    known verdict is one dict read and one budget addition.  The children
    are checked in order up to the first that fails."""
    budget = budget or Budget()
    memo = dle._cache
    holds = _system_holds(parent, dle, memo, budget)
    for child in children:
        if not _system_holds(child, dle, memo, budget):
            return not holds
    return holds


def role_axiom_holds(dle: FiniteDLE, role: str) -> bool:
    """The registered term of ``role`` satisfies the role's axiom: it sends
    binary joins (bottom-unit roles) or meets into joins of values (F
    roles), or values' meets into it (G roles).  For pi this is
    additivity, for sigma multiplicativity.  Checked at every element
    pair at once, bit-sliced (``_pair_sides``).  Decided once per lattice;
    a decided verdict is read before anything is built."""
    key = "axiom", role
    held = dle._cache.get(key)
    if held is None:
        spec = SPEC_BY_ROLE[role]
        is_f = spec.family == "F"
        x, y = _pair_sides(dle.poset.skeleton, dle.role_table(role), spec.bot_unit, is_f)
        held = dle._cache[_ROLE_KEYS.get(key, key)] = not _outside(x, y, is_f)
    return held


def _pair_sides(sk: _Skeleton, table, bot: bool, is_f: bool) -> tuple[int, int]:
    """A unary ``table`` at the join (``bot``) or meet of every element pair, and
    the join (``is_f``) or meet of its values at its arguments, bit-sliced."""
    f = _masks(sk, table)
    a, b = _at(sk.pair_a, f), _at(sk.pair_b, f)
    return _at(sk.join_flat if bot else sk.meet_flat, f), a | b if is_f else a & b


def _masks(sk: _Skeleton, table) -> bytes:
    """The translation table that sends each element index to the upset
    mask of ``table``'s value there (a mask fits a byte: ``MAX_POINTS``
    is 8)."""
    return bytes(table).translate(sk.mask_of).ljust(256, b"\0")


def _at(args: bytes, masks: bytes) -> int:
    """``masks`` read at every byte of ``args``, bit-sliced into one int:
    byte k is ``masks[args[k]]``.  On such ints a byte-wise join of upset
    masks is ``|`` and a meet ``&``."""
    return int.from_bytes(args.translate(masks), "little")


def _outside(x: int, y: int, is_f: bool) -> int:
    """Nonzero exactly in the bytes where x is not below y: for F roles
    x <= y, inclusion of upset masks, and for G roles x >= y, whose
    checks are those of F roles with the order turned round."""
    return x & ~y if is_f else y & ~x


_NONZERO = bytes(int(b > 0) for b in range(256))


def _flags(x: int, size: int) -> bytes:
    """Byte k of the ``size`` bytes of ``x``, nonzero as 1 and zero as 0."""
    return x.to_bytes(size, "little").translate(_NONZERO)


def role_axioms_hold(dle: FiniteDLE) -> bool:
    """The registered terms satisfy their additivity-style axioms: one
    verdict per lattice, kept with its tables, read in one dict read."""
    held = dle._cache.get(("axioms",))
    if held is None:
        held = dle._cache[("axioms",)] = all(role_axiom_holds(dle, reg.role)
                                             for reg in dle.sig.registered)
    return held


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
        left = _quasi_holds((ineq.lhs, ineq.rhs), dle, b)  # builds no counterexample
        right = check_quasi(systems, dle, b)
        if left != right:
            report.divergences.append((dle, left, right))
    return report


@dataclass
class LemmaSuiteReport:
    role_results: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(all(v for v in res.values()) for res in self.role_results.values())


def _joins(members, masks) -> int:
    """Byte k: the union of ``masks[x]`` over the x whose byte k of
    ``members[x]`` is 1, all bytes in one fold, as a mask fits a byte
    (``MAX_POINTS`` is 8)."""
    return reduce(or_, map(mul, members, masks), 0)


def check_lemma_suite(dle: FiniteDLE, rng=None) -> LemmaSuiteReport:
    """Exhaustive check of the defined-modality identities on one lattice,
    read off each registered role's ``RoleSpec``: the adjunction (Galois
    for antitone roles), join (F) or meet (G) preservation for monotone
    roles, the defined modality below (F) or above (G) the role term and
    equal to it on the join- (bottom-unit) or meet-irreducibles, and the
    bounded-composition identity against the role axiom.  For pi also
    the irreducible-witness form and the pseudo-correspondent
    biconditional.

    Joins of larger subsets need no check of their own (nor, dually,
    meets): from g(bottom) = bottom and g(a v b) = g(a) v g(b) at every
    pair, induction on |S| gives g(V S) = V g[S] for every subset S of a
    finite lattice, as in Jonsson and Tarski's finite-join argument.

    The checks over element pairs and over elements are bit-sliced, as
    the module's docstring says (``_masks``, ``_at``, ``_outside``); every
    pair is still checked.  The irreducible-witness form is one fold over
    the skeleton's ``above``.

    ``rng`` is read by nothing: only the benchmark still passes one."""
    report = LemmaSuiteReport()
    sk, n, leq = dle.poset.skeleton, dle.n_elem, dle.leq_table
    pair_a, pair_b = sk.pair_a, sk.pair_b
    us, ws = _at(pair_a, sk.mask_of), _at(pair_b, sk.mask_of)
    ones = int.from_bytes(b"\1" * n, "little")  # byte u is 1 for each element u
    for reg in dle.sig.registered:
        spec, pi = SPEC_BY_ROLE[reg.role], reg.role == "pi"
        f, g, adj = (dle.role_table(reg.role), dle.def_table(reg.role),
                     dle.black_table(reg.role))
        fm, gm, am = _masks(sk, f), _masks(sk, g), _masks(sk, adj)
        mono, is_f = spec.tone == MONO, spec.family == "F"
        outer, bound = (sk.join_flat, dle.bot) if is_f else (sk.meet_flat, dle.top)
        unit, gens = (dle.bot, dle.jirr) if spec.bot_unit else (dle.top, dle.mirr)
        ga, aw = _at(pair_a, gm), _at(pair_b, am)
        res: dict[str, bool] = {}
        # at each pair (u, w): g(u) below w iff u below adj(w), or for
        # antitone roles adj(w) below u
        right = _outside(us, aw, is_f) if mono else _outside(aw, us, is_f)
        res["adjunction" if mono else "galois"] = (
            _flags(_outside(ga, ws, is_f), n * n) == _flags(right, n * n))
        if mono:
            gb = _at(pair_b, gm)
            res["join_preserving" if is_f else "meet_preserving"] = (
                g[bound] == bound and _at(outer, gm) == (ga | gb if is_f else ga & gb))
        f_all, g_all = int.from_bytes(fm, "little"), int.from_bytes(gm, "little")
        res["below_f" if is_f else "above_f"] = not _outside(g_all, f_all, is_f)
        res["agrees_on_jirr" if spec.bot_unit else "agrees_on_mirr"] = all(
            g[x] == f[x] for x in gens)
        if pi:
            res["irreducible_form"] = g_all == _joins(
                map(sk.above.__getitem__, dle.jirr), map(fm.__getitem__, dle.jirr))
        axiom = role_axiom_holds(dle, reg.role)
        c = fm[unit] * ones  # f at the unit, at every element
        identity = f_all == (c | g_all if is_f else c & g_all)
        name = ("additive" if is_f else "multiplicative") if mono else "axiom"
        res[f"identity_iff_{name}"] = identity == axiom
        if pi:
            res["c_pi_iff_additive"] = axiom == all(
                not leq[f[dle.bot]][m] or leq[f[adj[m]]][m] for m in dle.mirr)
        report.role_results[reg.role] = res
    return report


# ----------------------------------------------------------------------
# lattice/ops import format

def load_dle(text: str, sig: Signature) -> FiniteDLE:
    """Text format: ``points N``; ``leq a<=b ...`` pairs (closure taken);
    ``rel name : (a,b) (c,d)`` relational generators; ``table name : i i
    ...`` row-major element indices.  A malformed line raises ModelError
    naming it."""
    npoints = None
    pairs: list[tuple[int, list[int]]] = []
    op_lines: list[tuple[int, str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "points":
            if npoints is not None:
                raise ModelError(f"line {lineno}: a second 'points' line")
            [npoints] = _ints(lineno, rest, 1)
            if not 1 <= npoints <= MAX_POINTS:
                raise ModelError(f"line {lineno}: poset size must be 1..{MAX_POINTS}")
        elif head == "leq":
            pairs += [(lineno, _ints(lineno, chunk, 2, "<=")) for chunk in rest.split()]
        elif head in ("rel", "table"):
            name, _, body = rest.partition(":")
            op_lines.append((lineno, head, name.strip(), body.strip()))
        else:
            raise ModelError(f"line {lineno}: cannot parse {line!r}")
    if npoints is None:
        raise ModelError("missing 'points' line")
    up = [1 << i for i in range(npoints)]
    for lineno, (a, b) in pairs:
        _in_range(lineno, "point", (a, b), npoints)
        up[a] |= 1 << b
    for k in range(npoints):  # Warshall's transitive closure
        for i in range(npoints):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for lineno, (a, b) in pairs:
        if a != b and up[b] & (1 << a):
            raise ModelError(f"line {lineno}: {a}<={b} lies on a cycle")
    dle = FiniteDLE(Poset(npoints, tuple(up)), sig)
    for lineno, kind, name, body in op_lines:
        if kind == "rel":
            rel_pairs = [_ints(lineno, chunk, 2, ",")
                         for chunk in body.replace("(", " ").replace(")", " ").split()]
            _in_range(lineno, "point", [x for pair in rel_pairs for x in pair], npoints)
            spec = Relation.from_pairs(npoints, rel_pairs)
        else:
            values = _ints(lineno, body)
            _in_range(lineno, "element", values, dle.n_elem)
        try:
            if name in dle.ops:
                raise ModelError(f"a second line for {name}")
            if kind == "table":
                decl = dle._decl_for(name)
                need = dle.n_elem ** decl.arity
                if len(values) != need:
                    raise ModelError(
                        f"table {name}: expected {need} entries, got {len(values)}")
                it = iter(values)
                spec = _tabulate(dle.n_elem, decl.arity, lambda _: next(it))
            dle.add_op(name, spec)
        except ModelError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return dle


def _ints(lineno: int, text: str, count: int | None = None,
          sep: str | None = None) -> list[int]:
    """The integers of ``text`` split at ``sep`` (at whitespace by
    default), ``count`` of them if given."""
    words = text.split(sep)
    try:
        if count in (None, len(words)):
            return [int(w) for w in words]
    except ValueError:
        pass
    raise ModelError(f"line {lineno}: cannot parse {text!r}")


def _in_range(lineno: int, what: str, values, n: int) -> None:
    for v in values:
        if not 0 <= v < n:
            raise ModelError(f"line {lineno}: {what} {v} is not in 0..{n - 1}")


def _well_formed(table, arity: int, n: int) -> bool:
    """Whether ``table`` is a nested list ``arity`` deep with ``n`` rows at
    each level and element indices below ``n`` at the bottom."""
    if arity == 0:
        return type(table) is int and 0 <= table < n
    return type(table) is list and len(table) == n and \
        all(_well_formed(row, arity - 1, n) for row in table)


def _vectors(table, h: int, arity: int) -> list:
    """The vectors of the nested-list ``table``, ``arity`` deep, along
    axis ``h``, for the other coordinates' arguments in row-major order."""
    if arity == 1:
        return [table]
    if h:
        return [v for row in table for v in _vectors(row, h - 1, arity - 1)]
    return [v for col in zip(*table) for v in _vectors(col, 0, arity - 1)]


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
    poset's automorphism group, in ascending encoding order: the least
    code sum(rows[i] << n*i) of each orbit (``_orbit_representatives``
    over the 2^(n*n) codes)."""
    n = poset.n
    if n > RELATION_POINTS:
        raise ModelError(f"relations are enumerated on at most {RELATION_POINTS} "
                         f"points, not {n}")
    autos = [p for p in permutations(range(n)) if _permute_rows(poset.up, p) == poset.up][1:]
    row = (1 << n) - 1
    # a code's rows: those of its low half, then of its high half, each
    # read off a table of rows
    half = n // 2
    low, high = ([tuple(c >> s & row for s in range(0, n * k, n)) for c in range(1 << n * k)]
                 for k in (half, n - half))
    # moved[i][r]: row r at position i as it lies in each automorphism's
    # image code, relabelled and shifted to its new position
    moved = [[tuple(_relabelling(p)[r] << n * p[i] for p in autos) for r in range(row + 1)]
             for i in range(n)]

    def rows_of(code: int) -> tuple[int, ...]:
        return low[code & (len(low) - 1)] + high[code >> n * half]

    def images(code: int):
        return map(sum, zip(*map(getitem, moved, rows_of(code)))) if autos else ()

    return [Relation(rows_of(code))
            for code in _orbit_representatives(1 << (n * n), images)]


def relational_lattices(sig: Signature, poset: Poset,
                        names: tuple[str, ...] = ("dia", "box")):
    """All complex-algebra style lattices over one poset: each canonical
    relation interprets every listed unary connective (diamonds for the
    F-family, boxes for the G-family, same relation throughout); its
    preimage table is computed once for all of them."""
    for rel in canonical_relations(poset):
        pre = rel.preimages()
        dle = FiniteDLE(poset, sig)
        for name in names:
            dle.add_op(name, dle._relational_table(dle._decl_for(name), pre),
                       validate=False)
        yield rel, dle


def relational_sweep(sig: Signature, max_points: int = 3):
    """(relation, lattice) for every poset up to isomorphism on 1 to
    ``max_points`` points and every relation up to automorphism, the
    relation interpreting all unary type-(1) connectives.  Empty unless
    every connective of the signature is one of those.  More than
    ``RELATION_POINTS`` points are refused at the call."""
    if max_points > RELATION_POINTS:
        raise ModelError(f"relational sweeps reach at most {RELATION_POINTS} "
                         f"points, not {max_points}")
    names = tuple(d.name for d in sig.connectives
                  if d.arity == 1 and d.order_type[0] == "1")
    if not names or len(names) != len(sig.connectives):
        return iter(())
    return (pair for n in range(1, max_points + 1)
            for poset in enumerate_posets(n, up_to_iso=True)
            for pair in relational_lattices(sig, poset, names))


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
