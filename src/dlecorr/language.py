"""Order-typed modal languages over bounded distributive lattices.

A signature fixes two families of normal connectives: F-family symbols
preserve joins (coordinatewise, per order type) and G-family symbols
preserve meets.  On top of a signature the term language comes in four
nested layers:

  DLE      variables, lattice constants/connectives, declared symbols
  DLEstar  adds the four dotted placeholder modalities (unary, fixed types)
  DLEplus  adds nominals, conominals and residuals: of the declared
           symbols, of the dotted modalities (their adjoints) and of the
           lattice meet and join (``MEET``, ``JOIN``; a -> b, a -. b)
  DLEpp    adds the defined modalities Dia/Box/Lhd/Rhd parameterized by a
           registered unary term (role pi/sigma/lambda/rho) together with
           their adjoints bsq/bdia/blhd/brhd, their residuals

A dotted modality and a defined modality are unary normal connectives
like the declared ones: each is an ``App`` of its role's declaration
(``RoleSpec.decl``, ``RoleSpec.defined_decl``), which names the role, so
that it never equals a declared connective of the same spelling.

Everything here is immutable.  Terms are interned: every node is built
through one constructor that returns the live node with the same class
and fields if there is one, so equal terms are one object, and terms
compare and hash by identity.  A new node also records, once, two
frozensets of names: ``var_names``, of its variables, and
``symbol_names``, of its variables, nominals and conominals;
``substitute`` and the engine's freshness and occurrence tests read them
instead of walking the term.  Signatures, declarations and inequalities
compare structurally.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import cached_property, reduce
from typing import Iterator, Mapping


MONO = 1
ANTI = -1


class Layer(IntEnum):
    DLE = 0
    DLESTAR = 1
    DLEPLUS = 2
    DLEPP = 3


@dataclass(frozen=True)
class OrderType:
    """Per-coordinate monotonicity flags: '1' monotone, 'd' antitone."""

    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        for e in self.entries:
            if e not in ("1", "d"):
                raise ValueError(f"order-type entry must be '1' or 'd', got {e!r}")
        # not fields: equality and the repr read ``entries`` only
        object.__setattr__(self, "_tones",
                           tuple(MONO if e == "1" else ANTI for e in self.entries))
        object.__setattr__(self, "_hash", hash((self.entries,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        """Copies and unpickled order types are built through the
        constructor, which hashes them in the process that builds them."""
        return OrderType, (self.entries,)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> str:
        return self.entries[i]

    def tonicities(self) -> tuple[int, ...]:
        return self._tones

    def __str__(self) -> str:
        return "(" + ",".join(self.entries) + ")"


@dataclass(frozen=True)
class ConnectiveDecl:
    name: str
    family: str  # "F" | "G"
    arity: int
    order_type: OrderType
    role: str | None = None  # a dotted or defined modality's; None if declared

    def __post_init__(self) -> None:
        if self.family not in ("F", "G"):
            raise ValueError(f"family must be F or G, got {self.family!r}")
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        if len(self.order_type) != self.arity:
            raise ValueError(
                f"connective {self.name}: arity {self.arity} does not match "
                f"order type {self.order_type}"
            )
        # every interning lookup of an App or a Residual hashes its
        # declaration, so the hash is computed once; not a field
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return self.name, self.family, self.arity, self.order_type, self.role

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        """Copies and unpickled declarations are built through the
        constructor: the hash of a string depends on the process's hash
        seed, so a stored hash must not move to another process."""
        return ConnectiveDecl, self._fields()

    def tonicities(self) -> tuple[int, ...]:
        return self.order_type.tonicities()


class _Ref(weakref.ref):
    """A weak reference to an interned term that holds the term's key."""

    __slots__ = ("key",)


def _drop(dead: _Ref) -> None:
    """Remove a dead term's entry, unless a new term has its key now."""
    if _TERMS.get(dead.key) is dead:
        del _TERMS[dead.key]


# every live term, as a weak reference keyed by its class and field
# values; the children in ``args`` are interned already, so a key hashes
# them by identity.  A plain dict: a miss builds the reference in C, where
# ``WeakValueDictionary`` runs ``KeyedRef.__new__`` and ``__init__``
_TERMS: dict[tuple, _Ref] = {}

_NO_NAMES: frozenset[str] = frozenset()
# sets a field of a frozen node; bound once, as ``Term.__new__`` runs often
_set = object.__setattr__


def _names(args: tuple["Term", ...]) -> tuple[frozenset[str], frozenset[str]]:
    """The unions of the children's ``var_names`` and ``symbol_names``;
    each is a child's own set when that set covers the others."""
    var_names = symbol_names = _NO_NAMES
    for a in args:
        v, s = a.var_names, a.symbol_names
        if not v <= var_names:
            var_names = v if var_names <= v else var_names | v
        if not s <= symbol_names:
            symbol_names = s if symbol_names <= s else symbol_names | s
    return var_names, symbol_names


class Term:
    """Base class; every node stores its subterms in ``args``.

    A node class states its shape as class data: ``tones``, the tonicity
    of each coordinate, and ``layer``, the least layer that has it.  An
    ``App`` and a ``Residual`` read their tonicities off their
    declaration, and so their layer when it is a role's: an ``App`` of a
    dotted marker or of a defined modality, a ``Residual`` of the latter.

    Nodes are interned: calling a node class returns the live node with
    the same class and field values, and builds one only if there is
    none, so ``==`` and ``hash`` are those of identity.

    A new node records the names of its variables (``var_names``) and of
    its variables, nominals and conominals (``symbol_names``): a named
    leaf's own name (one set, for a variable, read as both), or else the
    union of its children's sets, which is one of those sets when it
    covers the others.  They hold strings only, so no node refers to
    itself.
    """

    args: tuple["Term", ...] = ()
    tones: tuple[int, ...] = ()
    layer: Layer = Layer.DLE
    var_names: frozenset[str] = _NO_NAMES
    symbol_names: frozenset[str] = _NO_NAMES

    def __new__(cls, *fields, **named):
        if named:  # keyword arguments, put in field order
            fields += tuple(named.pop(n) for n in cls.__match_args__[len(fields):]
                            if n in named)
            if named:
                raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(named)}")
        key = (cls, *fields)
        found = _TERMS.get(key)
        t = None if found is None else found()
        if t is None:
            if len(fields) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__}() takes fields {cls.__match_args__}")
            t = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                _set(t, name, value)
            if t.args:
                var_names, symbol_names = _names(t.args)
                _set(t, "var_names", var_names)
                _set(t, "symbol_names", symbol_names)
            elif cls in _NAMED:
                names = frozenset((t.name,))  # type: ignore[attr-defined]
                _set(t, "symbol_names", names)
                if cls is Var:
                    _set(t, "var_names", names)
            t.__post_init__()
            found = _TERMS[key] = _Ref(t, _drop)
            found.key = key
        return t

    def __post_init__(self) -> None:
        """Check the fields of a new node."""

    def tonicities(self) -> tuple[int, ...]:
        return self.tones

    def with_args(self, args: tuple["Term", ...]) -> "Term":
        return type(self)(args) if self.args else self  # type: ignore[call-arg]

    def __reduce__(self):
        """Copies and unpickled nodes are built through the constructor,
        which returns the interned node."""
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


# a node class: frozen, built by ``Term.__new__``, with the identity
# ``==`` and ``hash`` of ``Term``
_node = dataclass(frozen=True, eq=False, init=False)


@_node
class Var(Term):
    name: str


@_node
class Nominal(Term):
    name: str
    layer = Layer.DLEPLUS


@_node
class Conominal(Term):
    name: str
    layer = Layer.DLEPLUS


# the leaves that carry a name
_NAMED = (Var, Nominal, Conominal)


@_node
class Top(Term):
    pass


@_node
class Bot(Term):
    pass


TOP = Top()
BOT = Bot()


@_node
class Meet(Term):
    args: tuple[Term, Term]
    tones = (MONO, MONO)


@_node
class Join(Term):
    args: tuple[Term, Term]
    tones = (MONO, MONO)


@_node
class App(Term):
    """A connective applied to its arguments: a declared connective, a
    dotted marker (DLEstar) or a defined modality (DLEpp)."""

    decl: ConnectiveDecl
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.decl.arity:
            raise ValueError(
                f"{self.decl.name} expects {self.decl.arity} arguments, "
                f"got {len(self.args)}"
            )
        if self.decl.role is not None:
            _set(self, "layer", RoleSpec.defined_layer if self.decl in SPEC_BY_DEFINED
                 else RoleSpec.marker_layer)

    def tonicities(self) -> tuple[int, ...]:
        return self.decl.tonicities()

    def with_args(self, args: tuple[Term, ...]) -> Term:
        return App(self.decl, args)


@_node
class Residual(Term):
    """Residual of ``decl`` in coordinate ``coord`` (1-based).

    The argument at position coord-1 holds the residuated side; the other
    arguments are passed through unchanged.  Tonicity follows the general
    adjunction pattern: the residuated coordinate keeps the original
    order-type entry, a passive coordinate flips exactly when the
    residuated entry is '1'.  A defined modality's residual is in DLEpp.
    """

    decl: ConnectiveDecl
    coord: int
    args: tuple[Term, ...]
    layer = Layer.DLEPLUS

    def __post_init__(self) -> None:
        if not (1 <= self.coord <= self.decl.arity):
            raise ValueError(
                f"residual coordinate {self.coord} out of range for "
                f"{self.decl.name}/{self.decl.arity}"
            )
        if len(self.args) != self.decl.arity:
            raise ValueError("residual takes the same number of arguments")
        if self.decl in SPEC_BY_DEFINED:
            _set(self, "layer", RoleSpec.defined_layer)

    def tonicities(self) -> tuple[int, ...]:
        eps = self.decl.tonicities()
        h = self.coord - 1
        out = []
        for j, e in enumerate(eps):
            if j == h:
                out.append(eps[h])
            elif eps[h] == MONO:
                out.append(-e)
            else:
                out.append(e)
        return tuple(out)

    def with_args(self, args: tuple[Term, ...]) -> Term:
        return Residual(self.decl, self.coord, args)


# The lattice meet and join read as connectives of order type (1,1), an F
# and a G operation, whose names no signature can declare; the infix
# implications are their residuals: a -> b is res(meet,2)(a, b).
MEET = ConnectiveDecl("&", "F", 2, OrderType(("1", "1")))
JOIN = ConnectiveDecl("|", "G", 2, OrderType(("1", "1")))
INFIX_RESIDUALS = {"->": (MEET, 2), "-.": (JOIN, 1)}


def bot_unit(family: str, tone: int) -> bool:
    """Whether a coordinate of tonicity ``tone`` of an operation of
    ``family`` has bottom as its unit: a monotone coordinate of an F
    operation (bottom goes to bottom) or an antitone one of a G operation
    (bottom goes to top).  Exactly these coordinates take joins in, which
    the operation turns into joins (F) or meets (G).

    Every order dual reads this one condition: the argument sits below its
    residual or adjoint, the approximant is a nominal below the argument,
    the coordinate distributes over joins, and normal tables are read off
    join-irreducibles exactly on bottom-unit coordinates.
    """
    return (family == "F") == (tone == MONO)


@dataclass(frozen=True)
class RoleSpec:
    """One role: the declarations of its dotted marker and of its defined
    modality, with their spellings and that of the defined modality's
    adjoint, its residual.  Both are unary connectives, applied as an
    ``App``; their declarations name the role.

    ``family`` and ``tone`` describe the dotted marker and the defined
    modality: F is join-type (a diamond), G meet-type (a box).  The other
    order-theoretic facts of the role follow from these two.
    """

    role: str
    family: str  # "F" | "G"
    tone: int  # MONO | ANTI
    dotted: str  # dia(t); the adjoint is spelled res(dia,1)(t)
    defined_head: str  # Dia[pi](t)
    black_head: str  # bsq[pi](t), the adjoint of Dia[pi]

    # the least layers of every role's dotted marker and defined modality
    marker_layer = Layer.DLESTAR
    defined_layer = Layer.DLEPP

    @cached_property
    def decl(self) -> ConnectiveDecl:
        """The dotted marker's declaration, a unary connective of the
        role's family; the marker's adjoint is its residual in coordinate 1."""
        return ConnectiveDecl(self.dotted, self.family, 1,
                              OrderType(("1" if self.tone == MONO else "d",)), self.role)

    @cached_property
    def defined_decl(self) -> ConnectiveDecl:
        """The defined modality's declaration; its adjoint, spelled
        ``black_head``, is its residual in coordinate 1."""
        return replace(self.decl, name=self.defined_head)

    @property
    def bot_unit(self) -> bool:
        """The unit is bottom (pi, rho), not top (sigma, lambda).

        The same condition puts the role's argument below the adjoint in
        the adjunction rule, places the adjoint on the right of that
        inequality, and makes the fresh approximant a nominal.
        """
        return bot_unit(self.family, self.tone)

    @property
    def unit(self) -> Term:
        return BOT if self.bot_unit else TOP

    @property
    def rule_suffix(self) -> str:
        return self.role.capitalize()  # AdjPi, ApproxPi, DistPi, RewritePi

    @property
    def dot_suffix(self) -> str:
        return "Dot" + self.dotted.capitalize()  # AdjDotDia, ApproxDotDia


ROLE_SPECS = (
    RoleSpec("pi", "F", MONO, "dia", "Dia", "bsq"),
    RoleSpec("sigma", "G", MONO, "box", "Box", "bdia"),
    RoleSpec("lambda", "F", ANTI, "lhd", "Lhd", "blhd"),
    RoleSpec("rho", "G", ANTI, "rhd", "Rhd", "brhd"),
)
ROLES = tuple(spec.role for spec in ROLE_SPECS)
SPEC_BY_ROLE = {spec.role: spec for spec in ROLE_SPECS}
# each defined modality's declaration -> its role
SPEC_BY_DEFINED = {spec.defined_decl: spec for spec in ROLE_SPECS}

# Spellings of the dotted DLEstar modalities.  A signature may declare
# ordinary connectives with these names; the declaration then shadows the
# dotted reading in concrete syntax.
SPEC_BY_DOTTED = {spec.dotted: spec for spec in ROLE_SPECS}

# Names that can never be declared as connectives.
HARD_RESERVED = {"top", "bot", "res", "conn", "term", MEET.name, JOIN.name} | {
    head for spec in ROLE_SPECS for head in (spec.defined_head, spec.black_head)}


def dotted_spec(t: Term) -> RoleSpec | None:
    """The role of a dotted marker; None for every other node.  Of the
    applications whose declaration names a role, a marker's is spelled
    as in ``SPEC_BY_DOTTED`` and a defined modality's is not."""
    if type(t) is App and t.decl.role is not None:
        return SPEC_BY_DOTTED.get(t.decl.name)
    return None


@dataclass(frozen=True)
class RegisteredTerm:
    role: str
    var: str
    term: Term

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class Signature:
    connectives: tuple[ConnectiveDecl, ...]
    registered: tuple[RegisteredTerm, ...] = ()
    _by_name: dict = field(default=None, compare=False, hash=False, repr=False)  # type: ignore[assignment]
    _by_role: dict = field(default=None, compare=False, hash=False, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        by_name: dict[str, ConnectiveDecl] = {}
        for decl in self.connectives:
            if decl.name in HARD_RESERVED:
                raise ValueError(f"connective name {decl.name!r} is reserved")
            if decl.name in by_name:
                raise ValueError(f"duplicate connective {decl.name!r}")
            by_name[decl.name] = decl
        by_role: dict[str, RegisteredTerm] = {}
        for reg in self.registered:
            if reg.role in by_role:
                raise ValueError(f"duplicate registered term for role {reg.role!r}")
            by_role[reg.role] = reg
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_by_role", by_role)

    def decl(self, name: str) -> ConnectiveDecl | None:
        return self._by_name.get(name)

    def connective(self, name: str) -> ConnectiveDecl | None:
        """The declaration ``name`` reads as: a declared connective, or
        else the dotted marker it spells."""
        decl = self._by_name.get(name)
        if decl is None and name in SPEC_BY_DOTTED:
            return SPEC_BY_DOTTED[name].decl
        return decl

    def role(self, role: str) -> RegisteredTerm | None:
        return self._by_role.get(role)

    def shadows(self, name: str) -> bool:
        return name in SPEC_BY_DOTTED and name in self._by_name

    def role_instance(self, role: str, arg: Term) -> Term:
        """The registered term for ``role`` applied to ``arg``."""
        reg = self.role(role)
        if reg is None:
            raise KeyError(f"role {role!r} has no registered term")
        return substitute(reg.term, {reg.var: arg})


@dataclass(frozen=True)
class Inequality:
    lhs: Term
    rhs: Term


def subterms(t: Term) -> Iterator[Term]:
    yield t
    for a in t.args:
        yield from subterms(a)


def layer_of(t: Term) -> Layer:
    return max(s.layer for s in subterms(t))


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous replacement of variables; the language has no binders.
    A term with none of the mapped variables is returned as it is."""
    if t.var_names.isdisjoint(mapping):
        return t
    if isinstance(t, Var):
        return mapping[t.name]
    return t.with_args(tuple(substitute(a, mapping) for a in t.args))


def replace_at(t: Term, path: tuple[int, ...], replacement: Term) -> Term:
    if not path:
        return replacement
    i = path[0]
    if i >= len(t.args):
        raise IndexError(f"path step {i} out of range in {type(t).__name__}")
    new_args = list(t.args)
    new_args[i] = replace_at(t.args[i], path[1:], replacement)
    return t.with_args(tuple(new_args))


def var_occurrences(t: Term, sign: int = MONO) -> Iterator[tuple[str, int, tuple[int, ...]]]:
    """All variable occurrences as (name, sign, path) under sign propagation."""
    if isinstance(t, Var):
        yield (t.name, sign, ())
        return
    for i, (a, tone) in enumerate(zip(t.args, t.tonicities())):
        if a.var_names:  # a subterm without variables has no occurrence
            for name, s, path in var_occurrences(a, sign * tone):
                yield (name, s, (i,) + path)


def signed_leaves(t: Term, sign: int = MONO) -> tuple[tuple[str, int], ...]:
    """The distinct (name, sign) pairs of the variable leaves of ``t``
    under sign propagation, in the order they first occur."""
    found: dict[tuple[str, int], None] = {}
    stack = [(t, sign)]
    while stack:
        t, sign = stack.pop()
        if isinstance(t, Var):
            found[t.name, sign] = None
        elif t.var_names:  # a subterm without variables has no leaf
            stack += reversed([(a, sign * tone) for a, tone in zip(t.args, t.tonicities())])
    return tuple(found)


def meet(a: Term, b: Term) -> Term:
    return Meet((a, b))


def join(a: Term, b: Term) -> Term:
    return Join((a, b))


def big_join(terms: list[Term]) -> Term:
    """Left-nested join; empty list is bottom, singletons are unwrapped."""
    return reduce(join, terms) if terms else BOT


def big_meet(terms: list[Term]) -> Term:
    return reduce(meet, terms) if terms else TOP
