"""Order-typed modal languages over bounded distributive lattices.

A signature fixes two families of normal connectives: F-family symbols
preserve joins (coordinatewise, per order type) and G-family symbols
preserve meets.  On top of a signature the term language comes in four
nested layers:

  DLE      variables, lattice constants/connectives, declared symbols
  DLEstar  adds the four dotted placeholder modalities (unary, fixed types)
  DLEplus  adds nominals, conominals, residuals of all declared symbols,
           residuals of the lattice connectives, and the adjoints of the
           dotted modalities
  DLEpp    adds the defined modalities Dia/Box/Lhd/Rhd parameterized by a
           registered unary term (role pi/sigma/lambda/rho) together with
           their adjoints bsq/bdia/blhd/brhd

Everything here is immutable; terms hash and compare structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
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

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> str:
        return self.entries[i]

    def opposite(self) -> "OrderType":
        return OrderType(tuple("d" if e == "1" else "1" for e in self.entries))

    def tonicities(self) -> tuple[int, ...]:
        return tuple(MONO if e == "1" else ANTI for e in self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(self.entries) + ")"


@dataclass(frozen=True)
class ConnectiveDecl:
    name: str
    family: str  # "F" | "G"
    arity: int
    order_type: OrderType

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

    def tonicities(self) -> tuple[int, ...]:
        return self.order_type.tonicities()


class Term:
    """Base class; every node stores its subterms in ``args``.

    A node class states its shape as class data: ``tones``, the tonicity
    of each coordinate, and ``layer``, the least layer that has it.
    """

    args: tuple["Term", ...] = ()
    tones: tuple[int, ...] = ()
    layer: Layer = Layer.DLE

    def tonicities(self) -> tuple[int, ...]:
        return self.tones

    def with_args(self, args: tuple["Term", ...]) -> "Term":
        return type(self)(args) if self.args else self  # type: ignore[call-arg]


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Nominal(Term):
    name: str
    layer = Layer.DLEPLUS


@dataclass(frozen=True)
class Conominal(Term):
    name: str
    layer = Layer.DLEPLUS


@dataclass(frozen=True)
class Top(Term):
    pass


@dataclass(frozen=True)
class Bot(Term):
    pass


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class Meet(Term):
    args: tuple[Term, Term]
    tones = (MONO, MONO)


@dataclass(frozen=True)
class Join(Term):
    args: tuple[Term, Term]
    tones = (MONO, MONO)


@dataclass(frozen=True)
class App(Term):
    decl: ConnectiveDecl
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.decl.arity:
            raise ValueError(
                f"{self.decl.name} expects {self.decl.arity} arguments, "
                f"got {len(self.args)}"
            )

    def tonicities(self) -> tuple[int, ...]:
        return self.decl.tonicities()

    def with_args(self, args: tuple[Term, ...]) -> Term:
        return App(self.decl, args)


@dataclass(frozen=True)
class Residual(Term):
    """Residual of ``decl`` in coordinate ``coord`` (1-based).

    The argument at position coord-1 holds the residuated side; the other
    arguments are passed through unchanged.  Tonicity follows the general
    adjunction pattern: the residuated coordinate keeps the original
    order-type entry, a passive coordinate flips exactly when the
    residuated entry is '1'.
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


def _unary(cls_name: str, tonicity: int, least: Layer) -> type:
    """Build a frozen unary Term subclass (dotted/defined/adjoint nodes)."""

    @dataclass(frozen=True)
    class _Node(Term):
        args: tuple[Term]
        tones = (tonicity,)
        layer = least

    _Node.__name__ = _Node.__qualname__ = cls_name
    return _Node


# Dotted placeholder modalities (DLEstar).
DotDia = _unary("DotDia", MONO, Layer.DLESTAR)
DotBox = _unary("DotBox", MONO, Layer.DLESTAR)
DotLhd = _unary("DotLhd", ANTI, Layer.DLESTAR)
DotRhd = _unary("DotRhd", ANTI, Layer.DLESTAR)

# Their adjoints (DLEplus): right adjoint of DotDia, left adjoint of
# DotBox, and the two Galois adjoints.
DotDiaAdj = _unary("DotDiaAdj", MONO, Layer.DLEPLUS)
DotBoxAdj = _unary("DotBoxAdj", MONO, Layer.DLEPLUS)
DotLhdAdj = _unary("DotLhdAdj", ANTI, Layer.DLEPLUS)
DotRhdAdj = _unary("DotRhdAdj", ANTI, Layer.DLEPLUS)

# Defined modalities, one per role (DLEpp).
DefDia = _unary("DefDia", MONO, Layer.DLEPP)
DefBox = _unary("DefBox", MONO, Layer.DLEPP)
DefLhd = _unary("DefLhd", ANTI, Layer.DLEPP)
DefRhd = _unary("DefRhd", ANTI, Layer.DLEPP)

# Their adjoints (DLEpp).
BlackBox = _unary("BlackBox", MONO, Layer.DLEPP)
BlackDia = _unary("BlackDia", MONO, Layer.DLEPP)
BlackLhd = _unary("BlackLhd", ANTI, Layer.DLEPP)
BlackRhd = _unary("BlackRhd", ANTI, Layer.DLEPP)


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
    """One role: its dotted marker, the marker's adjoint, the defined
    modality and the defined modality's adjoint, with their spellings.

    ``family`` and ``tone`` describe the dotted marker and the defined
    modality: F is join-type (a diamond), G meet-type (a box).  The other
    order-theoretic facts of the role follow from these two.
    """

    role: str
    family: str  # "F" | "G"
    tone: int  # MONO | ANTI
    dot: type
    dot_adj: type
    defined: type
    black: type
    dotted: str  # dia(t); the adjoint is spelled res(dia,1)(t)
    defined_head: str  # Dia[pi](t)
    black_head: str  # bsq[pi](t)

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
        return self.dot.__name__  # AdjDotDia, ApproxDotDia


ROLE_SPECS = (
    RoleSpec("pi", "F", MONO, DotDia, DotDiaAdj, DefDia, BlackBox, "dia", "Dia", "bsq"),
    RoleSpec("sigma", "G", MONO, DotBox, DotBoxAdj, DefBox, BlackDia, "box", "Box", "bdia"),
    RoleSpec("lambda", "F", ANTI, DotLhd, DotLhdAdj, DefLhd, BlackLhd, "lhd", "Lhd", "blhd"),
    RoleSpec("rho", "G", ANTI, DotRhd, DotRhdAdj, DefRhd, BlackRhd, "rhd", "Rhd", "brhd"),
)
ROLES = tuple(spec.role for spec in ROLE_SPECS)
SPEC_BY_ROLE = {spec.role: spec for spec in ROLE_SPECS}
# every role-specific node class -> its role
SPEC_BY_NODE = {cls: spec for spec in ROLE_SPECS
                for cls in (spec.dot, spec.dot_adj, spec.defined, spec.black)}

# Spellings of the dotted DLEstar modalities.  A signature may declare
# ordinary connectives with these names; the declaration then shadows the
# dotted reading in concrete syntax.
DOTTED_NAMES = tuple(spec.dotted for spec in ROLE_SPECS)

# Names that can never be declared as connectives.
HARD_RESERVED = {"top", "bot", "res", "conn", "term"} | {
    head for spec in ROLE_SPECS for head in (spec.defined_head, spec.black_head)}


def dotted_spec(t: Term) -> RoleSpec | None:
    """The role of a dotted marker; None for every other node."""
    spec = SPEC_BY_NODE.get(type(t))
    return spec if spec is not None and type(t) is spec.dot else None


def family_and_arity(t: Term) -> tuple[str, int] | None:
    """Family and arity of a declared connective, or of a dotted marker
    read as a unary connective of its role's family; None otherwise."""
    if isinstance(t, App):
        return t.decl.family, t.decl.arity
    spec = dotted_spec(t)
    return None if spec is None else (spec.family, 1)


@dataclass(frozen=True)
class Arrow(Term):
    """Residual of meet; parsed and evaluated, produced by no rule."""

    args: tuple[Term, Term]
    tones = (ANTI, MONO)
    layer = Layer.DLEPLUS


@dataclass(frozen=True)
class Coimp(Term):
    """Residual of join; parsed and evaluated, produced by no rule."""

    args: tuple[Term, Term]
    tones = (MONO, ANTI)
    layer = Layer.DLEPLUS


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

    def role(self, role: str) -> RegisteredTerm | None:
        return self._by_role.get(role)

    def shadows(self, name: str) -> bool:
        return name in DOTTED_NAMES and name in self._by_name

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


def free_vars(t: Term) -> set[str]:
    return {s.name for s in subterms(t) if isinstance(s, Var)}


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous replacement of variables; the language has no binders."""
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if not t.args:
        return t
    new_args = tuple(substitute(a, mapping) for a in t.args)
    if new_args == t.args:
        return t
    return t.with_args(new_args)


def replace_at(t: Term, path: tuple[int, ...], replacement: Term) -> Term:
    if not path:
        return replacement
    i = path[0]
    if i >= len(t.args):
        raise IndexError(f"path step {i} out of range in {type(t).__name__}")
    new_args = list(t.args)
    new_args[i] = replace_at(t.args[i], path[1:], replacement)
    return t.with_args(tuple(new_args))


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        t = t.args[i]
    return t


def var_occurrences(t: Term, sign: int = MONO) -> Iterator[tuple[str, int, tuple[int, ...]]]:
    """All variable occurrences as (name, sign, path) under sign propagation."""
    if isinstance(t, Var):
        yield (t.name, sign, ())
        return
    for i, (a, tone) in enumerate(zip(t.args, t.tonicities())):
        for name, s, path in var_occurrences(a, sign * tone):
            yield (name, s, (i,) + path)


def meet(a: Term, b: Term) -> Term:
    return Meet((a, b))


def join(a: Term, b: Term) -> Term:
    return Join((a, b))


def big_join(terms: list[Term]) -> Term:
    """Left-nested join; empty list is bottom, singletons are unwrapped."""
    if not terms:
        return BOT
    out = terms[0]
    for t in terms[1:]:
        out = join(out, t)
    return out


def big_meet(terms: list[Term]) -> Term:
    if not terms:
        return TOP
    out = terms[0]
    for t in terms[1:]:
        out = meet(out, t)
    return out
