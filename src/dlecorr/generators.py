"""Seeded random generators for property suites.

Random inductive inequalities are built by construction rather than by
rejection: each side is a skeleton section (delta-adjoint and SLR nodes)
grown over PIA sections (SRA chains, SRR nodes whose side terms agree
with the opposite order type and only use dependency-smaller variables),
with every other leaf non-critical for the drawn order type.  The result
is verified with the classifier and regenerated in the rare case the
draw degenerates.

The dotted variants draw the four placeholder modalities as well; their
substitution images (replacing each dotted modality by the registered
term of its role) feed the enhanced-mode suites.
"""

from __future__ import annotations

import random

from . import classify
from .engine import concretize
from .language import (
    ANTI, BOT, MONO, ROLE_SPECS, ROLES, TOP, App, ConnectiveDecl, Inequality,
    OrderType, Signature, Term, Var, join, meet,
)

VAR_NAMES = ("p", "q", "r")
N_CONNECTIVES = 2  # in a random signature
MAX_TRIES = 200  # draws of one random inductive inequality


def random_signature(rng: random.Random) -> Signature:
    decls = []
    for i in range(N_CONNECTIVES):
        family = rng.choice("FG")
        arity = rng.choice((1, 1, 2))
        eps = OrderType(tuple(rng.choice("1d") for _ in range(arity)))
        name = f"{'f' if family == 'F' else 'g'}{i}"
        decls.append(ConnectiveDecl(name, family, arity, eps))
    return Signature(tuple(decls))


class _Draw:
    def __init__(self, rng: random.Random, sig: Signature, variables: tuple[str, ...],
                 eps: dict[str, str], rank: dict[str, int], star: bool):
        self.rng = rng
        self.sig = sig
        self.variables = variables
        self.eps = eps
        self.rank = rank
        # Dotted modalities drawn: only those whose role has a registered
        # term (so substitution images exist); all four on bare signatures.
        if not star:
            self.dots = frozenset()
        elif sig.registered:
            self.dots = frozenset(reg.role for reg in sig.registered)
        else:
            self.dots = frozenset(ROLES)
        self.star = bool(self.dots)

    def _dot_options(self, family: str | None = None) -> list[ConnectiveDecl]:
        """Drawable dotted markers' declarations, of one family unless
        ``family`` is None."""
        return [spec.decl for spec in ROLE_SPECS if spec.role in self.dots
                and family in (None, spec.family)]

    def _coord(self, decl: ConnectiveDecl) -> int:
        """The coordinate to grow a drawn declaration in: drawn for a
        declared connective, the one coordinate of a dotted marker."""
        return 0 if decl.role else self.rng.randrange(decl.arity)

    def critical_at(self, sign: int) -> list[str]:
        return [v for v in self.variables if classify.is_critical(sign, self.eps[v])]

    def noncritical_at(self, sign: int, allowed=None) -> list[str]:
        vs = [v for v in self.variables if not classify.is_critical(sign, self.eps[v])]
        if allowed is not None:
            vs = [v for v in vs if v in allowed]
        return vs

    # -- non-critical filler (every leaf non-critical at its sign) ------

    def noncrit(self, sign: int, depth: int, allowed=None) -> Term:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.35:
            vs = self.noncritical_at(sign, allowed)
            if vs and rng.random() < 0.7:
                return Var(rng.choice(vs))
            return rng.choice((TOP, BOT))
        options = ["meet", "join", *self.sig.connectives, *self._dot_options()]
        pick = rng.choice(options)
        if pick == "meet":
            return meet(self.noncrit(sign, depth - 1, allowed),
                        self.noncrit(sign, depth - 1, allowed))
        if pick == "join":
            return join(self.noncrit(sign, depth - 1, allowed),
                        self.noncrit(sign, depth - 1, allowed))
        return self.applied(pick, sign, depth, allowed=allowed)

    def applied(self, decl: ConnectiveDecl, sign: int, depth: int, coord: int | None = None,
                sub: Term | None = None, allowed=None) -> Term:
        """``decl`` applied, at sign ``sign``, with ``sub`` at ``coord`` (or
        at no coordinate) and non-critical filler of depth below ``depth``,
        in coordinate order, in every other coordinate."""
        return App(decl, tuple(
            sub if k == coord else self.noncrit(sign * tone, depth - 1, allowed)
            for k, tone in enumerate(decl.tonicities())))

    # -- PIA sections ----------------------------------------------------

    def pia(self, sign: int, depth: int) -> tuple[Term, str] | None:
        """A PIA tree carrying exactly one critical leaf; returns the term
        and the pivot variable."""
        rng = self.rng
        crits = self.critical_at(sign)
        if depth <= 0 or (crits and rng.random() < 0.4):
            if not crits:
                return None
            v = rng.choice(crits)
            return Var(v), v
        # SRA/SRR nodes: boxes on the positive side, diamonds on the negative
        family = "G" if sign == MONO else "F"
        options: list = ["lattice_sra"]
        options += [d for d in self.sig.connectives if d.family == family and d.arity >= 1]
        options += self._dot_options(family)
        pick = rng.choice(options)
        if pick == "lattice_sra":
            sub = self.pia(sign, depth - 1)
            if sub is None:
                return None
            t, v = sub
            return (meet if sign == MONO else join)(t, self.noncrit(sign, depth - 1)), v
        coord = self._coord(pick)
        sub = self.pia(sign * pick.tonicities()[coord], depth - 1)
        if sub is None:
            return None
        t, pivot = sub
        # SRR side terms: opposite-order-type agreeing, strictly smaller vars
        allowed = {q for q in self.variables if self.rank[q] < self.rank[pivot]}
        return self.applied(pick, sign, depth, coord, t, allowed), pivot

    # -- skeleton sections -------------------------------------------------

    def skel(self, sign: int, depth: int) -> Term | None:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.45:
            sub = self.pia(sign, depth)
            return None if sub is None else sub[0]
        # SLR nodes: diamonds on the positive side, boxes on the negative
        family = "F" if sign == MONO else "G"
        options: list = ["delta_both", "delta_one"]
        options += [d for d in self.sig.connectives if d.family == family and d.arity >= 1]
        options += self._dot_options(family)
        pick = rng.choice(options)
        if pick == "delta_both":
            lhs = self.skel(sign, depth - 1)
            rhs = self.skel(sign, depth - 1)
            if lhs is None or rhs is None:
                return None
            return join(lhs, rhs) if sign == MONO else meet(lhs, rhs)
        if pick == "delta_one":
            sub = self.skel(sign, depth - 1)
            if sub is None:
                return None
            other = self.noncrit(sign, depth - 1)
            return meet(sub, other) if sign == MONO else join(sub, other)
        coord = self._coord(pick)
        sub = self.skel(sign * pick.tonicities()[coord], depth - 1)
        return None if sub is None else self.applied(pick, sign, depth, coord, sub)


def random_inductive(rng: random.Random, sig: Signature, star: bool = False,
                     max_depth: int = 5) -> Inequality:
    """A random inequality verified inductive by the classifier."""
    for _ in range(MAX_TRIES):
        nvars = rng.randint(1, len(VAR_NAMES))
        variables = VAR_NAMES[:nvars]
        eps = {v: rng.choice("1d") for v in variables}
        perm = list(variables)
        rng.shuffle(perm)
        rank = {v: i for i, v in enumerate(perm)}
        draw = _Draw(rng, sig, variables, eps, rank, star)
        lhs = draw.skel(MONO, rng.randint(1, max_depth))
        rhs = draw.skel(ANTI, rng.randint(1, max_depth))
        if lhs is None and rhs is None:
            continue
        if lhs is None:
            lhs = draw.noncrit(MONO, 2)
        if rhs is None:
            rhs = draw.noncrit(ANTI, 2)
        ineq = Inequality(lhs, rhs)
        if classify.is_inductive(ineq) is not None:
            return ineq
    raise RuntimeError("could not draw an inductive inequality")


def phi_image(ineq: Inequality, sig: Signature) -> Inequality:
    """Substitution image: dotted modalities replaced by registered terms."""
    return Inequality(concretize(ineq.lhs, sig), concretize(ineq.rhs, sig))
