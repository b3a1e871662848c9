"""Reference computations made apart from dlecorr.

Everything here reads only plain data (``Poset.up``, ``Relation.rows``,
term trees) and recomputes the answer its own way:

* a Kripke-frame evaluator for the term formers that alba outputs over
  the classical signature contain;
* the first-order frame conditions of T, 4, B, D, 5 and Church-Rosser;
* automorphism groups and Burnside counts of relations up to
  automorphism, with the known totals they must reproduce.
"""

from __future__ import annotations

from itertools import permutations, product

from dlecorr.language import (
    App, Bot, Conominal, Join, Meet, Nominal, Residual, Top, Var,
)

# Known totals: unlabelled posets on 1..4 points (OEIS A000112) and binary
# relations up to isomorphism on 1..4 points (OEIS A000595).
POSETS_UP_TO_ISO = {1: 1, 2: 2, 3: 5, 4: 16}
RELATIONS_UP_TO_ISO = {1: 2, 2: 10, 3: 104, 4: 3044}


class UncoveredTerm(Exception):
    """A term former the reference evaluator does not cover."""


# ----------------------------------------------------------------------
# Kripke frames: n worlds, rows[x] = bitmask of the successors of x

def _preds(rows: tuple[int, ...]) -> tuple[int, ...]:
    n = len(rows)
    return tuple(sum(1 << x for x in range(n) if rows[x] >> y & 1)
                 for y in range(n))


def evaluate(t, rows, env: dict) -> int:
    """Value of ``t`` (a set of worlds, as a bitmask) on the frame."""
    n = len(rows)
    full = (1 << n) - 1
    if isinstance(t, (Var, Nominal, Conominal)):
        return env[(type(t).__name__, t.name)]
    if isinstance(t, Top):
        return full
    if isinstance(t, Bot):
        return 0
    if isinstance(t, Meet):
        return evaluate(t.args[0], rows, env) & evaluate(t.args[1], rows, env)
    if isinstance(t, Join):
        return evaluate(t.args[0], rows, env) | evaluate(t.args[1], rows, env)
    if isinstance(t, (App, Residual)) and len(t.args) == 1:
        a = evaluate(t.args[0], rows, env)
        kind = (type(t).__name__, t.decl.name)
        if kind == ("App", "dia"):      # some successor in a
            return sum(1 << x for x in range(n) if rows[x] & a)
        if kind == ("App", "box"):      # every successor in a
            return sum(1 << x for x in range(n) if rows[x] & ~a & full == 0)
        if kind == ("Residual", "dia"):  # right adjoint: every predecessor in a
            return sum(1 << y for y, p in enumerate(_preds(rows))
                       if p & ~a & full == 0)
        if kind == ("Residual", "box"):  # left adjoint: successors of a
            out = 0
            for x in range(n):
                if a >> x & 1:
                    out |= rows[x]
            return out
    raise UncoveredTerm(f"no reference semantics for {t!r}")


def symbols(terms) -> list[tuple[str, str]]:
    found: set[tuple[str, str]] = set()

    def walk(t):
        if isinstance(t, (Var, Nominal, Conominal)):
            found.add((type(t).__name__, t.name))
        for a in t.args:
            walk(a)

    for t in terms:
        walk(t)
    return sorted(found)


def _envs(symbols, n: int):
    full = (1 << n) - 1
    domain = {"Var": range(full + 1),
              "Nominal": [1 << w for w in range(n)],
              "Conominal": [full & ~(1 << w) for w in range(n)]}
    for values in product(*(domain[kind] for kind, _ in symbols)):
        yield dict(zip(symbols, values))


def valid(lhs, rhs, rows) -> bool:
    """lhs <= rhs under every valuation on the frame."""
    for env in _envs(symbols([lhs, rhs]), len(rows)):
        if evaluate(lhs, rows, env) & ~evaluate(rhs, rows, env):
            return False
    return True


def quasi_valid(antecedents, goal, rows) -> bool:
    """Universal closure of (all antecedents) => goal, each an (lhs, rhs)."""
    terms = [t for pair in list(antecedents) + [goal] for t in pair]
    for env in _envs(symbols(terms), len(rows)):
        if all(not evaluate(l, rows, env) & ~evaluate(r, rows, env)
               for l, r in antecedents):
            if evaluate(goal[0], rows, env) & ~evaluate(goal[1], rows, env):
                return False
    return True


def as_quasi(system, reverse_goal: bool = False):
    """A dlecorr System as (antecedents, goal) pairs of terms."""
    ants = [(si.ineq.lhs, si.ineq.rhs) for si in system.ineqs]
    goal = (system.goal.lhs, system.goal.rhs)
    return ants, (goal[::-1] if reverse_goal else goal)


def size(t) -> int:
    """Nodes of a term tree."""
    return 1 + sum(size(a) for a in t.args)


def is_pure(system) -> bool:
    """No propositional variable occurs in the system."""
    terms = [t for si in system.ineqs for t in (si.ineq.lhs, si.ineq.rhs)]
    return all(kind != "Var" for kind, _ in symbols(terms))


def frames(n: int):
    """Every relation on n worlds, as successor rows."""
    for code in range(1 << (n * n)):
        yield tuple((code >> (n * x)) & ((1 << n) - 1) for x in range(n))


# ----------------------------------------------------------------------
# first-order frame conditions

def _members(mask: int, n: int):
    return [y for y in range(n) if mask >> y & 1]


def frame_conditions(rows: tuple[int, ...]) -> dict[str, bool]:
    n = len(rows)
    succ = [_members(r, n) for r in rows]
    return {
        "T": all(rows[x] >> x & 1 for x in range(n)),
        "4": all(rows[y] & ~rows[x] == 0 for x in range(n) for y in succ[x]),
        "B": all(rows[y] >> x & 1 for x in range(n) for y in succ[x]),
        "D": all(rows),
        "5": all(rows[x] & ~rows[y] == 0 for x in range(n) for y in succ[x]),
        "CR": all(rows[y] & rows[z] for x in range(n)
                  for y in succ[x] for z in succ[x]),
    }


# ----------------------------------------------------------------------
# automorphisms and Burnside counts

def automorphisms(up: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Order automorphisms of the poset whose point i has upset up[i]."""
    n = len(up)
    leq = [[bool(up[i] >> j & 1) for j in range(n)] for i in range(n)]
    return [g for g in permutations(range(n))
            if all(leq[i][j] == leq[g[i]][g[j]]
                   for i in range(n) for j in range(n))]


def relation_orbits(up: tuple[int, ...]) -> int:
    """Relations on the points up to automorphism, by Burnside's lemma:
    the mean over the group of 2 ** (cycles of g on ordered pairs)."""
    n = len(up)
    group = automorphisms(up)
    total = 0
    for g in group:
        seen: set[tuple[int, int]] = set()
        cycles = 0
        for pair in product(range(n), repeat=2):
            if pair in seen:
                continue
            cycles += 1
            x, y = pair
            while (x, y) not in seen:
                seen.add((x, y))
                x, y = g[x], g[y]
        total += 2 ** cycles
    if total % len(group):
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return total // len(group)


def antichain_up(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))
