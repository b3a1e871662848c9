"""The three benchmark workloads.

Each workload builds its inputs from a seed in its constructor (the
set-up), hands out rounds of operations, runs one operation at a time
(``run``, the only timed call) and judges each output against
computations made apart from the program (``verdict``).  ``final_checks``
runs once after the timed loop.

Library functions are looked up on their modules at call time
(``models.check_validity``, never a from-import) so that the traced run
sees every call.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

from dlecorr import classify, engine, generators, models, parsing, printing
from dlecorr.engine import System
from dlecorr.language import (
    App, BOT, TOP, Inequality, Layer, Var, join, meet,
)

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
CLASSICAL_SIG = ROOT / "tests" / "golden" / "classical.sig"

OK, KNOWN_FAULT = "ok", "known_fault"
KNOWN_FAULT_PREFIX = "no display rule for"

# Inputs that stop on the missing lattice join/meet residuation rule: an
# SRR lattice node on a critical branch.  They do not depend on --seed and
# run in every round of reduce_mix.  Found by drawing from fixed seeds:
# source (c) below at seed 5 (2000 draws: 17 fail) and source (b) at seed
# 6031769, max_depth 4, which is the stream of acceptance criterion 4
# (first 400 draws: 5 fail, the first of them draw 127).
KNOWN_FAULTS: tuple[tuple[str, str], ...] = tuple(
    (text, "alba") for text in (
        "box(dia(p)) <= dia(dia(bot & p))",
        "dia(box(bot | q)) <= dia(box(q) | (q | p))",
        "box(dia(p) & dia(bot)) <= (p | p) & dia(bot) & dia(p & q)",
        "box((p | q) & box(top)) <= dia(box(box(q)))",
        "box(box(q | p)) <= dia((q | p) & bot)",
        "box(top | p | box(top)) <= dia(q & p & (bot | q))",
        "box(top | q | top) <= dia(q & bot) & (p & dia(bot))",
        "box(box(top) & (p | q)) <= dia(box(dia(q)))",
        "box(dia(p) & dia(bot)) <= dia(bot & p) | box(p & bot)",
        "box((top | q) & (p & top)) <= dia(box(box(q)))",
        "box(box(p) | dia(bot)) <= dia(box(box(p)))",
        "box(dia(q) | box(q)) <= dia((q | p) & bot)",
        "box(dia(bot) & (q | bot)) <= dia(box(box(q)))",
        "box(dia(p) | bot & bot) <= dia(q & p) | dia(dia(bot))",
        "box(box(q | q)) <= dia((p | q) & dia(p))",
        "box(box(top) | (top | p)) <= top | dia(box(p))",
        "box(q | p) & dia(box(q)) <= dia(box(p) | q)",
    )) + tuple(
    (text, "albae") for text in (
        "box(p | q) <= box(p)",
        "box(p | top) <= dia(box(dia(dia(box(dia(dia(p)))))))",
        "box(p | bot) <= q",
        "box(q) & box(p | bot) <= dia(p)",
        "box(p | top) <= dia(p)",
    ))

# Modal axioms with their first-order frame conditions.
FRAME_AXIOMS = (
    ("T", "box(p) <= p"),
    ("4", "box(p) <= box(box(p))"),
    ("B", "p <= box(dia(p))"),
    ("D", "box(p) <= dia(p)"),
    ("5", "dia(p) <= box(dia(p))"),
    ("CR", "dia(box(p)) <= box(dia(p))"),
)
DIA_DIA_BOX = "dia(dia(box(p))) <= box(dia(dia(p)))"
MCKINSEY = "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))"


def classical_signature():
    return parsing.parse_signature(CLASSICAL_SIG.read_text())


def _failure_message(d) -> str:
    stuck = d.status.stuck
    return stuck.message if stuck is not None else ""


def _derivation_problems(d, what: str) -> list[str]:
    """Properties every successful derivation must have."""
    problems = []
    if d.status.kind != "success":
        return [f"{what}: {d.status.kind}: {_failure_message(d)}"]
    if not all(ref.is_pure(s) for s in d.status.pure_systems):
        problems.append(f"{what}: pure output has propositional variables")
    if d.mode == "albae" and not engine.is_safe(d):
        problems.append(f"{what}: albae derivation is not safe")
    return problems


def rule_steps(d):
    """(parent, children) of every rule application between systems that
    have a goal, on the concrete (role-expanded) systems."""
    steps = []
    for node in d.nodes:
        if not node.children:
            continue
        parent = d.node_system_concrete(node.id)
        if parent.goal is None:
            continue
        children = [d.node_system_concrete(c) for c in node.children]
        if any(c.goal is None for c in children):
            continue
        steps.append((parent, children))
    return steps


def fresh_copy(dle):
    """The same lattice with empty derived-table caches."""
    return models.FiniteDLE(dle.poset, dle.sig, dict(dle.ops), validate=False)


# ----------------------------------------------------------------------

class _Input:
    __slots__ = ("text", "sig", "mode", "source", "reference")

    def __init__(self, text, sig, mode, source):
        self.text, self.sig, self.mode, self.source = text, sig, mode, source
        self.reference = None


class ReduceMix:
    """Parse, classify, reduce and export one inequality per operation."""

    name = "reduce_mix"
    # Inputs per source and term size (nodes of both sides, in bands of
    # SIZE_BAND): the shares of each source's natural draws, fixed, so that
    # seeds change the inputs and not the make-up of a round.  A few large
    # inputs take 100-500 ms each, so an open mix moved the round's time by
    # about a tenth from seed to seed.  Draws of a full band or past the
    # last band are set aside.
    SIZE_BAND = 5
    QUOTAS = {
        "a": (78, 167, 113, 72, 32, 18, 10, 5, 3, 2),
        "b": (104, 284, 96, 15, 1),
        "c": (55, 160, 184, 85, 16),
    }
    OWN_EVAL_SAMPLE = 30
    OWN_EVAL_3_WORLD_FRAMES = 32
    TRACE_ROUNDS = 1

    def __init__(self, seed: int):
        self.sig = classical_signature()
        self.dia, self.box = self.sig.decl("dia"), self.sig.decl("box")
        self.valuations = 0
        self.set_aside = 0
        self.off_quota = 0
        draw = {"a": self._draw_a, "b": self._draw_b, "c": self._draw_c}
        items = []
        for k, source in enumerate("abc"):
            rng = random.Random(seed * 1009 + k)
            room = list(self.QUOTAS[source])
            while any(room):
                sig, ineq, mode = draw[source](rng)
                band = (ref.size(ineq.lhs) + ref.size(ineq.rhs)) // self.SIZE_BAND
                if band >= len(room) or not room[band]:
                    self.off_quota += 1
                    continue
                d = engine.run_alba(ineq, sig, mode, "auto")
                # a seeded draw that hits the known fault would make the
                # failure count depend on the seed; KNOWN_FAULTS stands in
                if (d.status.kind != "success"
                        and _failure_message(d).startswith(KNOWN_FAULT_PREFIX)):
                    self.set_aside += 1
                    continue
                items.append(_Input(printing.print_inequality(ineq), sig, mode,
                                    source))
                room[band] -= 1
        items += [_Input(text, self.sig, mode, "known")
                  for text, mode in KNOWN_FAULTS]
        random.Random(seed).shuffle(items)
        self.items = items
        self.frame_rng = random.Random(seed * 1009 + 3)

    # -- input sources ----------------------------------------------------

    def _draw_a(self, rng):
        """(a) random inductive inequality over a random signature."""
        rsig = generators.random_signature(rng)
        return rsig, generators.random_inductive(rng, rsig), "alba"

    def _draw_b(self, rng):
        """(b) substitution image of a dotted random inductive inequality."""
        star = generators.random_inductive(rng, self.sig, star=True, max_depth=3)
        return self.sig, generators.phi_image(star, self.sig), "albae"

    def _draw_c(self, rng):
        """(c) uniform term pairs on the classical signature, kept when
        the classifier calls them inductive."""
        while True:
            ineq = Inequality(self._uniform(rng, 3), self._uniform(rng, 3))
            if classify.is_inductive(ineq) is not None:
                return self.sig, ineq, "alba"

    def _uniform(self, rng, depth: int):
        pick = rng.choice(("dia", "box", "&", "|", "leaf") if depth else ("leaf",))
        if pick == "leaf":
            pick = rng.choice(("top", "bot", "p", "q"))
        if pick in ("dia", "box"):
            decl = self.dia if pick == "dia" else self.box
            return App(decl, (self._uniform(rng, depth - 1),))
        if pick in ("&", "|"):
            a, b = self._uniform(rng, depth - 1), self._uniform(rng, depth - 1)
            return meet(a, b) if pick == "&" else join(a, b)
        return {"top": TOP, "bot": BOT}.get(pick) or Var(pick)

    # -- operations -------------------------------------------------------

    def round(self, k: int, fresh: bool = False):
        return self.items

    def run(self, item):
        ineq = parsing.parse_inequality(item.text, item.sig, Layer.DLE)
        sahlqvist = classify.is_sahlqvist(ineq)
        inductive = classify.is_inductive(ineq)
        meta = (classify.is_meta_inductive(ineq, item.sig)
                if item.mode == "albae" else None)
        d = engine.run_alba(ineq, item.sig, item.mode, "auto")
        return (sahlqvist, inductive, meta, d, engine.is_safe(d),
                engine.trace_lines(d))

    @staticmethod
    def _summary(out):
        sahlqvist, inductive, meta, d, safe, lines = out
        return (sahlqvist is None, inductive is None, meta is None, safe, lines)

    def verdict(self, item, out) -> str:
        # the first output of each input gets the full checks (final_checks);
        # later ones must repeat it
        if item.reference is None:
            item.reference = out
        elif self._summary(out) != self._summary(item.reference):
            return f"{item.text}: output differs from its first run"
        d = out[3]
        if d.status.kind == "success":
            return OK
        if item.source == "known" and _failure_message(d).startswith(
                KNOWN_FAULT_PREFIX):
            return KNOWN_FAULT
        return f"{item.text} ({item.mode}): {d.status.kind}: {_failure_message(d)}"

    def notes(self) -> dict:
        return {"seeded_draws_set_aside": self.set_aside,
                "draws_off_quota": self.off_quota}

    # -- checks -----------------------------------------------------------

    def _frames(self):
        out = [rows for n in (1, 2) for rows in ref.frames(n)]
        all3 = list(ref.frames(3))
        out += self.frame_rng.sample(all3, self.OWN_EVAL_3_WORLD_FRAMES)
        return out

    @staticmethod
    def divergence(ineq, systems, frames, reverse_goal=False):
        """First frame where input validity and output validity differ."""
        quasi = [ref.as_quasi(s, reverse_goal) for s in systems]
        for rows in frames:
            left = ref.valid(ineq.lhs, ineq.rhs, rows)
            right = all(ref.quasi_valid(ants, goal, rows) for ants, goal in quasi)
            if left != right:
                return rows
        return None

    def final_checks(self) -> list[str]:
        problems = []
        own_eval = []
        for item in self.items:
            _, inductive, meta, d, _, lines = item.reference
            what = f"{item.text} ({item.mode})"
            if (inductive if item.mode == "alba" else meta) is None:
                problems.append(f"{what}: not accepted by the classifier")
            if d.status.kind == "success":
                problems += _derivation_problems(d, what)
                if lines[-1] != "status: success":
                    problems.append(f"{what}: trace does not end in success")
                if item.source == "c":
                    own_eval.append((item, d))
        frames = self._frames()
        for item, d in self.frame_rng.sample(
                own_eval, min(self.OWN_EVAL_SAMPLE, len(own_eval))):
            rows = self.divergence(d.root, d.status.pure_systems, frames)
            if rows is not None:
                problems.append(f"{item.text}: input and pure output disagree "
                                f"on the frame {rows}")
        # the check above must catch a wrong answer; with the goal reversed,
        # the Church-Rosser output first diverges on 3-world frames
        cr = parsing.parse_inequality(FRAME_AXIOMS[-1][1], self.sig, Layer.DLE)
        d = engine.run_alba(cr, self.sig, "alba", "auto")
        frames = [rows for n in (1, 2, 3) for rows in ref.frames(n)]
        if self.divergence(cr, d.status.pure_systems, frames) is not None:
            problems.append("self-test: Church-Rosser output diverges")
        if self.divergence(cr, d.status.pure_systems, frames,
                           reverse_goal=True) is None:
            problems.append("self-test: a reversed goal went unnoticed")
        return problems


# ----------------------------------------------------------------------

class RelationalSweep:
    """Every lattice of the acceptance sweep against a fixed set of
    reductions, plus the lemma suite; one lattice per operation."""

    name = "relational_sweep"
    BLOCK = 250
    TRACE_ROUNDS = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.sig = sig = classical_signature()
        self.valuations = 0
        self.lattices = []  # (poset, relation, lattice)
        posets = [p for n in (1, 2, 3)
                  for p in models.enumerate_posets(n, up_to_iso=True)]
        posets.append(models.antichain(4))
        for poset in posets:
            for rel, dle in models.relational_lattices(sig, poset):
                self.lattices.append((poset, rel, dle))
        self.posets = posets

        parse = lambda text: parsing.parse_inequality(text, sig, Layer.DLE)
        cases = [(label, parse(text), mode)
                 for label, text in FRAME_AXIOMS + (("DDB", DIA_DIA_BOX),)
                 for mode in ("alba", "albae")]
        cases.append(("McKinsey", parse(MCKINSEY), "albae"))
        pi = lambda t: sig.role_instance("pi", t)
        sigma = lambda t: sig.role_instance("sigma", t)
        p, q = Var("p"), Var("q")
        cases.append(("additivity",
                      Inequality(pi(join(p, q)), join(pi(p), pi(q))), "albae"))
        cases.append(("composition-swap",
                      Inequality(pi(sigma(p)), sigma(pi(p))), "albae"))
        self.derivations = [(label, ineq, engine.run_alba(ineq, sig, mode))
                            for label, ineq, mode in cases]

        self.order = list(range(len(self.lattices)))
        random.Random(seed).shuffle(self.order)
        self.visited: list[int] = []

    def round(self, k: int, fresh: bool = False):
        n = len(self.order)
        items = []
        for pos in range(k * self.BLOCK, (k + 1) * self.BLOCK):
            index = self.order[pos % n]
            dle = self.lattices[index][2]
            # a lattice seen before has its derived tables cached
            items.append((index, fresh_copy(dle) if fresh or pos >= n else dle))
        return items

    def run(self, item):
        index, dle = item
        budget = models.Budget()
        rows = []
        for _, ineq, d in self.derivations:
            if d.mode == "albae" and not models.role_axioms_hold(dle):
                rows.append(None)
                continue
            left = models.check_validity(ineq, dle, budget)[0]
            right = models.check_quasi(d.status.pure_systems, dle, budget)
            rows.append((left, right))
        lemmas = models.check_lemma_suite(
            dle, random.Random(self.seed * 1_000_003 + index))
        self.valuations += budget.used
        return rows, lemmas

    def verdict(self, item, out) -> str:
        index, _ = item
        rows, lemmas = out
        self.visited.append(index)
        for (label, _, d), row in zip(self.derivations, rows):
            if row is not None and row[0] != row[1]:
                return (f"lattice {index}: {label} ({d.mode}) input validity "
                        f"{row[0]} but pure output {row[1]}")
        poset, rel, _ = self.lattices[index]
        if poset.up == ref.antichain_up(poset.n):
            want = ref.frame_conditions(rel.rows)
            for (label, _, d), row in zip(self.derivations, rows):
                if d.mode == "alba" and label in want and row[0] != want[label]:
                    return (f"lattice {index} (rows {rel.rows}): {label} valid "
                            f"{row[0]}, frame condition {want[label]}")
        if not lemmas.ok:
            return f"lattice {index}: lemma suite fails: {lemmas.role_results}"
        return OK

    def notes(self) -> dict:
        return {"lattices": len(self.lattices),
                "distinct_lattices_visited": len(set(self.visited))}

    # -- checks -----------------------------------------------------------

    def final_checks(self) -> list[str]:
        problems = []
        for label, _, d in self.derivations:
            problems += _derivation_problems(d, f"{label} ({d.mode})")
        problems += self._sweep_size()
        problems += self._nonadditive_pi()
        problems += self._self_test()
        return problems

    def _sweep_size(self) -> list[str]:
        problems = []
        for n, want in ref.RELATIONS_UP_TO_ISO.items():
            got = ref.relation_orbits(ref.antichain_up(n))
            if got != want:
                problems.append(f"own Burnside count on {n} points: {got} != {want}")
        posets = Counter(p.n for p in self.posets[:-1])
        posets[4] = len(models.enumerate_posets(4, up_to_iso=True))
        for n, want in ref.POSETS_UP_TO_ISO.items():
            if posets[n] != want:
                problems.append(f"{posets[n]} posets on {n} points, expected {want}")
        per_poset = Counter(poset for poset, _, _ in self.lattices)
        for poset in self.posets:
            want = ref.relation_orbits(poset.up)
            if per_poset[poset] != want:
                problems.append(f"poset {poset.up}: {per_poset[poset]} "
                                f"relations, Burnside count {want}")
        return problems

    def _nonadditive_pi(self) -> list[str]:
        """On every visited antichain lattice, pi as the program tabulates
        it must equal the reference; at least one must be non-additive."""
        reg = self.sig.role("pi")
        problems = []
        found = False
        for index in dict.fromkeys(self.visited):
            poset, rel, dle = self.lattices[index]
            if poset.up != ref.antichain_up(poset.n):
                continue
            own = {m: ref.evaluate(reg.term, rel.rows, {("Var", reg.var): m})
                   for m in dle.elements}
            table = dle.role_table("pi")
            if any(dle.elements[table[u]] != own[m]
                   for u, m in enumerate(dle.elements)):
                problems.append(f"lattice {index}: role table of pi is wrong")
            found = found or any(own[a | b] & ~(own[a] | own[b])
                                 for a in dle.elements for b in dle.elements)
        if not found:
            problems.append("no visited lattice has a non-additive pi")
        return problems

    def _self_test(self) -> list[str]:
        """The divergence check must catch a wrong answer: the input of CR
        paired with the pure output of T."""
        by_label = {(label, d.mode): (ineq, d) for label, ineq, d in self.derivations}
        cr, _ = by_label[("CR", "alba")]
        _, wrong = by_label[("T", "alba")]
        for index in self.visited:
            dle = self.lattices[index][2]
            if models.check_validity(cr, dle)[0] != models.check_quasi(
                    wrong.status.pure_systems, dle):
                return []
        return ["self-test: a wrong pure output went unnoticed"]


# ----------------------------------------------------------------------

class StepSoundness:
    """Every rule step of one derivation on its pool of random lattices,
    one derivation per operation."""

    name = "step_soundness"
    # Derivations per half-octave of their valuation count v (the
    # valuations that verifying every step on its whole pool enumerates
    # when no check stops early; the class is the bit length of v * v):
    # fixed, so that seeds change the inputs and not the make-up of a pass.
    # An open mix moved the work of a pass by a quarter from seed to seed.
    # Each class holds what 950 candidates fill with a chance of 99 %, so
    # that the set-up's draws, and its time, vary little.  Draws of a full
    # class or of none (v of 2 ** 15 or more) are set aside.
    QUOTAS = {0: 23, 12: 4, 13: 16, 14: 31, 15: 38, 16: 32, 17: 42, 18: 55,
              19: 64, 20: 68, 21: 68, 22: 57, 23: 43, 24: 36, 25: 30, 26: 18,
              27: 16, 28: 8, 29: 2, 30: 2}
    POOL = 6
    MAX_POINTS = 3
    # A check enumerates elements ** variables * irreducibles ** nominals
    # valuations, so a few derivations with 7-12 symbols on 8-element
    # lattices would take most of a run and make it depend on the seed.
    MAX_ELEMENTS = 5
    MAX_SYMBOLS = 6
    POOL_TRIES = 600
    BLOCK = 50
    TRACE_ROUNDS = 16

    def __init__(self, seed: int):
        sig = classical_signature()
        rng = random.Random(seed)
        self.valuations = 0
        self.unreduced = self.too_many_symbols = self.off_quota = 0
        self.items = []  # (derivation, steps, pool)
        room = dict(self.QUOTAS)
        albae = False
        while any(room.values()):
            if albae:
                rsig = sig
                star = generators.random_inductive(rng, sig, star=True, max_depth=3)
                ineq = generators.phi_image(star, sig)
            else:
                rsig = generators.random_signature(rng)
                ineq = generators.random_inductive(rng, rsig)
            d = engine.run_alba(ineq, rsig, "albae" if albae else "alba", "auto")
            albae = not albae
            if d.status.kind != "success":
                self.unreduced += 1
                continue
            steps = rule_steps(d)
            if max((len(system.symbols()) for parent, children in steps
                    for system in [parent] + children), default=0) > self.MAX_SYMBOLS:
                self.too_many_symbols += 1
                continue
            pool = self._pool(rng, rsig, d.mode)
            cost = sum(self._valuations(system, dle) for parent, children in steps
                       for system in [parent] + children for dle in pool)
            key = (cost * cost).bit_length()
            if not room.get(key):
                self.off_quota += 1
                continue
            room[key] -= 1
            self.items.append((d, steps, pool))

    @staticmethod
    def _valuations(system, dle) -> int:
        terms = [t for si in system.ineqs for t in (si.ineq.lhs, si.ineq.rhs)]
        domain = {"Var": dle.n_elem, "Nominal": len(dle.jirr),
                  "Conominal": len(dle.mirr)}
        count = 1
        for kind, _ in ref.symbols(terms + [system.goal.lhs, system.goal.rhs]):
            count *= domain[kind]
        return count

    def _pool(self, rng, sig, mode):
        pool = []
        for _ in range(self.POOL_TRIES):
            dle = models.random_dle(rng, sig, max_points=self.MAX_POINTS)
            if dle.n_elem > self.MAX_ELEMENTS:
                continue
            if mode == "albae" and not models.role_axioms_hold(dle):
                continue
            pool.append(dle)
            if len(pool) == self.POOL:
                return pool
        raise RuntimeError("could not assemble a lattice pool")

    def round(self, k: int, fresh: bool = False):
        n = len(self.items)
        items = []
        for pos in range(k * self.BLOCK, (k + 1) * self.BLOCK):
            d, steps, pool = self.items[pos % n]
            if fresh or pos >= n:
                pool = [fresh_copy(dle) for dle in pool]
            items.append((pos % n, steps, pool))
        return items

    def run(self, item):
        _, steps, pool = item
        budget = models.Budget()
        sound = [models.verify_rule_step(parent, children, dle, budget=budget)
                 for parent, children in steps for dle in pool]
        self.valuations += budget.used
        return sound

    def verdict(self, item, out) -> str:
        if all(out):
            return OK
        index = item[0]
        return (f"derivation {index} ({self.items[index][0].mode}): "
                f"{out.count(False)} unsound step/lattice pairs")

    def notes(self) -> dict:
        return {"unreduced_draws_skipped": self.unreduced,
                "draws_over_max_symbols_skipped": self.too_many_symbols,
                "draws_off_quota": self.off_quota}

    def final_checks(self) -> list[str]:
        problems = []
        for index, (d, _, _) in enumerate(self.items):
            problems += _derivation_problems(d, f"derivation {index}")
        # the check must catch a wrong step: a child that drops every
        # antecedent of its parent
        for d, steps, pool in self.items:
            for parent, _ in steps:
                wrong = [System((), parent.goal)]
                if not all(models.verify_rule_step(parent, wrong, dle)
                           for dle in pool):
                    return problems
        problems.append("self-test: a wrong rule step went unnoticed")
        return problems


WORKLOADS = {w.name: w for w in (ReduceMix, RelationalSweep, StepSoundness)}
