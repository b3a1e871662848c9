"""Command-line interface.

Subcommands:
  classify  -- Sahlqvist / inductive / meta-inductive verdicts with
               witnesses and the per-branch skeleton/PIA split
  reduce    -- run the reduction engine (auto strategy or a rule script)
               and emit the derivation trace plus the pure output
  verify    -- reduce, then brute-force check the output against the
               input and every rule step on a sweep of finite lattices
  lemmas    -- run the algebraic lemma suite over a lattice sweep

Exit codes: 0 success / positive verdict; 2 parse error, unreadable or
non-UTF-8 --sig/--strategy file, an --out file that cannot be written
(nothing is printed then), no inequality for classify/reduce/verify, an
inequality, --mode or --strategy for lemmas, or input nested too deeply;
3 no positive classification; 4 reduction failure; 5 quantifier budget
exceeded.
Identical inputs and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import classify, engine, models
from .language import ROLE_SPECS, Inequality, Layer, Signature, dotted_spec, subterms
from .parsing import ParseError, parse_inequality, parse_signature
from .printing import print_inequality

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_VERDICT = 3
EXIT_REDUCE_FAILED = 4
EXIT_BUDGET = 5


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dlecorr",
        description="correspondence calculus for distributive lattice expansions")
    p.add_argument("command", choices=["classify", "reduce", "verify", "lemmas"])
    p.add_argument("inequality", nargs="?", default=None,
                   help="inequality text, e.g. 'dia(box(p)) <= box(dia(p))'; "
                        "classify, reduce and verify take one, lemmas none")
    p.add_argument("--sig", dest="signature_path", default=None,
                   help="signature file (conn/term lines)")
    p.add_argument("--mode", choices=["alba", "albae"], default=None,
                   help="alba (the default) or albae; lemmas takes none")
    p.add_argument("--strategy", default=None,
                   help="'auto' (the default) or a rule-script file path; "
                        "lemmas takes none")
    p.add_argument("--budget", type=int, default=3, metavar="N",
                   help="sweep size, 1 to 5: verify and lemmas check the "
                        "relational lattices on at most min(N, 3) points and 20 "
                        "random lattices on at most min(N, 4) points, so 4 and "
                        "5 check the same lattices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="output_path", default=None)
    return p


def _read_text(path: str) -> str:
    """A --sig or --strategy file; one that is not UTF-8 is reported as
    an unreadable file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not valid UTF-8 (byte {exc.start}: {exc.reason})") from exc


def _load_signature(args: argparse.Namespace) -> Signature:
    if args.signature_path is None:
        return Signature(())
    return parse_signature(_read_text(args.signature_path))


def _emit(args: argparse.Namespace, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _eps_str(variables, eps) -> str:
    return "(" + ",".join(f"{v}:{e}" for v, e in zip(variables, eps.entries)) + ")"


def _omega_str(omega) -> str:
    return "{" + ",".join(f"{a}<{b}" for a, b in sorted(omega)) + "}"


def cmd_classify(args: argparse.Namespace, ineq: Inequality, sig: Signature) -> int:
    lines = [f"inequality: {print_inequality(ineq)}"]
    positive = False
    eps = classify.is_sahlqvist(ineq)
    variables = classify.variables_of(ineq)
    if eps is not None:
        lines.append(f"sahlqvist eps={_eps_str(variables, eps)}")
        positive = True
    else:
        lines.append("sahlqvist: no")
    w = classify.is_inductive(ineq)
    if w is not None:
        lines.append(f"inductive eps={_eps_str(w.variables, w.epsilon)} "
                     f"omega={_omega_str(w.omega)}")
        positive = True
    else:
        lines.append("inductive: no")
    meta = classify.is_meta_inductive(ineq, sig)
    if meta is not None:
        pre, mw = meta
        found = {dotted_spec(s) for s in (*subterms(pre.lhs), *subterms(pre.rhs))}
        roles = [spec.role for spec in ROLE_SPECS if spec in found]
        via = ",".join(roles) if roles else "identity"
        lines.append(
            f"meta-inductive via {via} preimage: {print_inequality(pre)} "
            f"eps={_eps_str(mw.variables, mw.epsilon)} omega={_omega_str(mw.omega)}")
        positive = True
    else:
        lines.append("meta-inductive: no")
    lines.append("branches:")
    lines.append(classify.branch_report(ineq, eps if eps is not None else
                                        (w.epsilon if w is not None else None)))
    _emit(args, lines)
    return EXIT_OK if positive else EXIT_NO_VERDICT


def _run_reduction(args: argparse.Namespace, ineq: Inequality,
                   sig: Signature) -> engine.Derivation:
    if args.strategy == "auto":
        return engine.run_alba(ineq, sig, args.mode, "auto")
    return engine.run_alba(ineq, sig, args.mode, "script",
                           script=_read_text(args.strategy))


def _result_lines(d: engine.Derivation) -> list[str]:
    lines = engine.trace_lines(d)
    if d.status.kind == "success":
        lines.append("pure-output:")
        for system in d.status.pure_systems:
            body = " ;; ".join(
                print_inequality(si.ineq) + (" [side]" if si.side else "")
                for si in system.ineqs)
            goal = print_inequality(system.goal) if system.goal else "-"
            lines.append(f"  {body} |- {goal}")
        lines.append(f"safe: {engine.is_safe(d)}")
    return lines


def cmd_reduce(args: argparse.Namespace, ineq: Inequality, sig: Signature) -> int:
    d = _run_reduction(args, ineq, sig)
    _emit(args, _result_lines(d))
    return EXIT_OK if d.status.kind == "success" else EXIT_REDUCE_FAILED


def _sweep_lattices(args: argparse.Namespace,
                    sig: Signature) -> list[models.FiniteDLE]:
    """Deterministic lattice sample: relational sweeps on small posets for
    unary type-(1) connectives, plus seeded random normal tables."""
    cap = args.budget
    out = [dle for _, dle in models.relational_sweep(sig, min(cap, 3))]
    rng = random.Random(args.seed)
    for _ in range(20):
        out.append(models.random_dle(rng, sig, max_points=min(cap, 4)))
    return out


def cmd_verify(args: argparse.Namespace, ineq: Inequality, sig: Signature) -> int:
    d = _run_reduction(args, ineq, sig)
    if d.status.kind != "success":
        _emit(args, _result_lines(d))
        return EXIT_REDUCE_FAILED
    lines = _result_lines(d)
    lattices = _sweep_lattices(args, sig)
    report = models.verify_correspondence(ineq, d, lattices)
    lines.append(f"correspondence: lattices={report.lattices} "
                 f"skipped={report.skipped} divergences={len(report.divergences)}")
    for dle, left, right in report.divergences[:5]:
        lines.append(f"  divergence on {dle.poset.n}-point poset: "
                     f"input={left} output={right}")
    steps_bad = 0
    steps_total = 0
    for rule, parent_sys, children in engine.rule_steps(d):
        for dle in lattices[:25]:
            if d.mode == "albae" and not models.role_axioms_hold(dle):
                continue
            steps_total += 1
            if not models.verify_rule_step(parent_sys, children, dle):
                steps_bad += 1
                lines.append(f"  unsound step: {rule.label()} on "
                             f"{dle.poset.n}-point poset")
    lines.append(f"rule-steps: checked={steps_total} unsound={steps_bad}")
    _emit(args, lines)
    return EXIT_OK if report.agree and steps_bad == 0 else EXIT_REDUCE_FAILED


def cmd_lemmas(args: argparse.Namespace, sig: Signature) -> int:
    lines = []
    bad = 0
    total = 0
    for dle in _sweep_lattices(args, sig):
        if not dle.sig.registered:
            continue
        report = models.check_lemma_suite(dle)
        total += 1
        if not report.ok:
            bad += 1
            for role, res in report.role_results.items():
                fails = [k for k, v in res.items() if not v]
                if fails:
                    lines.append(f"lattice {total}: role {role} fails {fails}")
    lines.append(f"lemma-suite: lattices={total} failures={bad}")
    _emit(args, lines)
    return EXIT_OK if bad == 0 else EXIT_REDUCE_FAILED


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "lemmas":
        for what, value in (("inequality", args.inequality), ("--mode", args.mode),
                            ("--strategy", args.strategy)):
            if value is not None:
                print(f"error: lemmas takes no {what}", file=sys.stderr)
                return EXIT_PARSE
    args.mode = args.mode or "alba"
    args.strategy = "auto" if args.strategy is None else args.strategy
    try:
        if args.command in ("verify", "lemmas") and not 1 <= args.budget <= 5:
            raise models.ModelError(f"--budget must be 1 to 5, got {args.budget}")
        sig = _load_signature(args)
        if args.command == "lemmas":
            return cmd_lemmas(args, sig)
        if args.inequality is None:
            print("error: this command needs an inequality", file=sys.stderr)
            return EXIT_PARSE
        # script replays may start from expanded-language inequalities;
        # classification and auto reduction take base/dotted inputs
        layer = Layer.DLEPP if args.strategy != "auto" else Layer.DLESTAR
        ineq = parse_inequality(args.inequality, sig, layer)
        if args.command == "classify":
            return cmd_classify(args, ineq, sig)
        if args.command == "reduce":
            return cmd_reduce(args, ineq, sig)
        return cmd_verify(args, ineq, sig)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("error: the input is nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except models.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (classify.ClassifyError, engine.EngineError, models.ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REDUCE_FAILED


if __name__ == "__main__":
    sys.exit(main())
