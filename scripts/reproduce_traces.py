"""Regenerate the golden trace, classify and verify files under tests/golden/.

They are normative: the CLI tests compare reduce, classify and verify
output byte for byte against these files.  Run from the repository root:

    python scripts/reproduce_traces.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dlecorr import cli  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

SIG = """\
# classical unary signature with registered role terms
conn dia F 1 (1)
conn box G 1 (1)
term pi = dia(box(dia(p)))
term sigma = box(p)
"""

TENSE_SCRIPT = """\
# scripted replay: approximate the diamond, residuate the box, eliminate p
FirstApprox
ApproxF @ 0
ResidG(1) @ 2
AckermannRight @ p
"""

PSEUDO_SCRIPT = """\
# pseudo-correspondent derivation: split, adjoint flip, eliminate p
FirstApprox
Split @ 1
AdjPi @ 1
AckermannLeft @ p
"""

# (file, command, inequality, mode, strategy, expected exit code)
CASES = [
    ("churchrosser.trace", "reduce", "dia(box(p)) <= box(dia(p))", "alba", "auto", 0),
    ("additivity.trace", "reduce",
     "dia(box(dia(p | q))) <= dia(box(dia(p))) | dia(box(dia(q)))", "albae", "auto", 0),
    ("geach.trace", "reduce",
     "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))", "albae", "auto", 0),
    ("tense.trace", "reduce", "dia(box(p)) <= box(dia(p))", "alba", "tense.script", 0),
    ("pseudo.trace", "reduce",
     "dia(box(dia(p))) <= Dia[pi](p) | dia(box(dia(bot)))", "albae",
     "pseudo.script", 0),
    ("stageone.trace", "reduce",
     "box(box(q) | (top | p)) <= box((bot | bot) & dia(q))", "alba", "auto", 0),
    ("distsigma.trace", "reduce", "box(p | box(p)) <= box(p & box(p))", "albae",
     "auto", 0),
    ("churchrosser.classify", "classify", "dia(box(p)) <= box(dia(p))", "alba", "auto", 0),
    ("additivity.classify", "classify",
     "dia(box(dia(p | q))) <= dia(box(dia(p))) | dia(box(dia(q)))", "albae", "auto", 0),
    ("pisigma.classify", "classify",
     "box(dia(box(p))) <= dia(box(dia(p)))", "albae", "auto", 0),
    ("mckinsey.classify", "classify", "box(dia(p)) <= dia(box(p))", "alba", "auto", 3),
    ("churchrosser.verify", "verify", "dia(box(p)) <= box(dia(p))", "alba", "auto", 0),
    ("geach.verify", "verify",
     "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))", "albae", "auto", 0),
]


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    sig_path = GOLDEN / "classical.sig"
    sig_path.write_text(SIG, encoding="utf-8")
    (GOLDEN / "tense.script").write_text(TENSE_SCRIPT, encoding="utf-8")
    (GOLDEN / "pseudo.script").write_text(PSEUDO_SCRIPT, encoding="utf-8")
    for fname, command, ineq, mode, strategy, expected in CASES:
        out = GOLDEN / fname
        argv = [command, ineq, "--sig", str(sig_path), "--mode", mode,
                "--out", str(out)]
        if strategy != "auto":
            argv += ["--strategy", str(GOLDEN / strategy)]
        if command == "verify":  # the sweep of the posets of at most 2 points
            argv += ["--budget", "2"]
        code = cli.main(argv)
        if code != expected:
            raise SystemExit(f"{fname}: exit code {code}, expected {expected}")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
