"""Standalone algebraic lemma sweep.

Runs the defined-modality lemma suite over relational lattices (all
posets up to iso on <= 3 points, all relations up to automorphism, one
relation interpreting both unary connectives) and prints a per-lattice
summary plus the additivity statistics for the registered diamond-role
term.

    python scripts/lemma_sweep.py [signature-file] [--seed N]
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dlecorr import models  # noqa: E402
from dlecorr.parsing import parse_signature  # noqa: E402

DEFAULT_SIG = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden" / "classical.sig"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("signature", nargs="?", default=str(DEFAULT_SIG))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sig = parse_signature(pathlib.Path(args.signature).read_text())
    rng = random.Random(args.seed)

    total = failures = additive = 0
    for rel, dle in models.relational_sweep(sig, 3):
        total += 1
        report = models.check_lemma_suite(dle, rng)
        if not report.ok:
            failures += 1
            print(f"FAIL on {dle.poset.n}-point poset, relation {rel.pairs()}:")
            for role, res in report.role_results.items():
                bad = [k for k, v in res.items() if not v]
                if bad:
                    print(f"  {role}: {bad}")
        if sig.role("pi") is not None:
            additive += models.role_axiom_holds(dle, "pi")
    print(f"lattices: {total}  suite failures: {failures}  "
          f"additive diamond-role instances: {additive}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
