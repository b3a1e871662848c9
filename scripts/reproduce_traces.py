"""Regenerate the golden outputs and record files under tests/golden/.

tests/conftest.py lists them once: CASES the CLI runs whose outputs
test_cli compares byte for byte, RECORDS the test functions whose lines
the record files hold.  Run from the repository root:

    python scripts/reproduce_traces.py
"""

from __future__ import annotations

import importlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import CASES, GOLDEN, RECORDS  # noqa: E402
from dlecorr import cli  # noqa: E402


def main() -> None:
    for case in CASES:
        out = GOLDEN / case.out
        code = cli.main(case.argv() + ["--out", str(out)])
        if code != case.code:
            raise SystemExit(f"{case.out}: exit code {code}, expected {case.code}")
        print(f"wrote {out}")
    for name, module in RECORDS.items():
        lines = getattr(importlib.import_module(module), f"{name}_records")()
        out = GOLDEN / f"{name}.records"
        out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
