import subprocess
import sys

import pytest

from conftest import CASES, GOLDEN, RECORDS, SIG


def run_cli(args, out=None):
    argv = [sys.executable, "-m", "dlecorr.cli"] + args
    if out is not None:
        argv += ["--out", str(out)]
    return subprocess.run(argv, capture_output=True, text=True)


def test_classify_sahlqvist_exit_zero():
    r = run_cli(["classify", "dia(box(p)) <= box(dia(p))", "--sig", str(SIG)])
    assert r.returncode == 0
    assert "sahlqvist eps=(p:1)" in r.stdout


def test_classify_meta_inductive_verdict():
    r = run_cli(["classify", "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                 "--sig", str(SIG)])
    assert r.returncode == 0
    assert "sahlqvist: no" in r.stdout
    assert "inductive: no" in r.stdout
    assert "meta-inductive via pi,sigma" in r.stdout


def test_classify_variable_free_is_positive():
    r = run_cli(["classify", "top <= bot", "--sig", str(SIG)])
    assert r.returncode == 0
    assert "inductive eps=()" in r.stdout


def test_classify_negative_verdict_exit_three(tmp_path):
    sig = tmp_path / "bare.sig"
    sig.write_text("conn dia F 1 (1)\nconn box G 1 (1)\n")
    r = run_cli(["classify", "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                 "--sig", str(sig)])
    assert r.returncode == 3


def test_parse_error_exit_two():
    r = run_cli(["classify", "dia(box(p) <= box(dia(p))", "--sig", str(SIG)])
    assert r.returncode == 2
    assert "position" in r.stderr


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.out)
def test_cli_matches_golden(case, tmp_path):
    out = tmp_path / case.out
    r = run_cli(case.argv(), out=out)
    assert r.returncode == case.code, r.stderr
    assert out.read_bytes() == r.stdout.encode() == (GOLDEN / case.out).read_bytes()


def test_every_golden_file_is_listed():
    # each file under tests/golden is an input of a case or the output of
    # exactly one case or record function: no orphan, nothing unlisted
    inputs = {SIG.name} | {case.script for case in CASES if case.script}
    outputs = [case.out for case in CASES] + [f"{name}.records" for name in RECORDS]
    assert len(set(outputs)) == len(outputs) and not inputs & set(outputs)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(inputs | set(outputs))


def test_input_file_not_utf8_exit_two(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("conn dia F 1 (1) # \u00e9\n".encode("latin-1"))
    for flag in ("--sig", "--strategy"):
        r = run_cli(["reduce", "p <= p", flag, str(bad)])
        assert r.returncode == 2, (flag, r.stderr)
        assert r.stderr == f"error: {bad}: not valid UTF-8 (byte 19: invalid continuation byte)\n"


def test_unwritable_out_file_exit_two(tmp_path):
    # the file is opened before anything is printed
    out = tmp_path / "missing" / "out.txt"
    r = run_cli(["reduce", "dia(box(p)) <= box(dia(p))", "--sig", str(SIG)], out=out)
    assert r.returncode == 2, r.stderr
    assert r.stderr == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert r.stdout == "" and not out.parent.exists()


# the arguments each command reads, besides --out, which each reads
TAKES = {
    "classify": {"inequality", "--sig"},
    "reduce": {"inequality", "--sig", "--mode", "--strategy"},
    "verify": {"inequality", "--sig", "--mode", "--strategy", "--budget", "--seed"},
    "lemmas": {"--sig", "--budget", "--seed"},
}
GIVEN = {"inequality": ["p <= p"], "--sig": ["--sig", str(SIG)], "--mode": ["--mode", "alba"],
         "--strategy": ["--strategy", "auto"], "--budget": ["--budget", "1"],
         "--seed": ["--seed", "1"]}


def test_a_command_takes_only_the_arguments_it_reads(tmp_path, capsys):
    # an argument the command does not read, even at its default value, is
    # a usage error before any work, as a missing inequality is; argparse's
    # wording differs between Python versions, so stderr is matched by the
    # argument it names
    from dlecorr import cli
    out = tmp_path / "out.txt"

    def refused(argv, named):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(out)])
        printed = capsys.readouterr()
        assert (exc.value.code, printed.out, out.exists()) == (2, "", False), argv
        assert named in printed.err, (argv, printed.err)
        assert printed.err.startswith(f"usage: dlecorr {argv[0]} "), printed.err

    refusals = 0
    for command, takes in TAKES.items():
        needed = GIVEN["inequality"] if "inequality" in takes else []
        for arg in sorted(GIVEN.keys() - takes):
            refused([command, *needed, *GIVEN[arg]], GIVEN[arg][0])
            refusals += 1
        if needed:
            refused([command], "inequality")
    assert refusals == 9


@pytest.mark.parametrize("argv, named", [
    (["classify", "p <= p", "--mode", "alba"], "--mode"),
    (["reduce", "p <= p", "--budget", "9"], "--budget 9"),
    (["verify", "p <= p", "--depth", "2"], "--depth 2"),
    (["lemmas", "p <= p"], "p <= p"),
])
def test_an_argument_a_command_does_not_take_shows_its_usage(argv, named, capsys):
    # the command's own parser refuses it, with the command's usage, not
    # the top level's list of commands
    from dlecorr import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: dlecorr {argv[0]} "), err
    assert f"dlecorr {argv[0]}: error: " in err and named in err, err


def test_deeply_nested_input_exit_two():
    # 3000 parentheses overflow the parser, a 2000-term meet chain the
    # classifier
    for text in ("(" * 3000 + "p" + ")" * 3000 + " <= p",
                 " & ".join(["p"] * 2000) + " <= p"):
        r = run_cli(["classify", text])
        assert r.returncode == 2, r.stderr[-300:]
        assert r.stderr == "error: the input is nested too deeply\n"


def test_script_with_a_bad_path_is_a_stuck_report(tmp_path, capsys):
    # a missing subterm path, one past a leaf and a side other than 0 or 1
    # end as a stuck report with exit 4, not as a traceback
    from dlecorr import cli
    cases = [
        ("alba", "DistributePre(1) @ 0", "a subterm path starts with side 0 or 1"),
        ("alba", "DistributePre(1) @ 0/0.7", "path 0.7 points past a leaf"),
        ("albae", "FirstApprox\nRewritePi @ 0 / 1.3.3", "path 1.3.3 points past a leaf"),
        ("albae", "FirstApprox\nRewritePi @ 0 / 2", "a subterm path starts with side 0 or 1"),
        # a path with an empty component is a line the script cannot parse
        ("albae", "FirstApprox\nRewritePi @ 0 / 1..0",
         "script line 2: cannot parse 'RewritePi @ 0 / 1..0'"),
        ("alba", "DistributePre(1) @ 0 / .",
         "script line 1: cannot parse 'DistributePre(1) @ 0 / .'"),
        ("alba", "DistributePre(1) @ 0 / 0.",
         "script line 1: cannot parse 'DistributePre(1) @ 0 / 0.'"),
    ]
    script = tmp_path / "bad.script"
    for mode, text, reason in cases:
        script.write_text(text + "\n")
        code = cli.main(["reduce", "dia(p | q) <= dia(p)", "--sig", str(SIG),
                         "--mode", mode, "--strategy", str(script)])
        assert code == 4, text
        assert f"stuck: vars= : {reason}\n" in capsys.readouterr().out, text


def test_plain_rules_in_albae_mode_are_a_stuck_report(tmp_path, capsys):
    # in albae mode a dotted marker stands for its registered term, which
    # the plain rules, made for a normal connective, may not take apart
    from dlecorr import cli
    sig = tmp_path / "f.sig"
    sig.write_text("conn f F 1 (1)\nterm pi = f(p)\n")
    script = tmp_path / "plain.script"
    for ineq, text in (("q <= dia(p)", "FirstApprox\nAdjDotDia @ 1"),
                       ("dia(p) <= q", "FirstApprox\nApproxDotDia @ 0")):
        script.write_text(text + "\n")
        code = cli.main(["reduce", ineq, "--sig", str(sig), "--mode", "albae",
                         "--strategy", str(script)])
        assert code == 4, text
        rid = text.split()[1]
        assert f"stuck: vars= : {rid} applies in alba mode only\n" in \
            capsys.readouterr().out, text


def test_role_rules_in_alba_mode_are_a_stuck_report(tmp_path, capsys):
    # the role rules read a registered term as satisfying its role's
    # axiom, which alba mode does not assume
    from dlecorr import cli
    script = tmp_path / "role.script"
    script.write_text("FirstApprox\nApproxPi @ 0\n")
    code = cli.main(["reduce", "dia(box(dia(p))) <= q", "--sig", str(SIG),
                     "--mode", "alba", "--strategy", str(script)])
    assert code == 4
    assert "stuck: vars= : ApproxPi applies in albae mode only\n" in capsys.readouterr().out


def test_a_coordinate_a_step_does_not_read_is_a_stuck_report(tmp_path, capsys):
    # only residuation (a dotted marker's in coordinate 1), distribution and
    # MonotoneElim read a coordinate: a scripted step given one it does not
    # use refuses it, and the trace has no node for that step
    from dlecorr import cli
    sig = tmp_path / "f.sig"
    sig.write_text("conn f F 1 (1)\nterm pi = f(p)\n")
    script = tmp_path / "coord.script"
    cases = [
        ("alba", "q <= dia(p)", "AdjDotDia(2) @ 1", "AdjDotDia has no coordinate 2"),
        ("albae", "q <= f(p)", "AdjPi(7) @ 1", "AdjPi takes no coordinate, got 7"),
        ("alba", "f(p) <= q", "ApproxF(3) @ 0", "ApproxF takes no coordinate, got 3"),
    ]
    for mode, ineq, step, reason in cases:
        script.write_text(f"FirstApprox\n{step}\n")
        code = cli.main(["reduce", ineq, "--sig", str(sig), "--mode", mode,
                         "--strategy", str(script)])
        out = capsys.readouterr().out
        assert code == 4, step
        assert f"stuck: vars= : {reason}\n" in out, step
        assert "rule:FirstApprox" in out and f"rule:{step.split()[0]}" not in out, step


def test_an_unfinished_script_reports_its_variables_and_leaves(tmp_path, capsys):
    # a script that stops early is a stuck report naming the variables left
    # in its leaves and each leaf it left without a first approximation
    from dlecorr import cli
    script = tmp_path / "short.script"
    cases = [
        ("p & q <= p", "", "vars=p,q : script left leaf 0 without first approximation"),
        ("p | r <= q", "Split @ 0",
         "vars=p,q,r : script left leaves 1,2 without first approximation"),
        ("top <= bot", "", "vars= : script left leaf 0 without first approximation"),
        ("p & q <= p", "FirstApprox", "vars=p,q : script left a non-pure system"),
        # steps apply to the leftmost open leaf, and ``done`` closes it
        ("p | q <= dia(p)", "Split @ 0\nFirstApprox",
         "vars=p,q : script left leaf 2 without first approximation"),
        ("p | q <= dia(p)", "Split @ 0\ndone\nFirstApprox",
         "vars=p,q : script left leaf 1 without first approximation"),
    ]
    for ineq, text, stuck in cases:
        script.write_text(text + "\n")
        code = cli.main(["reduce", ineq, "--sig", str(SIG), "--strategy", str(script)])
        out = capsys.readouterr().out
        assert code == 4, (ineq, text)
        assert f"stuck: {stuck}\n" in out, out


def test_reduce_failure_exit_four(tmp_path):
    sig = tmp_path / "bare.sig"
    sig.write_text("conn dia F 1 (1)\nconn box G 1 (1)\n")
    r = run_cli(["reduce", "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                 "--sig", str(sig)])
    assert r.returncode == 4
    assert "stuck" in r.stdout


def test_budget_guard():
    # a sweep budget outside 1..5 is a documented error, not a traceback,
    # reported before any work: also on an input that does not reduce
    for command, budget, ineq in (("verify", "0", "p <= p"), ("lemmas", "-1", None),
                                  ("verify", "6", "p <= p"),
                                  ("verify", "9", "box(dia(p)) <= dia(box(p))")):
        args = [command] + ([ineq] if ineq else [])
        r = run_cli(args + ["--sig", str(SIG), "--budget", budget])
        assert r.returncode == 4, (budget, r.stderr)
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: --budget must be 1 to 5"), r.stderr
        assert r.stdout == ""


def test_determinism_same_seed_byte_identical(tmp_path):
    outs = []
    for i in (1, 2):
        out = tmp_path / f"v{i}.txt"
        r = run_cli(["verify", "dia(box(p)) <= box(dia(p))", "--sig", str(SIG),
                     "--budget", "2", "--seed", "11"], out=out)
        assert r.returncode == 0, r.stderr + r.stdout
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_church_rosser_small_budget(tmp_path):
    out = tmp_path / "verify.txt"
    r = run_cli(["verify", "dia(box(p)) <= box(dia(p))", "--sig", str(SIG),
                 "--budget", "2", "--seed", "3"], out=out)
    assert r.returncode == 0, r.stdout
    text = out.read_text()
    assert "divergences=0" in text
    assert "unsound=0" in text


def test_lemmas_command(tmp_path):
    out = tmp_path / "lemmas.txt"
    r = run_cli(["lemmas", "--sig", str(SIG), "--budget", "2", "--seed", "5"],
                out=out)
    assert r.returncode == 0, r.stdout
    assert "failures=0" in out.read_text()


def test_golden_corpus_round_trips():
    # every inequality printed in the golden traces reparses to the same
    # rendering at the expanded layer
    from dlecorr.language import Layer
    from dlecorr.parsing import parse_inequality, parse_signature
    from dlecorr.printing import print_inequality
    sig = parse_signature(SIG.read_text())
    count = 0
    for trace in sorted(GOLDEN.glob("*.trace")):
        for line in trace.read_text().splitlines():
            if "system: " not in line:
                continue
            body = line.split("system: ", 1)[1]
            body = body.split(" |- ")[0]
            for chunk in body.split(" ;; "):
                chunk = chunk.replace(" [side]", "").strip()
                if not chunk or chunk == "-":
                    continue
                ineq = parse_inequality(chunk, sig, Layer.DLEPP)
                assert print_inequality(ineq) == chunk
                count += 1
    assert count > 30
