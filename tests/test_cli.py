import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).parent / "golden"
SIG = GOLDEN / "classical.sig"


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


def test_reduce_matches_golden_trace(tmp_path):
    cases = [
        ("churchrosser.trace", "dia(box(p)) <= box(dia(p))", "alba", None),
        ("additivity.trace",
         "dia(box(dia(p | q))) <= dia(box(dia(p))) | dia(box(dia(q)))",
         "albae", None),
        ("geach.trace", "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
         "albae", None),
        ("tense.trace", "dia(box(p)) <= box(dia(p))", "alba",
         str(GOLDEN / "tense.script")),
        ("pseudo.trace",
         "dia(box(dia(p))) <= Dia[pi](p) | dia(box(dia(bot)))", "albae",
         str(GOLDEN / "pseudo.script")),
        ("stageone.trace", "box(box(q) | (top | p)) <= box((bot | bot) & dia(q))",
         "alba", None),
        ("distsigma.trace", "box(p | box(p)) <= box(p & box(p))", "albae", None),
    ]
    for fname, ineq, mode, script in cases:
        out = tmp_path / fname
        args = ["reduce", ineq, "--sig", str(SIG), "--mode", mode]
        if script:
            args += ["--strategy", script]
        r = run_cli(args, out=out)
        assert r.returncode == 0, r.stderr
        assert out.read_bytes() == (GOLDEN / fname).read_bytes(), fname



def test_classify_matches_golden(tmp_path):
    cases = [
        ("churchrosser.classify", "dia(box(p)) <= box(dia(p))", 0),
        ("additivity.classify",
         "dia(box(dia(p | q))) <= dia(box(dia(p))) | dia(box(dia(q)))", 0),
        ("pisigma.classify", "box(dia(box(p))) <= dia(box(dia(p)))", 0),
        ("mckinsey.classify", "box(dia(p)) <= dia(box(p))", 3),
    ]
    for fname, ineq, code in cases:
        out = tmp_path / fname
        r = run_cli(["classify", ineq, "--sig", str(SIG)], out=out)
        assert r.returncode == code, r.stderr
        golden = (GOLDEN / fname).read_bytes()
        assert out.read_bytes() == golden, fname
        assert r.stdout.encode() == golden, fname


def test_input_file_not_utf8_exit_two(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("conn dia F 1 (1) # \u00e9\n".encode("latin-1"))
    for flag in ("--sig", "--strategy"):
        r = run_cli(["reduce", "p <= p", flag, str(bad)])
        assert r.returncode == 2, (flag, r.stderr)
        assert r.stderr == f"error: {bad}: not valid UTF-8 (byte 19: invalid continuation byte)\n"


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
    ]
    script = tmp_path / "bad.script"
    for mode, text, reason in cases:
        script.write_text(text + "\n")
        code = cli.main(["reduce", "dia(p | q) <= dia(p)", "--sig", str(SIG),
                         "--mode", mode, "--strategy", str(script)])
        assert code == 4, text
        assert f"stuck: vars= : {reason}\n" in capsys.readouterr().out, text


def test_reduce_failure_exit_four(tmp_path):
    sig = tmp_path / "bare.sig"
    sig.write_text("conn dia F 1 (1)\nconn box G 1 (1)\n")
    r = run_cli(["reduce", "dia(box(dia(box(p)))) <= box(dia(box(dia(p))))",
                 "--sig", str(sig)])
    assert r.returncode == 4
    assert "stuck" in r.stdout


def test_budget_guard():
    # a sweep budget outside 1..5 is a documented error, not a traceback
    for command, budget in (("verify", "0"), ("lemmas", "-1"), ("verify", "6")):
        args = [command] + (["p <= p"] if command == "verify" else [])
        r = run_cli(args + ["--sig", str(SIG), "--budget", budget])
        assert r.returncode == 4, (budget, r.stderr)
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: --budget must be 1 to 5"), r.stderr


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


def test_lemma_sweep_script():
    script = pathlib.Path(__file__).parents[1] / "scripts" / "lemma_sweep.py"
    r = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == \
        "lattices: 1700  suite failures: 0  additive diamond-role instances: 1648"
