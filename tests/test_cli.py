"""CLI surface: subcommands, exit codes, deterministic serialization."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import macdo
import macdo.raising as rs
from macdo.cli import main
from macdo.serialize import dumps, op_to_obj, poly_from_obj, poly_to_obj


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_j_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "J", "--lambda", "1", "--n", "2")
    assert code == 0
    assert out.strip() == "(-t + 1)*m[1]"


def test_poly_p_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "P", "--lambda", "1,1", "--n", "2")
    assert code == 0
    assert out.strip() == "(1)*m[1,1]"


def test_poly_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "poly", "J", "--lambda", "2", "--n", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2 and obj["lambda"] == "2" and obj["basis"] == "monomial"
    for key, pj in obj["coeffs"].items():
        back = poly_from_obj(pj)
        assert poly_to_obj(back) == pj
    assert dumps(obj) == out


def test_poly_bad_args(capsys):
    code, _, err = run_cli(capsys, "poly", "P", "--lambda", "1,1,1", "--n", "2")
    assert code == 2
    assert "error" in err


def test_poly_rejects_unsorted_partition(capsys):
    code, _, err = run_cli(capsys, "poly", "P", "--lambda", "1,2", "--n", "2")
    assert code == 2


def test_operator_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "operator", "--m", "0", "--n", "2")
    assert code == 0
    assert out.strip() == "T^[0, 0]: 1"
    code, out, _ = run_cli(capsys, "operator", "--m", "1", "--n", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 1 and obj["n"] == 2
    gammas = [tuple(c["gamma"]) for c in obj["coeffs"]]
    assert gammas == [(0, 0), (1, 0), (0, 1)]


def test_desk_scale_limits(capsys):
    code, _, err = run_cli(capsys, "operator", "--m", "5", "--n", "2")
    assert code == 2 and "unsafe-limits" in err


def test_operator_caps_m_times_n(capsys, monkeypatch):
    # B_4 on n = 4 did not finish in 15 minutes; (4, 3) and (3, 4) take seconds
    from macdo.algebra import universe
    from macdo.macdonald import QDiffOp
    built = []

    def stub(m, n):
        built.append((m, n))
        return QDiffOp(universe(1), {})

    monkeypatch.setattr(rs, "row_raising_op", stub)
    code, out, err = run_cli(capsys, "operator", "--m", "4", "--n", "4")
    assert code == 2 and out == "" and "--unsafe-limits" in err and built == []
    for m, n in ((4, 3), (3, 4)):
        code, _, _ = run_cli(capsys, "operator", "--m", str(m), "--n", str(n))
        assert code == 0, (m, n)
    code, _, _ = run_cli(capsys, "operator", "--m", "4", "--n", "4", "--unsafe-limits")
    assert code == 0 and built == [(4, 3), (3, 4), (4, 4)]


def test_verify_caps_m_times_n_of_the_operators_it_builds(capsys, monkeypatch):
    # the raising suite at n = 4 would build B_4 on n = 4 for the iterated
    # build of lambda = (4); the hl, oracles and cauchy cases build no B_m
    from macdo import cli as cli_mod

    def no_build(m, n):
        raise AssertionError("built B_%d on n = %d" % (m, n))

    ran = []

    def no_run(cases, shuffle_seed=None):
        ran.append(len(cases))
        return [], True

    monkeypatch.setattr(rs, "row_raising_op", no_build)
    monkeypatch.setattr(cli_mod, "run_cases", no_run)
    code, out, err = run_cli(capsys, "verify", "--suite", "raising", "--n", "4")
    assert code == 2 and out == "" and "--unsafe-limits" in err and ran == []
    for argv in (("raising", "--n", "4", "--m", "3"), ("hl", "--n", "4", "--m", "4"),
                 ("oracles", "--n", "4", "--m", "4"), ("cauchy", "--n", "4"),
                 ("raising", "--n", "4", "--unsafe-limits")):
        code, _, err = run_cli(capsys, "verify", "--suite", *argv)
        assert code == 0 and "unsafe" not in err, argv
    assert len(ran) == 5 and all(ran)


def test_sizes_below_the_lower_bounds_are_refused(capsys):
    for argv in (("operator", "--m", "-1", "--n", "2"),
                 ("verify", "--suite", "keyid", "--m", "-1"),
                 ("verify", "--suite", "keyid", "--n", "0"),
                 ("verify", "--suite", "qbinom", "--max-weight", "-1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "at least" in err, argv


def test_verify_refuses_an_empty_selection(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "hl", "--m", "0")
    assert code == 2 and out == "" and "no hl cases" in err


def test_verify_max_weight_does_not_build_past_the_desk_m(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "raising",
                             "--max-weight", "5")
    assert code == 2 and out == "" and "unsafe-limits" in err
    code, out, _ = run_cli(capsys, "verify", "--suite", "qbinom",
                           "--max-weight", "5", "--n", "1")
    assert code == 0 and out


def test_identity_pass_and_fail_reports(capsys):
    code, out, _ = run_cli(capsys, "identity", "--name", "qbinom",
                           "--alpha", "2,1")
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True
    code, _, err = run_cli(capsys, "identity", "--name", "nope", "--alpha", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "identity", "--name", "chu", "--alpha", "1,1")
    assert code == 2  # missing --k


def test_identity_keyid(capsys):
    code, out, _ = run_cli(capsys, "identity", "--name", "keyid",
                           "--m", "1", "--n", "1")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_identity_obeys_desk_limits(capsys):
    code, _, err = run_cli(capsys, "identity", "--name", "keyid",
                           "--m", "5", "--n", "2")
    assert code == 2 and "unsafe-limits" in err
    code, _, err = run_cli(capsys, "identity", "--name", "qbinom", "--alpha", "6")
    assert code == 2 and "unsafe-limits" in err
    code, _, err = run_cli(capsys, "identity", "--name", "chu",
                           "--alpha", "1,1", "--k", "9")
    assert code == 2 and "unsafe-limits" in err
    code, out, _ = run_cli(capsys, "identity", "--name", "qbinom", "--alpha", "6",
                           "--unsafe-limits")
    assert code == 0 and json.loads(out)["pass"] is True


def test_identity_keyid_caps_m_times_n(capsys, monkeypatch):
    # keyid combines the certified columns of B_m, so the build cap m*n <= 12
    # bounds its work as it bounds `operator` and `verify`
    for m, n in ((2, 3), (3, 2)):
        code, out, _ = run_cli(capsys, "identity", "--name", "keyid",
                               "--m", str(m), "--n", str(n))
        assert code == 0 and json.loads(out)["pass"] is True

    ran = []
    monkeypatch.setattr(rs, "key_identity_diff", lambda m, n: ran.append((m, n)) or True)
    admitted = [(3, 3), (4, 2), (2, 4), (4, 3), (3, 4)]
    for m, n in admitted:
        code, out, _ = run_cli(capsys, "identity", "--name", "keyid",
                               "--m", str(m), "--n", str(n))
        assert code == 0 and json.loads(out)["pass"] is True, (m, n)
    assert ran == admitted
    for m, n in ((4, 4), (5, 3)):
        code, out, err = run_cli(capsys, "identity", "--name", "keyid",
                                 "--m", str(m), "--n", str(n))
        assert code == 2 and out == "" and "m*n > 12 needs --unsafe-limits" in err, (m, n)
    assert ran == admitted
    code, out, _ = run_cli(capsys, "identity", "--name", "keyid", "--m", "4", "--n", "4",
                           "--unsafe-limits")
    assert code == 0 and json.loads(out)["pass"] is True and ran[-1] == (4, 4)


def test_identity_refuses_negative_inputs(capsys):
    for argv in (("--name", "chu", "--alpha", "1,1", "--k", "-1"),
                 ("--name", "chu", "--alpha=1,-1", "--k", "1"),
                 ("--name", "chu2", "--alpha", "1,0", "--beta", "0,1", "--k", "-3"),
                 ("--name", "chu2", "--alpha", "1,0", "--beta=0,-1", "--k", "1"),
                 ("--name", "qbinom", "--alpha=-1,2"),
                 ("--name", "product-rule", "--alpha=2,-1", "--gamma", "1,0",
                  "--beta", "0,1")):
        code, out, err = run_cli(capsys, "identity", *argv)
        assert code == 2 and out == "" and "must not be negative" in err, argv


def test_identity_interp_report(capsys):
    code, out, _ = run_cli(capsys, "identity", "--name", "interp",
                           "--gamma", "0,1", "--alpha", "1,0")
    assert code == 0
    assert json.loads(out) == {"identity": "interp", "pass": True,
                               "params": {"gamma": "0,1", "alpha": "1,0"}}


def test_verify_suite_reports_and_exit(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "qbinom",
                             "--max-weight", "2", "--n", "2")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines and all(r["pass"] for r in lines)
    assert all(r["suite"] == "qbinom" for r in lines)
    assert "cases passed" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_verify_exit_one_when_a_case_fails(monkeypatch, capsys):
    from macdo import cli as cli_mod
    from macdo.suites import _bool_case
    monkeypatch.setattr(
        cli_mod, "build_suite",
        lambda *a, **k: [_bool_case("demo", "forced", {}, lambda: False)])
    code, out, err = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    assert json.loads(out.splitlines()[0])["pass"] is False


def test_verify_seed_only_shuffles_execution(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "chu",
                             "--max-weight", "2", "--n", "2")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "chu",
                             "--max-weight", "2", "--n", "2", "--seed", "99")
    assert code1 == code2 == 0
    assert out1 == out2  # report order is independent of execution order


def test_verify_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, "verify", "--suite", "keyid",
                             "--out", str(out_path))
    assert code == 0
    assert out == ""
    lines = out_path.read_text().splitlines()
    assert lines and all(json.loads(ln)["pass"] for ln in lines)


@pytest.mark.parametrize("suite, lines", [("keyid", 16), ("bogus", 0)],
                         ids=["keyid", "unknown-suite"])
def test_a_closed_stderr_is_io_trouble(tmp_path, suite, lines):
    # a child whose stderr is a pipe with no reader: the summary line (or
    # the error line) cannot be written, which is I/O trouble, exit 2, not 1
    # (a failed identity); the report itself is complete
    out_path = tmp_path / "report.jsonl"
    src = os.path.dirname(os.path.dirname(os.path.abspath(macdo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "macdo.cli", "verify", "--suite", suite,
                               "--out", str(out_path)], stderr=w, env=env)
    finally:
        os.close(w)
    assert proc.returncode == 2
    got = out_path.read_text().splitlines() if out_path.exists() else []
    assert len(got) == lines and all(json.loads(ln)["pass"] is True for ln in got)


def test_verify_out_into_a_missing_directory_runs_no_case(monkeypatch, tmp_path, capsys):
    from macdo import cli as cli_mod

    def no_run(*a, **k):
        raise AssertionError("a case ran before the output was opened")

    monkeypatch.setattr(cli_mod, "run_cases", no_run)
    missing = tmp_path / "missing" / "r.jsonl"
    code, out, err = run_cli(capsys, "verify", "--suite", "hl", "--m", "1", "--n", "1",
                             "--max-weight", "0", "--out", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_golden_roundtrip_tamper_and_missing(tmp_path, capsys):
    target = tmp_path / "golden"
    code, _, _ = run_cli(capsys, "golden", "write", str(target))
    assert code == 0
    code, _, _ = run_cli(capsys, "golden", "check", str(target))
    assert code == 0
    # tamper: flip one byte
    victim = sorted(target.iterdir())[0]
    text = victim.read_text()
    victim.write_text(text.replace('"c": "1"', '"c": "2"', 1))
    code, _, err = run_cli(capsys, "golden", "check", str(target))
    assert code == 1
    # missing file
    victim.unlink()
    code, _, err = run_cli(capsys, "golden", "check", str(target))
    assert code == 2


def test_operator_json_matches_library(capsys):
    from macdo.raising import row_raising_op
    code, out, _ = run_cli(capsys, "operator", "--m", "2", "--n", "2",
                           "--format", "json")
    assert code == 0
    assert out == dumps(op_to_obj(row_raising_op(2, 2), 2))


def test_checked_in_golden_corpus_matches(capsys):
    golden = os.path.join(os.path.dirname(__file__), "golden")
    code, _, err = run_cli(capsys, "golden", "check", golden)
    assert code == 0, err


@pytest.mark.parametrize("argv, digest", [
    (("operator", "--m", "3", "--n", "2", "--format", "json"),
     "f7cf4467b776ab244c704abc111dd0109d7f183869f4b92f40f6fdc58042473d"),
    (("poly", "P", "--lambda", "3,1", "--n", "3", "--format", "json"),
     "70d10f1459f685992d4beb8d7d15270960df87a1167588a0cf1dc0935b61a416"),
    (("operator", "--m", "2", "--n", "3", "--format", "json"),
     "a0663750d4850761e8164abeda4dca3f6a86a30ea1a376dfb1d0834098eda043"),
    (("operator", "--m", "4", "--n", "2", "--format", "json"),
     "740ac6e22be44c01f2a43779327f84f7faf444b70f52b50ff6fe0ff11506d955"),
    (("operator", "--m", "3", "--n", "3", "--format", "json"),
     "05f97caf29ad31f835670cfba947ecf659c564c86610cdf0705de43dc7fbf8e2"),
    (("operator", "--m", "2", "--n", "4", "--format", "json"),
     "1bc2cb26ad25229b0262cca3a5dc50f98d78de2a11f2f9300cb221ca84a87157"),
    (("poly", "J", "--lambda", "3,2", "--n", "4", "--format", "json"),
     "876f6b733875812fab83b8bd730e3a7969c2109b1a91b04453ab355b27345b21"),
    (("poly", "J", "--lambda", "2,1,1,1", "--n", "4", "--format", "json"),
     "57d7c2b9e56b32dc83e5e7f0abe058c8f0f588ae9a4cb3dfcd518dca5c76a71d"),
    (("poly", "J", "--lambda", "3,1", "--n", "4"),
     "5280e92a38c57743e800e1f3f34762328c793e22ac97468a5febbe4fa38ea6ec"),
    (("poly", "P", "--lambda", "3,1", "--n", "4", "--format", "json"),
     "603c9e4017d082c4d3b5c0c76f3c001c728a958c476baab2025115e00ea56aa4"),
    (("poly", "P", "--lambda", "2,1,1", "--n", "3"),
     "9a60f2819f766ca170312289f5a1245a40bb2a75243c5fc66d26fb2ca380e2ff"),
], ids=["B-m3-n2", "P-31-n3", "B-m2-n3", "B-m4-n2", "B-m3-n3", "B-m2-n4",
        "J-32-n4", "J-2111-n4", "J-31-n4-text", "P-31-n4", "P-211-n3-text"])
def test_json_outputs_keep_their_bytes(capsys, argv, digest):
    # B_m stores its coefficients in lowest terms (Frac.lowest), so its bytes
    # depend only on its value; the P solve's fractions are not reduced, so
    # its bytes also depend on how the solve sums them; J's coordinates are
    # polynomials, pinned here beyond the golden corpus's n <= 3
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, on write or only on the final flush."""

    def __init__(self, broken):
        super().__init__()
        self.broken = broken

    def write(self, s):
        if self.broken == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(s)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("broken", ["write", "flush"])
@pytest.mark.parametrize("argv", [("verify", "--suite", "qbinom", "--n", "1"),
                                  ("operator", "--m", "2", "--n", "2", "--format", "json")],
                         ids=["verify", "operator"])
def test_a_closed_stdout_is_io_trouble(capsys, monkeypatch, argv, broken):
    # `macdo ... | head -n 1`: exit 2, as for any I/O trouble, not 1 (a
    # failed identity) with a traceback
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(broken))
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.endswith("error: stdout closed before the output was written\n")
    assert "Traceback" not in err


class _ShortWrites(io.RawIOBase):
    """A raw stdout whose write takes at most ``step`` bytes a call, as a
    pipe may; after ``gone_after`` bytes its reader has gone."""

    def __init__(self, step, gone_after=None):
        super().__init__()
        self.data = bytearray()
        self.step, self.gone_after = step, gone_after

    def writable(self):
        return True

    def write(self, b):
        if self.gone_after is not None and len(self.data) >= self.gone_after:
            raise BrokenPipeError(32, "Broken pipe")
        took = bytes(b[:self.step])
        self.data += took
        return len(took)


def _unbuffered_stdout(raw):
    # what PYTHONUNBUFFERED=1 makes of stdout: a text layer straight over the
    # raw file, which ignores a short count from its write
    return io.TextIOWrapper(raw, encoding="utf-8", write_through=True)


@pytest.mark.parametrize("argv", [("verify", "--suite", "qbinom", "--n", "1"),
                                  ("operator", "--m", "2", "--n", "2", "--format", "json"),
                                  ("operator", "--m", "2", "--n", "2")],
                         ids=["verify", "operator-json", "operator-text"])
def test_short_raw_writes_still_deliver_every_byte(capsys, monkeypatch, argv):
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0 and len(want) > 100
    raw = _ShortWrites(7)
    monkeypatch.setattr(sys, "stdout", _unbuffered_stdout(raw))
    assert main(list(argv)) == 0
    assert raw.data.decode("utf-8") == want


def test_short_raw_writes_to_a_closed_pipe_are_io_trouble(capsys, monkeypatch):
    # `PYTHONUNBUFFERED=1 macdo operator ... | head -c 100`: exit 2, not 0
    # with the output cut short
    raw = _ShortWrites(64, gone_after=100)
    monkeypatch.setattr(sys, "stdout", _unbuffered_stdout(raw))
    assert main(["operator", "--m", "2", "--n", "2", "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("error: stdout closed before the output was written\n")
    assert "Traceback" not in err
    assert len(raw.data) == 128
