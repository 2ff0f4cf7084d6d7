import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcbideal
from pcbideal import cli, decompose
from pcbideal.cli import main

from conftest import GOLDEN, LARGE_WEIGHTS, golden_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


_PRIMARY_REASON = (
    "p divides r, so over F_p the isolated components are primary and not prime, "
    "and decompose realizes prime components only"
)


def _env(**extra):
    return dict(os.environ, PYTHONPATH=str(Path(pcbideal.__file__).parent.parent), **extra)


def _k6_path(tmp_path) -> str:
    path = tmp_path / "k6.json"
    path.write_text(json.dumps({"L": [[5 if i == j else -1 for j in range(6)] for i in range(6)]}))
    return str(path)


class TestAnalyze:
    def test_simplest_payload(self, capsys):
        doc = run_json(capsys, "analyze", golden_path("simplest_n4.json"))
        assert doc["command"] == "analyze"
        assert doc["input"]["n"] == 4
        r = doc["result"]
        assert r["m"] == [16, 16, 16, 16]
        assert r["d"] == 16
        assert r["nu"] == [1, 1, 1, 1]
        assert r["invariant_factors"] == [1, 4, 4]
        assert r["hull_prime"] is False
        assert r["counts"] == {
            "isolated": 16,
            "embedded": 1,
            "at_most": 17,
            "assumption": r["counts"]["assumption"],
        }
        assert r["torsion"]["cyclic_factors"] == [4, 4]

    def test_onecomp_payload(self, capsys):
        r = run_json(capsys, "analyze", golden_path("onecomp_n4.json"))["result"]
        assert r["m"] == [20, 24, 31, 25]
        assert r["d"] == 1
        assert r["hull_prime"] is True
        assert r["syzygy_exponents"][3] == [0, 1, 2, 0]

    def test_deterministic_payload(self, capsys):
        a = run_json(capsys, "analyze", golden_path("simplest_n4.json"))
        b = run_json(capsys, "analyze", golden_path("simplest_n4.json"))
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "analyze", golden_path("simplest_n4.json"), "--pretty")
        assert code == 0
        assert "invariant factors: [1, 4, 4]" in out

    def test_results_past_the_digit_limit(self, capsys, tmp_path):
        # 2500-digit entries fit Python's int/str limit (4300 digits by
        # default), but m and d have ~5000 digits: main prints them exact,
        # as JSON and --pretty, and puts the limit back
        a, b = int("7" * 2500), int("3" * 2500)
        rows = [[a + b, -a, -b], [-b, a + b, -a], [-a, -b, a + b]]
        want = pcbideal.analyze(pcbideal.validate(rows))
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "big.json"
        sys.set_int_max_str_digits(0)
        try:
            path.write_text(json.dumps({"L": rows}))
            shown = f"d = {want.d}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(shown) > limit
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, err) == (0, "") and sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            result = json.loads(out)["result"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert (result["m"], result["d"]) == (list(want.m), want.d)
        code, out, err = run(capsys, "analyze", str(path), "--pretty")
        assert (code, err) == (0, "") and sys.get_int_max_str_digits() == limit
        assert shown in out


class TestSnf:
    def test_n2(self, capsys):
        r = run_json(capsys, "snf", golden_path("n2_64.json"))["result"]
        assert r["invariant_factors"] == [2]
        assert r["D"] == [[2, 0], [0, 0]]
        assert r["P"][1] == [2, 3]
        assert r["closed_form"] is not None
        assert r["closed_form"]["D"] == [[2, 0], [0, 0]]

    def test_n4_has_no_closed_form(self, capsys):
        r = run_json(capsys, "snf", golden_path("simplest_n4.json"))["result"]
        assert r["closed_form"] is None
        assert r["D"] == [[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 0]]


class TestDecompose:
    def test_symbolic(self, capsys):
        r = run_json(capsys, "decompose", golden_path("diag_n3.json"))["result"]
        assert r["field"] == "symbolic"
        assert r["root_order"] == 3
        assert len(r["components"]) == 3
        assert r["components"][0]["map"] == ["t", "t", "t"]
        assert r["embedded"] is None

    def test_fp(self, capsys):
        r = run_json(
            capsys, "decompose", golden_path("diag_n3.json"), "--field", "fp:7"
        )["result"]
        assert r["p"] == 7
        assert r["zeta"] == 2
        assert all("kernel" in c for c in r["components"])

    def test_embedded_block(self, capsys):
        r = run_json(capsys, "decompose", golden_path("simplest_n4.json"))["result"]
        assert r["embedded"] == {"monomial": [0, 1, 2, 0]}

    @pytest.mark.parametrize("field", ["symbolic", "fp:5"])
    def test_characters_listed_once(self, capsys, monkeypatch, field):
        # over F_p the realization's specs are the ones printed
        calls = []
        enumerate_components = decompose.enumerate_components

        def counted(P):
            calls.append(P)
            return enumerate_components(P)

        monkeypatch.setattr(decompose, "enumerate_components", counted)
        r = run_json(capsys, "decompose", golden_path("simplest_n4.json"), "--field", field)["result"]
        assert len(r["components"]) == 16
        assert len(calls) == 1


class TestVerify:
    def test_identities(self, capsys):
        doc = run_json(capsys, "verify", golden_path("onecomp_n4.json"))
        assert doc["result"]["ok"] is True
        names = {c["name"] for c in doc["result"]["checks"]}
        assert "syzygy identity expands to zero" in names

    def test_full_fp5(self, capsys):
        doc = run_json(
            capsys,
            "verify",
            golden_path("simplest_n4.json"),
            "--field",
            "fp:5",
            "--level",
            "full",
        )
        assert doc["result"]["ok"] is True
        assert any(
            c["name"] == "component count is 17" for c in doc["result"]["checks"]
        )

    def test_full_char2(self, capsys):
        doc = run_json(
            capsys,
            "verify",
            golden_path("simplest_n4.json"),
            "--field",
            "fp:2",
            "--level",
            "full",
        )
        assert doc["result"]["ok"] is True
        names = {c["name"] for c in doc["result"]["checks"]}
        assert "intersection of all components equals the ideal" in names
        assert "hull meets embedded component in the ideal" in names
        assert "component count is 2" in names

    @pytest.mark.parametrize(
        "name, field, count",
        [("diag_n3.json", "fp:3", 1), ("n2_64.json", "fp:2", 1), ("diag_n5.json", "fp:5", 2)],
    )
    def test_full_p_group(self, capsys, name, field, count):
        # r is a power of p: the hull is the one isolated component
        doc = run_json(capsys, "verify", golden_path(name), "--field", field, "--level", "full")
        assert doc["result"]["ok"] is True
        assert all(c["ok"] for c in doc["result"]["checks"])
        assert f"component count is {count}" in {c["name"] for c in doc["result"]["checks"]}

    @pytest.mark.parametrize("name, count", [("n3_doubled.json", 4), ("K_6", 17)])
    def test_mixed_characteristic_is_verified(self, capsys, tmp_path, name, count):
        # r = 6 over F_3: 3 = 1 (mod r′ = 2), so verify accepts p, and the
        # count is the part of d prime to 3 (4 of 12, 16 of 6^4), plus E
        # for K_6
        path = _k6_path(tmp_path) if name == "K_6" else golden_path(name)
        doc = run_json(capsys, "verify", path, "--level", "full", "--field", "fp:3")
        assert doc["result"]["ok"] is True
        assert all(c["ok"] for c in doc["result"]["checks"])
        assert f"component count is {count}" in {c["name"] for c in doc["result"]["checks"]}

    def test_full_large_weights(self, capsys, tmp_path):
        path = tmp_path / "large_weights.json"
        path.write_text(json.dumps({"L": LARGE_WEIGHTS}))
        doc = run_json(capsys, "verify", str(path), "--level", "full", "--field", "fp:2")
        assert doc["result"]["ok"] is True


class TestErrors:
    def test_validation_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"L": [[2, -1, -1], [-1, 2, -1], [-1, -1, 3]]}')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 3
        assert "RowSumNonzero(3)" in err

    def test_parse_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{: not json")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_schema_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "floats.json"
        bad.write_text('{"L": [[1.5, -1.5], [-1, 1]]}')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "not an integer" in err

    def test_non_utf8_input(self, capsys, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b'\xff\xfe{"L": 1}')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert err.startswith("parse error: ") and "UTF-8" in err

    def test_deeply_nested_input(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert err.startswith("parse error: ") and "nested too deeply" in err

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        # json.loads refuses an integer literal past Python's int/str limit;
        # the input is refused as unreadable, naming the limit
        limit = sys.get_int_max_str_digits()
        bad = tmp_path / "long.json"
        big = "1" * (limit + 100)
        bad.write_text('{"L": [[%s, -%s], [-1, 1]]}' % (big, big))
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (2, "")
        assert err == f"parse error: an integer in the input has more than {limit} digits, Python's limit for reading an integer from text\n"
        code, out, err = run(capsys, "verify", golden_path("diag_n3.json"), "--field", "fp:" + big)
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: bad field spec: p has more than {limit} digits")
        assert sys.get_int_max_str_digits() == limit

    def test_n_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "mismatch.json"
        bad.write_text('{"n": 3, "L": [[1, -1], [-1, 1]]}')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2

    @pytest.mark.parametrize("n,shown", [('"3"', "'3'"), ("3.0", "3.0"), ("true", "True")])
    def test_n_must_be_an_integer(self, capsys, tmp_path, n, shown):
        # L itself is a valid 3x3 PCB matrix, so only "n" is wrong
        bad = tmp_path / "n.json"
        bad.write_text('{"n": %s, "L": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}' % n)
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (2, "")
        assert err == f'parse error: "n" is {shown}, not an integer\n'

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2

    def test_bad_prime_exit_code(self, capsys):
        code, _, err = run(
            capsys, "decompose", golden_path("simplest_n4.json"), "--field", "fp:7"
        )
        assert code == 4
        assert "BadPrime" in err

    @pytest.mark.parametrize(
        "name, field",
        [
            ("onecomp_n4.json", "fp:4"),
            ("onecomp_n4.json", "fp:1"),
            ("diag_n3.json", "fp:1"),
            ("n2_64.json", "fp:9"),
            ("onecomp_n4.json", "fp:-7"),
        ],
    )
    def test_verify_full_rejects_non_prime_field(self, capsys, name, field):
        # r divides k - 1 here, so only the primality test can refuse k; every
        # command refuses it, verify at the identities level included
        for command, *level in (("verify", "--level", "full"), ("verify",), ("decompose",)):
            code, out, err = run(capsys, command, golden_path(name), *level, "--field", field)
            assert (code, out) == (4, ""), (command, level)
            assert "BadPrime" in err
            # k is refused before the matrix is read, so no r is reported
            assert "r=0" not in err and f"BadPrime(p={field[3:]}):" in err

    def test_verify_identities_accepts_a_bad_characteristic(self, capsys):
        # 7 is prime but not 1 (mod 4); the identity checks run over Z
        doc = run_json(capsys, "verify", golden_path("simplest_n4.json"), "--field", "fp:7")
        assert doc["result"]["field"] == "fp:7"
        assert doc["result"]["ok"]

    @pytest.mark.parametrize("name, field, other", [("n3_doubled.json", "fp:2", 3), ("K_6", "fp:2", 3)])
    def test_mixed_characteristic_is_refused(self, capsys, tmp_path, name, field, other):
        # r = 6 = 2 * 3 and p = 2 is not 1 (mod r′ = 3), the part of r
        # prime to p: F_2 holds no cube root of unity, nothing prints ok,
        # and the message names the other prime and r′; the identity
        # checks run over Z and accept p
        path = _k6_path(tmp_path) if name == "K_6" else golden_path(name)
        for argv in (("verify", path, "--level", "full"), ("decompose", path)):
            code, out, err = run(capsys, *argv, "--field", field)
            assert (code, out) == (4, ""), argv
            assert "BadPrime" in err and "the part of r prime to p" in err and f"r' = {other}" in err
        assert run_json(capsys, "verify", path, "--field", field)["result"]["ok"]

    def test_p_group_is_not_decomposed(self, capsys):
        # over F_2 the components of simplest_n4 collapse; decompose lists
        # none apart, and says why
        code, out, err = run(capsys, "decompose", golden_path("simplest_n4.json"), "--field", "fp:2")
        assert (code, out) == (4, "")
        assert "BadPrime" in err
        assert _PRIMARY_REASON in err

    def test_mixed_characteristic_is_not_decomposed(self, capsys):
        # verify accepts n3_doubled over F_3, but its four isolated
        # components are primary and not prime, and decompose realizes none
        code, out, err = run(capsys, "decompose", golden_path("n3_doubled.json"), "--field", "fp:3")
        assert (code, out) == (4, "")
        assert "BadPrime(p=3, r=6)" in err and _PRIMARY_REASON in err

    @pytest.mark.parametrize("field", ["fp:3", "fp:2"])
    @pytest.mark.parametrize("command", [("verify", "--level", "full"), ("decompose",)], ids=" ".join)
    def test_refusal_factors_nothing(self, tmp_path, command, field):
        # r = 2q with q = 10^20 + 39 prime: p = 3 does not divide r, and for
        # p = 2 r′ = q is prime; trial division of r′ ran for minutes, and
        # the refusal must need no factor of r′
        q = 10**20 + 39
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"L": [[2 * q, -2 * q], [-2 * q, 2 * q]]}))
        argv = [sys.executable, "-m", "pcbideal.cli", command[0], str(path), *command[1:], "--field", field]
        done = subprocess.run(argv, capture_output=True, text=True, env=_env(), timeout=10)
        assert (done.returncode, done.stdout) == (4, "")
        assert f"BadPrime(p={field[3:]}, r={2 * q})" in done.stderr
        if field == "fp:2":
            assert f"r' = {q}" in done.stderr

    @pytest.mark.parametrize("field", ["fp:2", "fp:3", "fp:7"])
    @pytest.mark.parametrize("command", [("verify", "--level", "full"), ("decompose",)], ids=" ".join)
    def test_refusal_divides_out_any_power_of_p(self, tmp_path, command, field):
        # a = 3 * 2^1500, so r = 3a holds 2^1500: dividing the factors 2
        # out one recursive call each overflowed the stack over F_2
        a = 3 * 2**1500
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"L": [[2 * a if i == j else -a for j in range(3)] for i in range(3)]}))
        argv = [sys.executable, "-m", "pcbideal.cli", command[0], str(path), *command[1:], "--field", field]
        done = subprocess.run(argv, capture_output=True, text=True, env=_env(), timeout=30)
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr.startswith("bad prime: ") and "Traceback" not in done.stderr

    def test_bad_field_spec(self, capsys):
        # only ASCII digits, after an optional minus sign, name a field:
        # int() would read each spec after the first as 11 or 7
        for field in ("fp:abc", "fp:1_1", "fp:+7", "fp: 7", "fp:\u0667"):
            for command in ("decompose", "verify"):
                code, out, err = run(capsys, command, golden_path("simplest_n4.json"), "--field", field)
                assert (code, out) == (2, ""), (field, command)
                assert "bad field spec" in err

    def test_verify_rejects_symbolic(self, capsys):
        code, _, _ = run(
            capsys, "verify", golden_path("simplest_n4.json"), "--field", "symbolic"
        )
        assert code == 2


class TestInputDigest:
    """`input.sha256` is the SHA-256 of the file's bytes, as hashlib computes it."""

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_golden_digest(self, capsys, name):
        doc = run_json(capsys, "analyze", golden_path(name))
        assert doc["input"]["sha256"] == hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest()

    def test_digest_of_the_bytes_not_the_matrix(self, capsys, tmp_path):
        # extra whitespace and a non-ASCII key change the bytes, not L
        path = tmp_path / "spaced.json"
        L = json.loads((GOLDEN / "diag_n3.json").read_text())["L"]
        path.write_bytes(json.dumps({"L": L, "Bemerkung": "Größe"}, indent=3, ensure_ascii=False).encode() + b"\n\n")
        doc = run_json(capsys, "analyze", str(path))
        assert doc["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert doc["result"] == run_json(capsys, "analyze", golden_path("diag_n3.json"))["result"]

    def test_hashlib_fallback(self):
        # a build without CPython's built-in SHA-256 module falls back to
        # hashlib, with the same envelope
        env = _env()
        script = (
            "import sys\n"
            "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
            "import pcbideal.cli\n"
            "assert 'hashlib' in sys.modules\n"
            "sys.exit(pcbideal.cli.main(sys.argv[1:]))\n"
        )
        argv = ["analyze", golden_path("diag_n3.json")]
        envelopes = []
        for command in (["-c", script], ["-m", "pcbideal.cli"]):
            done = subprocess.run([sys.executable, *command, *argv], capture_output=True, text=True, env=env, check=True)
            doc = json.loads(done.stdout)
            doc.pop("elapsed_ms")
            envelopes.append(doc)
        assert envelopes[0] == envelopes[1]
        assert envelopes[0]["input"]["sha256"] == hashlib.sha256((GOLDEN / "diag_n3.json").read_bytes()).hexdigest()


class TestOneProcess:
    def test_repeated_calls_match_separate_runs(self, capsys):
        # main builds its parser once per process; an argparse error on the
        # way must leave the next command as it would be in a fresh process
        jobs = [
            ["analyze", golden_path("simplest_n4.json")],
            ["verify", golden_path("simplest_n4.json"), "--level", "bogus"],
            ["verify", golden_path("diag_n3.json"), "--field", "fp:7", "--level", "full"],
        ]
        env = _env()
        for argv in jobs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            alone = subprocess.run(
                [sys.executable, "-m", "pcbideal.cli", *argv], capture_output=True, text=True, env=env
            )
            assert (code, out.err) == (alone.returncode, alone.stderr), argv
            if code == 0:
                got, want = json.loads(out.out), json.loads(alone.stdout)
                got.pop("elapsed_ms")
                want.pop("elapsed_ms")
                assert got == want
            else:
                assert code == 2 and out.out == alone.stdout == ""

    # argv that the plain path leaves to argparse: help, --version, the
    # forms argparse accepts besides the plain one, and usage errors
    FALLBACK = [
        [],
        ["--version"],
        ["-h"],
        ["analyze", "--help"],
        ["verify", "-h"],
        ["analyze"],
        ["analyze", "--", golden_path("diag_n3.json")],
        ["analyze", golden_path("diag_n3.json"), golden_path("n2_64.json")],
        ["analyze", golden_path("diag_n3.json"), "--field", "fp:7"],
        ["snf", "--pre", golden_path("diag_n3.json")],
        ["decompose", golden_path("diag_n3.json"), "--field=fp:7"],
        ["decompose", golden_path("diag_n3.json"), "--field"],
        ["verify", golden_path("diag_n3.json"), "--lev", "full"],
        ["verify", golden_path("diag_n3.json"), "--level", "bogus"],
        ["verify", golden_path("diag_n3.json"), "--field", "-1"],
        ["verify", "", "--level", "full"],
        ["verify", "-"],
        ["bogus", golden_path("diag_n3.json")],
    ]

    @pytest.mark.parametrize("argv", FALLBACK, ids=lambda argv: " ".join(Path(a).name or repr(a) for a in argv) or "(none)")
    def test_fallback_matches_a_separate_run(self, capsys, monkeypatch, argv):
        # argparse sizes its help to the terminal: pin the width on both sides
        monkeypatch.setenv("COLUMNS", "80")
        assert cli._plain_args(argv) is None
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        alone = subprocess.run(
            [sys.executable, "-m", "pcbideal.cli", *argv], capture_output=True, text=True, env=_env(COLUMNS="80")
        )
        assert (code, out.err) == (alone.returncode, alone.stderr)
        if code == 0 and out.out.startswith("{"):
            got, want = json.loads(out.out), json.loads(alone.stdout)
            assert got.pop("elapsed_ms") >= 0 and want.pop("elapsed_ms") >= 0
            assert got == want
        else:
            assert out.out == alone.stdout


def _parse_reference(argv):
    """vars() of argparse's namespace, or ("exit", code) where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        return ("exit", exc.code)


_TOKENS = [
    *cli._COMMANDS,
    "--pretty", "--field", "--level", "full", "identities", "bogus", "fp:7", "q", "symbolic",
    "--", "-h", "--lev", "--pre", "--field=fp:7", "--version",
    "", "-", "-1", "a b", golden_path("diag_n3.json"), "m.json",
]


class TestPlainArgs:
    """`_plain_args` reads the plain form without argparse, and argparse
    stays the reference: wherever the plain path accepts an argv, its
    namespace is argparse's."""

    @settings(max_examples=2000, deadline=None)
    @given(st.one_of(st.sampled_from(list(cli._COMMANDS)), st.sampled_from(_TOKENS)),
           st.lists(st.sampled_from(_TOKENS), max_size=6))
    def test_agrees_with_argparse(self, first, rest):
        argv = [first, *rest]
        plain = cli._plain_args(argv)
        if plain is not None:
            assert vars(plain) == _parse_reference(argv), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "m.json"],
            ["snf", "--pretty", "m.json"],
            ["decompose", "m.json", "--field", "fp:7", "--pretty"],
            ["decompose", "--field", "symbolic", "m.json"],
            ["verify", "--level", "full", "--field", "fp:7", "m.json"],
            ["verify", "m.json", "--field", "fp:3", "--field", "q", "--level", "full", "--level", "identities"],
            ["verify", "a b", "--field", ""],
            ["verify", "verify"],
        ],
    )
    def test_plain_form_is_read_directly(self, argv):
        plain = cli._plain_args(argv)
        assert plain is not None
        assert vars(plain) == _parse_reference(argv)

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        # the `pcb` console script calls main() with no argv
        def refuse():
            raise AssertionError("a plain argv reached argparse")

        monkeypatch.setattr(sys, "argv", ["pcb", "analyze", golden_path("diag_n3.json")])
        monkeypatch.setattr(cli, "build_parser", refuse)
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["result"] == run_json(capsys, "analyze", golden_path("diag_n3.json"))["result"]

    def test_plain_run_imports_no_argparse(self):
        # a fresh interpreter runs a plain command without importing argparse
        # or its gettext, and help still comes from argparse
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import pcbideal.cli\n"
            "code = pcbideal.cli.main(['analyze', sys.argv[1]])\n"
            "print(sorted({'argparse', 'gettext'} & (set(sys.modules) - before)), code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", script, golden_path("diag_n3.json")],
            capture_output=True, text=True, env=_env(), check=True,
        )
        assert done.stdout.splitlines()[-1] == "[] 0"
        helped = subprocess.run(
            [sys.executable, "-m", "pcbideal.cli", "analyze", "--help"], capture_output=True, text=True, env=_env()
        )
        assert helped.returncode == 0 and helped.stderr == ""
        assert helped.stdout.startswith("usage: pcb analyze [-h] [--pretty] matrix\n")


def test_cli_imports_only_the_standard_library():
    # the package stays stdlib-only: every module that importing the CLI
    # adds to a bare interpreter's start-up is the standard library's or
    # the package's own. The diff is taken against the modules present
    # before the import, since start-up alone may import site-packages
    # (a .pth file can import certifi, say)
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pcbideal.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env(), check=True)
    added = done.stdout.split()
    assert "pcbideal.cli" in added
    foreign = [
        name for name in added
        if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "pcbideal"
    ]
    assert foreign == []
