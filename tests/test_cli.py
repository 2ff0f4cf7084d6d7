import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcbideal
from pcbideal.cli import main

from conftest import LARGE_WEIGHTS, golden_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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
        assert "hull saturated by x_1" in names
        assert "hull meets embedded component in the ideal" in names
        assert "component count is 2" in names

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

    def test_n_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "mismatch.json"
        bad.write_text('{"n": 3, "L": [[1, -1], [-1, 1]]}')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2

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

    def test_verify_identities_accepts_a_bad_characteristic(self, capsys):
        # 7 is prime but not 1 (mod 4); the identity checks run over Z
        doc = run_json(capsys, "verify", golden_path("simplest_n4.json"), "--field", "fp:7")
        assert doc["result"]["field"] == "fp:7"
        assert doc["result"]["ok"]

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


class TestOneProcess:
    def test_repeated_calls_match_separate_runs(self, capsys):
        # main builds its parser once per process; an argparse error on the
        # way must leave the next command as it would be in a fresh process
        jobs = [
            ["analyze", golden_path("simplest_n4.json")],
            ["verify", golden_path("simplest_n4.json"), "--level", "bogus"],
            ["verify", golden_path("diag_n3.json"), "--field", "fp:7", "--level", "full"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(pcbideal.__file__).parent.parent))
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
    env = dict(os.environ, PYTHONPATH=str(Path(pcbideal.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    added = done.stdout.split()
    assert "pcbideal.cli" in added
    foreign = [
        name for name in added
        if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "pcbideal"
    ]
    assert foreign == []
