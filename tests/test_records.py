"""The package's records: immutable values, built without `dataclasses`.

SnfResult, Binomial, TorsionProfile, PcbAnalysis, ComponentSpec,
ComponentCount, PrimeFieldRealization and DecompositionReport are
NamedTuples; PcbMatrix is the one small class that refuses assignment.
Importing the CLI must load neither `dataclasses` nor `inspect`, whose
import and per-class code generation cost every `pcb` process ~17 ms, nor
`fractions` with the `decimal` and `numbers` it imports: rational
arithmetic loads on the first use of Q, and a run over F_p or over the
integers never makes one.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcbideal
from pcbideal import (
    analyze,
    component_count,
    generators,
    normalized_snf,
    realize_over_prime_field,
    torsion_profile,
    validate,
    verify_full_decomposition,
)

from conftest import golden_path, load_golden


RATIONALS = ("fractions", "decimal", "_decimal", "numbers")
ENV = dict(os.environ, PYTHONPATH=str(Path(pcbideal.__file__).parent.parent))


def test_cli_import_skips_dataclasses_and_inspect():
    # nor hashlib and OpenSSL's _hashlib: the input digest is CPython's
    # built-in SHA-256; nor the rationals
    heavy = {"dataclasses", "inspect", "hashlib", "_hashlib", *RATIONALS}
    probe = f"import pcbideal.cli, sys; print(sorted({heavy!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=ENV, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _fresh_run(*argv):
    """`pcb argv` in a fresh `python -S` process: its exit code, its result
    and which of RATIONALS it loaded."""
    probe = (
        "import sys, pcbideal.cli\n"
        "code = pcbideal.cli.main(sys.argv[1:])\n"
        f"print(sorted({set(RATIONALS)!r} & set(sys.modules)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe, *argv], env=ENV, capture_output=True, text=True)
    return done.returncode, json.loads(done.stdout)["result"], done.stderr.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "simplest_n4.json", "--level", "full", "--field", "fp:5"),
        ("analyze", "simplest_n4.json"),
        ("snf", "simplest_n4.json"),
        ("verify", "simplest_n4.json"),
    ],
    ids=" ".join,
)
def test_fp_and_integer_runs_load_no_rationals(argv):
    code, _, loaded = _fresh_run(argv[0], golden_path(argv[1]), *argv[2:])
    assert (code, loaded) == (0, "[]")


def test_full_verify_over_q_loads_the_rationals_and_keeps_its_result():
    code, result, loaded = _fresh_run("verify", golden_path("simplest_n4.json"), "--level", "full")
    assert (code, loaded) == (0, str(sorted(RATIONALS)))
    digests = json.loads((Path(__file__).parent / "golden_digests.json").read_text())
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    assert digest == digests["verify golden/simplest_n4.json --level full"]


def _records():
    P = load_golden("diag_n3.json")
    real = realize_over_prime_field(P, 7)
    return {
        "SnfResult": normalized_snf(P),
        "Binomial": generators(P)[0],
        "TorsionProfile": torsion_profile(P),
        "PcbAnalysis": analyze(P),
        "ComponentSpec": real.specs[0],
        "ComponentCount": component_count(P),
        "DecompositionReport": verify_full_decomposition(P, 7),
        "PcbMatrix": P,
        "PrimeFieldRealization": real,
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_refuse_assignment(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    field = "a" if name == "PcbMatrix" else record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_pcb_matrix_is_its_entries():
    rows = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    cached, fresh = validate(rows), validate(rows)
    normalized_snf(cached)
    assert cached._snf is not None and fresh._snf is None
    assert cached == fresh and hash(cached) == hash(fresh)
    assert cached != validate([[3, -1, -2], [-1, 2, -1], [-1, -1, 2]])
    assert repr(cached) == repr(fresh) == "PcbMatrix(a=((2, 1, 1), (1, 2, 1), (1, 1, 2)))"
    assert cached.signed is cached.signed
    assert cached.signed.to_rows() == rows

