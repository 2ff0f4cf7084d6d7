"""The package's records: immutable values, built without `dataclasses`.

SnfResult, Binomial, TorsionProfile, PcbAnalysis, ComponentSpec,
ComponentCount, PrimeFieldRealization and DecompositionReport are
NamedTuples; PcbMatrix is the one small class that refuses assignment.
Importing the CLI must load neither `dataclasses` nor `inspect`, whose
import and per-class code generation cost every `pcb` process ~17 ms.
"""

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

from conftest import load_golden


def test_cli_import_skips_dataclasses_and_inspect():
    # nor hashlib and OpenSSL's _hashlib: the input digest is CPython's
    # built-in SHA-256
    env = dict(os.environ, PYTHONPATH=str(Path(pcbideal.__file__).parent.parent))
    heavy = "{'dataclasses', 'inspect', 'hashlib', '_hashlib'}"
    probe = f"import pcbideal.cli, sys; print(sorted({heavy} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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

