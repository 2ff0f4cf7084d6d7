"""The package's records: immutable values, built without `dataclasses`.

SnfResult, Binomial, TorsionProfile, PcbAnalysis, ComponentSpec,
ComponentCount, PrimeFieldRealization and DecompositionReport are
NamedTuples; PcbMatrix is the one small class that refuses assignment.
Importing the CLI must load neither `dataclasses` nor `inspect`, whose
import and per-class code generation cost every `pcb` process ~17 ms, nor
`fractions` with the `decimal` and `numbers` it imports: rational
arithmetic loads on the first use of Q, and a run over F_p or over the
integers never makes one. Nor does a command load the package modules it
does not run: decompose (with the oracle's elimination engine) loads only
for `pcb decompose`, and pretty only under --pretty.
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


def _fresh_run(*argv, package=False):
    """`pcb argv` in a fresh `python -S` process: its exit code, its result
    (the printed text under --pretty) and which of RATIONALS it loaded, or
    with package=True the set of `pcbideal` modules it loaded."""
    probe = (
        "import json, sys, pcbideal.cli\n"
        "code = pcbideal.cli.main(sys.argv[1:])\n"
        f"print(sorted({set(RATIONALS)!r} & set(sys.modules)), file=sys.stderr)\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'pcbideal']), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe, *argv], env=ENV, capture_output=True, text=True)
    rationals, modules = done.stderr.strip().splitlines()
    result = done.stdout if "--pretty" in argv else json.loads(done.stdout)["result"]
    return done.returncode, result, set(json.loads(modules)) if package else rationals


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


COMMAND_MODULES = {"pcbideal.decompose", "pcbideal.oracle.elimination", "pcbideal.pretty"}


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "simplest_n4.json"),
        ("snf", "simplest_n4.json"),
        ("verify", "simplest_n4.json"),
        ("verify", "simplest_n4.json", "--level", "full", "--field", "fp:5"),
        ("verify", "simplest_n4.json", "--level", "full"),
    ],
    ids=" ".join,
)
def test_runs_load_no_command_module_they_do_not_run(argv):
    code, _, loaded = _fresh_run(argv[0], golden_path(argv[1]), *argv[2:], package=True)
    assert code == 0
    assert {"pcbideal.cli", "pcbideal.decomp", "pcbideal.oracle.ideal"} <= loaded
    assert not loaded & COMMAND_MODULES


def test_decompose_loads_its_module_and_the_elimination_engine():
    code, result, loaded = _fresh_run("decompose", golden_path("simplest_n4.json"), "--field", "fp:5", package=True)
    assert code == 0
    assert loaded & COMMAND_MODULES == {"pcbideal.decompose", "pcbideal.oracle.elimination"}
    digests = json.loads((Path(__file__).parent / "golden_digests.json").read_text())
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    assert digest == digests["decompose golden/simplest_n4.json --field fp:5"]


def test_pretty_loads_its_module():
    code, text, loaded = _fresh_run("analyze", golden_path("simplest_n4.json"), "--pretty", package=True)
    assert code == 0 and text.startswith("pcb analyze  (input sha256 ")
    assert loaded & COMMAND_MODULES == {"pcbideal.pretty"}


def test_deferred_names_are_the_moved_objects():
    # the package root and the oracle keep every public name; a lookup
    # imports the module that defines it and returns its object
    probe = (
        "import json, sys\n"
        "import pcbideal, pcbideal.oracle\n"
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'pcbideal')\n"
        "from pcbideal import realize_over_prime_field\n"
        "from pcbideal.oracle import intersect, ring_map_kernel\n"
        "from pcbideal import decompose\n"
        "from pcbideal.oracle import elimination\n"
        "same = [realize_over_prime_field is decompose.realize_over_prime_field,\n"
        "        intersect is elimination.intersect, ring_map_kernel is elimination.ring_map_kernel]\n"
        "print(json.dumps([before, same]))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=ENV, capture_output=True, text=True, check=True)
    before, same = json.loads(done.stdout)
    assert not set(before) & COMMAND_MODULES
    assert same == [True, True, True]
    from pcbideal import decompose, oracle
    from pcbideal.oracle import elimination

    for name in pcbideal._DECOMPOSE:
        assert getattr(pcbideal, name) is getattr(decompose, name)
    for name in oracle._ELIMINATION:
        assert name in oracle.__all__ and getattr(oracle, name) is getattr(elimination, name)
    for module in (pcbideal, oracle):
        assert not hasattr(module, "no_such_name")


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

