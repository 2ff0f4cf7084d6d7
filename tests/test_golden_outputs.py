"""The `result` payload of every `pcb` command on golden/ stays byte-identical.

Each job's payload is hashed the way bench/checks.py:result_digest does
it, as the sha256 of json.dumps(result, sort_keys=True), and compared
with the digest recorded in golden_digests.json. A restructuring of the
invariants or of the verification checks that changes a check name, the
order of the checks or any value fails here. Regenerate the file only for
an intended change of output:

    PYTHONPATH=src python3 tests/test_golden_outputs.py > tests/golden_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from pcbideal.cli import main
from pcbideal.core import normalized_snf

from conftest import load_golden

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
GOLDEN = sorted(p.stem for p in (ROOT / "golden").glob("*.json"))
# least prime p = 1 (mod r), r the last invariant factor of the input
FIELD_PRIME = {
    "diag_n3": 7,
    "n2_64": 3,
    "n3_doubled": 7,
    "n3_mixed": 2,
    "onecomp_n4": 2,
    "simplest_n4": 5,
}
# r a power of p: the hull is the one isolated component over F_p
P_GROUP_PRIME = {"diag_n3": 3, "diag_n5": 5, "n2_64": 2, "simplest_n4": 2}
# p divides r together with another prime, and p = 1 (mod r′), r′ the part
# of r prime to p: the hull is the meet of d′ primary components over F_p
MIXED_PRIME = {"n3_doubled": 3}


def _jobs():
    jobs = []
    for name in GOLDEN:
        for command in ("analyze", "snf", "decompose", "verify"):
            jobs.append((command, f"golden/{name}.json"))
    for name, p in FIELD_PRIME.items():
        path = f"golden/{name}.json"
        jobs.append(("decompose", path, "--field", f"fp:{p}"))
        jobs.append(("verify", path, "--level", "full", "--field", f"fp:{p}"))
        jobs.append(("verify", path, "--level", "full"))
    for name, p in {**P_GROUP_PRIME, **MIXED_PRIME}.items():
        jobs.append(("verify", f"golden/{name}.json", "--field", f"fp:{p}", "--level", "full"))
    jobs.append(("decompose", "golden/diag_n5.json", "--field", "fp:11"))
    jobs.append(("verify", "golden/diag_n5.json", "--level", "full", "--field", "fp:11"))
    return jobs


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([argv[0], str(ROOT / argv[1]), *argv[2:]])
    assert code == 0, f"pcb {' '.join(argv)} exited {code}"
    result = json.loads(out.getvalue())["result"]
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def test_every_golden_input_has_a_field_prime():
    assert sorted(FIELD_PRIME) == [name for name in GOLDEN if name != "diag_n5"]
    for name, p in P_GROUP_PRIME.items():
        r = normalized_snf(load_golden(f"{name}.json")).invariant_factors[-1]
        assert r in {p**k for k in range(1, r.bit_length() + 1)}, name
    for name, p in MIXED_PRIME.items():
        r = normalized_snf(load_golden(f"{name}.json")).invariant_factors[-1]
        rest = r
        while rest % p == 0:
            rest //= p
        assert r % p == 0 and rest > 1 and (p - 1) % rest == 0, name


@pytest.mark.parametrize("argv", _jobs(), ids=" ".join)
def test_result_digest(argv):
    recorded = json.loads(DIGESTS.read_text())
    assert _digest(argv) == recorded[" ".join(argv)]


if __name__ == "__main__":
    json.dump({" ".join(argv): _digest(argv) for argv in _jobs()}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
