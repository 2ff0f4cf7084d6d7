"""The --pretty rendering of a `pcb` result: human-readable tables in
place of the JSON envelope. cli imports this module only under --pretty.
"""

from __future__ import annotations

from typing import Dict


def print_pretty(command: str, payload: Dict, digest: str, ms: int) -> None:
    print(f"pcb {command}  (input sha256 {digest[:12]}, {ms} ms)")
    if command == "analyze":
        print(f"  n = {payload['n']}")
        print(f"  m = {payload['m']}   d = {payload['d']}   nu = {payload['nu']}")
        print(f"  invariant factors: {payload['invariant_factors']}")
        print(f"  syzygy exponents: {payload['syzygy_exponents']}")
        print(f"  hull prime: {payload['hull_prime']}")
        c = payload["counts"]
        print(f"  components: {c['isolated']} isolated + {c['embedded']} embedded (at most {c['at_most']} over any field)")
        t = payload["torsion"]
        print(f"  torsion: order {t['order']}, cyclic factors {t['cyclic_factors']}, free rank {t['free_rank']}")
    elif command == "snf":
        for name in ("P", "D", "Q"):
            print(f"  {name}:")
            for row in payload[name]:
                print(f"    {row}")
        print(f"  invariant factors: {payload['invariant_factors']}")
        print(f"  nu: {payload['nu']}")
    elif command == "decompose":
        print(f"  field: {payload['field']}   isolated: {payload['counts']['isolated']}")
        for i, comp in enumerate(payload["components"], start=1):
            line = f"  [{i:>2}] x -> ({', '.join(comp['map'])})"
            print(line)
            if "kernel" in comp:
                for g in comp["kernel"]:
                    print(f"        {g}")
        if payload.get("embedded"):
            print(f"  embedded monomial exponents: {payload['embedded']['monomial']}")
    elif command == "verify":
        for check in payload["checks"]:
            mark = "ok " if check["ok"] else "FAIL"
            print(f"  [{mark}] {check['name']}")
        print(f"  overall: {'ok' if payload['ok'] else 'FAILED'}")
