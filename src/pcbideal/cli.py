"""Command line interface.

Four subcommands over a tiny JSON input format:

    pcb analyze   <matrix.json>
    pcb snf       <matrix.json>
    pcb decompose <matrix.json> [--field symbolic|fp:<p>]
    pcb verify    <matrix.json> [--field q|fp:<p>] [--level identities|full]

Input files look like {"n": 4, "L": [[3,-1,-1,-1], ...]}. Output is a JSON
envelope on stdout; --pretty switches to human-readable tables. Exit codes:
0 success, 2 parse error, 3 validation error, 4 bad prime, 5 verification
failure. This module parses, dispatches and renders; the checks behind
`verify` live in core.identity_checks and decomp.verify_full_decomposition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from . import __version__
from .core import (
    PcbMatrix,
    PcbValidationError,
    analyze,
    associated_vector,
    identity_checks,
    normalized_snf,
    small_dim_decomposition,
    syzygy_vectors,
    torsion_profile,
    validate,
)
from .decomp import (
    BadPrime,
    VerificationFailed,
    component_count,
    embedded_component,
    enumerate_components,
    prime_field,
    realize_over_prime_field,
    verify_full_decomposition,
)
from .oracle import DEGREVLEX, GF, render


class SchemaError(ValueError):
    """The input is not UTF-8 JSON describing an integer matrix."""


def _load_matrix(path: str) -> Tuple[PcbMatrix, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise SchemaError(f"input is not UTF-8: {err.reason} at byte {err.start}") from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply") from None
    if not isinstance(doc, dict) or "L" not in doc:
        raise SchemaError('input must be an object with an "L" matrix')
    rows = doc["L"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError('"L" must be a list of rows')
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int):
                raise SchemaError(f"entry ({i + 1},{j + 1}) is not an integer")
    if "n" in doc and doc["n"] != len(rows):
        raise SchemaError(f'"n" is {doc["n"]} but "L" has {len(rows)} rows')
    return validate(rows), digest


def _parse_field(text: str, allow_symbolic: bool) -> Tuple[str, Optional[int]]:
    if allow_symbolic and text == "symbolic":
        return "symbolic", None
    if not allow_symbolic and text == "q":
        return "q", None
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise SchemaError(f"bad field spec {text!r}") from None
        prime_field(p)  # a non-prime p is BadPrime at every level, not only where F_p is used
        return "fp", p
    raise SchemaError(f"bad field spec {text!r}")


def _cmd_analyze(P: PcbMatrix) -> Dict:
    result = analyze(P)
    tors = torsion_profile(P)
    counts = component_count(P)
    return {
        "n": result.n,
        "m": list(result.m),
        "d": result.d,
        "nu": list(result.nu),
        "invariant_factors": list(result.invariant_factors),
        "syzygy_exponents": [list(b) for b in result.syzygy_exponents],
        "hull_prime": result.hull_prime,
        "counts": {
            "isolated": counts.isolated,
            "embedded": counts.embedded,
            "at_most": counts.at_most,
            "assumption": counts.assumption,
        },
        "torsion": {
            "fitting_zero": tors.fitting_zero,
            "fitting_one": tors.fitting_one,
            "order": tors.order,
            "free_rank": tors.free_rank,
            "cyclic_factors": list(tors.cyclic_factors),
            "is_direct_summand": tors.is_direct_summand,
        },
    }


def _cmd_snf(P: PcbMatrix) -> Dict:
    snf = normalized_snf(P)
    _, _, nu = associated_vector(P)
    closed = small_dim_decomposition(P)
    payload = {
        "P": snf.P.to_rows(),
        "D": snf.D.to_rows(),
        "Q": snf.Q.to_rows(),
        "invariant_factors": list(snf.invariant_factors),
        "nu": list(nu),
        "closed_form": None,
    }
    if closed is not None:
        payload["closed_form"] = {
            "P": closed.P.to_rows(),
            "D": closed.D.to_rows(),
            "Q": closed.Q.to_rows(),
        }
    return payload


def _cmd_decompose(P: PcbMatrix, field_kind: str, p: Optional[int]) -> Dict:
    specs = enumerate_components(P)
    counts = component_count(P)
    payload: Dict = {
        "field": "symbolic" if field_kind == "symbolic" else f"fp:{p}",
        "root_order": specs[0].root_order,
        "counts": {
            "isolated": counts.isolated,
            "embedded": counts.embedded,
            "at_most": counts.at_most,
        },
    }
    realization = None
    if field_kind != "symbolic":
        realization = realize_over_prime_field(P, p)
        payload["p"] = realization.p
        payload["zeta"] = realization.zeta
    components: List[Dict] = []
    for i, s in enumerate(specs):
        comp = {
            "lambda_index": list(s.lambda_index),
            "coeff_exponents": list(s.coeff_exponents),
            "weights": list(s.weights),
            "map": list(s.map_strings()),
        }
        if realization is not None:
            comp["kernel"] = [render(g, DEGREVLEX) for g in realization.kernels[i].groebner()]
        components.append(comp)
    payload["components"] = components
    payload["embedded"] = None
    if P.n >= 4:
        payload["embedded"] = {"monomial": list(syzygy_vectors(P)[P.n - 1])}
        if realization is not None:
            gens = embedded_component(P, GF(p)).groebner()
            payload["embedded"]["generators"] = [render(g, DEGREVLEX) for g in gens]
    return payload


def _cmd_verify(P: PcbMatrix, field_kind: str, p: Optional[int], level: str) -> Dict:
    checks = identity_checks(P)
    if level == "full":
        checks.extend(verify_full_decomposition(P, p).checks)
    return {
        "field": "q" if field_kind == "q" else ("fp:%d" % p if field_kind == "fp" else field_kind),
        "level": level,
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "ok": all(ok for _, ok in checks),
    }


def _print_pretty(command: str, payload: Dict, digest: str, ms: int) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcb",
        description="Exact invariants and primary decomposition for PCB matrices.",
    )
    parser.add_argument("--version", action="version", version=f"pcb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "snf", "decompose", "verify"):
        cmd = sub.add_parser(name)
        cmd.add_argument("matrix", help="path to a JSON file with an L matrix")
        cmd.add_argument("--pretty", action="store_true", help="human-readable output")
        if name == "decompose":
            cmd.add_argument("--field", default="symbolic", help="symbolic or fp:<p>")
        if name == "verify":
            cmd.add_argument("--field", default="q", help="q or fp:<p>")
            cmd.add_argument(
                "--level", default="identities", choices=("identities", "full")
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        P, digest = _load_matrix(args.matrix)
        if args.command == "analyze":
            payload = _cmd_analyze(P)
        elif args.command == "snf":
            payload = _cmd_snf(P)
        elif args.command == "decompose":
            kind, p = _parse_field(args.field, allow_symbolic=True)
            payload = _cmd_decompose(P, kind, p)
        else:
            kind, p = _parse_field(args.field, allow_symbolic=False)
            payload = _cmd_verify(P, kind, p, args.level)
    except json.JSONDecodeError as err:
        print(f"parse error: line {err.lineno}, column {err.colno}: {err.msg}", file=sys.stderr)
        return 2
    except (OSError, SchemaError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except PcbValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 3
    except BadPrime as err:
        print(f"bad prime: {err}", file=sys.stderr)
        return 4
    except VerificationFailed as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 5
    ms = int((time.monotonic() - t0) * 1000)
    if args.pretty:
        _print_pretty(args.command, payload, digest, ms)
    else:
        envelope = {
            "version": __version__,
            "command": args.command,
            "input": {"sha256": digest, "n": P.n},
            "elapsed_ms": ms,
            "result": payload,
        }
        print(json.dumps(envelope))
    if args.command == "verify" and not payload["ok"]:
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
