"""Command line interface.

Four subcommands over a tiny JSON input format:

    pcb analyze   <matrix.json>
    pcb snf       <matrix.json>
    pcb decompose <matrix.json> [--field symbolic|fp:<p>]
    pcb verify    <matrix.json> [--field q|fp:<p>] [--level identities|full]

Input files look like {"n": 4, "L": [[3,-1,-1,-1], ...]}. Output is a JSON
envelope on stdout; --pretty switches to human-readable tables. Exit codes:
0 success, 2 parse or usage error, 3 validation error, 4 bad prime, 5
verification failure. This module parses, dispatches and renders JSON; the
checks behind `verify` live in core.identity_checks and
decomp.verify_full_decomposition. A plain command line is read from the
_COMMANDS table; argparse is imported only for help, --version and the other
forms, which it parses as the reference. Each command loads only what it
runs: the decompose module (with the oracle's elimination engine) in the
decompose branch, and the pretty module under --pretty.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

# CPython's built-in SHA-256 (_sha256 to 3.11, _sha2 from 3.12), so that no
# process loads OpenSSL through hashlib; hashlib only for a build without it.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .core import (
    PcbMatrix,
    PcbValidationError,
    analyze,
    associated_vector,
    component_count,
    identity_checks,
    normalized_snf,
    small_dim_decomposition,
    torsion_profile,
    validate,
)
from .decomp import BadPrime, VerificationFailed, prime_field, verify_full_decomposition


class SchemaError(ValueError):
    """The input is not UTF-8 JSON describing an integer matrix."""


_LIMIT = ", Python's limit for reading an integer from text"


def _unique_keys(pairs: List[Tuple[str, object]]) -> Dict:
    # the digest names the file, so a repeated key must not pick one of its values
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(f"duplicate key {json.dumps(key)}")
        doc[key] = value
    return doc


def _load_matrix(path: str) -> Tuple[PcbMatrix, str]:
    with open(path, "rb", buffering=0) as fh:
        raw = fh.read()
    digest = sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as err:
        raise SchemaError(f"input is not UTF-8: {err.reason} at byte {err.start}") from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply") from None
    except (json.JSONDecodeError, SchemaError):
        raise
    except ValueError:  # only int() raises any other ValueError here
        raise SchemaError(f"an integer in the input has more than {sys.get_int_max_str_digits()} digits{_LIMIT}") from None
    if not isinstance(doc, dict) or "L" not in doc:
        raise SchemaError('input must be an object with an "L" matrix')
    rows = doc["L"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError('"L" must be a list of rows')
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int):
                raise SchemaError(f"entry ({i + 1},{j + 1}) is not an integer")
    n = doc.get("n", len(rows))
    if isinstance(n, bool) or not isinstance(n, int):
        raise SchemaError(f'"n" is {n!r}, not an integer')
    if n != len(rows):
        raise SchemaError(f'"n" is {n!r} but "L" has {len(rows)} rows')
    return validate(rows), digest


def _parse_field(text: str, allow_symbolic: bool) -> Optional[int]:
    """p for "fp:<p>"; None for "symbolic" (decompose) or "q" (verify)."""
    if text == ("symbolic" if allow_symbolic else "q"):
        return None
    digits = text[3:].removeprefix("-")
    # int() alone would also read "1_1", "+7", " 7" and non-ASCII digits
    if text.startswith("fp:") and digits.isascii() and digits.isdigit():
        try:
            p = int(text[3:])
        except ValueError:
            raise SchemaError(f"bad field spec: p has more than {sys.get_int_max_str_digits()} digits{_LIMIT}") from None
        prime_field(p)  # a non-prime p is BadPrime at every level, not only where F_p is used
        return p
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


def _cmd_verify(P: PcbMatrix, p: Optional[int], level: str) -> Dict:
    checks = identity_checks(P)
    if level == "full":
        checks.extend(verify_full_decomposition(P, p).checks)
    return {
        "field": "q" if p is None else f"fp:{p}",
        "level": level,
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "ok": all(ok for _, ok in checks),
    }


# Each subcommand's options besides the matrix path and --pretty: option ->
# (default, choices, help), choices None for any value. build_parser and
# _plain_args both read this table.
_COMMANDS = {
    "analyze": {},
    "snf": {},
    "decompose": {"--field": ("symbolic", None, "symbolic or fp:<p>")},
    "verify": {
        "--field": ("q", None, "q or fp:<p>"),
        "--level": ("identities", ("identities", "full"), None),
    },
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one in
    the process (parse_args leaves it unchanged). It is the reference for
    the grammar: main uses it for every argv that _plain_args does not
    read, so help, --version and usage errors are argparse's own."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pcb",
        description="Exact invariants and primary decomposition for PCB matrices.",
    )
    parser.add_argument("--version", action="version", version=f"pcb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("matrix", help="path to a JSON file with an L matrix")
        cmd.add_argument("--pretty", action="store_true", help="human-readable output")
        for option, (default, choices, text) in options.items():
            cmd.add_argument(option, default=default, choices=choices, help=text)
    return parser


def _plain_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace build_parser().parse_args(argv) returns, for the plain
    form only; None for any other argv.

    The plain form is a subcommand, then in any order exactly one matrix
    path and the subcommand's options spelled out in full: --pretty, and
    each option of _COMMANDS followed by its value, a value in its choices
    when it has them. A path or value must not start with "-", and the path
    must not be empty. A repeated option keeps its last value, as argparse
    does. Everything else (-h, --version, --opt=value, abbreviations, "--",
    a second path, every usage error) is None, and main hands it to
    argparse, so a plain argv parses without importing argparse and every
    other one exactly as before."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]]
    fields = {"command": argv[0], "pretty": False}
    fields.update((option[2:], default) for option, (default, _, _) in options.items())
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--pretty":
            fields["pretty"] = True
        elif token in options:
            value = next(tokens, "-")  # a missing value reads as "-"
            choices = options[token][1]
            if value.startswith("-") or (choices is not None and value not in choices):
                return None
            fields[token[2:]] = value
        elif token and not token.startswith("-") and "matrix" not in fields:
            fields["matrix"] = token
        else:
            return None
    return SimpleNamespace(**fields) if "matrix" in fields else None


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        P, digest = _load_matrix(args.matrix)
        if args.command == "analyze":
            payload = _cmd_analyze(P)
        elif args.command == "snf":
            payload = _cmd_snf(P)
        elif args.command == "decompose":
            from . import decompose

            payload = decompose.result(P, _parse_field(args.field, allow_symbolic=True))
        else:
            payload = _cmd_verify(P, _parse_field(args.field, allow_symbolic=False), args.level)
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
    # a valid input can have results past the limit on int/str conversion
    # (m for 2500-digit entries has ~5000 digits): lift it while printing
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.pretty:
            from .pretty import print_pretty

            print_pretty(args.command, payload, digest, ms)
        else:
            envelope = {
                "version": __version__,
                "command": args.command,
                "input": {"sha256": digest, "n": P.n},
                "elapsed_ms": ms,
                "result": payload,
            }
            print(json.dumps(envelope))
    finally:
        sys.set_int_max_str_digits(limit)
    if args.command == "verify" and not payload["ok"]:
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
