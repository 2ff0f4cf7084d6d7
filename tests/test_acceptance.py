"""Acceptance gate: one test per shipped criterion, exact arithmetic only.

Each test prints a single `[criterion NN] PASS/FAIL` line (visible under
`pytest -s`) and then asserts, so the suite output doubles as the
acceptance report. Criterion 7 is the characteristic-2 collapse: over F_2
the sixteen isolated components of the simplest 4x4 ideal merge into one
hull S primary to the diagonal prime a = (x1-x4, x2-x4, x3-x4). The
criterion asserts that as a proof: S lies in a and differs from I; the
Frobenius power a^[4], generated by the fourth powers (x_i-x4)^4 =
x_i^4 - x4^4, lies in S; the ordinary power a^7 lies in S while a^6 does
not (so the ordinary exponent is sharp at 7, and a^4 is not in S);
S : x1 = S; and S meets the embedded component in I.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

from pcbideal import validate
from pcbideal.cli import main as cli_main
from pcbideal.core import (
    associated_vector,
    mixedness_witness,
    normalized_snf,
    syzygy_vectors,
    witness_identity_residual,
)
from pcbideal.decomp import (
    _hull_record,
    embedded_checks,
    hull,
    hull_is_prime,
    pcb_ideal,
    unmixedness_test,
    verify_full_decomposition,
)
from pcbideal.decompose import embedded_component, realize_over_prime_field, socle_monomial
from pcbideal.oracle import GF, QQ, Ideal, Polynomial, colon, saturate
from pcbideal.oracle.elimination import intersect

import property_suites
from conftest import diagonal_prime_gens, golden_path, load_golden, prime_power_in_hull


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def _cli_json(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    assert code == 0
    return json.loads(buf.getvalue())


def _bounded_pcb(rng: random.Random, n: int):
    """Every entry of the signed matrix bounded by 4 in absolute value."""
    rows = []
    for i in range(n):
        while True:
            off = [rng.randint(1, 2) for _ in range(n - 1)]
            if sum(off) <= 4:
                break
        row = off[:i] + [sum(off)] + off[i:]
        rows.append([v if j == i else -v for j, v in enumerate(row)])
    return validate(rows)


def test_criterion_01_simplest_golden():
    t0 = time.monotonic()
    P = load_golden("simplest_n4.json")
    m, d, _ = associated_vector(P)
    snf = normalized_snf(P)
    ok = (
        m == (16, 16, 16, 16)
        and d == 16
        and snf.invariant_factors == (1, 4, 4)
        and snf.D.to_rows()
        == [[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 0]]
        and snf.P.row(3) == (1, 1, 1, 1)
    )
    payload = _cli_json("analyze", golden_path("simplest_n4.json"))["result"]
    ok = ok and payload["m"] == [16, 16, 16, 16] and payload["d"] == 16
    ok = ok and payload["invariant_factors"] == [1, 4, 4]
    elapsed = time.monotonic() - t0
    _report(1, ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_onecomp_golden():
    t0 = time.monotonic()
    P = load_golden("onecomp_n4.json")
    m, d, _ = associated_vector(P)
    ok = m == (20, 24, 31, 25) and d == 1 and hull_is_prime(P)
    ok = ok and syzygy_vectors(P)[3] == (0, 1, 2, 0)
    # the embedded component is cut out by exactly x2 * x3^2
    socle = socle_monomial(P, QQ)
    ok = ok and socle.terms == {(0, 1, 2, 0): QQ.one}
    payload = _cli_json("analyze", golden_path("onecomp_n4.json"))["result"]
    ok = ok and payload["hull_prime"] is True
    elapsed = time.monotonic() - t0
    _report(2, ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_03_colon_oracle_identity():
    t0 = time.monotonic()
    P = load_golden("simplest_n4.json")
    I = pcb_ideal(P, QQ)
    x = [Polynomial.variable(QQ, 4, i) for i in range(4)]
    C = colon(I, x[0])
    quartics = [
        x[0] * x[0] * x[1] * x[1] - x[2] * x[2] * x[3] * x[3],
        x[0] * x[0] * x[2] * x[2] - x[1] * x[1] * x[3] * x[3],
        x[0] * x[0] * x[3] * x[3] - x[1] * x[1] * x[2] * x[2],
    ]
    E = Ideal(QQ, 4, list(I.gens) + quartics)
    both_ways = C.includes(E) and E.includes(C)
    _, steps = saturate(I, x[0])
    elapsed = time.monotonic() - t0
    _report(3, both_ways and steps == 1 and elapsed < 30.0, f"N={steps}, {elapsed:.2f}s")


def test_criterion_04_triple_agreement():
    t0 = time.monotonic()
    rng = random.Random(20240816)
    matrices = [load_golden("n3_mixed.json"), load_golden("simplest_n4.json")]
    while len(matrices) < 22:
        matrices.append(_bounded_pcb(rng, rng.choice((3, 4))))
    checked = 0
    ok = True
    for P in matrices:
        n = P.n
        I = pcb_ideal(P, QQ)
        J = Ideal(QQ, n, pcb_ideal(P, QQ).gens[:-1])
        xb = socle_monomial(P, QQ)
        x1 = Polynomial.variable(QQ, n, 0)
        from_i = colon(I, xb)
        from_j = colon(J, xb)
        sat, _ = saturate(I, x1)
        if not (from_i == from_j and from_j == sat):
            ok = False
            break
        checked += 1
    elapsed = time.monotonic() - t0
    _report(4, ok and checked >= 20 and elapsed < 300.0, f"{checked} matrices, {elapsed:.1f}s")


def test_criterion_05_unmixedness_dichotomy():
    rng = random.Random(8191)
    matrices = [
        load_golden("n2_64.json"),
        load_golden("n3_mixed.json"),
        load_golden("diag_n3.json"),
        load_golden("simplest_n4.json"),
        load_golden("onecomp_n4.json"),
    ]
    while len(matrices) < 25:
        matrices.append(_bounded_pcb(rng, rng.choice((3, 4))))
    ok = True
    for P in matrices:
        unmixed = unmixedness_test(P, QQ)
        if unmixed != (P.n <= 3):
            ok = False
            break
        if P.n >= 4:
            # certify the failure: x1 * g lands in I but g itself does not
            residual = witness_identity_residual(P)
            gb = mixedness_witness(P)
            I = pcb_ideal(P, QQ)
            g = Polynomial.from_terms(
                QQ, P.n, [(1, gb.plus), (-1, gb.minus)]
            )
            if residual != {} or I.contains(g):
                ok = False
                break
    _report(5, ok, f"{len(matrices)} matrices")


def test_criterion_06_full_decomposition_f5():
    t0 = time.monotonic()
    P = load_golden("simplest_n4.json")
    report = verify_full_decomposition(P, 5)
    ok = report.component_count == 17 and all(flag for _, flag in report.checks)
    elapsed = time.monotonic() - t0
    _report(6, ok and elapsed < 120.0, f"{report.component_count} components, {elapsed:.1f}s")


def test_criterion_07_char2_collapse():
    t0 = time.monotonic()
    P = load_golden("simplest_n4.json")
    field = GF(2)
    I = pcb_ideal(P, field)
    S = hull(P, field)
    E = embedded_component(P, field)
    a_gens = diagonal_prime_gens(P, field)
    A = Ideal(field, 4, a_gens)
    x1 = Polynomial.variable(field, 4, 0)
    report = verify_full_decomposition(P, 2)
    facts = {
        "hull in a": A.includes(S),
        "hull != I": S != I,
        "a^[4] in hull": all(S.contains(g * g * g * g) for g in a_gens),
        "a^7 in hull": prime_power_in_hull(P, field, 7),
        "a^6 not in hull": not prime_power_in_hull(P, field, 6),
        "hull : x1 = hull": colon(S, x1) == S,
        "hull meets E in I": intersect(S, E) == I,
        "E primary to the irrelevant ideal": E.gens == I.gens + (socle_monomial(P, field),)
        and all(flag for _, flag in embedded_checks(P, _hull_record(P, I, S)._replace(swept=colon(S, x1) == S))),
        "report: two components, all checks ok": report.component_count == 2
        and all(flag for _, flag in report.checks),
    }
    elapsed = time.monotonic() - t0
    failed = [name for name, ok in facts.items() if not ok]
    _report(
        7,
        not failed and elapsed < 30.0,
        "over F_2 the hull is primary to a = (x1-x4, x2-x4, x3-x4): it contains "
        "the Frobenius power a^[4] (each (x_i-x4)^4 = x_i^4 - x4^4) and a^7 but "
        "not a^6, is saturated by x1, and meets the embedded component in I"
        + (f"; failed: {', '.join(failed)}" if failed else "")
        + f", {elapsed:.2f}s",
    )


def test_criterion_08_diagonal_family():
    t0 = time.monotonic()
    ok = True
    for name, n, expected_d in (
        ("diag_n3.json", 3, 3),
        ("simplest_n4.json", 4, 16),
        ("diag_n5.json", 5, 125),
    ):
        P = load_golden(name)
        _, d, _ = associated_vector(P)
        facs = normalized_snf(P).invariant_factors
        if facs != (1,) + (n,) * (n - 2) or d != expected_d:
            ok = False
            break
    elapsed = time.monotonic() - t0
    _report(8, ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_09_property_suites():
    t0 = time.monotonic()
    counts = {suite.__name__: suite() for suite in property_suites.ALL_SUITES}
    ok = len(counts) == 6 and all(c >= 100 for c in counts.values())
    elapsed = time.monotonic() - t0
    _report(9, ok, f"{sorted(counts.values())} cases, {elapsed:.1f}s")


def test_criterion_10_conjugate_pairing():
    t0 = time.monotonic()
    P = load_golden("simplest_n4.json")
    real = realize_over_prime_field(P, 5)
    by_exps = {s.coeff_exponents: k for s, k in zip(real.specs, real.kernels)}
    F = GF(5)
    x = [Polynomial.variable(F, 4, i) for i in range(4)]
    expected = Ideal(F, 4, [x[0] - x[3], x[1] + x[2], x[2] * x[2] + x[3] * x[3]])
    got = intersect(by_exps[(0, 3, 1, 0)], by_exps[(0, 1, 3, 0)])
    elapsed = time.monotonic() - t0
    _report(10, got == expected and elapsed < 10.0, f"{elapsed:.2f}s")
