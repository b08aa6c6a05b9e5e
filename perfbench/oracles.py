"""Independent checks of jsob CLI output.

Nothing here imports jsob.  Each check parses the printed output and
recomputes what it must say from the mathematics alone:

* the Jacobi-Stirling triangle by {n,j} = {n-1,j-1} + j(j-1){n-1,j};
* Gram matrices: phi and classical-l2 are the identity, left-definite ones
  are diagonal with (m(m-1)+k)^n;
* exact spectra are m(m-1)+k;
* a family member satisfies the Jacobi differential equation and has unit
  norm in its normalization (integer polynomial arithmetic);
* Galerkin eigenvalues lie within 1e-6 of m(m-1)+k, and the chel constants
  meet the tolerances of acceptance criteria 10 and 11.

``check`` returns a ``Verdict``; a non-empty ``failure`` counts the command
as failed.  ``corruptions`` builds deliberately wrong outputs for the
benchmark's self-check of these oracles.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

GALERKIN_TOL = 1e-6  # acceptance criterion 10
CHEL_DIRICHLET_TOL = 1e-6  # acceptance criterion 11
CHEL_W1V1_TOL = 1e-9  # acceptance criterion 11
CHEL_UNIT_TOL = 1e-9  # `jsob verify` galerkin.chel-unit


@dataclass(frozen=True)
class Verdict:
    failure: str = ""
    error: float | None = None  # numeric error of a float result, for the per-layer metrics


class BadOutput(ValueError):
    """The output does not say what it must."""


def check(spec: dict, rc: int, expected_rc: int, out: bytes) -> Verdict:
    if rc != expected_rc:
        return Verdict(f"exit code {rc}, expected {expected_rc}")
    if spec["kind"] == "undefined":
        return Verdict("" if out == b"" else "undefined request printed output")
    try:
        text = out.decode("utf-8")
        if not text:
            raise BadOutput("empty stdout")
        error = _CHECKS[spec["kind"]](spec, text)
    # BadOutput and JSON or number parse errors are ValueErrors; a missing field,
    # row or regex match raises one of the others.
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return Verdict(f"{spec['kind']}: {exc}")
    return Verdict("", error)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise BadOutput(what)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# stirling


@lru_cache(maxsize=None)
def stirling_triangle(max_n: int) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * (max_n + 1) for _ in range(max_n + 1)]
    rows[0][0] = 1
    for n in range(1, max_n + 1):
        for j in range(1, n + 1):
            rows[n][j] = rows[n - 1][j - 1] + j * (j - 1) * rows[n - 1][j]
    return tuple(tuple(r) for r in rows)


def _check_stirling(spec: dict, text: str) -> None:
    max_n = spec["max_n"]
    got: dict[tuple[int, int], int] = {}
    if spec["format"] == "json":
        data = json.loads(text)
        _require(data["max_n"] == max_n, "wrong max_n")
        for e in data["entries"]:
            got[(e["n"], e["j"])] = int(e["value"])
    elif spec["format"] == "csv":
        rows = _csv_rows(text)
        _require(rows[0] == ["n", "j", "value"], "bad csv header")
        for n, j, v in rows[1:]:
            got[(int(n), int(j))] = int(v)
    else:
        lines = text.splitlines()
        _require(len(lines) == max_n + 1, "wrong number of rows")
        for j, line in enumerate(lines):
            values = line.split()
            _require(len(values) == max_n + 1, f"wrong number of columns in row {j}")
            for n, v in enumerate(values):
                got[(n, j)] = int(v)
    table = stirling_triangle(max_n)
    want = {(n, j): table[n][j] for n in range(max_n + 1) for j in range(max_n + 1)}
    _require(len(got) == len(want), "wrong number of entries")
    for key, value in want.items():
        _require(got.get(key) == value, f"entry {key} is {got.get(key)}, expected {value}")


# ---------------------------------------------------------------------------
# gram


def _check_gram(spec: dict, text: str) -> None:
    degrees = list(range(spec["start"], spec["max_degree"] + 1))
    size = len(degrees)
    if spec["format"] == "json":
        data = json.loads(text)
        _require(data["size"] == size and data["degrees"] == degrees, "wrong degrees")
        cells = [(e["row"], e["col"], e["coeff"], e["radicand"]) for e in data["entries"]]
    else:
        rows = _csv_rows(text)
        _require(rows[0] == ["row", "col", "coeff", "radicand"], "bad csv header")
        cells = [(int(r), int(c), a, b) for r, c, a, b in rows[1:]]
    _require(len(cells) == size * size, "wrong number of entries")
    seen = set()
    for row, col, coeff, radicand in cells:
        seen.add((row, col))
        if row != col:
            want = Fraction(0)
        elif spec["diag"] is None:
            want = Fraction(1)
        else:
            order, k = spec["diag"]
            m = degrees[row]
            want = (m * (m - 1) + Fraction(k)) ** order
        got = (Fraction(coeff), Fraction(radicand))
        _require(got == (want, Fraction(1)), f"entry ({row},{col}) is {coeff}*sqrt({radicand})")
    _require(seen == {(i, j) for i in range(size) for j in range(size)}, "wrong entry positions")


# ---------------------------------------------------------------------------
# poly: integer polynomial arithmetic on coefficients scaled to a common denominator


def _scaled_ints(coeffs: list[Fraction]) -> tuple[list[int], int]:
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _integral(p: list[int]) -> Fraction:
    """Integral over [-1, 1] of sum p_i x^i."""
    return sum((Fraction(2 * p[i], i + 1) for i in range(0, len(p), 2)), Fraction(0))


def _derivative(p: list[int]) -> list[int]:
    return [i * p[i] for i in range(1, len(p))] or [0]


def _div_one_minus_x2(p: list[int]) -> list[int]:
    """q with p = (1 - x^2) q; p_i = q_i - q_(i-2)."""
    d = len(p) - 1
    q = [0] * (d - 1)
    for i in range(d, 1, -1):
        q[i - 2] = (q[i] if i < d - 1 else 0) - p[i]
    _require(q[0] == p[0] and (q[1] if d > 2 else 0) == p[1], "not divisible by 1 - x^2")
    return q


def _check_poly(spec: dict, text: str) -> None:
    if spec["format"] == "json":
        data = json.loads(text)
    else:
        header, row = _csv_rows(text)
        data = dict(zip(header[:5], row[:5]))
        data["coefficients"] = row[5:]
        _require(header[5:] == [f"c{i}" for i in range(len(row) - 5)], "bad csv header")
    n, a, b = spec["n"], spec["alpha"], spec["beta"]
    _require((int(data["n"]), data["normalization"]) == (n, spec["norm"]), "wrong member")
    _require((Fraction(data["alpha"]), Fraction(data["beta"])) == (a, b), "wrong parameters")
    coeffs = [Fraction(c) for c in data["coefficients"]]
    _require(len(coeffs) == n + 1 and coeffs[-1] != 0, "wrong degree")
    c, den = _scaled_ints(coeffs)
    # Jacobi equation (1-x^2) y'' + (b - a - (a+b+2) x) y' + n(n+a+b+1) y = 0, by coefficient.
    lam = n * (n + a + b + 1)
    cc = c + [0, 0]
    for i in range(n + 1):
        term = ((i + 2) * (i + 1) * cc[i + 2] - i * (i - 1) * cc[i] + (b - a) * (i + 1) * cc[i + 1]
                - (a + b + 2) * i * cc[i] + lam * cc[i])
        _require(term == 0, f"differential equation fails at x^{i}")
    scale_sq = Fraction(data["scale_squared"])
    norm = spec["norm"]
    if norm == "reference":
        _require(scale_sq == 1, "reference scale is not 1")
        _require(coeffs[-1] == Fraction(comb(2 * n + a + b, n), 2 ** n), "wrong leading coefficient")
        return
    if norm == "phi":  # (f(-1)^2 + f(1)^2)/2 + int f'^2
        at_minus = sum(v if i % 2 == 0 else -v for i, v in enumerate(c))
        at_plus = sum(c)
        d = _derivative(c)
        value = Fraction(at_minus ** 2 + at_plus ** 2, 2) + _integral(_mul(d, d))
    elif (a, b) == (-1, -1):  # int f^2 / (1 - x^2)
        value = _integral(_mul(c, _div_one_minus_x2(c)))
    else:  # integer a, b >= 0: int f^2 (1-x)^a (1+x)^b
        weight = [1]
        for _ in range(a):
            weight = _mul(weight, [1, -1])
        for _ in range(b):
            weight = _mul(weight, [1, 1])
        value = _integral(_mul(_mul(c, c), weight))
    _require(scale_sq * value == den * den, "not normalized")


# ---------------------------------------------------------------------------
# spectrum, galerkin, chel


def _check_spectrum(spec: dict, text: str) -> None:
    k, start, count = Fraction(spec["k"]), spec["start"], spec["count"]
    if spec["format"] == "json":
        data = json.loads(text)
        got = [(e["index"], e["value"]) for e in data["eigenvalues"]]
    elif spec["format"] == "csv":
        rows = _csv_rows(text)
        _require(rows[0] == ["index", "value"], "bad csv header")
        got = [(int(i), v) for i, v in rows[1:]]
    else:
        lines = text.splitlines()
        _require(len(lines) == 2, "expected two lines")
        got = [(start + i, v) for i, v in enumerate(lines[1].split(", "))]
    _require(len(got) == count, "wrong count")
    for pos, (index, value) in enumerate(got):
        m = start + pos
        _require(index == m and Fraction(value) == m * (m - 1) + k, f"eigenvalue {index} is {value}")


_GALERKIN_PRETTY = re.compile(r"index (\d+): exact (\S+), numeric (\S+), abs error (\S+)$")


def _check_galerkin(spec: dict, text: str) -> float:
    k = Fraction(spec["k"])
    if spec["format"] == "json":
        rows = [(e["index"], e["exact"], e["numeric"], e["abs_error"])
                for e in json.loads(text)["entries"]]
    elif spec["format"] == "csv":
        table = _csv_rows(text)
        _require(table[0] == ["index", "exact", "numeric", "abs_error"], "bad csv header")
        rows = [(int(i), e, v, r) for i, e, v, r in table[1:]]
    else:
        rows = [(int(g[0]), *g[1:]) for g in
                (_GALERKIN_PRETTY.search(line).groups() for line in text.splitlines()[1:])]
    _require(len(rows) == min(spec["count"], spec["size"]), "wrong count")
    worst = 0.0
    for pos, (index, exact, numeric, reported) in enumerate(rows):
        m = pos + 2
        target = m * (m - 1) + k
        _require(index == m and Fraction(exact) == target, f"exact eigenvalue {index} is {exact}")
        err = abs(float(numeric) - float(target))
        _require(err < GALERKIN_TOL and float(reported) < GALERKIN_TOL,
                 f"eigenvalue {index}: error {err:.3e}, reported {reported}")
        worst = max(worst, err)
    return worst


_CHEL_PRETTY = re.compile(r"case (\S+): K = (\S+) at x = (\S+) \(K\^2 = (\S+)\)$")


def _golden_max(fn, lo: float, hi: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > 1e-13:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = fn(x1)
    return fn(0.5 * (lo + hi))


@lru_cache(maxsize=None)
def dirichlet_k_squared() -> float:
    """max over (0, 1) of (1 - x)/2 * log((1 + x)/(1 - x))."""
    return _golden_max(lambda x: 0.5 * (1 - x) * math.log((1 + x) / (1 - x)), 1e-9, 1 - 1e-9)


def _check_chel(spec: dict, text: str) -> float:
    if spec["format"] == "json":
        data = json.loads(text)
        case, kmax, argmax, ksq = data["case"], data["kmax"], data["argmax"], data["kmax_squared"]
    elif spec["format"] == "csv":
        rows = _csv_rows(text)
        _require(rows[0] == ["case", "grid", "kmax", "kmax_squared", "argmax"], "bad csv header")
        case, _, kmax, ksq, argmax = rows[1]
    else:
        case, kmax, argmax, ksq = _CHEL_PRETTY.match(text.strip()).groups()
    _require(case == spec["case"], "wrong case")
    kmax, argmax, ksq = float(kmax), float(argmax), float(ksq)
    _require(abs(ksq - kmax * kmax) <= 1e-12 * max(1.0, ksq), "K^2 disagrees with K")
    if case == "dirichlet":
        err = abs(kmax * kmax - dirichlet_k_squared())
        _require(err < CHEL_DIRICHLET_TOL, f"K^2 off the closed form by {err:.3e}")
    elif case == "w1v1":
        err = abs(kmax * kmax - math.exp(-1))
        _require(err < CHEL_W1V1_TOL, f"K^2 off 1/e by {err:.3e}")
    else:
        err = abs(kmax - 0.5)
        _require(err < CHEL_UNIT_TOL and abs(argmax - 0.5) < 1e-4, f"K off 1/2 by {err:.3e}")
    return err


_CHECKS = {
    "stirling": _check_stirling,
    "gram": _check_gram,
    "poly": _check_poly,
    "spectrum": _check_spectrum,
    "galerkin": _check_galerkin,
    "chel": _check_chel,
}


# ---------------------------------------------------------------------------
# corrupted outputs for the self-check


def _bump_last_digit(text: str) -> str:
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _first_float_field(text: str, spec: dict, field: str) -> tuple[int, int]:
    """Span of the first value of ``field`` in a galerkin or chel output."""
    if spec["format"] == "json":
        match = re.search(rf'"{field}": "([^"]+)"', text)
        return match.span(1)
    if spec["format"] == "csv":
        header, row = text.splitlines()[:2]
        col = header.split(",").index(field)
        start = len(header) + 1 + sum(len(v) + 1 for v in row.split(",")[:col])
        return start, start + len(row.split(",")[col])
    pattern = {"numeric": r"numeric (\S+),", "kmax": r"K = (\S+) at"}[field]
    return re.search(pattern, text).span(1)


def corruptions(spec: dict, rc: int, out: bytes) -> list[tuple[str, int, bytes]]:
    """Wrong variants of a correct (rc, out): each must fail ``check``."""
    cases = [("wrong exit code", 1 if rc != 1 else 0, out)]
    if spec["kind"] == "undefined":
        return cases + [("output on an undefined request", rc, b"{}\n")]
    text = out.decode("utf-8")
    cases.append(("empty stdout", rc, b""))
    if spec["kind"] == "gram":
        if spec["format"] == "json":
            bad = text.replace('"coeff": "0"', '"coeff": "1/3"', 1)
        else:
            bad = re.sub(r"^(0,1),0,", r"\1,1/3,", text, count=1, flags=re.M)
        cases.append(("changed Gram entry", rc, bad.encode()))
    elif spec["kind"] in ("galerkin", "chel"):
        field = "numeric" if spec["kind"] == "galerkin" else "kmax"
        lo, hi = _first_float_field(text, spec, field)
        value = float(text[lo:hi])
        bad = text[:lo] + repr(value + 1e-3 * max(1.0, abs(value))) + text[hi:]
        cases.append((f"changed {field} value", rc, bad.encode()))
    else:
        cases.append(("changed last digit", rc, _bump_last_digit(text).encode()))
    return cases
