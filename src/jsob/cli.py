"""Command-line front end.

Subcommands: stirling, poly, gram, spectrum, chel, verify (which runs
jsob.checks).  Each returns one Report, which main() writes to stdout as json,
csv, or pretty text once the command has finished, so a command that fails
prints nothing on stdout; diagnostics go to stderr.  Exact rationals are
serialized as decimal p/q strings, never floats; floats appear only in the
numeric outputs (spectrum --galerkin, chel) with a configurable number of
significant digits.

Configuration keys (default_k, output_format, cache_path, float_digits) are
resolved with precedence: JSOB_* environment variables, then command-line
flags, then the --config file (line-oriented ``key = value``), then defaults.
default_k has no flag of its own: --k on gram and spectrum replaces it for
that command, whatever the environment says.

Exit codes: 0 ok, 1 verification failure (a verify check that fails, or that
raises an ArithmeticError or ValueError, is reported as FAIL), 2 usage error,
3 undefined request, 4 numeric failure (a non-finite integral or a mass
matrix that is not positive definite), 5 internal fault (an exact computation
broke one of its own invariants, e.g. NotDivisible), 6 output not written
(stdout refused the report, e.g. ``> /dev/full``, or was closed, ``>&-``).
A reader that closes stdout early (``| head``) ends the command quietly with
exit code 0, and a stderr that refuses a diagnostic (``2> /dev/full``) changes
no exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from fractions import Fraction

from . import checks
from .algebra import Frozen, Polynomial, ScaledPolynomial
from .jacobi import JacobiParams, Normalization, UndefinedNormalization, jacobi_family
from .numeric import (
    _PRESETS,
    MassNotPositiveDefinite,
    NonFiniteIntegral,
    chel_K,
    chel_preset,
    galerkin_eigenvalues,
)
from .operators import (
    Classical,
    LeftDefinite,
    OperatorTag,
    SobolevPhi,
    SpectrumSpec,
    gram_matrix,
    spectrum,
)
from .stirling import build_table

ENV_PREFIX = "JSOB_"
FORMATS = ("json", "csv", "pretty")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNDEFINED = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5
EXIT_OUTPUT = 6


class UsageError(ValueError):
    """Bad argument or configuration value."""


class CliConfig(Frozen):
    default_k: Fraction
    output_format: str
    cache_path: str
    float_digits: int


CONFIG_KEYS = CliConfig._fields

_DEFAULTS = dict(zip(CONFIG_KEYS, ("1", "pretty", "", "17")))


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> CliConfig:
    """Resolve the configuration: env > flags > config file > defaults."""
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(key: str) -> str:  # each flag's dest is its config key
        sources = (os.environ.get(ENV_PREFIX + key.upper()), getattr(args, key, None),
                   file_values.get(key), _DEFAULTS[key])
        return next(value for value in sources if value is not None)

    try:
        default_k = Fraction(pick("default_k"))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"default_k is not a rational: {pick('default_k')!r}") from exc
    if default_k < 0:
        raise UsageError("default_k must be nonnegative")
    output_format = pick("output_format")
    if output_format not in FORMATS:
        raise UsageError(f"output format must be one of {FORMATS}, got {output_format!r}")
    try:
        float_digits = int(pick("float_digits"))
    except ValueError as exc:
        raise UsageError("float_digits must be an integer") from exc
    if not 6 <= float_digits <= 30:
        raise UsageError("float_digits must lie in [6, 30]")
    return CliConfig(default_k, output_format, pick("cache_path"), float_digits)


def _fmt_float(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


class Report(Frozen):
    """One command's result in every output format.

    payload is the JSON object; rows is the CSV table, whose first row's keys
    are the header (booleans are written true/false); lines is the pretty
    text.  code is the exit code.
    """

    payload: dict
    rows: list[dict]
    lines: list[str]
    code: int


def _say(text: str) -> None:
    """Write one diagnostic line to stderr; an unwritable stderr changes no exit code."""
    with contextlib.suppress(OSError):
        print(text, file=sys.stderr)


def _render(report: Report, output_format: str) -> None:
    """Write the report to stdout in one piece, after the command has finished."""
    if output_format == "json":
        import json
        text = json.dumps(report.payload, indent=2) + "\n"
    elif output_format == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.rows[0].keys())
        writer.writerows(
            [str(v).lower() if isinstance(v, bool) else v for v in row.values()]
            for row in report.rows
        )
        text = buf.getvalue()
    else:
        text = "".join(line + "\n" for line in report.lines)
    if sys.stdout is None:  # the process started with stdout closed (``>&-``)
        raise OSError("stdout is closed")
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# polynomial records and the cache


class PolynomialRecord(Frozen):
    """Serializable exact description of one family member."""

    alpha: str
    beta: str
    n: int
    normalization: str
    scale_squared: str
    coefficients: tuple[str, ...]

    @classmethod
    def build(cls, params: JacobiParams, n: int, norm: Normalization) -> "PolynomialRecord":
        fam = jacobi_family(n, params, norm)
        return cls(str(params.alpha), str(params.beta), n, norm.value, str(fam.scale_sq),
                   tuple(str(c) for c in fam.poly.coeffs))

    @classmethod
    def from_dict(cls, data: dict) -> "PolynomialRecord":
        """Parse a cached record, exact values in canonical form.

        Raises KeyError, TypeError, ValueError or ZeroDivisionError on a
        malformed record.
        """
        coefficients = data["coefficients"]
        if not isinstance(coefficients, list):
            raise TypeError("coefficients must be a list")
        scale_squared = Fraction(str(data["scale_squared"]))
        if scale_squared <= 0:
            raise ValueError("scale_squared must be positive")
        return cls(str(data["alpha"]), str(data["beta"]), int(data["n"]), str(data["normalization"]),
                   str(scale_squared), tuple(str(Fraction(str(c))) for c in coefficients))

    def to_scaled_polynomial(self) -> ScaledPolynomial:
        return ScaledPolynomial(
            Fraction(self.scale_squared),
            Polynomial(Fraction(c) for c in self.coefficients),
        )


def _cache_key(alpha, beta, n: int, normalization: str) -> str:
    return f"({alpha},{beta},{n},{normalization})"


def _load_cache(path: str) -> dict:
    import json
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("cache root is not an object")
        return data
    except (OSError, ValueError) as exc:
        _say(f"warning: discarding corrupt cache {path!r} ({exc})")
        return {}


def _store_cache(path: str, cache: dict) -> None:
    """Write the cache to a temporary file beside it, then move that over it,
    so a write that fails leaves the previous cache file as it was."""
    import json
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        _say(f"warning: could not write cache {path!r} ({exc})")
    finally:
        with contextlib.suppress(OSError):  # gone already after os.replace
            os.remove(tmp)


def _record_for(params: JacobiParams, n: int, norm: Normalization, cfg: CliConfig) -> PolynomialRecord:
    key = _cache_key(params.alpha, params.beta, n, norm.value)
    cache = _load_cache(cfg.cache_path) if cfg.cache_path else {}
    if key in cache:
        try:
            record = PolynomialRecord.from_dict(cache[key])
            if _cache_key(record.alpha, record.beta, record.n, record.normalization) != key:
                raise ValueError("record does not describe its key")
            return record
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            _say(f"warning: ignoring malformed cache entry {key}")
    record = PolynomialRecord.build(params, n, norm)
    if cfg.cache_path:
        cache[key] = record._asdict()
        _store_cache(cfg.cache_path, cache)
    return record


# ---------------------------------------------------------------------------
# subcommands


def cmd_stirling(args: argparse.Namespace, cfg: CliConfig) -> Report:
    table = build_table(args.max_n)
    size = range(table.max_n + 1)
    values = [[str(table.entry(n, j)) for j in size] for n in size]
    entries = [{"n": n, "j": j, "value": values[n][j]} for n in size for j in size]
    widths = [max(map(len, column)) for column in values]
    lines = [" ".join(values[n][j].rjust(widths[n]) for n in size) for j in size]
    payload = {"command": "stirling", "max_n": table.max_n, "entries": entries}
    return Report(payload, entries, lines, EXIT_OK)


def cmd_poly(args: argparse.Namespace, cfg: CliConfig) -> Report:
    params = JacobiParams(_parse_rational(args.alpha), _parse_rational(args.beta))
    record = _record_for(params, args.n, Normalization(args.normalization), cfg)
    payload = record._asdict()
    row = {key: value for key, value in payload.items() if key != "coefficients"}
    row.update((f"c{i}", c) for i, c in enumerate(record.coefficients))
    lines = [
        f"degree {record.n}, alpha = {record.alpha}, beta = {record.beta}, "
        f"normalization = {record.normalization}",
        f"scale_squared = {record.scale_squared}",
        f"value = {record.to_scaled_polynomial()}",
    ]
    return Report(payload, [row], lines, EXIT_OK)


def _reject_unused(args: argparse.Namespace, names: tuple[str, ...], context: str) -> None:
    """UsageError naming each flag among ``names`` that was given but that ``context`` ignores."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise UsageError(f"{context} does not use {', '.join(given)}")


def _build_ip_spec(args: argparse.Namespace, cfg: CliConfig):
    unused = {"phi": ("alpha", "beta", "ld_n", "k"), "classical": ("ld_n", "k"), "ld": ("alpha", "beta")}
    _reject_unused(args, unused[args.ip], f"--ip {args.ip}")
    k = _parse_rational(args.k) if args.k is not None else cfg.default_k
    if args.ip == "phi":
        return SobolevPhi()
    if args.ip == "classical":
        alpha = _parse_rational(args.alpha) if args.alpha is not None else Fraction(-1)
        beta = _parse_rational(args.beta) if args.beta is not None else Fraction(-1)
        return Classical(JacobiParams(alpha, beta))
    if args.ld_n is None:
        raise UsageError("--ip ld requires --ld-n")
    return LeftDefinite(args.ld_n, k)


def _ip_label(spec) -> str:
    if isinstance(spec, SobolevPhi):
        return "phi"
    if isinstance(spec, Classical):
        return f"classical({spec.params.alpha},{spec.params.beta})"
    return f"leftdefinite({spec.n},{spec.k})"


def cmd_gram(args: argparse.Namespace, cfg: CliConfig) -> Report:
    spec = _build_ip_spec(args, cfg)
    if args.family is not None:
        family = Normalization(args.family)
    else:
        family = Normalization.PHI if isinstance(spec, SobolevPhi) else Normalization.L2
    gm = gram_matrix(args.max_degree, spec, family)
    size = range(gm.size)
    surds = [[gm.entry(i, j) for j in size] for i in size]
    entries = [
        {"row": i, "col": j, "coeff": str(s.coeff), "radicand": str(s.radicand)}
        for i, row in enumerate(surds)
        for j, s in enumerate(row)
    ]
    payload = {
        "command": "gram",
        "ip": _ip_label(spec),
        "family": family.value,
        "size": gm.size,
        "degrees": list(gm.degrees),
        "entries": entries,
    }
    cells = [[str(s) for s in row] for row in surds]
    width = max(len(c) for row in cells for c in row)
    lines = [" ".join(c.rjust(width) for c in row) for row in cells]
    lines.append(f"identity: {'yes' if gm.is_identity() else 'no'}")
    return Report(payload, entries, lines, EXIT_OK)


_OPERATORS = {"a": OperatorTag.A, "t": OperatorTag.T, "bn": OperatorTag.BN}


def cmd_spectrum(args: argparse.Namespace, cfg: CliConfig) -> Report:
    tag = _OPERATORS[args.operator.lower()]
    if tag is not OperatorTag.BN:
        _reject_unused(args, ("ld_n",), f"operator {tag.value}")
    k = _parse_rational(args.k) if args.k is not None else cfg.default_k
    spec = SpectrumSpec(tag, k, (args.ld_n or 1) if tag is OperatorTag.BN else None)
    header = {"command": "spectrum", "operator": tag.value, "k": str(k)}
    first = spec.first_index
    if args.galerkin is None:
        rows = [{"index": first + i, "value": str(v)}
                for i, v in enumerate(spectrum(spec, args.count))]
        lines = [f"operator {tag.value}, k = {k}", ", ".join(r["value"] for r in rows)]
        return Report({**header, "eigenvalues": rows}, rows, lines, EXIT_OK)
    numeric = galerkin_eigenvalues(spec, args.galerkin, args.count)
    count = len(numeric)
    exact = spectrum(spec, count)
    rows = [
        {
            "index": idx + first,
            "exact": str(exact[idx]),
            "numeric": _fmt_float(numeric[idx], cfg.float_digits),
            "abs_error": _fmt_float(abs(numeric[idx] - float(exact[idx])), cfg.float_digits),
        }
        for idx in range(count)
    ]
    lines = [f"operator {tag.value}, k = {k}, galerkin size {args.galerkin}"] + [
        f"  index {r['index']}: exact {r['exact']}, numeric {r['numeric']}, "
        f"abs error {r['abs_error']}"
        for r in rows
    ]
    return Report({**header, "galerkin_size": args.galerkin, "entries": rows}, rows, lines, EXIT_OK)


def cmd_chel(args: argparse.Namespace, cfg: CliConfig) -> Report:
    instance = chel_preset(args.case)
    kmax, argmax = chel_K(instance, args.grid)
    row = {
        "case": instance.name,
        "grid": args.grid,
        "kmax": _fmt_float(kmax, cfg.float_digits),
        "kmax_squared": _fmt_float(kmax * kmax, cfg.float_digits),
        "argmax": _fmt_float(argmax, cfg.float_digits),
    }
    line = (f"case {row['case']}: K = {row['kmax']} at x = {row['argmax']} "
            f"(K^2 = {row['kmax_squared']})")
    return Report({"command": "chel", **row}, [row], [line], EXIT_OK)


def cmd_verify(args: argparse.Namespace, cfg: CliConfig) -> Report:
    results = checks.run(args.suite)
    passed = sum(c["passed"] for c in results)
    failed = len(results) - passed
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}"
        + (f"  ({c['detail']})" if c["detail"] else "")
        for c in results
    ]
    lines.append(f"suite '{args.suite}': {passed} passed, {failed} failed")
    payload = {"command": "verify", "suite": args.suite, "passed": passed,
               "failed": failed, "checks": results}
    return Report(payload, results, lines, EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _int_in_range(lo: int, hi: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"value must be in [{lo}, {hi}]: {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, which main reports on
    one stderr line; subparsers are built from the same class."""

    def error(self, message: str):
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a 'key = value' config file")
    parser.add_argument("--format", dest="output_format", choices=FORMATS, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jsob",
        description="Exact nonclassical Jacobi families, their orthogonality "
        "structures, spectra, and numeric cross-checks.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("stirling", help="emit the Jacobi-Stirling triangle")
    p.add_argument("--max-n", dest="max_n", type=_int_in_range(0, 64), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser("poly", help="emit one family member exactly")
    p.add_argument("--n", type=_int_in_range(0, 400), required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--normalization", choices=sorted(n.value for n in Normalization),
                   default="reference")
    p.add_argument("--cache-path", dest="cache_path",
                   help="polynomial cache file (empty disables)")
    _add_common(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("gram", help="exact Gram matrix of a family")
    p.add_argument("--max-degree", dest="max_degree", type=_int_in_range(0, 64), required=True)
    p.add_argument("--ip", choices=("phi", "classical", "ld"), required=True)
    p.add_argument("--alpha", help="classical pairing parameter")
    p.add_argument("--beta", help="classical pairing parameter")
    p.add_argument("--ld-n", dest="ld_n", type=_int_in_range(1, 16), help="left-definite order")
    p.add_argument("--k", help="spectral shift (defaults to default_k)")
    p.add_argument("--family", choices=sorted(n.value for n in Normalization))
    _add_common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("spectrum", help="exact spectra; optionally a Galerkin check")
    p.add_argument("--operator", choices=("A", "T", "Bn", "a", "t", "bn"), required=True)
    p.add_argument("--k", help="spectral shift (defaults to default_k)")
    p.add_argument("--count", type=_int_in_range(1, 100000), default=8)
    p.add_argument("--ld-n", dest="ld_n", type=_int_in_range(1, 16), help="order for Bn")
    p.add_argument("--galerkin", type=_int_in_range(2, 200),
                   help="also run a Galerkin discretization of this size")
    p.add_argument("--float-digits", dest="float_digits",
                   help="significant digits for float output (6..30)")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("chel", help="boundedness constant K for a preset instance")
    p.add_argument("--case", choices=tuple(_PRESETS), required=True)
    p.add_argument("--grid", type=_int_in_range(1000, 100000), default=10000)
    p.add_argument("--float-digits", dest="float_digits",
                   help="significant digits for float output (6..30)")
    _add_common(p)
    p.set_defaults(func=cmd_chel)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=("all", *checks.SUITES), default="all")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = build_config(args)
        report = args.func(args, cfg)
        _render(report, cfg.output_format)
        sys.stdout.flush()
        return report.code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except OSError as exc:
        # A reader gone early (``jsob ... | head``) or a full device: later writes,
        # including the interpreter's final flush, go to the null device.
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK
        _say(f"output not written: {exc}")
        return EXIT_OUTPUT
    except UndefinedNormalization as exc:
        _say(f"undefined request: {exc}")
        return EXIT_UNDEFINED
    except (NonFiniteIntegral, MassNotPositiveDefinite) as exc:
        _say(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except ValueError as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except ArithmeticError as exc:
        _say(f"internal fault: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
