"""Seeded command lists for the three benchmark workloads.

Each generator takes a ``random.Random`` and returns a list of ``Command``.
Only argv reaches the program; the ``check`` dict tells the oracle what the
output must contain.  Seeds vary parameters, formats and order, while the
sizes that set the cost are drawn as antithetic pairs or fixed multisets, so
every seed asks for about the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# The cache file every cli-cache poly command shares; run.py substitutes the path.
CACHE_PATH = "{cache}"


@dataclass
class Command:
    """One CLI call: its argv, the subcommand group it is timed under, and its check."""

    argv: list[str]
    group: str
    check: dict
    rc: int = 0
    cache_key: str | None = None


def _fmt(rng: random.Random, choices=("json", "csv", "pretty")) -> str:
    return rng.choice(choices)


def _rational_arg(flag: str, value: Fraction) -> str:
    # argparse reads a separate "-1/2" as an option, so bind it with "=".
    return f"{flag}={value}"


def stirling(max_n: int, fmt: str) -> Command:
    return Command(
        ["stirling", "--max-n", str(max_n), "--format", fmt],
        "stirling",
        {"kind": "stirling", "max_n": max_n, "format": fmt},
    )


def gram_phi(degree: int, fmt: str) -> Command:
    return Command(
        ["gram", "--ip", "phi", "--max-degree", str(degree), "--format", fmt],
        "gram",
        {"kind": "gram", "start": 0, "max_degree": degree, "diag": None, "format": fmt},
    )


def gram_classical(alpha: int, beta: int, degree: int, fmt: str) -> Command:
    argv = ["gram", "--ip", "classical", _rational_arg("--alpha", Fraction(alpha)),
            _rational_arg("--beta", Fraction(beta)), "--max-degree", str(degree),
            "--format", fmt]
    start = 2 if (alpha, beta) == (-1, -1) else 0
    return Command(argv, "gram", {"kind": "gram", "start": start, "max_degree": degree,
                                  "diag": None, "format": fmt})


def gram_ld(order: int, k: int, degree: int, fmt: str) -> Command:
    argv = ["gram", "--ip", "ld", "--ld-n", str(order), "--k", str(k),
            "--max-degree", str(degree), "--format", fmt]
    return Command(argv, "gram", {"kind": "gram", "start": 2, "max_degree": degree,
                                  "diag": [order, str(k)], "format": fmt})


def poly(n: int, alpha: int, beta: int, norm: str, fmt: str, cache: bool = False) -> Command:
    argv = ["poly", "--n", str(n), _rational_arg("--alpha", Fraction(alpha)),
            _rational_arg("--beta", Fraction(beta)), "--normalization", norm, "--format", fmt]
    if cache:
        argv += ["--cache-path", CACHE_PATH]
    key = f"({alpha},{beta},{n},{norm})" if cache else None
    return Command(argv, "poly", {"kind": "poly", "n": n, "alpha": alpha, "beta": beta,
                                  "norm": norm, "format": fmt}, cache_key=key)


def undefined_poly(n: int, fmt: str) -> Command:
    argv = ["poly", "--n", str(n), "--alpha=-1", "--beta=-1", "--normalization", "l2",
            "--format", fmt, "--cache-path", CACHE_PATH]
    return Command(argv, "poly", {"kind": "undefined"}, rc=3)


def spectrum(operator: str, k: Fraction, count: int, fmt: str, ld_n: int | None = None,
             galerkin: int | None = None) -> Command:
    argv = ["spectrum", "--operator", operator, _rational_arg("--k", k), "--count", str(count),
            "--format", fmt]
    if ld_n is not None:
        argv += ["--ld-n", str(ld_n)]
    check = {"k": str(k), "count": count, "format": fmt}
    if galerkin is None:
        check.update(kind="spectrum", start=0 if operator == "T" else 2)
        return Command(argv, "spectrum", check)
    argv += ["--galerkin", str(galerkin)]
    check.update(kind="galerkin", size=galerkin)
    return Command(argv, "galerkin", check)


def chel(case: str, grid: int, fmt: str) -> Command:
    return Command(["chel", "--case", case, "--grid", str(grid), "--format", fmt],
                   "chel", {"kind": "chel", "case": case, "format": fmt})


_SHIFTS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2), Fraction(7, 3))


def exact(rng: random.Random) -> list[Command]:
    """Exact Fraction work: algebra products, inner products, jacobi family
    construction and stirling do ~95% of it; numeric does none."""
    # The two largest outputs are always json, whose peak memory is the highest,
    # so that peak RSS does not depend on the seed.
    cmds = [stirling(64, "json")]
    a = rng.randint(24, 30)
    cmds += [stirling(a, _fmt(rng)), stirling(60 - a, _fmt(rng))]
    # The largest single command (~5 s); its degree is fixed to keep work level.
    cmds.append(gram_phi(40, "json"))
    # A larger shift costs more (k = 0 drops a term), so the two shifts sum to 2.
    a, k = rng.randint(20, 22), rng.randint(0, 2)
    cmds += [gram_ld(2, k, a, _fmt(rng, ("json", "csv"))),
             gram_ld(3, 2 - k, 42 - a, _fmt(rng, ("json", "csv")))]
    degrees = [20, 21, 22]
    rng.shuffle(degrees)
    for (alpha, beta), d in zip(((1, 1), (0, 2), (-1, -1)), degrees):
        cmds.append(gram_classical(alpha, beta, d, _fmt(rng, ("json", "csv"))))
    # Sizes per normalization are fixed: the l2 and phi scales cost an extra exact
    # norm, so a seeded assignment would move the median command.
    for alpha, beta, norm, n in ((-1, -1, "reference", 40), (-1, -1, "l2", 50),
                                 (-1, -1, "phi", 60), (1, 1, "l2", 80)):
        cmds.append(poly(n, alpha, beta, norm, _fmt(rng, ("json", "csv"))))
    for operator in ("T", "A", "Bn", rng.choice(("T", "A", "Bn"))):
        ld_n = rng.randint(1, 3) if operator == "Bn" else None
        cmds.append(spectrum(operator, rng.choice(_SHIFTS), rng.randint(4, 16),
                             _fmt(rng), ld_n=ld_n))
    rng.shuffle(cmds)
    return cmds


def float_(rng: random.Random) -> list[Command]:
    """numeric dominates: Galerkin assembly (which runs algebra on monomials), the
    exact LDL^T and the float adaptive Simpson of chel; jacobi, operators and
    stirling do no work."""
    # Sizes and shifts are fixed: Galerkin cost grows steeply with the size and
    # with the bit length of the shift, so seeds vary the operator, count,
    # format and order instead.
    cmds = []
    for size, k in ((20, Fraction(0)), (36, Fraction(1, 2)), (52, Fraction(2)), (64, Fraction(1))):
        operator = rng.choice(("A", "Bn"))
        ld_n = rng.randint(1, 3) if operator == "Bn" else None
        cmds.append(spectrum(operator, k, rng.randint(4, 12), _fmt(rng), ld_n=ld_n,
                             galerkin=size))
    # Six chel calls of about equal cost hold the median command; each preset's
    # two grids sum to 52000 points, and quadrature cost is linear in the grid.
    for case in ("dirichlet", "w1v1", "unit"):
        g = rng.randint(20000, 26000)
        cmds += [chel(case, g, _fmt(rng)), chel(case, 52000 - g, _fmt(rng))]
    rng.shuffle(cmds)
    return cmds


def cli_cache(rng: random.Random) -> list[Command]:
    """Short calls: interpreter start, numpy and jsob import and the poly cache
    dominate.  Reads and writes share one cache file, so a change that speeds
    hits by slowing writes shows."""
    total = 110  # at least 100, so that 10 samples lie beyond the 90th percentile
    n_poly = round(total * 0.7)
    n_miss = n_poly // 2
    # Distinct keys by systematic sampling over (degree, normalization) sorted by degree,
    # so the degrees of the misses, and with them the cost of the writes, spread evenly.
    universe = [(n, norm) for n in range(2, 49) for norm in ("reference", "l2", "phi")]
    step = len(universe) / n_miss
    offset = rng.random()
    keys = [universe[int((i + offset) * step)] for i in range(n_miss)]
    rng.shuffle(keys)
    fmt_of = {key: _fmt(rng, ("json", "csv")) for key in keys}
    ranks = list(range(1, n_miss + 1))
    rng.shuffle(ranks)
    popularity = dict(zip(keys, (1.0 / r for r in ranks)))  # Zipf, exponent 1
    slots = [True] + [False] * (n_poly - 1)  # True marks a miss
    for i in rng.sample(range(1, n_poly), n_miss - 1):
        slots[i] = True
    stored: list[tuple[int, str]] = []
    fresh = iter(keys)
    polys = []
    for miss in slots:
        if miss:
            key = next(fresh)
            stored.append(key)
        else:
            key = rng.choices(stored, weights=[popularity[k] for k in stored])[0]
        polys.append(poly(key[0], -1, -1, key[1], fmt_of[key], cache=True))
    others = []
    n_other = total - n_poly
    n_undefined = 4
    for i in range(n_other - n_undefined):
        kind = i % 3
        if kind == 0:
            others.append(stirling(rng.randint(2, 12), _fmt(rng)))
        elif kind == 1:
            others.append(spectrum("T", rng.choice(_SHIFTS), rng.randint(3, 12), _fmt(rng)))
        else:
            others.append(gram_phi(rng.randint(2, 8), _fmt(rng, ("json", "csv"))))
    others += [undefined_poly(rng.randint(0, 1), _fmt(rng)) for _ in range(n_undefined)]
    rng.shuffle(others)
    # Merge, keeping the poly order (it decides which calls hit the cache).
    positions = set(rng.sample(range(total), n_other))
    it_poly, it_other = iter(polys), iter(others)
    return [next(it_other) if i in positions else next(it_poly) for i in range(total)]


GENERATORS = {"exact": exact, "float": float_, "cli-cache": cli_cache}


def generate(workload: str, seed: int) -> list[Command]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def largest_inputs(cmds: list[Command]) -> dict[str, int]:
    """The largest value of each size flag in a command list (run context)."""
    out: dict[str, int] = {}
    for cmd in cmds:
        for flag, value in zip(cmd.argv, cmd.argv[1:]):
            if flag in ("--max-n", "--max-degree", "--n", "--galerkin", "--grid"):
                name = f"{cmd.argv[0]} {flag}"
                out[name] = max(out.get(name, 0), int(value))
    return out
