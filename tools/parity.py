"""Check that the CLI prints the same bytes as it does at another revision.

    python tools/parity.py --against REV [--only REGEX] [--cpu N]

Unpacks REV with ``git archive`` into a temporary directory and compiles its
bytecode, then runs one fixed command list as ``python -m jsob`` subprocesses
under that tree and under this checkout (uncommitted edits included).  Each
tree gets its own cache file for the ``{cache}`` argument.  Every command's
stdout (by sha256), stderr and exit code are compared; one line is printed per
difference, then the total.  A float command (``chel``, ``spectrum
--galerkin``) whose stdout differs is listed instead under its own heading,
with its first differing line before and after, so a rounding change shows
where it lands.  The exit status is 0 when every command agrees and 1
otherwise.  ``--only`` keeps the commands whose argv, joined by spaces,
matches REGEX.

``--cpu N`` then compiles the checkout too and runs each kept command in N
pairs of runs, one under each tree, the first alternating.  It prints both
medians of CPU (user + system, from ``os.wait4``) with their quartiles and the
pairs the checkout won, and calls a change real at one-sided sign-test
p < 0.005 (17 or more wins of 21).

The list: every argv in ``tests/cli_golden.json``; the benchmark's ``exact``,
``float`` and ``cli-cache`` workloads (``perfbench/workloads.py``, imported
read-only) for seeds 1 and 2; ``verify --suite all`` in each format; each
size flag at its cap and one above it; each ``chel`` preset at grids 1000,
10000 and 100000; T with ``--galerkin``; Galerkin solves cut short by a
small ``--count``; a ``gram`` for each ``--ip`` label; T's exact spectrum at
k = 7/3; usage errors, undefined requests and a numeric failure (exit codes
2, 3 and 4); and a ``gram`` grid over 20 ``--ip`` settings, ``--family``
(none and each value) and ``--max-degree`` 0, 3 and 12.  The last line also
gives the ``src/jsob`` line count of both trees.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import io
import itertools
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One command per size flag at the cap that cli.build_parser sets.
AT_CAPS = [
    ["stirling", "--max-n", "64", "--format", "csv"],
    ["poly", "--n", "400", "--alpha=-1", "--beta=-1", "--normalization", "phi", "--format", "json"],
    ["gram", "--ip", "phi", "--max-degree", "64", "--format", "json"],
    ["gram", "--ip", "ld", "--ld-n", "16", "--k", "1", "--max-degree", "20", "--format", "csv"],
    ["spectrum", "--operator", "T", "--k", "1", "--count", "100000", "--format", "csv"],
    ["spectrum", "--operator", "A", "--count", "200", "--galerkin", "200", "--format", "csv"],
    ["spectrum", "--operator", "Bn", "--ld-n", "16", "--galerkin", "200", "--format", "json"],
    *(["chel", "--case", case, "--grid", grid, "--format", "csv"]
      for case in ("dirichlet", "w1v1", "unit") for grid in ("1000", "10000", "100000")),
]
# And one above it, a usage error.
ABOVE_CAPS = [
    ["stirling", "--max-n", "65"],
    ["poly", "--n", "401", "--alpha", "0", "--beta", "0"],
    ["gram", "--ip", "phi", "--max-degree", "65"],
    ["gram", "--ip", "ld", "--ld-n", "17", "--max-degree", "4"],
    ["spectrum", "--operator", "T", "--count", "100001"],
    ["spectrum", "--operator", "Bn", "--ld-n", "17"],
    ["spectrum", "--operator", "A", "--galerkin", "201"],
    ["chel", "--case", "unit", "--grid", "100001"],
]
# One gram per --ip label (default --alpha/--beta and a non-integral --k among them),
# T's exact spectrum at a non-integral --k, T's Galerkin rows, Galerkin solves that
# stop at --count (T's two leading rows count), then failures with exit codes 2 (usage), 3 (undefined) and 4 (numeric).
OTHERS = [
    *(["gram", "--ip", *ip, "--max-degree", "4", "--format", "json"]
      for ip in (["ld", "--ld-n", "3", "--k", "7/3"], ["classical", "--alpha", "0", "--beta", "2"],
                 ["classical"], ["phi", "--family", "l2"])),
    ["spectrum", "--operator", "T", "--k", "7/3", "--count", "100000", "--format", "json"],
    ["spectrum", "--operator", "T", "--k", "1", "--count", "4", "--galerkin", "12", "--format", "csv"],
    *(["spectrum", "--operator", "T", "--count", count, "--galerkin", "12", "--format", "csv"]
      for count in ("1", "2")),
    *(["spectrum", "--operator", *operator, "--k", "7/3", "--count", "4", "--galerkin", "200",
       "--format", "json"] for operator in (["A"], ["T"], ["Bn", "--ld-n", "16"])),
    ["spectrum", "--operator", "A", "--k=-1"],
    ["poly", "--n", "2", "--alpha=x", "--beta=-1"],
    ["stirling", "--max-n", "3", "--config", "/nonexistent"],
    ["poly", "--n", "1", "--alpha=-1", "--beta=-1", "--normalization", "l2"],
    ["gram", "--ip", "classical", "--alpha=1/2", "--beta=-1/3", "--max-degree", "3"],
    ["spectrum", "--operator", "A", "--k", "1e400", "--galerkin", "10"],
]

# Every pairing --ip can build, each --family and three sizes: most exit 0 or 3.
GRAM_GRID = [
    ["gram", "--ip", *ip, *family, "--max-degree", degree, "--format", "json"]
    for ip in (["phi"], ["classical"], ["classical", "--alpha", "0", "--beta", "2"],
               ["classical", "--alpha", "1", "--beta", "1"],
               *(["ld", "--ld-n", n, "--k", k] for n in ("1", "2", "3", "16")
                 for k in ("0", "1/2", "1", "7/3")))
    for family in ([], ["--family", "reference"], ["--family", "l2"], ["--family", "phi"])
    for degree in ("0", "3", "12")
]

def command_list() -> list[list[str]]:
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    listed = [case["argv"] for case in golden]
    for name in ("exact", "float", "cli-cache"):
        listed += [cmd.argv for seed in (1, 2) for cmd in workloads.generate(name, seed)]
    listed += [["verify", "--suite", "all", "--format", fmt] for fmt in ("json", "csv", "pretty")]
    return listed + AT_CAPS + ABOVE_CAPS + OTHERS + GRAM_GRID


def unpack(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    compileall.compile_dir(dest / "src", quiet=1)
    return dest


def src_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (tree / "src" / "jsob").glob("*.py"))


def jsob(tree: Path, argv: list[str], cache: Path, **kwargs) -> subprocess.Popen:
    """Start ``python -m jsob`` with ``argv`` under ``tree``, its cache at ``cache``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("JSOB_")}
    env["PYTHONPATH"] = str(tree / "src")
    argv = [arg.replace("{cache}", str(cache)) for arg in argv]
    return subprocess.Popen([sys.executable, "-m", "jsob", *argv], env=env, cwd=tree, **kwargs)


def is_float(argv: list[str]) -> bool:
    return argv[0] == "chel" or argv[0] == "spectrum" and "--galerkin" in argv


def run_all(tree: Path, listed: list[list[str]], cache: Path) -> list[tuple[str, str, int]]:
    """(stdout, stderr, exit code) of each command, in order, under ``tree``; stdout
    is kept as text for a float command and as its sha256 for any other."""
    results = []
    for argv in listed:
        proc = jsob(tree, argv, cache, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout, stderr = proc.communicate()
        stderr = stderr.decode(errors="replace").replace(str(cache), "{cache}")
        stdout = stdout.decode(errors="replace") if is_float(argv) else hashlib.sha256(stdout).hexdigest()
        results.append((stdout, stderr, proc.returncode))
    return results


def first_difference(before: str, after: str) -> tuple[str, str]:
    """The first line at which two different outputs differ, from each."""
    lines = itertools.zip_longest(before.split("\n"), after.split("\n"), fillvalue="(end of output)")
    return next((a, b) for a, b in lines if a != b)


def cpu_seconds(tree: Path, argv: list[str], cache: Path) -> float:
    """User + system CPU of one run of ``argv`` under ``tree``, from ``os.wait4``."""
    proc = jsob(tree, argv, cache, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime


def compare_cpu(runs: list[tuple[Path, Path]], listed: list[list[str]], pairs: int) -> None:
    """Print each command's CPU over ``pairs`` interleaved pairs of runs, base first."""
    # The fewest wins at which a one-sided sign test gives p < 0.005.
    need = next(w for w in range(pairs + 2)
                if sum(math.comb(pairs, v) for v in range(w, pairs + 1)) < 0.005 * 2**pairs)
    for argv in listed:
        times = ([], [])
        for i in range(pairs):
            for t in (0, 1) if i % 2 == 0 else (1, 0):
                times[t].append(cpu_seconds(runs[t][0], argv, runs[t][1]))
        wins = sum(new < old for old, new in zip(*times))
        call = "faster" if wins >= need else "slower" if pairs - wins >= need else "no change"
        old, new = ([1000 * q for q in statistics.quantiles(ts, n=4)] for ts in times)
        print(f"{old[1]:.1f} ms [{old[0]:.1f}, {old[2]:.1f}] -> {new[1]:.1f} ms "
              f"[{new[0]:.1f}, {new[2]:.1f}], lower in {wins} of {pairs}: {call}: "
              f"jsob {' '.join(argv)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--only", default="", help="keep the commands that match REGEX")
    parser.add_argument("--cpu", type=int, default=0, metavar="N",
                        help="then time N interleaved pairs of each kept command")
    args = parser.parse_args(argv)
    if args.cpu == 1:
        parser.error("--cpu needs at least 2 pairs")
    listed = [cmd for cmd in command_list() if re.search(args.only, " ".join(cmd))]
    with tempfile.TemporaryDirectory(prefix="jsob-parity-") as tmp:
        tmp = Path(tmp)
        base = unpack(args.against, tmp / "base")
        runs = [(base, tmp / "base.cache.json"), (ROOT, tmp / "head.cache.json")]
        with ThreadPoolExecutor(len(runs)) as pool:
            old, new = pool.map(lambda run: run_all(run[0], listed, run[1]), runs)
        lines = [src_lines(tree) for tree, _ in runs]
        if args.cpu:
            compileall.compile_dir(ROOT / "src", quiet=1)  # as unpack does for REV
            compare_cpu(runs, listed, args.cpu)
    differ, floats = 0, []
    for cmd, before, after in zip(listed, old, new):
        for what, a, b in zip(("stdout", "stderr", "exit code"), before, after):
            if a != b and what == "stdout" and is_float(cmd):
                floats.append((cmd, *first_difference(a, b)))
            elif a != b:
                shown = f" ({a} -> {b})" if what == "exit code" else ""
                print(f"{what} differs{shown}: jsob {' '.join(cmd)}")
        differ += before != after
    if floats:
        print(f"float stdout differs in {len(floats)} commands (first differing line, before and after):")
    for cmd, a, b in floats:
        print(f"  jsob {' '.join(cmd)}\n    - {a}\n    + {b}")
    print(f"against {args.against}: {len(listed) - differ} of {len(listed)} commands "
          f"identical in stdout, stderr and exit code; {differ} differ; "
          f"src/jsob {lines[0]} -> {lines[1]} lines")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
