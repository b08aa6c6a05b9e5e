"""Check that the CLI prints the same bytes as it does at another revision.

    python tools/parity.py --against REV

Unpacks REV with ``git archive`` into a temporary directory and compiles its
bytecode, then runs one fixed command list as ``python -m jsob`` subprocesses
under that tree and under this checkout (uncommitted edits included).  Each
tree gets its own cache file for the ``{cache}`` argument.  Every command's
stdout (by sha256), stderr and exit code are compared; one line is printed per
difference, then the total.  The exit status is 0 when every command agrees
and 1 otherwise.

The list: every argv in ``tests/cli_golden.json``; the benchmark's ``exact``,
``float`` and ``cli-cache`` workloads (``perfbench/workloads.py``, imported
read-only) for seeds 1 and 2; ``verify --suite all`` in each format; each
size flag at its cap and one above it; each ``chel`` preset at grids 1000,
10000 and 100000; T with ``--galerkin``; Galerkin solves cut short by a
small ``--count``; and usage errors, undefined requests and a numeric failure
(exit codes 2, 3 and 4).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import io
import json
import os
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
# T's Galerkin rows, Galerkin solves that stop at --count (T's two leading rows count),
# then failures with exit codes 2 (usage), 3 (undefined) and 4 (numeric).
OTHERS = [
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


def command_list() -> list[list[str]]:
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    listed = [case["argv"] for case in golden]
    for name in ("exact", "float", "cli-cache"):
        listed += [cmd.argv for seed in (1, 2) for cmd in workloads.generate(name, seed)]
    listed += [["verify", "--suite", "all", "--format", fmt] for fmt in ("json", "csv", "pretty")]
    return listed + AT_CAPS + ABOVE_CAPS + OTHERS


def unpack(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    compileall.compile_dir(dest / "src", quiet=1)
    return dest


def run_all(tree: Path, listed: list[list[str]], cache: Path) -> list[tuple[str, str, int]]:
    """(sha256 of stdout, stderr, exit code) of each command, in order, under ``tree``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("JSOB_")}
    env["PYTHONPATH"] = str(tree / "src")
    results = []
    for argv in listed:
        argv = [arg.replace("{cache}", str(cache)) for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "jsob", *argv],
                              capture_output=True, env=env, cwd=tree)
        stderr = proc.stderr.decode(errors="replace").replace(str(cache), "{cache}")
        results.append((hashlib.sha256(proc.stdout).hexdigest(), stderr, proc.returncode))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    listed = command_list()
    with tempfile.TemporaryDirectory(prefix="jsob-parity-") as tmp:
        tmp = Path(tmp)
        base = unpack(args.against, tmp / "base")
        runs = [(base, tmp / "base.cache.json"), (ROOT, tmp / "head.cache.json")]
        with ThreadPoolExecutor(len(runs)) as pool:
            old, new = pool.map(lambda run: run_all(run[0], listed, run[1]), runs)
    differ = 0
    for cmd, before, after in zip(listed, old, new):
        for what, a, b in zip(("stdout", "stderr", "exit code"), before, after):
            if a != b:
                shown = f" ({a} -> {b})" if what == "exit code" else ""
                print(f"{what} differs{shown}: jsob {' '.join(cmd)}")
        differ += before != after
    print(f"against {args.against}: {len(listed) - differ} of {len(listed)} commands "
          f"identical in stdout, stderr and exit code; {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
