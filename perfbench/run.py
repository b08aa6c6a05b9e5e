"""End-to-end and per-layer benchmark of the jsob CLI.

    python3 perfbench/run.py --workload exact|float|cli-cache --seed N \
        --seconds S --trace 0|1

One client in a closed loop runs the workload's seeded command list, each
command as ``python3 -m jsob ...`` in a fresh process, and checks every
output with the independent oracles in ``oracles.py``.

--trace 0  Times the list in passes until S seconds are spent (at least one
           pass) and reports the end-to-end metrics.
--trace 1  Runs one plain pass and one pass under ``tracer.py`` and reports
           the per-layer metrics, tracing coverage and overhead.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it holds the run context.  Progress and failures go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import Command  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_SAMPLES = 3  # before each pass and after the last
RUN_LIMIT_S = 165.0  # a run must end well inside 180 s
SETUP_CODE = "import jsob.cli as c; c.build_parser()"
GROUPS = ("stirling", "poly", "gram", "spectrum", "galerkin", "chel")


class Timeout(Exception):
    """The run would overrun its time limit."""


@dataclass
class Sample:
    cmd: Command
    rc: int
    out: bytes
    wall_s: float
    cpu_s: float
    rss_kb: int
    failure: str
    error: float | None
    trace: dict | None = None


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        # Commands read no JSOB_* settings, and cache bytecode as an installed
        # package does, whatever the caller's environment says.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("JSOB_") and k != "PYTHONDONTWRITEBYTECODE"}
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.cache = WORK / "poly-cache.json"

    def spawn(self, argv: list[str]) -> tuple[int, bytes, float, os.struct_rusage]:
        """Run argv to completion: (exit code, stdout, wall seconds, the child's rusage)."""
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                remaining = self.deadline - time.monotonic()
                if remaining <= 0:
                    raise Timeout
                signal.setitimer(signal.ITIMER_REAL, remaining)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 3):
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        return proc.returncode, out_path.read_bytes(), wall, usage

    def run_command(self, cmd: Command, trace_path: Path | None = None) -> Sample:
        argv = [str(self.cache) if a == workloads.CACHE_PATH else a for a in cmd.argv]
        if trace_path is None:
            full = [sys.executable, "-m", "jsob", *argv]
        else:
            full = [sys.executable, str(TRACER), str(trace_path), *argv]
        rc, out, wall, usage = self.spawn(full)
        verdict = oracles.check(cmd.check, rc, cmd.rc, out)
        trace = None
        if trace_path is not None:
            trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        return Sample(cmd, rc, out, wall, cpu_time(usage), usage.ru_maxrss, verdict.failure,
                      verdict.error, trace)

    def run_pass(self, cmds: list[Command], traced: bool = False) -> list[Sample]:
        """The command list once, against an empty poly cache."""
        self.cache.unlink(missing_ok=True)
        stored: dict[str, bytes] = {}
        samples = []
        for i, cmd in enumerate(cmds):
            sample = self.run_command(cmd, WORK / f"trace-{i}.json" if traced else None)
            if cmd.cache_key is not None and sample.rc == 0:
                sample.failure = sample.failure or cache_identity(stored, cmd.cache_key, sample.out)
            if sample.failure:
                print(f"FAILED {' '.join(cmd.argv)}: {sample.failure}", file=sys.stderr)
            samples.append(sample)
        return samples

    def setup_samples(self, count: int) -> list[float]:
        """CPU times of fresh interpreters that import jsob.cli and build its parser."""
        times = []
        for _ in range(count):
            rc, _, _, usage = self.spawn([sys.executable, "-c", SETUP_CODE])
            if rc != 0:
                raise SystemExit(f"setup command failed with exit code {rc}")
            times.append(cpu_time(usage))
        return times


def cpu_time(usage: os.struct_rusage) -> float:
    """User plus system CPU seconds of one child, all its threads included."""
    return usage.ru_utime + usage.ru_stime


def cache_identity(stored: dict[str, bytes], key: str, out: bytes) -> str:
    """A cache hit must print exactly what the miss that stored its key printed."""
    first = stored.setdefault(key, out)
    return "" if first == out else f"cache hit for {key} differs from the miss that stored it"


# ---------------------------------------------------------------------------
# oracle self-check


def self_check(runner: Runner, samples: list[Sample]) -> list[str]:
    """Feed the oracles corrupted outputs; return the cases they failed to flag."""
    missed = []
    kinds_seen = set()
    for s in samples:
        kind = s.cmd.check["kind"]
        if kind in kinds_seen or s.failure:
            continue
        kinds_seen.add(kind)
        for label, rc, out in oracles.corruptions(s.cmd.check, s.rc, s.out):
            if not oracles.check(s.cmd.check, rc, s.cmd.rc, out).failure:
                missed.append(f"{kind}: {label}")
    hits = _cache_hits(samples)
    if hits:
        key, out = hits[0].cmd.cache_key, hits[0].out
        tampered = out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]
        if not cache_identity({key: out}, key, tampered):
            missed.append("poly: changed cache-hit bytes")
        if not _tampered_cache_is_caught(runner, hits[-1]):
            missed.append("poly: tampered cache record")
    return missed


def _cache_hits(samples: list[Sample]) -> list[Sample]:
    seen, hits = set(), []
    for s in samples:
        key = s.cmd.cache_key
        if key is not None:
            if key in seen and not s.failure:
                hits.append(s)
            seen.add(key)
    return hits


def _tampered_cache_is_caught(runner: Runner, hit: Sample) -> bool:
    """Change one coefficient of a cached record on disk and rerun the hit."""
    cache = json.loads(runner.cache.read_text())
    record = cache[hit.cmd.cache_key]
    record["coefficients"][-1] = record["coefficients"][-1] + "1"
    runner.cache.write_text(json.dumps(cache))
    rerun = runner.run_command(hit.cmd)
    stored = {hit.cmd.cache_key: hit.out}
    return bool(rerun.failure or cache_identity(stored, hit.cmd.cache_key, rerun.out))


# ---------------------------------------------------------------------------
# metrics


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[list[Sample]], setup_s: float) -> dict:
    return {
        "cpu_s": metric(statistics.median(sum(s.cpu_s for s in p) for p in passes), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(max(s.rss_kb for p in passes for s in p) / 1024.0, "MB"),
    }


def _span(traces: list[dict], name: str, field: int) -> float:
    return sum(t["spans"].get(name, [0, 0.0])[field] for t in traces)


def _layer_self(traces: list[dict], layer: str) -> float:
    return sum(stat[1] for t in traces for name, stat in t["spans"].items()
               if name.startswith(layer + ".") and not name.startswith("cli.import"))


def per_layer(plain: list[Sample], traced: list[Sample]) -> dict:
    traces = [s.trace for s in traced]

    def count(name: str) -> int:
        return sum(t["counters"].get(name, 0) for t in traces)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def worst_error(group: str) -> float:
        return max((s.error for s in plain if s.cmd.group == group and s.error is not None),
                   default=0.0)

    walls = [s.wall_s for s in plain]
    plain_wall, traced_wall = sum(walls), sum(s.wall_s for s in traced)
    lookups, writes = count("cli.cache.lookups"), count("cli.cache.writes")
    hits = count("jacobi.family.hits")
    out = {f"{g}_s": metric(sum(s.wall_s for s in plain if s.cmd.group == g), "s") for g in GROUPS}
    out.update({
        "wall_s": metric(plain_wall, "s"),
        "cmd_p50_s": metric(statistics.median(walls), "s"),
        "cmd_p90_s": metric(statistics.quantiles(walls, n=10, method="inclusive")[-1], "s"),
        "failed_frac": metric(ratio(sum(1 for s in plain + traced if s.failure),
                                    len(plain) + len(traced)), "ratio"),
        "trace.coverage": metric(ratio(sum(t["covered_s"] for t in traces),
                                       sum(t["in_process_s"] for t in traces)), "ratio"),
        "trace.overhead_frac": metric(traced_wall / plain_wall - 1.0, "ratio"),
        "algebra.mul.calls": metric(_span(traces, "algebra.mul", 0), "count"),
        "algebra.mul.self_s": metric(_span(traces, "algebra.mul", 1), "s"),
        "algebra.coeff_bits_max": metric(max(t["counters"]["algebra.coeff_bits_max"]
                                             for t in traces), "bits"),
        "algebra.integrate.calls": metric(_span(traces, "algebra.integrate", 0), "count"),
        "algebra.integrate.self_s": metric(_span(traces, "algebra.integrate", 1), "s"),
        "algebra.surd.calls": metric(_span(traces, "algebra.surd", 0), "count"),
        "algebra.surd.self_s": metric(_span(traces, "algebra.surd", 1), "s"),
        "jacobi.family.calls": metric(_span(traces, "jacobi.family", 0), "count"),
        "jacobi.family.self_s": metric(_span(traces, "jacobi.family", 1), "s"),
        "jacobi.family.hit_ratio": metric(ratio(hits, hits + count("jacobi.family.misses")),
                                          "ratio"),
        "stirling.number.calls": metric(_span(traces, "stirling.number", 0), "count"),
        "stirling.number.self_s": metric(_span(traces, "stirling.number", 1), "s"),
        "stirling.composite.self_s": metric(_span(traces, "stirling.composite", 1), "s"),
        "stirling.table.self_s": metric(_span(traces, "stirling.table", 1), "s"),
        "operators.inner_product.calls": metric(_span(traces, "operators.inner_product", 0),
                                                "count"),
        "operators.inner_product.self_s": metric(_span(traces, "operators.inner_product", 1),
                                                 "s"),
        "operators.gram.self_s": metric(_span(traces, "operators.gram", 1), "s"),
        "numeric.galerkin.assemble_s": metric(_span(traces, "numeric.galerkin.assemble", 1), "s"),
        "numeric.galerkin.solve_s": metric(_span(traces, "numeric.galerkin.solve", 1), "s"),
        "numeric.galerkin.max_abs_err": metric(worst_error("galerkin"), "abs"),
        "numeric.chel.self_s": metric(_span(traces, "numeric.chel", 1), "s"),
        "numeric.chel.integrand_evals": metric(count("numeric.chel.integrand_evals"), "count"),
        "numeric.chel.max_err": metric(worst_error("chel"), "abs"),
        "cli.import_s": metric(_span(traces, "cli.import", 1)
                               + _span(traces, "cli.import_numpy", 1), "s"),
        "cli.import_numpy_s": metric(_span(traces, "cli.import_numpy", 1), "s"),
        "cli.cache.hit_ratio": metric(ratio(lookups - writes, lookups), "ratio"),
        "cli.cache.writes": metric(writes, "count"),
        "cli.cache.bytes": metric(count("cli.cache.bytes"), "bytes"),
        "cli.stdout_bytes": metric(sum(len(s.out) for s in plain), "bytes"),
    })
    out.update({f"{layer}.self_s": metric(_layer_self(traces, layer), "s") for layer in LAYERS})
    return out


# ---------------------------------------------------------------------------


def context(runner: Runner, workload: str, cmds: list[Command], passes: int) -> dict:
    rc, out, _, _ = runner.spawn([sys.executable, "-c", "import numpy; print(numpy.__version__)"])
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src" / "jsob").glob("*.py"))
    return {
        "workload": workload,
        "python": platform.python_version(),
        "numpy": out.decode().strip() if rc == 0 else None,
        "nproc": os.cpu_count(),
        "src_jsob_lines": src_lines,
        "commands": len(cmds),
        "passes": passes,
        "largest_inputs": workloads.largest_inputs(cmds),
    }


def measure(args, runner: Runner) -> tuple[dict, list[list[Sample]]]:
    cmds = workloads.generate(args.workload, args.seed)
    if args.trace:
        plain = runner.run_pass(cmds)
        traced = runner.run_pass(cmds, traced=True)
        passes = [plain, traced]
        metrics = per_layer(plain, traced)
    else:
        runner.setup_samples(1)  # compiles bytecode; every later call finds it
        setup, passes = [], []
        start = time.perf_counter()
        while True:
            # Set-up samples are spread over the run, so drift in machine speed
            # reaches them as it reaches the passes.
            setup += runner.setup_samples(SETUP_SAMPLES)
            passes.append(runner.run_pass(cmds))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        setup += runner.setup_samples(SETUP_SAMPLES)
        metrics = end_to_end(passes, statistics.median(setup))
    print(json.dumps({"context": context(runner, args.workload, cmds, len(passes))}))
    return metrics, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jsob" / "cli.py").is_file():
        print(f"error: no jsob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise Timeout

    signal.signal(signal.SIGALRM, on_alarm)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    try:
        metrics, passes = measure(args, runner)
        missed = self_check(runner, passes[0])
    except Timeout:
        print("error: run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for s in p if s.failure)
    for case in missed:
        print(f"oracle self-check: corrupted case not flagged: {case}", file=sys.stderr)
    print("pass wall / CPU times: " + ", ".join(
        f"{sum(s.wall_s for s in p):.3f} / {sum(s.cpu_s for s in p):.3f} s" for p in passes),
        file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} commands in {len(passes)} passes, "
          f"{failed} failed, oracle self-check {'ok' if not missed else 'FAILED'}",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
