"""Run one jsob CLI command under an outside tracer.

    python3 perfbench/tracer.py TRACE.json ARG...

behaves like ``python3 -m jsob ARG...`` (same stdout, stderr and exit code)
and writes the command's spans to TRACE.json.  No jsob source changes: the
public functions of jsob.algebra, jacobi, stirling, operators, numeric and
cli are replaced by timing wrappers after import, in every jsob module that
binds them (``from .x import y`` copies a name, so each copy is rewrapped).

A span records calls and self time (its duration minus its child spans).
Spans are kept in memory and written once, when the command ends.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

# Loaded at interpreter start; everything else the tracer needs is imported
# after jsob, which loads it anyway, so the tracer's own start-up stays small.
import functools  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

LAYERS = ("algebra", "jacobi", "stirling", "operators", "numeric", "cli")

# Spans under the names the benchmark reports; every other public function of a
# layer gets "<layer>.<name>".
ALIASES = {
    ("algebra", "integrate_weighted"): "algebra.integrate",
    ("algebra", "integrate_jacobi_weight"): "algebra.integrate",
    ("jacobi", "jacobi_family"): "jacobi.family",
    ("jacobi", "nonclassical_jacobi"): "jacobi.family",
    ("jacobi", "classical_jacobi"): "jacobi.family",
    ("stirling", "jacobi_stirling"): "stirling.number",
    ("stirling", "composite_coefficients"): "stirling.composite",
    ("stirling", "build_table"): "stirling.table",
    ("operators", "gram_matrix"): "operators.gram",
    ("numeric", "galerkin_system"): "numeric.galerkin.assemble",
    ("numeric", "solve_galerkin"): "numeric.galerkin.solve",
    ("numeric", "chel_K"): "numeric.chel",
    # Private cache helpers, traced for the cache counters.
    ("cli", "_record_for"): "cli.cache.lookup",
    ("cli", "_load_cache"): "cli.cache.read",
    ("cli", "_store_cache"): "cli.cache.write",
}
# Called once per coefficient; a span there would mostly time the tracer itself.
SKIP = {("algebra", "as_fraction")}


class Tracer:
    def __init__(self):
        self.stack = [[0.0]]  # per open span: time covered by its children
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, int] = {}

    def wrap(self, fn, name, after=None):
        stat = self.spans.setdefault(name, [0, 0.0])
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]

        return traced

    def span(self, name):
        return _Span(self, name)


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = [0.0]
        self.tracer.stack.append(self.frame)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        duration = time.perf_counter() - self.start
        stack = self.tracer.stack
        stack.pop()
        stack[-1][0] += duration
        stat = self.tracer.spans.setdefault(self.name, [0, 0.0])
        stat[0] += 1
        stat[1] += duration - self.frame[0]


def install(tracer: Tracer) -> None:
    import dataclasses
    import inspect

    modules = {layer: sys.modules[f"jsob.{layer}"] for layer in LAYERS}
    bindings: dict[int, list] = {}  # id of a bound object -> every (module, name) binding it
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "jsob" or mod_name.startswith("jsob."):
            for attr, value in vars(mod).items():
                bindings.setdefault(id(value), []).append((mod, attr))

    def rebind(original, replacement) -> None:
        sites = bindings.pop(id(original), [])
        for mod, attr in sites:
            setattr(mod, attr, replacement)
        bindings[id(replacement)] = sites

    algebra, numeric = modules["algebra"], modules["numeric"]
    counters = tracer.counters
    counters.update({"algebra.coeff_bits_max": 0, "cli.cache.lookups": 0, "cli.cache.writes": 0,
                     "cli.cache.bytes": 0, "numeric.chel.integrand_evals": 0})

    def after_lookup(_record, args):  # _record_for(params, n, norm, cfg)
        if args[3].cache_path:
            counters["cli.cache.lookups"] += 1

    def after_store(_result, args):  # _store_cache(path, cache)
        counters["cli.cache.writes"] += 1
        counters["cli.cache.bytes"] += os.path.getsize(args[0])

    hooks = {("cli", "_record_for"): after_lookup, ("cli", "_store_cache"): after_store}
    for layer, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            is_function = inspect.isfunction(value) or hasattr(value, "cache_info")  # lru_cache
            if not is_function or getattr(value, "__module__", None) != mod.__name__:
                continue
            if (layer, attr) in SKIP or (attr.startswith("_") and (layer, attr) not in ALIASES):
                continue
            name = ALIASES.get((layer, attr), f"{layer}.{attr}")
            rebind(value, tracer.wrap(value, name, hooks.get((layer, attr))))

    def coeff_bits(product, _args):
        if isinstance(product, algebra.Polynomial):
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                        for c in product.coeffs), default=0)
            if bits > counters["algebra.coeff_bits_max"]:
                counters["algebra.coeff_bits_max"] = bits

    algebra.Polynomial.__mul__ = tracer.wrap(algebra.Polynomial.__mul__, "algebra.mul", coeff_bits)
    algebra.Surd.__post_init__ = tracer.wrap(algebra.Surd.__post_init__, "algebra.surd")

    def counting(fn):
        def evaluate(t):
            counters["numeric.chel.integrand_evals"] += 1
            return fn(t)
        return evaluate

    preset = numeric.chel_preset  # already the traced wrapper

    def chel_preset(name):
        inst = preset(name)
        return dataclasses.replace(inst, phi=counting(inst.phi), psi=counting(inst.psi))

    rebind(preset, chel_preset)


def main(argv: list[str]) -> int:
    import json

    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        with tracer.span("cli.import_numpy"):
            import numpy  # noqa: F401
        import jsob.cli
    install(tracer)
    try:
        rc = jsob.cli.main(cli_argv)  # traced as "cli.main"
        sys.stdout.flush()
    finally:
        family = sys.modules["jsob.jacobi"].jacobi_family.__wrapped__.cache_info()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({
                "in_process_s": time.perf_counter() - T0,
                "covered_s": tracer.stack[0][0],
                "spans": tracer.spans,
                "counters": dict(tracer.counters, **{
                    "jacobi.family.hits": family.hits,
                    "jacobi.family.misses": family.misses,
                }),
            }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
