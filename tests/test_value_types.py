"""The value types and records: equality, hashing, immutability, and which
classes are still dataclasses."""

import importlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jsob.algebra import Frozen, Polynomial, ScaledPolynomial, Surd
from jsob.cli import CliConfig, PolynomialRecord, Report
from jsob.jacobi import JacobiParams, Normalization, jacobi_family
from jsob.operators import (
    Classical,
    GramMatrix,
    LeftDefinite,
    OperatorTag,
    SobolevPhi,
    SpectrumSpec,
)
from jsob.stirling import CompositeCoefficients, StirlingTable

MODULES = ("algebra", "jacobi", "stirling", "operators", "numeric", "cli")


@pytest.mark.parametrize("name", [name for name in MODULES if name != "cli"])
def test_every_exported_name_resolves(name):
    # A star import raises AttributeError on a name in __all__ that the module
    # does not define, and every name jsob takes from the module is exported.
    import jsob

    namespace = {}
    exec(f"from jsob.{name} import *", namespace)
    assert set(importlib.import_module(f"jsob.{name}").__all__) <= namespace.keys()
    reexported = {attr for attr, value in vars(jsob).items()
                  if getattr(value, "__module__", None) == f"jsob.{name}"}
    assert reexported <= set(namespace)


def test_only_chel_instance_is_a_dataclass():
    # The benchmark tracer rebuilds a ChelInstance with dataclasses.replace.
    # numeric builds the class on first use, so resolve it before the scan.
    importlib.import_module("jsob.numeric").ChelInstance
    dataclasses = set()
    for name in MODULES:
        module = importlib.import_module(f"jsob.{name}")
        for cls_name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                if hasattr(cls, "__dataclass_fields__"):
                    dataclasses.add(f"{name}.{cls_name}")
    assert dataclasses == {"numeric.ChelInstance"}


def test_lazy_chel_instance_keeps_what_the_tracer_uses():
    import dataclasses

    import jsob
    from jsob import numeric

    assert jsob.ChelInstance is numeric.ChelInstance
    unit = numeric.chel_preset("unit")
    assert type(unit) is numeric.ChelInstance
    assert repr(unit).startswith("ChelInstance(name='unit', phi=")
    assert numeric.ChelInstance.__qualname__ == "ChelInstance"
    assert numeric.ChelInstance.__module__ == "jsob.numeric"
    phi = lambda t: 2.0  # noqa: E731
    copy = dataclasses.replace(unit, phi=phi)
    assert (copy.name, copy.phi, copy.psi, copy.a, copy.b) == ("unit", phi, unit.psi, 0.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        copy.a = 1.0
    with pytest.raises(AttributeError, match="no attribute 'Missing'"):
        numeric.Missing


def test_every_function_has_resolvable_type_hints():
    # A fresh interpreter: an annotation naming a class that a module builds on
    # first use resolves only after something has built it.
    code = (
        "import importlib, inspect, pkgutil, typing\n"
        "import jsob\n"
        "for info in pkgutil.iter_modules(jsob.__path__):\n"
        "    if info.name != '__main__':\n"
        "        module = importlib.import_module(f'jsob.{info.name}')\n"
        "        for value in list(vars(module).values()):\n"
        "            if inspect.isfunction(value) and value.__module__ == module.__name__:\n"
        "                typing.get_type_hints(value)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr


# (equal pair, an unequal value) per value type; each pair is built separately.
EQUAL_PAIRS = [
    (lambda: JacobiParams(1, 1), lambda: JacobiParams(Fraction(1), "1"), JacobiParams(1, 2)),
    (lambda: Polynomial((1, 0, 2)), lambda: Polynomial((Fraction(1), 0, 2, 0)), Polynomial((1, 2))),
    (
        lambda: ScaledPolynomial(Fraction(1, 3), Polynomial((0, 1))),
        lambda: ScaledPolynomial("1/3", Polynomial((0, 1))),
        ScaledPolynomial(Fraction(1, 2), Polynomial((0, 1))),
    ),
    (lambda: LeftDefinite(2, 1), lambda: LeftDefinite(2, Fraction(1)), LeftDefinite(2, 0)),
    (
        lambda: SpectrumSpec(OperatorTag.BN, 1, 2),
        lambda: SpectrumSpec(OperatorTag.BN, "1", 2),
        SpectrumSpec(OperatorTag.BN, 1, 3),
    ),
    (lambda: SpectrumSpec(OperatorTag.A, 0), lambda: SpectrumSpec(OperatorTag.A, 0), SpectrumSpec(OperatorTag.T, 0)),
    (
        lambda: Classical(JacobiParams(1, 1)),
        lambda: Classical(JacobiParams(1, 1)),
        Classical(JacobiParams(0, 0)),
    ),
    (lambda: SobolevPhi(), lambda: SobolevPhi(), LeftDefinite(1, 0)),
]


@pytest.mark.parametrize("make_a, make_b, other", EQUAL_PAIRS)
def test_equality_and_hash(make_a, make_b, other):
    a, b = make_a(), make_b()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other and {a: 1}.get(other) is None


# Constructor arguments of one instance per Frozen subclass in jsob.  A
# Report's payload and rows are dicts in use; here they are tuples, so that the
# sample hashes, as a record hashes exactly when its values do.
SAMPLES = {
    Polynomial: ((1, 0, 2),),
    Surd: (Fraction(1, 2), 8),
    ScaledPolynomial: (Fraction(1, 3), Polynomial((0, 1))),
    JacobiParams: (1, 0),
    Classical: (JacobiParams(1, 0),),
    SobolevPhi: (),
    LeftDefinite: (1, 0),
    SpectrumSpec: (OperatorTag.BN, 1, 2),
    CompositeCoefficients: (1, Fraction(1), (Fraction(1), Fraction(1))),
    StirlingTable: (((1,), (0, 1)),),
    GramMatrix: ((2, 3), ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(3))), (Fraction(1, 2),) * 2),
    CliConfig: (Fraction(1), "pretty", "", 17),
    Report: ((("command", "stirling"),), (), ("1",), 0),
    PolynomialRecord: ("-1", "-1", 2, "reference", "1", ("-1", "0", "1")),
}


def _frozen_subclasses():
    for name in MODULES:
        importlib.import_module(f"jsob.{name}")
    found, todo = set(), [Frozen]
    while todo:
        found.update(subs := todo.pop().__subclasses__())
        todo += subs
    return {cls for cls in found if cls.__module__.startswith("jsob.")}


def test_every_value_type_has_a_sample():
    assert _frozen_subclasses() == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    # The fields are the class's own annotations, in order.
    assert cls._fields == tuple(vars(cls).get("__annotations__", {}))
    value = cls(*SAMPLES[cls])
    values = tuple(getattr(value, name) for name in cls._fields)
    # The one initializer takes exactly one value per field.
    copy = object.__new__(cls)
    Frozen.__init__(copy, *values)
    assert copy == value and hash(copy) == hash(value) and copy is not value
    assert value._asdict() == dict(zip(cls._fields, values))
    assert cls(*SAMPLES[cls]) == value and hash(cls(*SAMPLES[cls])) == hash(value)
    with pytest.raises(TypeError):
        cls(*SAMPLES[cls], None)
    with pytest.raises(TypeError):
        Frozen.__init__(object.__new__(cls), *values, None)
    if values:
        with pytest.raises(TypeError):
            Frozen.__init__(object.__new__(cls), *values[:-1])
    # Equal fields do not make instances of two classes equal.
    for other, args in SAMPLES.items():
        if other is not cls:
            assert value != other(*args)


def test_values_of_different_types_differ():
    assert JacobiParams(1, 0)._key() == LeftDefinite(1, 0)._key()  # equal fields
    assert JacobiParams(1, 0) != LeftDefinite(1, 0)
    assert Classical(JacobiParams(1, 1)) != JacobiParams(1, 1)
    assert SobolevPhi() != Classical(JacobiParams(-1, -1))
    assert Polynomial((1,)) != 1


def test_params_hit_one_cache_entry():
    # JacobiParams is the lru_cache key of jacobi_family.
    jacobi_family(3, JacobiParams(5, 4), Normalization.REFERENCE)
    before = jacobi_family.cache_info()
    jacobi_family(3, JacobiParams(Fraction(5), 4), Normalization.REFERENCE)
    after = jacobi_family.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize(
    "value, field",
    [
        (JacobiParams(1, 1), "alpha"),
        (Polynomial((1, 2)), "coeffs"),
        (ScaledPolynomial(2, Polynomial((1,))), "scale_sq"),
        (Surd(1, 2), "radicand"),
        (LeftDefinite(1, 0), "k"),
        (SpectrumSpec(OperatorTag.A, 0), "power"),
        (Classical(JacobiParams(0, 0)), "params"),
        (SobolevPhi(), "anything"),
        *((cls(*SAMPLES[cls]), cls._fields[-1]) for cls in (
            CompositeCoefficients, StirlingTable, GramMatrix, CliConfig, Report, PolynomialRecord)),
    ],
)
def test_fields_cannot_be_assigned_or_deleted(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_int_form_is_cached():
    p = Polynomial((Fraction(1, 2), Fraction(1, 3)))
    assert p.int_form == ((3, 2), 6)
    assert p.int_form is p.int_form


def test_repr_names_the_fields():
    assert repr(JacobiParams(1, -1)) == "JacobiParams(alpha=Fraction(1, 1), beta=Fraction(-1, 1))"


def test_surd_construction_calls_post_init_through_the_class(monkeypatch):
    seen = []
    original = Surd.__post_init__

    def recording(self, coeff, radicand):
        seen.append((coeff, radicand))
        original(self, coeff, radicand)

    monkeypatch.setattr(Surd, "__post_init__", recording)
    value = Surd(Fraction(1, 2), 8)
    assert seen == [(Fraction(1, 2), 8)]
    assert (value.coeff, value.radicand) == (1, 2)
    Surd.from_rational(3)
    assert len(seen) == 2
