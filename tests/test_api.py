"""The package API: ``jsob`` exports each layer's ``__all__`` and nothing is lost."""

import importlib
import subprocess
import sys

import pytest

import jsob

LAYERS = ("algebra", "jacobi", "stirling", "operators", "numeric")

# Every name the package exported when its __init__ listed them by hand.
PINNED = {
    "algebra": ("NotDivisible", "Polynomial", "ScaledPolynomial", "Surd", "as_fraction",
                "integrate_weighted"),
    "jacobi": ("JacobiParams", "NONCLASSICAL", "Normalization", "UndefinedNormalization",
               "jacobi_family"),
    "stirling": ("CompositeCoefficients", "StirlingTable", "build_table",
                 "composite_coefficients", "jacobi_stirling"),
    "operators": ("Classical", "GramMatrix", "LeftDefinite", "NotInWeightedSpace", "OperatorTag",
                  "SobolevPhi", "SpectrumSpec", "apply_ell", "apply_ell_power", "decompose_w",
                  "gram_matrix", "inner_product", "operator_matrix", "spectrum"),
    "numeric": ("MassNotPositiveDefinite", "NonFiniteIntegral", "chel_K", "chel_preset",
                "galerkin_system"),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_pinned_names_resolve_to_the_layers_objects(layer):
    module = importlib.import_module(f"jsob.{layer}")
    for name in PINNED[layer]:
        assert getattr(jsob, name) is getattr(module, name), name


@pytest.mark.parametrize("layer", LAYERS)
def test_package_exports_each_layers_all(layer):
    module = importlib.import_module(f"jsob.{layer}")
    assert set(PINNED[layer]) <= set(module.__all__)
    for name in module.__all__:
        assert getattr(jsob, name) is getattr(module, name), name


def test_chel_instance_still_resolves():
    numeric = importlib.import_module("jsob.numeric")
    assert "ChelInstance" not in numeric.__all__  # a star import would build it
    assert jsob.ChelInstance is numeric.ChelInstance
    with pytest.raises(AttributeError, match="no attribute 'Missing'"):
        jsob.Missing


def test_import_loads_every_layer_and_not_dataclasses(src_env):
    # The benchmark tracer reads every layer from sys.modules right after
    # ``import jsob.cli``, so the layers load eagerly.
    code = (
        "import sys\n"
        "import jsob\n"
        f"assert {{f'jsob.{{layer}}' for layer in {LAYERS!r}}} <= set(sys.modules)\n"
        "assert 'dataclasses' not in sys.modules\n"
        "import jsob.cli\n"
        "assert 'jsob.cli' in sys.modules and 'dataclasses' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
