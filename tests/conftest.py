import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """The environment of a child interpreter that imports jsob from this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))
