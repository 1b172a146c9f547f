import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def src_env():
    """Environment for a subprocess that imports relaysec from this checkout."""
    return dict(os.environ, PYTHONPATH=SRC)
