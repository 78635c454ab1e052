import os
import random
from pathlib import Path

import pytest

import citeforge
from citeforge.styles import load_builtin_styles
from citeforge.synth import sample_article


@pytest.fixture(scope="session")
def styles():
    return load_builtin_styles()


@pytest.fixture()
def argon_entry():
    return sample_article()


@pytest.fixture()
def rng():
    return random.Random(20180401)


@pytest.fixture()
def child_env():
    """Environment for a fresh interpreter that imports this checkout's
    citeforge."""
    src = str(Path(citeforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
