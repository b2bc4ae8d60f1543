import os
from pathlib import Path

import numpy as np
import pytest

SEED = int(os.environ.get("GCLAB_SEED", "20260824"))

# pytest puts src/ on sys.path (pyproject `pythonpath`); subprocesses such as
# `python -m gclab.cli` get it through the environment
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)
