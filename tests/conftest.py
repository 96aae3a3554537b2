import numpy as np
import pytest

from hypothesis import settings

# few, reproducible examples with a per-example deadline keep tier-1 short
settings.register_profile(
    "qprops", max_examples=30, deadline=2000, derandomize=True, database=None
)
settings.load_profile("qprops")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
