import numpy as np
import pytest

from padvio.manifold import exp_map


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_rotation(rng, max_angle=1.5):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return exp_map(axis * rng.uniform(0.0, max_angle))
