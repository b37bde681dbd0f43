import numpy as np
import pytest

from chemoflux import Grid


@pytest.fixture
def grid32():
    return Grid(side_length=2 * np.pi, resolution=32)


@pytest.fixture
def grid64():
    return Grid(side_length=16 * np.pi, resolution=64)
