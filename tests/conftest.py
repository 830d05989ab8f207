"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture(scope="session")
def operator_matrix():
    """matrix(model, name): an operator's dense matrix, built at each call by
    _apply on a real identity (bitwise what a complex one gives, less work)."""

    def matrix(model, name):
        return model._apply(name, np.eye(model.dim)).T

    return matrix
