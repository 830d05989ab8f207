"""Fixtures shared by the test modules."""

import hashlib

import numpy as np
import pytest


@pytest.fixture(scope="session")
def operator_matrix():
    """matrix(model, name): an operator's dense matrix, built at each call by
    _apply on a real identity (bitwise what a complex one gives, less work)."""

    def matrix(model, name):
        return model._apply(name, np.eye(model.dim)).T

    return matrix


def _entry_name(*key):
    """The file name of the cache entry of these key parts: the first 32 hex
    characters of the sha256 of the parts joined by "|", each a string or a
    number written as %.17g, plus ".npy"."""
    text = "|".join(k if isinstance(k, str) else "%.17g" % k for k in key)
    return hashlib.sha256(text.encode()).hexdigest()[:32] + ".npy"


@pytest.fixture(scope="session")
def table_entry():
    """table_entry(spec, t_max, n, tol): the file name of a kernel table's
    cache entry, under the numerics salt of the moment."""

    def name(spec, t_max, n, tol):
        from spinbath import bath_correlations

        return _entry_name(bath_correlations._NUMERICS_VERSION, spec.beta,
                           spec.h.content_key(), t_max, n, tol)

    return name


@pytest.fixture(scope="session")
def level_shift_entry():
    """level_shift_entry(spec, t_max, n, tol, lso_tol): the file name of a
    level-shift record, t_max None for the default horizon."""

    def name(spec, t_max, n, tol, lso_tol):
        from spinbath import bath_correlations, relaxation

        return _entry_name(bath_correlations._NUMERICS_VERSION,
                           relaxation._LEVEL_SHIFT_VERSION, spec.beta,
                           spec.h.content_key(), spec.q0, spec.eps,
                           "auto" if t_max is None else t_max, n, tol,
                           lso_tol)

    return name
