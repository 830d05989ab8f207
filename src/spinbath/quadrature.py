"""Composite Gauss-Legendre quadrature on panels split in two per pass.

All kernel and rate integrals in this package are oscillatory with a known
frequency bound, so adaptivity is organized around panel widths rather than
around error indicators: the first panels are bounded by a quarter period of
the fastest phase their integrand can reach (over the whole frequency range
of a kernel integral, and on each knot interval of the kernel table for the
level shift), the composite rule is evaluated, every panel is split in two,
and the change between the two passes is the error estimate.

One call integrates a stack of rows, and ``rtol`` is relative to the scale
of the whole call: refinement stops once every row's error is at most
``rtol * max(|v_i|, floor, max_j |v_j|)``, that is ``rtol`` times the
largest value of the call (never less than ``floor``).  This is the
absolute-plus-relative convention of QUADPACK (Piessens et al. 1983) with
the absolute part set by the call itself: a row that crosses zero needs
only the absolute accuracy ``rtol * max_j |v_j|``, not a relative accuracy
it can never reach.  A call that does not meet the rule within its
doublings raises AccuracyError, so every result it returns has met it.

An integrand is called as ``f(nodes, weights)`` with the composite rule's
nodes and weights and returns its row integrals, one value per row: most
integrands sum each row times the weights, ``np.sum(row * weights)``,
while one that factors into node weights times a small trig block can fold
those factors into the weights and sum by a matrix-vector product.

An integrand may also return a 2-d ``(groups, rows)`` array: several
independent calls that share one node set.  The stop rule then holds per
group, each against its own largest value, and refinement goes on until
every group meets it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError


@functools.lru_cache(maxsize=None)
def leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int = 6):
    """Nodes and weights of the composite rule over consecutive panels."""
    edges = np.asarray(edges, dtype=float)
    x, w = leggauss(order)
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    nodes = lo + half * (x[None, :] + 1.0)
    weights = half * w[None, :]
    return nodes.ravel(), weights.ravel()


def refine_edges(edges: np.ndarray) -> np.ndarray:
    """Split every panel in two."""
    edges = np.asarray(edges, dtype=float)
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Outcome of integrate_refining, one entry per integrand row.

    errors is the change under the last doubling, which met the stop rule
    and overestimates the error of the returned (finer) values in the
    asymptotic regime.  nodes counts the integrand nodes of all passes and
    passes the doublings made.
    """

    values: np.ndarray
    errors: np.ndarray
    nodes: int
    passes: int


def integrate_refining(
    f: Callable,
    edges: np.ndarray,
    order: int = 6,
    rtol: float = 1e-9,
    max_refine: int = 8,
    floor: float = 1e-300,
    what: str = "quadrature",
) -> Quadrature:
    """Integrate with panel doubling until the change meets the stop rule.

    f maps (nodes, weights) of the composite rule to the integrals of its
    rows, a scalar or a 1-d array, and is called once per pass with the
    same rows each time.  A pass stops refinement when every row's change
    is at most rtol times the call scale max(floor, max_j |v_j|); after
    max_refine doublings without that it raises AccuracyError naming what,
    with the last values as partial and their largest change as err.
    A 2-d result (groups, rows) has one scale per group, over its own rows.
    """
    edges = np.asarray(edges, dtype=float)
    vals = np.atleast_1d(f(*panel_nodes(edges, order)))
    nodes = order * (len(edges) - 1)
    err = np.full(vals.shape, np.inf)
    converged = False
    passes = 0
    while passes < max_refine and not converged:
        edges = refine_edges(edges)
        new = np.atleast_1d(f(*panel_nodes(edges, order)))
        nodes += order * (len(edges) - 1)
        passes += 1
        err = np.abs(new - vals)
        vals = new
        scale = np.maximum(floor, np.max(np.abs(vals), axis=-1, keepdims=True))
        converged = bool(np.all(err <= rtol * scale))
    if not converged:
        raise AccuracyError("%s did not converge after %d doublings"
                            % (what, passes), partial=vals,
                            err=float(np.max(err)))
    return Quadrature(values=vals, errors=err, nodes=nodes, passes=passes)
