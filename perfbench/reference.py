"""Labelled-orbit reference for checking a computed conjugation.

A conjugation h of ``pair`` to ``target`` fixes -1, 0 and 1 and intertwines
the branches, so for every branch word w and anchor a

    h(w_pair(a)) = w_target(a).

Pushing the anchors through all words of length <= depth gives exact
samples of h that no solver output is involved in.  The abscissae use the
pair's public delta maps, the labels the target's; both are evaluated on
arrays of words at once.

Distinct words can collide at float resolution near the endpoints.  Their
labels then differ while h has one value there, so the check accepts any
value of h between the smallest and largest label of the colliding words;
the lost nodes show in the node yield instead.
"""

from __future__ import annotations

import numpy as np

ANCHORS = (-1.0, 0.0, 1.0)

#: Largest word level expanded at once; wider levels are split so that a
#: check at 2^20+1 nodes stays well below the solver's own memory.
CHUNK = 2 ** 12


def labelled_orbit(pair, target, depth: int, chunk: int = CHUNK):
    """Yield ``(x, y)`` arrays covering all words of length <= depth.

    ``x`` holds words applied to an anchor through ``pair``, ``y`` the same
    words through ``target``.  Anchors come in the order -1, 0, 1.  While a
    level has at most ``chunk`` words, levels come whole and in order, with
    words ordered as in :func:`pconfig.orbit_points` (children of each
    point interleaved, the first branch first); wider levels are split and
    their halves descended one after the other.
    """
    for base in ANCHORS:
        x = np.array([base])
        y = np.array([base])
        yield x, y
        yield from _descend(pair, target, x, y, depth, chunk)


def _descend(pair, target, x, y, depth, chunk):
    if depth == 0:
        return
    if x.size > chunk:
        half = x.size // 2
        yield from _descend(pair, target, x[:half], y[:half], depth, chunk)
        yield from _descend(pair, target, x[half:], y[half:], depth, chunk)
        return
    x = np.stack((pair.delta1(x), pair.delta2(x)), axis=1).ravel()
    y = np.stack((target.delta1(y), target.delta2(y)), axis=1).ravel()
    yield x, y
    yield from _descend(pair, target, x, y, depth - 1, chunk)


def oracle_error(nodes, values, pair, target, depth: int) -> float:
    """Largest distance of the sampled h from the labelled orbit.

    At an orbit point that is a node of h, the distance is taken to the
    interval spanned by the labels of all words landing on that node.  At
    any other orbit point h is interpolated and compared with its label.
    Works on bounded pieces of the orbit, so memory stays at two arrays of
    node size.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    lo = np.full(nodes.size, np.inf)
    hi = np.full(nodes.size, -np.inf)
    err = 0.0
    for x, y in labelled_orbit(pair, target, depth):
        idx = np.minimum(np.searchsorted(nodes, x), nodes.size - 1)
        on_node = nodes[idx] == x
        np.minimum.at(lo, idx[on_node], y[on_node])
        np.maximum.at(hi, idx[on_node], y[on_node])
        off = ~on_node
        if off.any():
            hx = np.interp(x[off], nodes, values)
            err = max(err, float(np.max(np.abs(hx - y[off]))))
    hit = np.isfinite(lo)
    v = values[hit]
    gap = np.maximum(np.maximum(lo[hit] - v, v - hi[hit]), 0.0)
    if gap.size:
        err = max(err, float(np.max(gap)))
    return err


def check_h(nodes, values, pair, target, depth: int) -> dict:
    """Check a sampled conjugation of ``pair`` to ``target``.

    Returns the oracle error, the node yield (realised nodes over the
    2^(depth+1) + 1 words) and the failure reasons: h must fix -1, 0 and 1
    exactly, increase strictly from node to node, and stay within one
    dyadic step 2^-depth of the labelled orbit.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    reasons = []
    if not np.array_equal(np.interp(ANCHORS, nodes, values), ANCHORS):
        reasons.append("anchors_not_fixed")
    if not np.all(np.diff(values) > 0.0):
        reasons.append("not_strictly_increasing")
    err = oracle_error(nodes, values, pair, target, depth)
    if err > 2.0 ** -depth:
        reasons.append("oracle_error")
    return {
        "reasons": tuple(reasons),
        "oracle_err": err,
        "node_yield": nodes.size / requested_nodes(depth),
    }


def fe_residual(nodes, values, pair, grid: int) -> float:
    """Sup over a uniform grid plus the anchors of |f - f o delta1 - f o delta2|.

    The same formula as the library's residual, computed here from the
    samples alone so that the reported number is checked.
    """
    t = np.union1d(np.linspace(-1.0, 1.0, grid), ANCHORS)

    def f(x):
        return np.interp(np.clip(x, -1.0, 1.0), nodes, values)

    return max(
        float(np.max(np.abs(f(s) - f(pair.delta1(s)) - f(pair.delta2(s)))))
        for s in np.array_split(t, max(1, t.size // CHUNK)))


def orbit_depth(grid: int) -> int:
    """Word length of the adapted solver grid for a node budget ``grid``.

    The solver samples h on all words of length <= d with
    d = floor(log2(grid - 1)) - 1, which is 2^(d+1) + 1 nodes when no two
    words collide.
    """
    return max(2, (grid - 1).bit_length() - 2)


def requested_nodes(depth: int) -> int:
    return 2 ** (depth + 1) + 1
