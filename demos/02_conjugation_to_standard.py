#!/usr/bin/env python3
"""Computing the conjugating homeomorphism on the labelled orbit.

Every regular configuration is conjugate to the standard pair through a
unique homeomorphism h fixing -1, 0, 1.  h intertwines the two systems,
so at the image of an anchor under a branch word it takes the value of
the same word under the standard maps: the solver reads h off these
labels exactly.  The halving pull-back operator T has h as its unique
fixed point; applied once it moves h only by its bisection error, and
iterated it shows the contraction factor 1/2 of the paper.
"""

import numpy as np

from pconfig import (
    Word,
    contraction_step,
    conjugate_to_standard,
    evaluate,
    identity,
    make_monotone,
    orbit_oracle,
    orbit_points,
    quadratic_pair,
    sup_distance,
    to_csv,
)

pair = quadratic_pair(0.2)
h, log = conjugate_to_standard(pair, grid=4097)
print(f"grid: {log.grid} nodes on branch orbits of the anchors")
print()

print("anchors are pinned exactly:")
for a in (-1.0, 0.0, 1.0):
    print(f"  h({a:+.0f}) = {evaluate(h, a):+.17g}")
print()

# Pushing a branch word through the pair gives the abscissa, pushing the
# same word through the standard maps gives the value h must take there.
print("spot checks against the exact orbit oracle")
print("-" * 46)
for branches, base in [((1,), 0.0), ((1, 1), -1.0), ((2, 1), 1.0),
                       ((1, 2, 1), 0.0)]:
    x, y = orbit_oracle(pair, Word(branches, base=base))
    print(f"  word {branches!s:12} base {base:+.0f}: "
          f"h({x:+.6f}) = {evaluate(h, x):+.10f}  (exact {y:+.10f})")

x, y = np.array(orbit_points(pair, max_len=11)).T
worst = float(np.max(np.abs(evaluate(h, x) - y)))
print(f"worst error over {x.size} oracle points: {worst:.2e}")
print()

print("one application of T, pull-back solved by bisection")
print(f"  sup |T h - h| = {log.residual:.3e}")
print()


def iterate(g):
    """Apply T until two successive iterates are within 1e-10."""
    distances = []
    while not distances or distances[-1] > 1e-10:
        g_next = contraction_step(g, pair)
        distances.append(float(np.max(np.abs(g_next.values - g.values))))
        g = g_next
    return g, distances


print("contraction: T iterated from the identity on the same grid")
print("-" * 46)
g, distances = iterate(identity(nodes=h.nodes))
ratios = [float("nan")] + [b / a for a, b in zip(distances, distances[1:])]
for i, (d, r) in enumerate(zip(distances, ratios)):
    print(f"  iter {i + 1:2d}   sup-update {d:12.3e}   ratio {r:8.5f}")
print(f"  fixed point of the bisection-built T, off the labels by "
      f"{sup_distance(g, h):.2e}")
print()

print("uniqueness: a different admissible start reaches the same fixed point")
kinked = make_monotone([-1, 0, 0.5, 1], [-1, 0, 0.25, 1])
g2, _ = iterate(make_monotone(h.nodes, evaluate(kinked, h.nodes)))
print(f"  sup distance between the two runs: {sup_distance(g, g2):.2e}")
print()

d0 = sup_distance(identity(nodes=h.nodes), h)
print(f"distance from the identity (a nonlinearity measure): {d0:.4f}")
print()
print("first lines of the CSV serialization:")
print("\n".join(to_csv(h).splitlines()[:5]))
