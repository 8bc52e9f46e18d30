#!/usr/bin/env python3
"""Infinitely many non-isomorphic guided configurations.

All regular configurations are conjugate to each other, but the simplest
guided ones already split into infinitely many classes.  Take two
flat-point families with their single derivative zeros in different
dyadic cells J_n = [1 - 2^-n, 1 - 2^-(n+1)].  Any intertwiner of the
underlying dynamical systems fixes 0, hence fixes 1/2 = delta1(0), hence
by induction every 1 - 2^-m; being monotone it maps each cell to itself
and can never carry a flat point of J_n into J_k.  So as *guided* systems
(where conjugations must match the flat sets) the two are non-isomorphic,
even though an intertwiner of the bare systems exists and is computed
below.
"""

from pconfig import nonregular_experiment

report = nonregular_experiment(2, 3, grid=4097)

print(f"configurations: flat cells J_{report.n} and J_{report.k}")
print(f"  J_{report.n} = {list(report.cell_n)}, flat point lambda = "
      f"{report.flat_point_n}")
print(f"  J_{report.k} = {list(report.cell_k)}, flat point omega  = "
      f"{report.flat_point_k}")
print()

print("dyadic fixed points of the computed intertwiner")
print("-" * 56)
table = report.dyadic_table
print("   m     1 - 2^-m           |h(x) - x|    resolved")
for m, p, d, r in zip(table.m_values, table.points, table.deviations,
                      table.resolved):
    print(f"   {m}     {p:.8f}     {d:12.3e}    {r}")
print(f"first-branch orbit reproduces the dyadic points: {table.orbit_agrees}")
print()

print("where the flat point goes")
print("-" * 56)
print(f"  h(lambda) = {report.image_of_flat_point:.8f}")
print(f"  stays inside J_{report.n}: {report.image_in_cell_n}")
print(f"  h strictly increasing at grid level: {report.homeomorphism_ok}")
print()

print(f"verdict: {report.verdict}")
print()
print("The same argument works for any pair of distinct cells, so the")
print("guided classes J_1, J_2, J_3, ... are pairwise non-isomorphic.")
report2 = nonregular_experiment(1, 2, grid=4097)
print(f"(n, k) = (1, 2): {report2.verdict}")
