#!/usr/bin/env python3
"""Why the conjugation cannot be continuously differentiable.

Near the endpoint 1 the first branch of quadratic(0.2) contracts by
delta1'(1) = 0.1 per step while the standard target halves, so the
conjugation h scales like s^beta with beta = log 2 / log 10 = 0.301 and
its difference quotients blow up like s^(beta - 1).  The quotient ratios
oscillate log-periodically around 2^(1-beta) = 1.623; the oracle
enclosure below measures those oscillations exactly, without using the
solver at all, and the solver's probe lands inside them.
"""

import numpy as np

from pconfig import (
    conjugate_to_standard,
    difference_quotients,
    identity,
    oracle_quotient_enclosure,
    quadratic_pair,
)

pair = quadratic_pair(0.2)
beta = np.log(2.0) / np.log(10.0)
print(f"local exponent prediction: beta = ln2/ln10 = {beta:.6f}")
print(f"naive ratio prediction:    2^(1-beta)      = {2 ** (1 - beta):.6f}")
print()

print("solving on 2^16 + 1 orbit nodes (fine enough for scale 2^-13)...")
h, _ = conjugate_to_standard(pair, grid=65537)
probe = difference_quotients(h, 1.0, k_min=6, k_max=13)
enc = oracle_quotient_enclosure(pair, 1.0, k_min=6, k_max=13, depth=22)

print()
print("one-sided difference quotients |h(1) - h(1 - 2^-k)| / 2^-k")
print("-" * 68)
print("  k     quotient        oracle bracket              ratio")
for i, k in enumerate(probe.k_values):
    lo, hi = enc.quotient_bounds[i]
    ratio = f"{probe.ratios[i - 1]:.5f}" if i > 0 else "      -"
    print(f"  {k:2d}   {probe.quotients[i]:10.4f}   "
          f"[{lo:10.4f}, {hi:10.4f}]   {ratio}")

print()
lo = min(b[0] for b in enc.ratio_bounds)
hi = max(b[1] for b in enc.ratio_bounds)
print(f"oracle-confirmed ratio oscillation range: [{lo:.4f}, {hi:.4f}]")
gm = (probe.quotients[-1] / probe.quotients[0]) ** (1 / 7)
print(f"geometric-mean ratio across the window:   {gm:.4f} "
      f"(oscillation cancels toward 2^(1-beta))")
print(f"largest quotient: {max(probe.quotients):.1f} "
      "(quotients grow without bound: no derivative exists at 1)")
print()

print("log-log fitted exponents")
print("-" * 68)
for t0 in (1.0, -1.0):
    b = difference_quotients(h, t0, k_min=6, k_max=13).holder_exponent
    print(f"  t0 = {t0:+.0f}: fitted beta = {b:.4f}")
print()

print("control: the identity has quotient 1 at every scale")
control = difference_quotients(identity(4097), 1.0, k_min=2, k_max=9)
print(f"  quotients: {sorted(set(control.quotients))}")
print(f"  fitted exponent: {control.holder_exponent:.9f}")
