"""Exact verification on tiny instances: the chain really targets the
uniform distribution over proper colorings.

With q^n small enough we can write down the full one-round transition
matrix by summing over every marking and proposal combination. Detailed
balance (symmetry on proper pairs), uniform stationarity, absorption, and
irreducibility then become finite matrix checks, and iterating the matrix
gives exact total-variation curves and mixing times.
"""

import numpy as np

import localglauber as lg

g = lg.generate("cycle", n=4)
q, gamma = 5, 0.5
cfg = lg.ChainConfig(q=q, gamma=gamma)

space = lg.StateSpace(g, q)
proper, count = lg.enumerate_proper_colorings(g, q)
# chromatic polynomial of a cycle: (q-1)^n + (-1)^n (q-1)
predicted = (q - 1) ** 4 + (q - 1)
print(f"C4 with q={q}: {space.size} states, {count} proper colorings "
      f"(chromatic polynomial predicts {predicted})")

P = lg.build_transition_matrix(g, cfg)
for check in (
    lg.check_row_stochastic(P),
    lg.check_detailed_balance(P, space),
    lg.check_uniform_stationary(P, space),
    lg.check_absorption(P, space),
    lg.check_irreducibility(P, space),
):
    print(f"  {check}")

# Condition (ii) of the acceptance rule is what makes P symmetric: without
# it, detailed balance fails on this instance. Criterion 3 of
# tests/test_acceptance.py checks that regression on P3 and C4.

# Exact TV curve, with the maximum over start states taken exactly via
# symmetry: TV from a start is invariant under rotations/reflections of the
# cycle and relabelings of the colors, so orbit representatives suffice.
reps = lg.symmetry_reduced_starts(space, lg.cycle_automorphisms(4))
print(f"\n{space.size} start states reduce to {len(reps)} orbit representatives")

curve = lg.tv_curve(P, space, starts=reps, stop_tv=0.01, max_rounds=500)
for eps in (0.5, 0.25, 0.1, 0.05, 0.01):
    res = lg.exact_mixing_time(P, space, eps, curve=curve)
    print(f"  exact mixing time at eps={eps:<5}: {res.rounds} rounds")

ratios = curve.max_tv[1:] / curve.max_tv[:-1]
print(f"late-time TV decay ratio per round: {ratios[-1]:.4f} "
      f"(geometric decay, hence mixing ~ log(1/eps))")

# From an improper start the improper mass dies off monotonically.
masses = lg.improper_mass_curve(P, space, start_index=0, rounds=60)
print(f"improper-state mass from the all-zeros start: "
      f"t=0: {masses[0]:.3f}  t=20: {masses[20]:.3e}  t=60: {masses[60]:.3e}")
