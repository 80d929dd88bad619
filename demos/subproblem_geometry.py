"""
One trust-region step under the microscope
==========================================

The design loop replaces one vector at a time by solving a small convex
minimax problem inside a ball around the old vector. On the simplex ETF
the answer is known in closed form, which makes the geometry easy to see.
"""

import numpy as np

from incoframes import make_simplex_etf, solve_subproblem, subproblem

etf = make_simplex_etf(3)
i = 0
h = etf.vectors[:, i]

# `subproblem` builds the instance exactly as the design loop's sweep does.
# It flips neighbor signs so every correlation with the reference is
# non-negative (a flip never changes |corr|), and it caps the radius by the
# nearest neighbor: the ball must stay clear of the slab where that
# neighbor's correlation would exceed the current one.
problem = subproblem(etf, i)
radius_sq = problem.radius_sq
print(f"reference vector h = {np.round(h, 4)}")
print(f"squared trust radius T = {radius_sq:.6f}")
sol = solve_subproblem(problem)

root = np.sqrt(radius_sq)
print(f"\nsolver certified after {sol.iterations} working-set changes, "
      f"worst KKT residual {sol.residuals.worst():.2e}")
print(f"f* = {np.round(sol.f, 6)}")
print(f"closed form (1 - sqrt(T)) h = {np.round((1 - root) * h, 6)}")
print(f"worst correlation t* = {sol.t:.6f}, closed form {(1 - root) / 3:.6f}")

# The optimum sits exactly on the ball boundary and shrinks the vector
# toward the origin; normalizing it afterwards is what lowers the
# correlations against all three neighbors at once.
dist = float((sol.f - h) @ (sol.f - h))
print(f"\ndistance^2 to reference: {dist:.9f} (= T on the boundary)")
print(f"norm of f*: {np.linalg.norm(sol.f):.6f} (shrunk from 1)")

# Every neighbor plane is active here, so the multipliers split evenly
# and certify that no direction can improve the worst correlation.
print(f"plane multipliers lambda = {np.round(sol.lam, 6)} (sum {sol.lam.sum():.6f})")
print(f"ball multiplier = {sol.lam_ball:.6f}")
print(f"KKT residuals: {sol.residuals}")
