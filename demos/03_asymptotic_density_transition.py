"""The limiting rescaled spectral density and its transition at c = 2.

Below c = 2 the density of x = N*lambda fills a single interval; above it a
gap opens around the origin and a point mass of weight 1 - 2/c appears
(rank deficiency: Z has rank at most 2M).  The closed form and the numeric
Stieltjes inversion of the Cauchy-transform cubic agree to ~1e-12.
"""

import numpy as np

from rmtdiff import (
    aed_curve,
    aed_grid,
    aed_symmetric,
    atom_weight,
    cauchy_transform,
    r_transform_sum,
    support_points,
)

for c in (0.5, 1.0, 2.0, 2.5, 5.0):
    x_minus, x_plus = support_points(c)
    gap = f"gap (-{x_minus:.4f}, {x_minus:.4f})" if x_minus else "no gap"
    print(f"c={c}: support edge x_plus={x_plus:.5f}, {gap}, "
          f"atom weight {atom_weight(c):.3f}")

print("\nclosed form vs cubic-root inversion:")
for c in (1.0, 2.5):
    _, xp = support_points(c)
    xs = np.linspace(-1.05 * xp, 1.05 * xp, 401)
    closed = aed_symmetric(xs, c)
    numeric = aed_curve(xs, c)
    print(f"  c={c}: sup|closed - numeric| = {np.max(np.abs(closed - numeric)):.2e}")

# the functional equation linking the transforms, at an arbitrary point
z = 0.8 + 0.6j
g = cauchy_transform(z, 1.5)
print(f"\nR(G(z)) + 1/G(z) - z at z={z}: "
      f"{abs(r_transform_sum(g, 1.5) + 1 / g - z):.2e}")

# tabulate and persist one density (edge-clustered grid, unit total mass)
res = aed_grid(2.5)
res.to_csv("aed_c2p5.csv")
print(f"\nwrote aed_c2p5.csv: atom {res.atom_weight:.3f} + trapezoid "
      f"{res.trapezoid_mass():.6f} = {res.atom_weight + res.trapezoid_mass():.6f}")
