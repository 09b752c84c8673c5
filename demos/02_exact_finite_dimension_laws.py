"""Exact finite-dimension eigenvalue laws for Z = rho1 - rho2.

The diagonal-element density is an explicit orthant-piecewise polynomial;
the derivative principle turns it into the joint eigenvalue density.  This
script dumps the polynomial, verifies the principle on the solvable 2x2
Gaussian ensemble, and evaluates the closed-form single-eigenvalue
marginals at n = 2 and n = 3 against Monte Carlo.
"""

import os

import numpy as np

from rmtdiff import (
    EnsembleParams,
    build_psi_poly,
    derivative_principle_selftest,
    joint_eigen_density,
    n2_exact_density,
    pooled_spectrum,
    single_eigenvalue_marginal,
)

os.makedirs("out", exist_ok=True)

psi = build_psi_poly(2, 2)
psi.to_csv("out/psi_n2_m2.csv")
print(f"psi polynomial for (n, m) = (2, 2): {psi.term_count} monomials per orthant,"
      " dumped to out/psi_n2_m2.csv")

print("derivative principle reproduces the 2x2 Gaussian unitary law:",
      derivative_principle_selftest())

# joint density on the line (t, -t) equals the closed-form marginal
for t in (0.1, 0.3, 0.5):
    j = joint_eigen_density((t, -t), 2, 10)
    m = n2_exact_density(t, 10)
    print(f"t={t}: joint={j:.12f}  closed marginal={m:.12f}")

# Monte Carlo vs the exact n=2 law
params = EnsembleParams(n_small=2, m_large=10, seed=11)
pool = pooled_spectrum(params, 30_000, rescaled=False)
hist, edges = np.histogram(pool, bins=60, range=(-0.8, 0.8), density=True)
centers = 0.5 * (edges[:-1] + edges[1:])
curve = np.array([n2_exact_density(float(x), 10) for x in centers])
l1 = float(np.sum(np.abs(hist - curve)) * (edges[1] - edges[0]))
print(f"L1(exact n=2 law, MC histogram of 30000 draws) = {l1:.4f}")

# n=3: the exact marginal, a polynomial integrated from the joint law, against Monte Carlo
xs = np.linspace(-0.95, 0.95, 39)
marg = single_eigenvalue_marginal(3, 3, xs)
pool3 = pooled_spectrum(EnsembleParams(3, 3, seed=12), 30_000, rescaled=False)
hist3, edges3 = np.histogram(pool3, bins=39, range=(-0.975, 0.975), density=True)
l1_3 = float(np.mean(np.abs(hist3 - marg)) * 1.95)
print(f"L1(n=3 marginal, MC histogram)                 = {l1_3:.4f}")
np.savetxt(
    "out/n3_marginal.csv",
    np.column_stack([xs, marg]),
    delimiter=",",
    header="lambda,density",
    comments="",
)
print("wrote out/n3_marginal.csv")
