"""Weighted differences Z = p rho1 - q rho2.

The weighted limiting density is obtained by inverting its cubic
Cauchy-transform equation at all grid points at once, in real arithmetic
on the real axis; the support edges are the real roots of that cubic's
discriminant.  The
spectrum is no longer symmetric; its mean is p - q in original units
(1 - eta for the normalized matrix).
"""

import numpy as np

from rmtdiff import EnsembleParams, aed_curve, pooled_spectrum
from rmtdiff.asym_law import find_support_numeric
from rmtdiff.harness import run_hist
from rmtdiff.montecarlo import l1_distance

for c, eta, n, m in ((1.0, 0.2, 50, 50), (0.5, 2.0, 50, 100)):
    intervals = find_support_numeric(c, eta)
    print(f"c={c}, eta={eta}: discriminant support {[(round(a,3), round(b,3)) for a, b in intervals]}")
    xs = np.linspace(intervals[0][0], intervals[-1][1], 1001)
    dens = aed_curve(xs, c, eta)
    mean = float(np.trapezoid(dens * xs, xs))
    print(f"  mass={np.trapezoid(dens, xs):.5f}  mean={mean:.5f}  (expect {1 - eta})")

    params = EnsembleParams(n_small=n, m_large=m, weight_q=eta, seed=404)
    hist, overlay, theory = run_hist(params, 3000, 60)
    print(f"  L1(MC {n}x{m}, weighted limiting density) = "
          f"{l1_distance(hist, overlay.density):.4f}")

# pooled mean of the rescaled spectrum estimates 1 - eta as well
params = EnsembleParams(n_small=40, m_large=40, weight_q=0.2, seed=405)
pool = pooled_spectrum(params, 2000, rescaled=True)
print(f"\npooled rescaled mean at eta=0.2: {pool.mean():.5f} (expect 0.8)")
