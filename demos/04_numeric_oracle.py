"""
The independent eigensolver oracle
==================================

A second-order central-difference image of -(1/w^2) d^2/dx^2 + V on the
interior grid, solved by Sturm counts, safeguarded Newton and a
bisection finish, confirms the closed-form eigenvalues n(n+2k) without
touching the exact polynomial machinery.
"""

from susy_pt import ModelParams, delta_eigenvalues_fd, discretize_delta, eigenvalues_lowest

p = ModelParams(omega=1.0, epsilon=1.0, k=2.0)

# --- eigenvalues at a fixed resolution ---------------------------------
n_points = 2048
lams = eigenvalues_lowest(discretize_delta(p, "minus", n_points), 5)
print(f"discretized V_-(k=2), N={n_points}: lowest eigenvalues vs n(n+2k)")
for n, lam in enumerate(lams):
    exact = n * (n + 4.0)
    print(f"  n={n}: {lam:12.8f}  exact {exact:5.1f}  error {lam - exact:+.2e}")

# --- partner potential: same spectrum shifted by one level -------------
plus = eigenvalues_lowest(discretize_delta(p, "plus", n_points), 4)
print("\ndiscretized V_+(k=2): lowest eigenvalues (match V_- levels 1..4)")
for j, lam in enumerate(plus):
    print(f"  {lam:12.8f}  vs V_- level {j+1}: {lams[j+1]:12.8f}")

# --- second-order convergence ------------------------------------------
print("\nerror of the n=1 level halves its step: ratio should be ~4")
errs = {}
for n_pts in (512, 1024, 2048):
    lam = eigenvalues_lowest(discretize_delta(p, "minus", n_pts), 2)[1]
    errs[n_pts] = abs(lam - 5.0)
    print(f"  N={n_pts:5d}: error {errs[n_pts]:.3e}")
print(f"  ratios: {errs[512]/errs[1024]:.3f}, {errs[1024]/errs[2048]:.3f}")

# --- Richardson extrapolation buys ~3 more digits -----------------------
plain = delta_eigenvalues_fd(p, "minus", 5, 2048)
sharp = delta_eigenvalues_fd(p, "minus", 5, 2048, richardson=True)
print("\nRichardson over (N, 2N):")
for n, (a, b) in enumerate(zip(plain, sharp)):
    exact = n * (n + 4.0)
    print(f"  n={n}: plain error {abs(a-exact):.2e}  extrapolated {abs(b-exact):.2e}")
