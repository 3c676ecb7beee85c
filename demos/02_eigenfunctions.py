"""
Exact eigenfunctions: envelope times polynomial
===============================================

Level n is U_{k,n}(x) = cos^k(wx) P_n(sin wx) with P_n the degree-n
orthonormal Gegenbauer polynomial of parity (-1)^n, normalized in closed
form.  An eigenstate holds no coefficients: P_n is read from the
three-term recurrence rows on the positions it is evaluated at.
"""

import numpy as np

from susy_pt import ModelParams, build_eigenfunction, evaluate, inner_product, samples

p = ModelParams(omega=1.0, epsilon=1.0, k=2.0)

# --- a few levels: P_n(s) = U_{k,n} / cos^k at a few interior s --------
s_points = np.linspace(-0.9, 0.9, 5)
rec = samples(p, np.arcsin(s_points) / p.hat_omega)
print("s:      ", "  ".join(f"{v:+.6f}" for v in rec.s))
for n in range(4):
    wf = build_eigenfunction(p, n)
    p_n = evaluate(wf, rec) / rec.power(p.k)
    print(f"P_{n}(s): ", "  ".join(f"{v:+.6f}" for v in p_n), f"  (degree {wf.degree})")

# --- values: bell curve at n=0, node structure at higher n -------------
x = np.linspace(-p.half_width, p.half_width, 9)
print("\nsample of U_{2,0} (positive bell, exact zeros at the ends):")
print("  x: ", "  ".join(f"{v:+.3f}" for v in x))
print("  U: ", "  ".join(f"{v:+.3f}" for v in evaluate(build_eigenfunction(p, 0), x)))

grid = np.linspace(-p.half_width * 0.9999, p.half_width * 0.9999, 20001)
for n in range(6):
    vals = evaluate(build_eigenfunction(p, n), grid)
    vals = vals[vals != 0.0]  # a node can land exactly on a grid point
    nodes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
    print(f"interior nodes of U_{{2,{n}}}: {nodes} (equals n)")

# --- orthonormality ----------------------------------------------------
fns = [build_eigenfunction(p, n) for n in range(8)]
gram = np.array([[inner_product(f, g) for g in fns] for f in fns])
print(f"\nGram matrix of the first 8 levels: max |G - I| = {np.max(np.abs(gram - np.eye(8))):.2e}")

# --- definite parity ----------------------------------------------------
xs = np.linspace(0.1, 1.4, 5)
u3 = build_eigenfunction(p, 3)
print("\nodd level n=3: U(-x) = -U(x)")
print("  U(+x):", "  ".join(f"{v:+.5f}" for v in evaluate(u3, xs)))
print("  U(-x):", "  ".join(f"{v:+.5f}" for v in evaluate(u3, -xs)))
