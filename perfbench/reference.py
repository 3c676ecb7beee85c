"""Independent references for oracle-fd and states-highn, run in a
separate process so that scipy stays out of the measured one.

    python3 perfbench/reference.py REQUESTS.json SAMPLES.f64

REQUESTS.json is a list of requests; SAMPLES.f64 holds, back to back,
the 2001 float64 samples of every "state" request, in order.  Prints a
JSON list with one error per request:

- "fd": scaled disagreement max |lam - ref| / (1 + |ref|) between the
  returned eigenvalues and scipy's eigenvalues of the same
  finite-difference matrix, built here from the documented formula
  (Richardson-combined the same way when requested).
- "state": scaled error max |U - U_ref| / max |U_ref| of the samples
  against cos^k(wx) C_n^(k)(sin wx) / sqrt(h_n / w), with
  h_n = pi Gamma(n+2k) / (2^(2k-1) n! (n+k) Gamma(k)^2).
"""

import json
import math
import sys

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import eval_gegenbauer, gammaln

SAMPLES = 2001
# absolute bisection tolerance; scipy's default, eps * ||T||, is ~6e-5 at
# N = 16384, k = 100, where the tan^2 wall dominates the norm
FD_ABSTOL = 1e-9


def fd_eigenvalues(k: float, pot: str, n_points: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of -(d^2/dx^2) + V on the uniform interior grid
    of (-pi/2, pi/2) (omega = epsilon = 1), Dirichlet ends."""
    half = math.pi / 2.0
    h = 2.0 * half / (n_points + 1)
    x = -half + h * np.arange(1, n_points + 1)
    t2 = np.tan(x) ** 2
    v = k * (k - 1.0) * t2 - k if pot == "minus" else k * (k + 1.0) * t2 + k
    scale = 1.0 / h**2
    return eigvalsh_tridiagonal(
        2.0 * scale + v, np.full(n_points - 1, -scale), select="i", select_range=(0, count - 1),
        tol=FD_ABSTOL,
    )


def fd_error(req: dict) -> float:
    lam = np.array(req["values"])
    n1 = req["n_points"]
    ref = fd_eigenvalues(req["k"], req["pot"], n1, lam.size)
    if req["richardson"]:
        n2 = 2 * n1
        r2 = ((n2 + 1) / (n1 + 1)) ** 2
        ref = (r2 * fd_eigenvalues(req["k"], req["pot"], n2, lam.size) - ref) / (r2 - 1.0)
    return float(np.max(np.abs(lam - ref) / (1.0 + np.abs(ref))))


def state_values(n: int, k: float, epsilon: float) -> np.ndarray:
    half = math.pi / (2.0 * epsilon)
    wx = epsilon * np.linspace(-half, half, SAMPLES)
    cos = np.cos(wx)
    log_h = (
        math.log(math.pi) + gammaln(n + 2.0 * k) - (2.0 * k - 1.0) * math.log(2.0)
        - gammaln(n + 1.0) - math.log(n + k) - 2.0 * gammaln(k)
    )
    # envelope and norm in log space: cos^k underflows and h_n overflows at large k
    with np.errstate(divide="ignore"):
        log_env = k * np.log(np.maximum(cos, 0.0))
    return np.exp(log_env - 0.5 * (log_h - math.log(epsilon))) * eval_gegenbauer(n, k, np.sin(wx))


def state_error(req: dict, samples: np.ndarray) -> float:
    ref = state_values(req["n"], req["k"], req["epsilon"])
    return float(np.max(np.abs(samples - ref)) / np.max(np.abs(ref)))


def main(argv) -> int:
    requests_path, samples_path = argv
    with open(requests_path) as fh:
        requests = json.load(fh)
    samples = np.fromfile(samples_path, dtype=np.float64)
    errors, offset = [], 0
    for req in requests:
        if req["type"] == "fd":
            errors.append(fd_error(req))
        else:
            errors.append(state_error(req, samples[offset:offset + SAMPLES]))
            offset += SAMPLES
    if offset != samples.size:
        raise ValueError(f"{samples.size} samples for {offset // SAMPLES} state requests")
    json.dump(errors, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
