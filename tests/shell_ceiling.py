"""A-priori ceiling on the operator-norm lower bounds of the maximal probes.

For f sampled on (-half_width, half_width) the frequency grid is
xi_j = pi j / half_width with step dxi = pi / half_width, the synthesized
value of the evolved projection at any point y and time t is

    S_t P_k f(y) = (1 / 2 pi) sum_j psi_k(xi_j) f_hat_j exp(i (y xi_j + t Phi(xi_j))) dxi,

and Parseval reads ||f||_2^2 = sum_j |f_hat_j|^2 dxi / (2 pi).  Cauchy-Schwarz
over j bounds |S_t P_k f(y)| by sqrt(sum_j psi_k(xi_j)^2 dxi / (2 pi)) ||f||_2
for every (y, t) and every direction, and the Riemann L^q norm over I = (-1, 1)
is at most |I|^(1/q) times the supremum.  The resulting ceiling B_k ignores
dispersion entirely, so it grows like 2^(k/2).

psi_sq_mass gives the reference value of int psi^2 over the real line, the
diagonal of the TT* kernel, by adaptive quadrature of the package's own psi.
"""

import numpy as np
from scipy.integrate import quad

from dispmax.filters import psi, psi_k

INTERVAL_LENGTH = 2.0  # |I| for I = (-1, 1), the window of lq_norm


def shell_ceiling(k, q, half_width):
    """Upper bound B_k on any witnessed lq(M_Omega P_k f) / ||f||_2."""
    dxi = np.pi / half_width
    top = int(np.ceil(2.0**k / dxi))  # psi_k vanishes for |xi| >= 2^k
    xi = dxi * np.arange(-top, top + 1)
    mass = float(np.sum(psi_k(k, xi) ** 2)) * dxi / (2.0 * np.pi)
    return float(INTERVAL_LENGTH ** (1.0 / q) * np.sqrt(mass))


def psi_sq_mass():
    """int psi^2 over the real line: twice the integral over (1/2, 2)."""
    mass, _ = quad(lambda u: psi(u) ** 2, 0.5, 2.0, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * mass
