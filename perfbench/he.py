"""The helium 1s orbital behind the `compare-he` runs and the far-field
probes: benchmark input, pure arithmetic, no cuspbc and no mpmath."""

from __future__ import annotations

import math

# Clementi-Roetti He 1s Hartree-Fock-Roothaan orbital: (n, zeta, c)
HE_TERMS = (
    (2, 6.438865513242302, 0.0008103),
    (1, 3.385077039750975, 0.0798826),
    (1, 2.178370004614139, 0.180161),
    (1, 1.4553870053179185, 0.7407925),
    (2, 1.3552466748849417, 0.0272015),
)
HE_ORBITAL_ENERGY = -0.9179556


def sto_norm(n: int, zeta: float) -> float:
    return math.sqrt((2.0 * zeta) ** (2 * n + 1) / math.factorial(2 * n))


def sto_mean_inv_r(terms) -> float:
    """<1/r> in closed form: int r^m e^{-s r} dr = m! / s^(m+1)."""
    def moment(k):
        return math.fsum(
            ci * cj * sto_norm(ni, zi) * sto_norm(nj, zj)
            * math.factorial(ni + nj - 2 + k) / (zi + zj) ** (ni + nj - 1 + k)
            for ni, zi, ci in terms for nj, zj, cj in terms)
    return moment(1) / moment(2)


def probe_parameters() -> tuple[float, float]:
    """(alpha, beta) of compare-he's He 1s run: fixed nucleus, Z = 2,
    W0 = <1/r>, orbital energy -0.9179556 (beta ~ 2.28)."""
    w0 = sto_mean_inv_r(HE_TERMS)
    return -2.0, math.sqrt(2.0 * (w0 - HE_ORBITAL_ENERGY))
