"""Parser and evaluator for single-orbital Slater-type-orbital expansions
R(r) = sum_i c_i N_i r^{n_i - 1} e^{-zeta_i r} as tabulated in the
Hartree-Fock-Roothaan literature.

File format: plain text, '#' comments, one `n zeta c` triple per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Overflow
from .gridfn import check_natural


def _log_norm(n: int, zeta: float) -> float:
    """ln of the normalisation of r^{n-1} e^{-zeta r} under int R^2 r^2 dr."""
    return 0.5 * ((2 * n + 1) * math.log(2.0 * zeta) - math.lgamma(2 * n + 1))


def _signed_exp(c, x):
    """c * e^x with ln|c| folded into the exponent, so a value that fits a
    double comes back finite whatever the sizes of c and e^x alone."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.copysign(np.exp(np.log(abs(c)) + x), c)


def _finite(x, what: str):
    if not np.all(np.isfinite(x)):
        raise Overflow(f"{what} lies outside the double range")
    return x


@dataclass(frozen=True)
class HFROrbital:
    terms: tuple  # of (n, zeta, c)

    def __post_init__(self):
        for n, _, _ in self.terms:
            check_natural(n, "principal number n")
        terms = tuple((int(n), float(z), float(c)) for n, z, c in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise DomainError("orbital needs at least one term")
        for n, z, c in terms:
            if n < 1:
                raise DomainError("principal number n must be >= 1")
            if not (0.0 < z < math.inf):
                raise DomainError("zeta must be positive and finite")
            if not math.isfinite(c):
                raise DomainError("coefficients must be finite")
        if not any(c for _, _, c in terms):
            raise DomainError("orbital has no nonzero coefficient")

    def radial(self, r):
        """R(r) for r >= 0, each term formed in log form."""
        rs = np.asarray(r, dtype=float)
        if not np.all(rs >= 0.0):
            raise DomainError("r must be non-negative and not NaN")
        # ln r^(n-1) is -inf at r = 0 for n > 1, and 0 for n = 1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_r = np.log(rs)
            out = sum(_signed_exp(c, _log_norm(n, z)
                                  + ((n - 1) * log_r if n > 1 else 0.0)
                                  - z * rs) for n, z, c in self.terms)
        return _finite(out, "orbital value")

    def _moment(self, k: int) -> float:
        """int_0^inf R(r)^2 r^k dr, exactly: a sum over term pairs of
        int r^m e^{-s r} dr = m! / s^{m+1}, every pair formed in log form
        by one array call."""
        c, x = zip(*[(ci * cj, _log_norm(ni, zi) + _log_norm(nj, zj)
                      + math.lgamma(ni + nj - 1 + k)
                      - (ni + nj - 1 + k) * math.log(zi + zj))
                     for ni, zi, ci in self.terms for nj, zj, cj in self.terms])
        pairs = _finite(_signed_exp(np.array(c), np.array(x)),
                        f"a term of moment {k}").tolist()
        try:
            return math.fsum(pairs)
        except OverflowError as exc:
            raise Overflow(f"moment {k} lies outside the double range") \
                from exc

    @property
    def norm_sq(self) -> float:
        return self._moment(2)

    @property
    def mean_inv_r(self) -> float:
        """<1/r> from the closed-form moments, normalization included."""
        inv_r, norm_sq = self._moment(1), self.norm_sq
        if not norm_sq > 0.0:
            raise Overflow(f"the norm, {norm_sq!r}, underflows or cancels")
        return inv_r / norm_sq

    @classmethod
    def from_text(cls, text: str) -> "HFROrbital":
        terms = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DomainError(
                    f"orbital file line {ln}: expected 'n zeta c', got {raw!r}"
                )
            try:
                terms.append((int(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise DomainError(f"orbital file line {ln}: {exc}") from exc
        return cls(tuple(terms))

    @classmethod
    def from_file(cls, path) -> "HFROrbital":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())
