"""Deformation functions f for the nonlinear evolution i*drho/dt = [H, f(rho)].

Any f with f(0) = 0 and f(1) = 1 leaves pure states on linear trajectories.
Two families are provided: the power law f(x) = x**q (0 < q < inf) and finite
coefficient series f(x) = sum_k c_k x**k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_ENDPOINT_TOL = 1e-12


class DeformationFunction:
    """Common interface: f(x) and the divided difference of f, which is
    f'(x) at a == b == x."""

    def f(self, x):
        raise NotImplementedError

    def divided_difference(self, a, b):
        """(f(a) - f(b)) / (a - b) elementwise, with the derivative limit f'
        where a == b. Both families evaluate it without cancellation, so no
        pair, however close, needs a threshold.

        Where the derivative limit itself diverges (power law with q < 1 at
        zero) the entry is set to 0; the commutator it feeds vanishes there
        regardless. That rule is reached by pairs of exact zeros: every
        validated state has its round-off eigenvalues set to exactly 0,
        because a pair such as (0, 2e-19) would take the finite limit
        f'(1e-19), of order 1e9 at q = 0.5.
        """
        out = self._divided_difference(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if out.ndim == 0:
            return float(out)
        return out

    def _divided_difference(self, a, b):
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLaw(DeformationFunction):
    """f(x) = x**q with finite q > 0, so that f(0) = 0 and f(1) = 1."""

    q: float

    def __post_init__(self):
        if not 0 < self.q < np.inf:
            raise DomainError(f"power-law exponent must be positive and finite, got q={self.q}")

    def _domain(self, x):
        """x itself for integer q; for non-integer q, x >= 0 up to a
        round-off window that is clipped to 0."""
        x = np.asarray(x, dtype=float)
        if float(self.q) == int(self.q):
            return x
        if np.any(x < -_ENDPOINT_TOL):
            raise DomainError(
                f"x**q with non-integer q={self.q} needs x >= 0; "
                f"got min {float(np.min(x)):.3e}"
            )
        return np.clip(x, 0.0, None)

    def f(self, x):
        return self._domain(x) ** self.q

    def _divided_difference(self, a, b):
        # With hi = max(a, b) and r = (lo - hi)/hi in [-1, 0], the ratio is
        # hi**(q-1) * ((1 + r)**q - 1) / r; expm1(q*log1p(r)) gives the
        # numerator without cancellation, so no pair needs a threshold.
        a, b = self._domain(a), self._domain(b)
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        # over: q log1p(r) at extreme q, whose limit expm1(-inf) = -1 is exact
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = (lo - hi) / hi
            scale = hi ** (self.q - 1.0)
            out = scale * np.expm1(self.q * np.log1p(r)) / r
            if np.any(lo < 0.0):
                # negative arguments (integer q only): plain ratio
                out = np.where(lo < 0.0, (self.f(a) - self.f(b)) / (a - b), out)
            limit = self.q * scale  # f'(a) where a == b
        return np.where(a == b, np.where(np.isfinite(limit), limit, 0.0), out)


@dataclass(frozen=True)
class CoefficientSeries(DeformationFunction):
    """f(x) = sum_{k>=1} coeffs[k-1] * x**k with sum(coeffs) = 1.

    The constant term is absent by construction (f(0) = 0); f(1) = 1 is
    checked at construction.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise DomainError("coefficient series needs at least one term")
        if abs(sum(self.coeffs) - 1.0) > _ENDPOINT_TOL:
            raise DomainError(
                f"series must satisfy f(1)=1; sum of coefficients is {sum(self.coeffs)!r}"
            )

    def f(self, x):
        x = np.asarray(x, dtype=float)
        return sum(c * x**k for k, c in enumerate(self.coeffs, start=1))

    def _divided_difference(self, a, b):
        # sum_k c_k (a^k - b^k)/(a - b) = sum_k c_k s_k with s_1 = 1 and
        # s_k = a s_(k-1) + b^(k-1), the sum of a^j b^(k-1-j): no division,
        # so exact at every gap, a == b (where it is f'(a)) included
        s, b_pow, out = 0.0, 1.0, np.zeros(np.broadcast(a, b).shape)
        for c in self.coeffs:
            s, b_pow = a * s + b_pow, b_pow * b
            out += c * s
        return out
