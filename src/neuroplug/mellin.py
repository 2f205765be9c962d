"""The product-of-random-variables engine and the attacker's search space.

The adversary models an observation as Y = beta*X + alpha and predicts
X = (Y - alpha) * (1/beta).  With U = Y - alpha and V = 1/beta, X = U*V,
and the transform of the product is the pointwise product of transforms.
Numerically everything runs on an exponential grid: cubic-spline
resampling, multiplication by exp(c*t), then an FFT gives the Mellin
transform along the vertical line Re(s) = c.  The quadratic-cost Riemann
sum and the Monte-Carlo product that check this path are test oracles
(tests/oracles.py).  The predicted density is then restricted to NSQF
integers (the smart search space) and the true value's rank measures the
per-layer guessing effort.  That restriction folds the candidate range
block by block, each block ending on the boundary between two NSQF
integers' catchments, so its memory is the result plus one bounded block
however wide the range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import DomainError, EvidenceError, SupportError
from .model import nsqf_mask

DEFAULT_C = 1.5
DEFAULT_N = 1 << 14
_FOLD_BLOCK = 1 << 14  # NSQF targets per block of smart_search_space's fold


@dataclass(frozen=True)
class GridPdf:
    """Density sampled on a strictly increasing positive grid."""

    x: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        x, f = np.asarray(self.x, float), np.asarray(self.f, float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)
        if x.ndim != 1 or x.shape != f.shape or x.size < 2:
            raise DomainError("grid and density must be 1-D arrays of equal length >= 2")
        if x[0] <= 0:
            raise DomainError("support must be strictly positive")
        if np.any(np.diff(x) <= 0):
            raise DomainError("grid must be strictly increasing")
        if np.any(f < 0) or not np.all(np.isfinite(f)):
            raise DomainError("density must be finite and nonnegative")

    def weights(self) -> np.ndarray:
        """Trapezoid-rule integration weights for this grid."""
        w = np.empty_like(self.x)
        w[1:-1] = (self.x[2:] - self.x[:-2]) / 2
        w[0] = (self.x[1] - self.x[0]) / 2
        w[-1] = (self.x[-1] - self.x[-2]) / 2
        return w

    def mass(self) -> float:
        return float(np.sum(self.f * self.weights()))

    def normalized(self) -> "GridPdf":
        m = self.mass()
        if m <= 0:
            raise DomainError("cannot normalize zero mass")
        return GridPdf(self.x, self.f / m)

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int = 512) -> "GridPdf":
        x = np.linspace(lo, hi, n)
        return cls(x, np.full(n, 1.0 / (hi - lo)))


@dataclass(frozen=True)
class MellinFn:
    """Transform values along the line Re(s) = c on an FFT frequency grid."""

    s: np.ndarray
    values: np.ndarray
    c: float
    t0: float
    dt: float

    @property
    def n(self) -> int:
        return self.s.size

    def invert(self) -> GridPdf:
        """Inverse along the same exponential-grid Fourier pipeline."""
        omega = self.s.imag
        v = self.values * np.exp(-1j * omega * self.t0) / self.dt
        g = np.fft.fft(v / self.n)
        t = self.t0 + self.dt * np.arange(self.n)
        f = np.real(g) * np.exp(-self.c * t)
        return GridPdf(np.exp(t), np.maximum(f, 0.0))


def _resample_log(pdf: GridPdf, t: np.ndarray) -> np.ndarray:
    """Cubic-spline interpolation of the density onto x = exp(t)."""
    spline = CubicSpline(pdf.x, pdf.f, extrapolate=False)
    vals = spline(np.exp(t))
    return np.maximum(np.nan_to_num(vals, nan=0.0), 0.0)


def _fft_on_grid(pdf: GridPdf, c: float, t0: float, dt: float, n: int) -> MellinFn:
    t = t0 + dt * np.arange(n)
    g = _resample_log(pdf, t) * np.exp(c * t)
    omega = 2 * np.pi * np.fft.fftfreq(n, d=dt)
    vals = dt * np.exp(1j * omega * t0) * n * np.fft.ifft(g)
    return MellinFn(s=c + 1j * omega, values=vals, c=c, t0=t0, dt=dt)


def reciprocal_pdf(beta: GridPdf) -> GridPdf:
    """Density of V = 1/beta by change of variables.

    The input is first resampled onto a geometric grid so the reflected
    grid stays well conditioned and the mass drift stays below 1e-6.
    """
    if beta.x[0] < 1e-12:
        raise DomainError("support touching zero has no reciprocal density")
    x = np.geomspace(beta.x[0], beta.x[-1], max(4 * beta.x.size, 4096))
    f = np.interp(x, beta.x, beta.f)
    v = 1.0 / x[::-1]
    f_v = f[::-1] * (x[::-1] ** 2)  # f_beta(1/v) / v^2 with x = 1/v
    return GridPdf(v, f_v)


def product_pdf(u: GridPdf, v: GridPdf) -> GridPdf:
    """Density of X = U*V for independent positive U, V."""
    span_u = math.log(u.x[-1] / u.x[0])
    span_v = math.log(v.x[-1] / v.x[0])
    dt = (span_u + span_v) * 1.10 / (DEFAULT_N // 2)
    mu = _fft_on_grid(u, DEFAULT_C, math.log(u.x[0]) - 2 * dt, dt, DEFAULT_N)
    mv = _fft_on_grid(v, DEFAULT_C, math.log(v.x[0]) - 2 * dt, dt, DEFAULT_N)
    prod = MellinFn(
        s=mu.s,
        values=mu.values * mv.values,
        c=DEFAULT_C,
        t0=mu.t0 + mv.t0,
        dt=dt,
    )
    return prod.invert().normalized()


def shift_pdf(y_obs: float, alpha_prior: GridPdf) -> GridPdf:
    """Density of U = y - alpha."""
    if y_obs <= alpha_prior.x[-1]:
        raise EvidenceError(
            f"observation {y_obs} inside the additive prior support (max {alpha_prior.x[-1]})"
        )
    u = y_obs - alpha_prior.x[::-1]
    return GridPdf(u, alpha_prior.f[::-1])


def predict_X(y_obs: float, alpha_prior: GridPdf, beta_prior: GridPdf) -> GridPdf:
    """Adversary's predicted density of X given one observed Y."""
    return product_pdf(shift_pdf(y_obs, alpha_prior), reciprocal_pdf(beta_prior))


# ---------------------------------------------------------------------------
# smart search space and rank


@dataclass(frozen=True)
class SmartPmf:
    """Probability mass restricted to the NSQF integers of a range."""

    values: np.ndarray  # ascending NSQF integers
    pmf: np.ndarray


def smart_search_space(h: GridPdf, lo: int, hi: int) -> SmartPmf:
    """Interpolate h onto the integers of [lo, hi] and fold every
    non-NSQF integer's mass into its nearest NSQF integer (ties go low).

    The fold walks the NSQF integers _FOLD_BLOCK at a time.  A block's
    integers run from just past the midpoint with the previous NSQF integer
    to the midpoint with the next, so every block ends on a catchment
    boundary and each integer's mass is added to its target in range
    order, as one pass over the whole range would add it.  Beyond the
    result, the fold holds one block's integers at a time.
    """
    pos = np.flatnonzero(nsqf_mask(lo, hi))  # offsets of the NSQF integers from lo
    if pos.size == 0:
        raise DomainError(f"no NSQF integers in [{lo}, {hi}]")
    interp = PchipInterpolator(h.x, h.f, extrapolate=False)
    pmf = np.empty(pos.size)
    start = 0
    for j in range(0, pos.size, _FOLD_BLOCK):
        p = pos[j : j + _FOLD_BLOCK + 1]  # the block's targets and the next one
        k = min(p.size, _FOLD_BLOCK)
        # nearest NSQF passes from p[i] to p[i+1] at the first integer past
        # their midpoint; the last catchment runs to hi
        ends = (p[:-1] + p[1:]) // 2 + 1
        if ends.size < k:
            ends = np.append(ends, hi - lo + 1)
        m = interp(np.arange(lo + start, lo + ends[-1], dtype=float))
        np.fmax(m, 0.0, out=m)  # outside h's support is NaN: no mass
        target = np.repeat(np.arange(k), np.diff(ends, prepend=start))
        pmf[j : j + k] = np.bincount(target, weights=m, minlength=k)
        start = int(ends[-1])
    total = pmf.sum()
    if total <= 0:
        raise DomainError("predicted density carries no mass on the candidate range")
    pmf /= total
    pos += lo
    return SmartPmf(values=pos.astype(np.int64, copy=False), pmf=pmf)


def rank(h_smart: SmartPmf, x_r: int) -> int:
    """Position of the true value in the descending-probability guess order.

    Ties resolve toward smaller values, so the rank is deterministic.
    """
    i = int(np.searchsorted(h_smart.values, x_r))
    if i == h_smart.values.size or h_smart.values[i] != x_r:
        raise SupportError(f"{x_r} is not in the candidate support")
    p_r = h_smart.pmf[i]
    higher = int(np.count_nonzero(h_smart.pmf > p_r))
    tied_smaller = int(np.count_nonzero(h_smart.pmf[:i] == p_r))  # values ascend
    return 1 + higher + tied_smaller


@dataclass
class RankResult:
    layer: int
    x_r: int
    rank: int
    n_candidates: int

    def to_json(self) -> dict:
        return {
            "layer": self.layer,
            "x_r": self.x_r,
            "rank": self.rank,
            "candidates": self.n_candidates,
            "log10_choices": math.log10(self.rank),
        }


def search_space_size(per_layer: list[RankResult]) -> float:
    """log10 of the product of per-layer choice counts: an optimal guesser
    burns through rank choices per layer."""
    return float(sum(math.log10(r.rank) for r in per_layer))
