"""Leakage quantification: Fisher information, mutual information, Pearson
correlation, the NIST runs test, the Cramer-von Mises distance, and the
White / Breusch-Pagan heteroskedasticity tests used to certify the noise
generator.

Estimator choices favor determinism: a per-level Gaussian approximation
with finite-difference scores for FI, and a histogram plug-in with
Miller-Madow bias correction for MI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from . import _kernels
from .errors import DomainError


@dataclass(frozen=True)
class LabeledSamples:
    """Paired (secret label, leaked observable) samples."""

    secret: np.ndarray
    leaked: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.secret, dtype=float)
        l = np.asarray(self.leaked, dtype=float)
        object.__setattr__(self, "secret", s)
        object.__setattr__(self, "leaked", l)
        if s.shape != l.shape or s.ndim != 1:
            raise DomainError("secret and leaked must be 1-D arrays of equal length")

    def levels(self) -> np.ndarray:
        return np.unique(self.secret)


def fisher_information(
    samples: LabeledSamples, var_floor: float = 1e-9, flags: dict | None = None
) -> float:
    """Mean-squared score of the per-level Gaussian approximation.

    The mean response is differentiated across the ordered secret levels
    with central finite differences; a singular per-level variance is
    floored (and flagged) rather than letting the ratio blow up.
    """
    levels = samples.levels()
    if levels.size < 2:
        raise DomainError("need at least two secret levels")
    mu = np.array([samples.leaked[samples.secret == t].mean() for t in levels])
    var = np.array([samples.leaked[samples.secret == t].var() for t in levels])
    if np.any(var < var_floor) and flags is not None:
        flags["variance_floored"] = True
    var = np.maximum(var, var_floor)
    dmu = np.gradient(mu, levels)
    return float(np.mean(dmu * dmu / var))


def _fd_bins(values: np.ndarray) -> int:
    iqr = np.subtract(*np.percentile(values, [75, 25]))
    if iqr <= 0:
        return max(1, min(64, np.unique(values).size))
    width = 2 * iqr / (values.size ** (1 / 3))
    span = values.max() - values.min()
    return max(1, min(512, int(np.ceil(span / width))))


def mutual_information(samples: LabeledSamples, flags: dict | None = None) -> float:
    """Histogram plug-in MI in bits with Miller-Madow bias correction."""
    x = samples.secret
    y = samples.leaked
    n = x.size
    if y.max() == y.min():
        if flags is not None:
            flags["degenerate_leaked"] = True
        return 0.0
    x_levels = samples.levels()
    xi = np.searchsorted(x_levels, x)
    n_bins = _fd_bins(y)
    yi = np.clip(
        ((y - y.min()) / (y.max() - y.min()) * n_bins).astype(int), 0, n_bins - 1
    )
    joint = np.zeros((x_levels.size, n_bins))
    np.add.at(joint, (xi, yi), 1.0)
    joint /= n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log2(joint[nz] / np.outer(px, py)[nz])))
    k_xy = int(np.count_nonzero(joint))
    k_x = int(np.count_nonzero(px))
    k_y = int(np.count_nonzero(py))
    mi += ((k_x - 1) + (k_y - 1) - (k_xy - 1)) / (2 * n * math.log(2))
    return max(0.0, mi)


def pearson_cc(samples: LabeledSamples) -> float:
    x, y = samples.secret, samples.leaked
    if x.size < 3:
        raise DomainError("need at least 3 samples")
    if x.std() == 0 or y.std() == 0:
        raise DomainError("correlation undefined for zero variance")
    return float(np.corrcoef(x, y)[0, 1])


def runs_test(bits, flags: dict | None = None) -> float:
    """NIST SP 800-22 runs test p-value with the proportion pre-test."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n = bits.size
    if n < 2:
        raise DomainError("need at least 2 bits")
    pi = bits.mean()
    if abs(pi - 0.5) >= 2 / math.sqrt(n):
        if flags is not None:
            flags["proportion_pretest_failed"] = True
        return 0.0
    v = _kernels.runs_count(bits)
    num = abs(v - 2 * n * pi * (1 - pi))
    den = 2 * math.sqrt(2 * n) * pi * (1 - pi)
    return float(math.erfc(num / den))


def cvm_test(sample, reference_cdf) -> float:
    """One-sample Cramer-von Mises omega^2 against a reference cdf."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    if n < 2:
        raise DomainError("need at least 2 samples")
    f = np.clip(reference_cdf(xs), 0.0, 1.0)
    i = np.arange(1, n + 1)
    return float(1 / (12 * n) + np.sum((f - (2 * i - 1) / (2 * n)) ** 2))


CVM_CRIT_5PCT = 0.461  # asymptotic 5% critical value of omega^2


def _aux_regression_pvalue(design: np.ndarray, resid2: np.ndarray, df: int) -> float:
    coef, *_ = np.linalg.lstsq(design, resid2, rcond=None)
    fitted = design @ coef
    ss_res = np.sum((resid2 - fitted) ** 2)
    ss_tot = np.sum((resid2 - resid2.mean()) ** 2)
    if ss_tot <= 0:
        return 1.0
    r2 = 1 - ss_res / ss_tot
    lm = resid2.size * r2
    return float(sps.chi2.sf(lm, df))


def heteroskedasticity_tests(x, residuals, flags: dict | None = None) -> dict:
    """White and Breusch-Pagan auxiliary-regression p-values.

    Small p means the squared residuals move with x, i.e. the variance is
    not constant.
    """
    x = np.asarray(x, dtype=float)
    resid = np.asarray(residuals, dtype=float)
    if x.shape != resid.shape or x.ndim != 1:
        raise DomainError("x and residuals must be 1-D arrays of equal length")
    if x.std() == 0:
        if flags is not None:
            flags["collinear"] = True
        return {"white_p": float("nan"), "bp_p": float("nan")}
    r2 = resid * resid
    ones = np.ones_like(x)
    bp = _aux_regression_pvalue(np.column_stack([ones, x]), r2, df=1)
    white = _aux_regression_pvalue(np.column_stack([ones, x, x * x]), r2, df=2)
    return {"white_p": white, "bp_p": bp}


def block_variance_regressor(stream, block: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, residuals) pairing each draw with its block's leave-one-out variance.

    Under block-wise variance structure the squared residual tracks the
    sibling variance; for an i.i.d. stream the leave-one-out estimate is
    independent of the draw, so the auxiliary regression stays flat.
    """
    stream = np.asarray(stream, dtype=float)
    n = (stream.size // block) * block
    draws = stream[:n].reshape(-1, block)
    resid = draws - draws.mean()
    sums = resid.sum(axis=1, keepdims=True)
    sq_sums = (resid * resid).sum(axis=1, keepdims=True)
    loo_mean = (sums - resid) / (block - 1)
    loo_var = (sq_sums - resid * resid) / (block - 1) - loo_mean * loo_mean
    return loo_var.ravel(), resid.ravel()


def extract_bits(fields: dict[str, np.ndarray]) -> np.ndarray:
    """Leakage bitstream: LSBs of each varying integer field, concatenated.

    Constant fields are dropped; a channel with zero variance carries no
    leakage and would only wreck the proportion pre-test.
    """
    parts = []
    for name in sorted(fields):
        vals = np.asarray(fields[name]).astype(np.int64)
        if vals.size and vals.max() != vals.min():
            parts.append((vals & 1).astype(np.uint8))
    if not parts:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(parts)


@dataclass
class MetricReport:
    """Per-scheme, per-observable leakage metrics plus reference floors."""

    rows: dict = field(default_factory=dict)
    reference: str = "random"

    def add(self, scheme: str, observable: str, metrics: dict) -> None:
        self.rows.setdefault(scheme, {})[observable] = metrics

    def get(self, scheme: str, observable: str) -> dict:
        return self.rows[scheme][observable]

    def to_json(self) -> dict:
        return {"reference": self.reference, "rows": self.rows}
