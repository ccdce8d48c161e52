"""Two-sample Student t-test (pooled variance) used to compare per-method
missing-rate samples.

Samples with identical means are flagged instead of tested, mirroring the
"(-)" marker convention in the comparison tables. Two zero-variance samples
with different means get the test's limit: statistic +-inf and p-value 0.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .core import real_array

IDENTICAL_MEANS_TOL = 1e-12


@dataclass
class TTestResult:
    statistic: float | None
    p_value: float | None
    identical_means: bool


def student_t_two_sided_pvalue(t: float, df: float) -> float:
    """P(|T| >= t) for Student's t, via the regularized incomplete beta."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


def two_sample_ttest(a, b) -> TTestResult:
    """Two-sided two-sample Student t-test with pooled variance (na + nb - 2 df)."""
    a, b = real_array(a, "sample a"), real_array(b, "sample b")
    if a.size < 2 or b.size < 2:
        raise ValueError(f"each sample needs >= 2 values, got {a.size} and {b.size}")
    for name, x in (("a", a), ("b", b)):
        if not np.isfinite(x).all():
            raise ValueError(f"sample {name} holds a non-finite value: {x[~np.isfinite(x)][0]}")
    mean_a, mean_b = a.mean(), b.mean()
    if abs(mean_a - mean_b) <= IDENTICAL_MEANS_TOL:
        return TTestResult(statistic=None, p_value=None, identical_means=True)
    na, nb = a.size, b.size
    pooled = ((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / (na + nb - 2)
    scale = pooled * (1.0 / na + 1.0 / nb)
    if scale == 0.0:  # both samples constant, means differ: the test's limit
        return TTestResult(statistic=float(np.copysign(np.inf, mean_a - mean_b)), p_value=0.0, identical_means=False)
    t = (mean_a - mean_b) / np.sqrt(scale)
    return TTestResult(statistic=float(t), p_value=student_t_two_sided_pvalue(t, na + nb - 2), identical_means=False)
