"""Two-sample t-test used to compare per-method missing-rate samples.

Samples with identical means are flagged instead of tested, mirroring the
"(-)" marker convention in the comparison tables. Two zero-variance samples
with different means get the test's limit: statistic +-inf and p-value 0.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

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


def two_sample_ttest(a, b, equal_var: bool = True) -> TTestResult:
    """Two-sided two-sample t-test (pooled variance by default; Welch optional)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError(f"each sample needs >= 2 values, got {a.size} and {b.size}")
    mean_a, mean_b = a.mean(), b.mean()
    if abs(mean_a - mean_b) <= IDENTICAL_MEANS_TOL:
        return TTestResult(statistic=None, p_value=None, identical_means=True)
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    na, nb = a.size, b.size
    if equal_var:
        pooled = ((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2)
        scale = pooled * (1.0 / na + 1.0 / nb)
    else:
        sa, sb = var_a / na, var_b / nb
        scale = sa + sb
    if scale == 0.0:  # both samples constant, means differ: the test's limit
        return TTestResult(statistic=float(np.copysign(np.inf, mean_a - mean_b)), p_value=0.0, identical_means=False)
    df = na + nb - 2 if equal_var else scale**2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    t = (mean_a - mean_b) / np.sqrt(scale)
    return TTestResult(statistic=float(t), p_value=student_t_two_sided_pvalue(t, df), identical_means=False)
