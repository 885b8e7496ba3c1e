"""The surrogate experiment: a geodesic sub-problem against the full problem.

The paper asks whether ranking only the 2-hop sub-problem separates
predictors the way the full problem would. Positives sit at random slots
near the top of each ranking; this module gives the exact AUROC means and
variances of both problems and the sigma separation of their mean AUROCs
over ``trials`` simulations, without drawing a sample.

Pure Python with no numpy: the ``surrogate`` command loads nothing
heavier, and no other command loads this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

# Defined in config, whose defaults read it; importable here too.
from .config import CONDMAT_STANDIN_COUNTS  # noqa: F401
from .errors import ConfigError

SIGMA_FORMULA = "(mean_full - mean_sub) / sqrt(var_full/trials + var_sub/trials)"


@dataclass(frozen=True)
class SurrogateParams:
    """Counts and knobs of the sub-problem vs. full-problem comparison.

    ``alpha`` spreads positives over the top fraction of the ranking (lower
    alpha = stronger predictor); ``beta`` widens the band holding the
    sub-problem's positives inside the full ranking, modeling negatives that
    are not trivially recognizable. The band must fit inside the full
    ranking's top alpha fraction.
    """

    p_sub: int
    n_sub: int
    p_full: int
    n_full: int
    alpha: float
    beta: float
    trials: int = 100_000

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ConfigError("alpha must be in (0, 1]", field="surrogate.alpha")
        if not 1 <= self.beta < math.inf:
            raise ConfigError("beta must be finite and >= 1", field="surrogate.beta")
        if self.p_sub > self.p_full or self.n_sub > self.n_full:
            raise ConfigError("sub-problem counts must not exceed full counts",
                              field="surrogate")
        if min(self.p_sub, self.n_sub, self.trials) < 1:
            raise ConfigError("counts and trials must be positive", field="surrogate")
        if self.slots_sub < self.p_sub:
            raise ConfigError("alpha band smaller than the positive count",
                              field="surrogate.alpha")
        if self.slots_full_band > self.slots_full_tail:
            raise ConfigError(
                "alpha*(p_sub+n_sub)*beta exceeds alpha*(p_full+n_full), the "
                "full ranking's top alpha fraction", field="surrogate.beta")
        if self.p_full > self.slots_full_tail:
            raise ConfigError("not enough free slots for the remaining positives",
                              field="surrogate")

    @property
    def slots_sub(self):
        return self._slots(self.p_sub + self.n_sub)

    @property
    def slots_full_band(self):
        return self._slots(self.p_sub + self.n_sub, self.beta)

    @property
    def slots_full_tail(self):
        return self._slots(self.p_full + self.n_full)

    def _slots(self, count, beta=1):
        """ceil(alpha * count * beta), alpha and beta read as the decimals
        they print as: alpha 0.07 of 100 is 7 slots, not the 8 of the float
        product 7.000000000000001."""
        return math.ceil(Fraction(str(self.alpha)) * count * Fraction(str(beta)))


class SurrogateResult(NamedTuple):
    params: SurrogateParams
    mean_sub: float
    var_sub: float
    mean_full: float
    var_full: float
    sigma: float
    sigma_formula: str = SIGMA_FORMULA

    def as_dict(self):
        return {"alpha": self.params.alpha, "beta": self.params.beta,
                "p_sub": self.params.p_sub, "n_sub": self.params.n_sub,
                "p_full": self.params.p_full, "n_full": self.params.n_full,
                "trials": self.params.trials,
                "mean_sub": self.mean_sub, "var_sub": self.var_sub,
                "mean_full": self.mean_full, "var_full": self.var_full,
                "sigma": self.sigma, "sigma_formula": self.sigma_formula}


def surrogate_simulation(params):
    """Exact AUROC means and variances of a sub-problem and the full problem.

    The sub-problem places its positives as a uniform subset of the top
    alpha fraction of its ranking. The full problem places the
    sub-problem's positives as a uniform subset of a band beta times wider,
    then the remaining positives as a uniform subset of the slots of the
    full ranking's top alpha fraction that the band left free. sigma is the
    two-sample z statistic comparing the mean AUROCs of ``trials``
    simulations of each problem.

    AUROC is 1 - (S - p(p-1)/2)/(p n) for S the sum of the positives'
    slots, so its moments are S's. A uniform k-subset of range(m) sums to
    k(m-1)/2 on average with variance k(m-k)(m+1)/12, the null moments of
    the Mann-Whitney U statistic. The full problem's tail is taken given
    the band, whose slot sum and sum of squares fix the free slots, and the
    law of total variance joins the two. Sums of cubed slot counts pass
    2**53 at the paper's counts, so every moment is an exact rational,
    rounded once to the reported float.
    """
    def subset_sum(k, m):
        """Mean and variance of the sum of a uniform k-subset of range(m)."""
        return Fraction(k * (m - 1), 2), Fraction(k * (m - k) * (m + 1), 12)

    def auroc_moments(mean, var, p, n):
        return 1 - (mean - Fraction(p * (p - 1), 2)) / (p * n), var / (p * n) ** 2

    k1, k2 = params.p_sub, params.p_full - params.p_sub
    band, tail = params.slots_full_band, params.slots_full_tail
    mean_s, var_s = auroc_moments(*subset_sum(k1, params.slots_sub), k1,
                                  params.n_sub)

    # The tail takes k2 of the `free` slots of range(tail) that the band
    # leaves. Given the band's slot sum S_b, those sum to s_all - S_b, so
    # E[S | band] = S_b + share * (s_all - S_b), and the tail varies as a
    # k2-subset of them; the band's sum of squares averages q_band.
    free = tail - k1
    share = Fraction(k2, free) if k2 else 0
    s_all, q_all = tail * (tail - 1) // 2, (tail - 1) * tail * (2 * tail - 1) // 6
    sum_b, var_b = subset_sum(k1, band)
    q_band = Fraction(k1 * (band - 1) * (2 * band - 1), 6)
    sum_full = sum_b + share * (s_all - sum_b)
    var_full = (1 - share) ** 2 * var_b
    if 0 < k2 < free:
        # The free slots' population variance, averaged over the band.
        spread = ((q_all - q_band) / free
                  - ((s_all - sum_b) ** 2 + var_b) / free ** 2)
        var_full += Fraction(k2 * (free - k2), free - 1) * spread
    mean_f, var_f = auroc_moments(sum_full, var_full, params.p_full, params.n_full)

    var_diff = (var_f + var_s) / params.trials
    sigma = float(mean_f - mean_s) / math.sqrt(var_diff) if var_diff else 0.0
    return SurrogateResult(params, float(mean_s), float(var_s), float(mean_f),
                           float(var_f), sigma)


def surrogate_grid(alphas, betas, p_sub, n_sub, p_full, n_full, trials=100_000):
    """Sigma separations over an (alpha, beta) grid, alpha-major."""
    return [surrogate_simulation(SurrogateParams(p_sub, n_sub, p_full, n_full,
                                                 alpha, beta, trials))
            for alpha in alphas for beta in betas]
