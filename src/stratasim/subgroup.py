"""Variance of a subgroup treated proportion under block randomization.

Consider stratum ``j`` with ``N_j`` patients, ``N_j1`` of them assigned
to the treated condition, and an independently selected subgroup of
``N_Rj`` patients.  Given those counts the subgroup behaves like a
simple random sample without replacement, so the subgroup treated
proportion is a scaled hypergeometric.  Unconditionally, permuted-block
assignment makes the stratum proportion nearly constant, which caps the
subgroup proportion's variance below its binomial benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigurationError, as_int, as_real, as_tuple


@dataclass(frozen=True)
class SubgroupCounts:
    """Stratum size, treated count within it, and subgroup size, each an
    integer."""

    n_stratum: int
    n_treated: int
    n_subgroup: int

    def __post_init__(self) -> None:
        for field in ("n_stratum", "n_treated", "n_subgroup"):
            object.__setattr__(self, field, as_int(field, getattr(self, field)))
        if self.n_stratum < 1:
            raise ConfigurationError(f"stratum size must be >= 1, got {self.n_stratum}")
        if not 0 <= self.n_treated <= self.n_stratum:
            raise ConfigurationError(
                f"treated count {self.n_treated} outside 0..{self.n_stratum}"
            )
        if not 1 <= self.n_subgroup <= self.n_stratum:
            raise ConfigurationError(
                f"subgroup size {self.n_subgroup} outside 1..{self.n_stratum}"
            )


def conditional_moments(counts: SubgroupCounts) -> tuple[float, float]:
    """Exact mean and variance of the subgroup treated proportion given
    the stratum counts.

    The subgroup treated count is hypergeometric (``N_Rj`` draws without
    replacement from ``N_j`` patients of whom ``N_j1`` are treated), so

        mean = N_j1 / N_j
        var  = mean (1 - mean) (N_j - N_Rj) / (N_Rj (N_j - 1))

    and the variance is zero when the subgroup is the whole stratum or
    the stratum proportion is degenerate.
    """
    n, k, r = counts.n_stratum, counts.n_treated, counts.n_subgroup
    p = k / n
    if r == n:
        return p, 0.0
    return p, p * (1.0 - p) * (n - r) / (r * (n - 1))


def tau_permuted_block(
    stratum_size: int,
    pattern: Sequence[int],
    treated_arms: Sequence[int] = (1,),
) -> float:
    """Scaled variance ``tau_j = N_j var(pi_hat_j)`` of the stratum
    treated proportion under permuted blocks.

    Complete blocks contribute exactly the pattern's treated share, so
    only the final partial block (length ``N_j mod B``) varies.  Its
    treated count is hypergeometric over one permuted block, giving an
    exact closed form.  ``tau = 0`` whenever the stratum size is a
    multiple of the block length.  The size, each pattern code and each
    treated arm are integers.
    """
    stratum_size = as_int("stratum_size", stratum_size)
    if stratum_size < 1:
        raise ConfigurationError(f"stratum size must be >= 1, got {stratum_size}")
    pattern = as_tuple("pattern", pattern, as_int)
    block = len(pattern)
    if block < 1:
        raise ConfigurationError("pattern must be nonempty")
    treated = set(as_tuple("treated_arms", treated_arms, as_int))
    k_block = sum(1 for code in pattern if code in treated)
    remainder = stratum_size % block
    if remainder == 0:
        return 0.0
    share = k_block / block
    var_count = remainder * share * (1.0 - share) * (block - remainder) / (block - 1)
    return var_count / stratum_size


def unconditional_variance(
    pi: float, tau: float, n_subgroup: int, n_stratum: int
) -> float:
    """Large-stratum variance of the subgroup treated proportion given
    only the subgroup and stratum sizes:

        pi (1 - pi) / N_Rj + (tau - pi (1 - pi)) / N_j

    which never exceeds the binomial benchmark ``pi (1 - pi) / N_Rj``
    whenever ``tau <= pi (1 - pi)`` — blocking can only tighten it.  ``pi``
    and ``tau`` are numbers, both sizes integers.
    """
    pi, tau = as_real("pi", pi), as_real("tau", tau)
    n_subgroup, n_stratum = as_int("n_subgroup", n_subgroup), as_int("n_stratum", n_stratum)
    if not 0.0 <= pi <= 1.0:
        raise ConfigurationError(f"pi must lie in [0, 1], got {pi}")
    if tau < 0.0:
        raise ConfigurationError(f"tau must be nonnegative, got {tau}")
    if not 1 <= n_subgroup <= n_stratum:
        raise ConfigurationError(
            f"subgroup size {n_subgroup} outside 1..{n_stratum}"
        )
    base = pi * (1.0 - pi)
    return base / n_subgroup + (tau - base) / n_stratum
