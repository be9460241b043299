"""Selection-threshold schemes for ``s_hat^2_ij`` (Section 4.1).

The SSPC objective compares, for a cluster ``C_i`` and dimension ``v_j``,
the quantity ``s^2_ij + (mu_ij - median_ij)^2`` against a *selection
threshold* ``s_hat^2_ij``.  The threshold must exceed the sample variance
of every dimension that deserves to be selected, and the global column
variance ``sigma^2_j`` (estimated by the sample variance ``s^2_j`` of the
whole column) acts as its natural upper bound: if a cluster is no tighter
than a random subset of the data along ``v_j``, the dimension carries no
information about the cluster.

The paper proposes two schemes:

* **Variance-ratio scheme** (:class:`VarianceRatioThreshold`): the user
  supplies ``m`` in ``(0, 1]`` and the threshold is ``m * s^2_j``.
  Smaller ``m`` tightens the selection criterion.  This scheme makes no
  distributional assumption.
* **Chi-square scheme** (:class:`ChiSquareThreshold`): the user supplies
  ``p``, an upper bound on the probability that a dimension *irrelevant*
  to the cluster is selected by chance.  Under a Gaussian global
  population, ``(n_i - 1) s^2_ij / sigma^2_j`` follows a chi-square
  distribution with ``n_i - 1`` degrees of freedom, so the threshold that
  achieves ``Pr(s^2_ij < s_hat^2_ij) = p`` is
  ``s_hat^2_ij = s^2_j * chi2_inv(p, n_i - 1) / (n_i - 1)``.

Both schemes expose the same interface so the rest of the algorithm is
agnostic to the choice; only one user parameter is involved either way,
and (as the Figure 4 experiment shows) its value is not critical.

:func:`chi_square_quantile` is the one place the library computes
``chi2_inv``.  It imports ``scipy.special`` on its first call, so a process
that only serves the ``m`` scheme never loads scipy.  Modules whose every
call runs it (:mod:`repro.core.seed_groups`, :mod:`repro.core.analysis`)
import ``scipy.special`` themselves, so no fit pays the import.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.utils.validation import check_array_2d, check_fraction, check_probability

#: Size keys each memo of a threshold keeps.  A fit visits at most a few
#: hundred (144 at n=20000, k=10, p=0.01), but every fold of a serving or
#: stream index adds the new size of each cluster it touched, so past this
#: many keys a memo drops its oldest one.
MEMO_KEYS = 1024


def _remember(memo: Dict, key: int, value) -> None:
    """Store ``value`` under ``key``, dropping the oldest key past :data:`MEMO_KEYS`."""
    if len(memo) >= MEMO_KEYS:
        del memo[next(iter(memo))]
    memo[key] = value


def chi_square_quantile(p: float, dof: float) -> float:
    """``chi2_inv(p, dof)``: the ``p`` quantile of a chi-square with ``dof`` degrees of freedom.

    ``2 * gammaincinv(dof / 2, p)`` is scipy's own ``chi2._ppf``, so the
    result is bit-identical to ``scipy.stats.chi2.ppf(p, dof)`` for ``p``
    in ``(0, 1)`` without importing ``scipy.stats``.
    """
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(dof / 2, p))


class SelectionThreshold(abc.ABC):
    """Interface of a selection-threshold scheme.

    A threshold object is *fitted* once per dataset (it needs the global
    column variances ``s^2_j``) and then queried with a cluster size to
    obtain the vector of thresholds ``s_hat^2_ij`` for all dimensions.
    """

    #: Whether :meth:`values` depends on the cluster size.  When it does
    #: not, a cluster's thresholds move only when the scheme is refitted,
    #: so the serving fold leaves them alone.
    depends_on_size = False

    def __init__(self) -> None:
        self._global_variance: Optional[np.ndarray] = None
        self._values_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, data) -> "SelectionThreshold":
        """Estimate the global column variances from the dataset."""
        data = check_array_2d(data, name="data", min_rows=2)
        variance = data.var(axis=0, ddof=1)
        # Guard against constant columns: a zero global variance would make
        # every threshold zero and no dimension selectable; treat such
        # columns as carrying the smallest representable spread instead.
        tiny = np.finfo(float).tiny
        self._global_variance = np.maximum(variance, tiny)
        self._values_cache.clear()
        return self

    def fit_from_variance(self, global_variance) -> "SelectionThreshold":
        """Fit directly from a precomputed global-variance vector."""
        variance = np.asarray(global_variance, dtype=float).ravel()
        if variance.size == 0:
            raise ValueError("global_variance must be non-empty")
        if np.any(variance < 0):
            raise ValueError("global_variance must be non-negative")
        self._global_variance = np.maximum(variance, np.finfo(float).tiny)
        self._values_cache.clear()
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._global_variance is not None

    @property
    def global_variance(self) -> np.ndarray:
        """The fitted global column variances ``s^2_j``."""
        if self._global_variance is None:
            raise RuntimeError("threshold has not been fitted; call fit(data) first")
        return self._global_variance

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def values(self, cluster_size: int) -> np.ndarray:
        """Vector of ``s_hat^2_ij`` over all dimensions for a cluster of this size.

        The same few cluster sizes recur every SSPC iteration, so the
        threshold vectors are memoized per effective size key, at most
        :data:`MEMO_KEYS` of them (refitting clears the memo).  The
        returned array is marked read-only — callers slice or combine it
        arithmetically, never mutate it.
        """
        if cluster_size < 0:
            raise ValueError("cluster_size must be non-negative")
        key = self._cache_key(int(cluster_size))
        cached = self._values_cache.get(key)
        if cached is None:
            cached = np.asarray(self._compute_values(int(cluster_size)), dtype=float)
            cached.flags.writeable = False
            _remember(self._values_cache, key, cached)
        return cached

    def _cache_key(self, cluster_size: int) -> int:
        """Memoization key; override when thresholds depend on the size."""
        return 0

    @abc.abstractmethod
    def _compute_values(self, cluster_size: int) -> np.ndarray:
        """Uncached threshold vector for one cluster size."""

    @abc.abstractmethod
    def describe(self) -> Dict[str, float]:
        """The user parameter(s) of the scheme, for reporting."""

    def value(self, cluster_size: int, dimension: int) -> float:
        """Scalar threshold for one dimension (convenience for tests)."""
        return float(self.values(cluster_size)[dimension])


class VarianceRatioThreshold(SelectionThreshold):
    """The ``m`` scheme: ``s_hat^2_ij = m * s^2_j``.

    Parameters
    ----------
    m:
        Ratio in ``(0, 1]``.  The paper suggests 0.3-0.7 as reasonable
        defaults when the user has no better information.
    """

    def __init__(self, m: float = 0.5) -> None:
        super().__init__()
        self.m = check_fraction(m, name="m", inclusive_low=False)

    def _compute_values(self, cluster_size: int) -> np.ndarray:
        """Thresholds are independent of the cluster size under this scheme."""
        return self.m * self.global_variance

    def describe(self) -> Dict[str, float]:
        return {"scheme": "m", "m": self.m}

    def __repr__(self) -> str:
        return "VarianceRatioThreshold(m=%g)" % self.m


class ChiSquareThreshold(SelectionThreshold):
    """The ``p`` scheme based on the chi-square sampling distribution.

    Parameters
    ----------
    p:
        Upper bound on the probability that an irrelevant dimension is
        selected by chance, in ``(0, 1)``.  The paper suggests 0.01-0.2.
    min_degrees_of_freedom:
        Cluster sizes of 0 or 1 give no degrees of freedom; the scheme
        then falls back to this many degrees of freedom so the threshold
        stays defined (it is only queried for clusters that are about to
        receive members).
    """

    depends_on_size = True

    def __init__(self, p: float = 0.01, *, min_degrees_of_freedom: int = 1) -> None:
        super().__init__()
        self.p = check_probability(p, name="p")
        if min_degrees_of_freedom < 1:
            raise ValueError("min_degrees_of_freedom must be at least 1")
        self.min_degrees_of_freedom = int(min_degrees_of_freedom)
        self._factor_cache: Dict[int, float] = {}

    def _factor(self, cluster_size: int) -> float:
        """``chi2_inv(p, n_i - 1) / (n_i - 1)``, cached per cluster size."""
        dof = max(int(cluster_size) - 1, self.min_degrees_of_freedom)
        factor = self._factor_cache.get(dof)
        if factor is None:
            factor = chi_square_quantile(self.p, dof) / dof
            _remember(self._factor_cache, dof, factor)
        return factor

    def _cache_key(self, cluster_size: int) -> int:
        """Thresholds only depend on the effective degrees of freedom."""
        return max(cluster_size - 1, self.min_degrees_of_freedom)

    def _compute_values(self, cluster_size: int) -> np.ndarray:
        return self._factor(cluster_size) * self.global_variance

    def describe(self) -> Dict[str, float]:
        return {"scheme": "p", "p": self.p}

    def __repr__(self) -> str:
        return "ChiSquareThreshold(p=%g)" % self.p


def make_threshold(
    *,
    m: Optional[float] = None,
    p: Optional[float] = None,
) -> SelectionThreshold:
    """Build a threshold scheme from the mutually exclusive ``m`` / ``p`` options.

    Exactly one of ``m`` and ``p`` must be supplied.  This mirrors how the
    SSPC estimator exposes the choice to users.
    """
    if (m is None) == (p is None):
        raise ValueError("exactly one of m and p must be supplied")
    if m is not None:
        return VarianceRatioThreshold(m=m)
    return ChiSquareThreshold(p=p)
