"""Statistical comparison of paired-by-seed metric samples.

Every suite scenario runs under the same seed set, so two result sets
(baseline vs current, or scheme A vs scheme B) pair naturally seed by
seed.  This module turns such pairs into defensible verdicts:

* :func:`bootstrap_mean_ci` — seeded percentile-bootstrap confidence
  interval of a sample mean (deterministic: same inputs, same interval);
* :func:`sign_test` — exact two-sided binomial test on the signs of the
  paired differences (ties dropped);
* :func:`mann_whitney_u` — rank-sum test with tie correction and a
  normal approximation (documented as approximate at tiny *n*);
* :func:`cliffs_delta` — the ordinal effect size in [-1, 1];
* :func:`compare_paired` — everything at once as a :class:`Comparison`.

No SciPy: the sample sizes here are a handful of seeds, where the exact
sign test and bootstrap do the real work and closed-form machinery would
be overkill.  All randomness is ``random.Random`` seeded from the inputs'
length plus a fixed constant, so reports are reproducible bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: bootstrap resamples (enough for stable 95% intervals on tiny samples)
BOOTSTRAP_RESAMPLES = 2000
_BOOTSTRAP_SEED = 0x5EED


def _clean(values: Sequence[float]) -> List[float]:
    return [float(v) for v in values if not math.isnan(float(v))]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; NaN for an empty sequence."""
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def bootstrap_mean_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = BOOTSTRAP_RESAMPLES,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI of the mean; (NaN, NaN) on an empty sample.

    A single-point sample returns a degenerate interval at the point (the
    bootstrap cannot see variance that is not in the sample).
    """
    values = _clean(values)
    if not values:
        return (float("nan"), float("nan"))
    if len(values) == 1:
        return (values[0], values[0])
    rng = random.Random(_BOOTSTRAP_SEED + len(values))
    n = len(values)
    means = sorted(
        sum(values[rng.randrange(n)] for _ in range(n)) / n
        for _ in range(resamples)
    )
    tail = (1.0 - confidence) / 2.0
    lo = means[max(0, min(resamples - 1, int(tail * resamples)))]
    hi = means[max(0, min(resamples - 1, int((1.0 - tail) * resamples) - 1))]
    return (lo, hi)


def sign_test(diffs: Sequence[float]) -> float:
    """Exact two-sided sign-test p-value over paired differences.

    Zero differences (exact ties — common when nothing changed in a
    deterministic rerun) are dropped, as in the classical test; an
    all-ties sample returns p = 1.0.
    """
    signs = [d for d in _clean(diffs) if d != 0.0]
    n = len(signs)
    if n == 0:
        return 1.0
    k = sum(1 for d in signs if d > 0)
    # P(X <= min(k, n-k)) under Binomial(n, 0.5), doubled and clamped.
    k_min = min(k, n - k)
    tail = sum(math.comb(n, i) for i in range(k_min + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def _ranks(values: Sequence[float]) -> List[float]:
    """Midranks of ``values`` (ties share the average rank)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    return ranks


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Mann-Whitney U p-value (normal approximation).

    Tie-corrected; with fewer than ~4 samples per side the approximation
    is loose — callers gate on it *together with* the sign test and the
    tolerance band, never alone.
    """
    a, b = _clean(a), _clean(b)
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        return 1.0
    pooled = list(a) + list(b)
    ranks = _ranks(pooled)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    # Tie correction to the variance.
    counts: Dict[float, int] = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(c ** 3 - c for c in counts.values())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if var <= 0:
        return 1.0
    z = (u1 - mu - math.copysign(0.5, u1 - mu)) / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta effect size: P(a > b) - P(a < b), in [-1, 1]."""
    a, b = _clean(a), _clean(b)
    if not a or not b:
        return float("nan")
    gt = sum(1 for x in a for y in b if x > y)
    lt = sum(1 for x in a for y in b if x < y)
    return (gt - lt) / (len(a) * len(b))


@dataclass
class Comparison:
    """Paired comparison of two samples of the same metric.

    ``b`` is the sample under test (current run / candidate scheme),
    ``a`` the reference (baseline values / baseline scheme).  Positive
    ``diff``/``rel_diff`` means *b is larger*; whether larger is worse is
    the caller's to decide (see :data:`HIGHER_IS_BETTER`).
    """

    n: int
    mean_a: float
    mean_b: float
    #: mean paired difference (b - a)
    diff: float
    #: mean difference relative to |mean_a| (NaN when mean_a is 0)
    rel_diff: float
    #: bootstrap CI of the mean paired difference
    ci_low: float
    ci_high: float
    sign_p: float
    mann_whitney_p: float
    cliffs_delta: float
    #: every paired difference shares one sign (and none is zero)
    consistent: bool
    #: paired seeds used (intersection, sorted) — empty for unpaired input
    seeds: Tuple[int, ...] = field(default=())

    def significant(self, alpha: float = 0.05) -> bool:
        """Is the shift statistically supported at level ``alpha``?

        With the handful of seeds a suite runs, the exact sign test cannot
        reach small p-values (n=3 floors at p=0.25), so significance also
        accepts a *consistent* shift whose bootstrap CI excludes zero —
        the strongest statement tiny paired samples can make.
        """
        if min(self.sign_p, self.mann_whitney_p) <= alpha:
            return True
        if self.consistent and self.n >= 2:
            return self.ci_low > 0.0 or self.ci_high < 0.0
        return False

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of every statistic."""
        return {
            "n": self.n,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "diff": self.diff,
            "rel_diff": self.rel_diff,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "sign_p": self.sign_p,
            "mann_whitney_p": self.mann_whitney_p,
            "cliffs_delta": self.cliffs_delta,
            "consistent": self.consistent,
            "seeds": list(self.seeds),
        }


def compare_paired(
    a: Sequence[float],
    b: Sequence[float],
    seeds: Sequence[int] = (),
) -> Comparison:
    """Compare equal-length paired samples (``a[i]`` pairs with ``b[i]``)."""
    if len(a) != len(b):
        raise ValueError(
            f"paired samples must have equal length ({len(a)} != {len(b)})"
        )
    pairs = [
        (float(x), float(y))
        for x, y in zip(a, b)
        if not (math.isnan(float(x)) or math.isnan(float(y)))
    ]
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    diffs = [y - x for x, y in pairs]
    mean_a, mean_b = mean(xs), mean(ys)
    diff = mean(diffs)
    rel = diff / abs(mean_a) if xs and mean_a != 0.0 else float("nan")
    ci_low, ci_high = bootstrap_mean_ci(diffs)
    consistent = bool(diffs) and (
        all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
    )
    return Comparison(
        n=len(pairs),
        mean_a=mean_a,
        mean_b=mean_b,
        diff=diff,
        rel_diff=rel,
        ci_low=ci_low,
        ci_high=ci_high,
        sign_p=sign_test(diffs),
        mann_whitney_p=mann_whitney_u(xs, ys),
        cliffs_delta=cliffs_delta(ys, xs),
        consistent=consistent,
        seeds=tuple(sorted(seeds)),
    )


def compare_by_seed(
    a: Dict[int, float],
    b: Dict[int, float],
) -> Optional[Comparison]:
    """Pair two seed-keyed samples on their common seeds; None if disjoint."""
    common = sorted(set(a) & set(b))
    if not common:
        return None
    return compare_paired(
        [a[s] for s in common], [b[s] for s in common], seeds=common
    )


#: metric keys where larger values are better (everything else: smaller is
#: better, the FCT/latency convention)
HIGHER_IS_BETTER = frozenset({"completion_rate", "count", "goodput_bps"})


def worsening(metric: str, comparison: Comparison) -> float:
    """Relative worsening of ``b`` vs ``a`` for this metric (sign-fixed).

    Positive = ``b`` is worse; for FCT-like metrics that is ``rel_diff``
    itself, for higher-is-better metrics its negation.
    """
    if metric in HIGHER_IS_BETTER:
        return -comparison.rel_diff
    return comparison.rel_diff
