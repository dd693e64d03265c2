"""Ranking metrics and the DeLong test for correlated ROC curves.

AUC is the Mann-Whitney statistic (ties count 0.5), computed from
midranks. The DeLong variance uses the fast midrank formulation (DeLong et
al., 1988; Sun & Xu, 2014), so two models scored on the same records can be
compared in O(n log n).

Every measure of a `ScoredSet` reads the figures of one stable sort of
its scores (`ScoredSet.ranking`): its thresholds, AUC and DeLong
structural components, computed together on first use and cached on the
set. So a set that is reported and then compared with several others is
sorted once, and its components are computed once for all of its
comparisons. The figures are bit for bit those of one sort per measure
and components per comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def _tie_blocks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stable ascending sort of x, read as tie blocks (runs of equal
    values): each block's start and size in sorted order, and each
    value's block."""
    n = x.size
    order = np.argsort(x, kind="mergesort")
    z = x[order]
    first = np.empty(n + 1, dtype=bool)  # a block starts here; n ends the last
    first[0] = first[n] = True
    np.not_equal(z[1:], z[:-1], out=first[1:n])
    bounds = np.flatnonzero(first)
    block = np.empty(n, dtype=np.intp)
    block[order] = np.add.accumulate(first[:n], dtype=np.intp) - 1
    return bounds[:-1], bounds[1:] - bounds[:-1], block


def _block_midranks(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each tie block's 1-based rank, the average of its members' ranks."""
    return 0.5 * (2 * starts + sizes - 1) + 1


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    starts, sizes, block = _tie_blocks(x)
    return _block_midranks(starts, sizes)[block]


class _Ranking:
    """Every figure a scored set's measures read, from one sort of its
    scores (`_tie_blocks`): the positives and the records seen at each
    descending score threshold (tp, seen: the tie blocks from the highest
    down, so neither depends on input order), and, when both classes are
    present, the AUC and the DeLong structural components v01 and v10 in
    input order. A positive's midrank among all records less its midrank
    among the positives is the negatives below its block plus half of
    those in it, exactly, so v01 is that over the negatives; a negative's
    v10 is likewise one less the positives' share. Only these are kept."""

    def __init__(self, scores: np.ndarray, labels: np.ndarray):
        starts, sizes, block = _tie_blocks(scores)
        is_pos = labels == 1
        pos = np.bincount(block[is_pos], minlength=starts.size)
        self.tp, self.seen = np.add.accumulate(pos[::-1]), np.add.accumulate(sizes[::-1])
        self.auc = self.v01 = self.v10 = None
        m = int(pos.sum())
        n = labels.size - m
        if m and n:
            pos_block = block[is_pos]
            ranks = _block_midranks(starts, sizes)[pos_block]
            self.auc = (ranks.sum() - m * (m + 1) / 2.0) / (m * n)
            pos_below = np.add.accumulate(pos) - pos
            self.v01 = (starts - pos_below + 0.5 * (sizes - pos))[pos_block] / n
            self.v10 = 1.0 - (pos_below + 0.5 * pos)[block[~is_pos]] / m


@dataclass
class ScoredSet:
    """Aligned scores and binary labels for one (node, outcome) stratum.

    Scores are numbers, never NaN. A set's scores and labels must not
    change after construction: its sort, AUC, thresholds and DeLong
    components are computed on first use and cached on the set.
    """

    scores: np.ndarray
    labels: np.ndarray
    node: str = ""
    outcome: str = ""
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        if self.scores.shape != labels.shape or self.scores.ndim != 1:
            raise ValidationError("scores and labels must be equal-length vectors")
        # checked before the int64 conversion, which overflows on huge integers
        if not np.isin(labels, (0, 1)).all():
            raise ValidationError("labels must be 0 or 1")
        # NaN has no place in an order: the sort cannot rank it
        if np.isnan(self.scores).any():
            raise ValidationError("scores must not be NaN")
        self.labels = labels.astype(np.int64)
        self._n_pos = int(self.labels.sum())
        self._ranking = None

    @property
    def stratum(self) -> str:
        return f"{self.node}|{self.outcome}" if self.node or self.outcome else "<scores>"

    @property
    def n_pos(self) -> int:
        return self._n_pos

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def ranking(self) -> _Ranking:
        """The figures of the set's one sort, made on first use."""
        if self._ranking is None:
            self._ranking = _Ranking(self.scores, self.labels)
        return self._ranking


def _require_both_classes(s: ScoredSet) -> tuple[int, int]:
    m, n = s.n_pos, s.n - s.n_pos
    if m == 0 or n == 0:
        raise ValidationError(
            f"stratum {s.stratum} needs both classes for AUC (pos={m}, neg={n})")
    return m, n


def auc_roc(s: ScoredSet) -> float:
    """P(score_pos > score_neg) + P(tie)/2 over all positive/negative pairs."""
    _require_both_classes(s)
    return s.ranking.auc


def average_precision(s: ScoredSet) -> float:
    """Step-wise AP over descending score thresholds."""
    if s.n_pos == 0:
        raise ValidationError(f"stratum {s.stratum} has no positives for AP")
    tp, seen = s.ranking.tp, s.ranking.seen
    precision = tp / seen
    recall = tp / s.n_pos
    step = recall.copy()  # the recall gained at each threshold
    step[1:] -= recall[:-1]
    return float((step * precision).sum())


def roc_points(s: ScoredSet) -> list[tuple[float, float]]:
    """(fpr, tpr) pairs from (0,0) to (1,1), one per distinct threshold."""
    m, n = _require_both_classes(s)
    tp, seen = s.ranking.tp, s.ranking.seen
    return [(0.0, 0.0)] + list(zip(((seen - tp) / n).tolist(), (tp / m).tolist()))


def _sample_var(x: np.ndarray) -> float:
    """x.var(ddof=1), x of two or more entries: the same ufunc sums and
    divisions, without the Python wrapper around them."""
    d = x - np.add.reduce(x) / x.size
    return np.add.reduce(d * d) / (x.size - 1)


def delong_test(a: ScoredSet, b: ScoredSet) -> tuple[float, float, float, float, float]:
    """Two-sided DeLong test for paired AUCs; returns
    (auc_a, auc_b, delta_auc, z, p), where delta_auc is exactly auc_a - auc_b.

    Both sets must score the same records: identical label vectors and,
    when ids are present on both, identical ids.
    """
    if not np.array_equal(a.labels, b.labels):
        raise ValidationError("delong_test needs both models scored on the "
                              "same records (label vectors differ)")
    if a.ids is not None and b.ids is not None and a.ids != b.ids:
        raise ValidationError("delong_test record ids differ between the sets")
    auc_a, auc_b = auc_roc(a), auc_roc(b)
    va01, va10, vb01, vb10 = a.ranking.v01, a.ranking.v10, b.ranking.v01, b.ranking.v10
    m, n = len(va01), len(va10)
    delta = auc_a - auc_b
    var = 0.0
    if m > 1:
        var += _sample_var(va01 - vb01) / m
    if n > 1:
        var += _sample_var(va10 - vb10) / n
    if var <= 0.0:
        if delta == 0.0:
            return auc_a, auc_b, 0.0, 0.0, 1.0
        return auc_a, auc_b, delta, math.copysign(math.inf, delta), 0.0
    z = delta / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return auc_a, auc_b, delta, z, p


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class TargetMetrics:
    auc: float | None
    aps: float | None
    n: int
    n_pos: int
    roc: list[tuple[float, float]] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {"auc": self.auc, "aps": self.aps, "n": self.n,
                "n_pos": self.n_pos, "roc": [list(p) for p in self.roc]}


@dataclass
class EvalReport:
    """Per-(node, outcome) metrics plus pairwise model comparisons."""

    per_target: dict[tuple[str, str], TargetMetrics]
    comparisons: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "per_target": {f"{nid}|{o}": tm.to_json_obj()
                           for (nid, o), tm in sorted(self.per_target.items())},
            "comparisons": self.comparisons,
            "metadata": self.metadata,
        }


def two_class(sets: dict) -> dict:
    """The scored sets of sets, by key, that hold both classes: the only
    ones AUC, ROC and the DeLong test measure. A one-class set is scored
    but not measured."""
    return {key: s for key, s in sets.items() if 0 < s.n_pos < s.n}


def score_metrics(s: ScoredSet, with_roc: bool = True) -> TargetMetrics:
    return TargetMetrics(
        auc=auc_roc(s), aps=average_precision(s), n=s.n, n_pos=s.n_pos,
        roc=roc_points(s) if with_roc else [])


def compare_scored_sets(a: ScoredSet, b: ScoredSet, name_a: str, name_b: str) -> dict:
    auc_a, auc_b, delta, z, p = delong_test(a, b)
    return {
        "model_a": name_a, "model_b": name_b,
        "node": a.node, "outcome": a.outcome,
        "auc_a": auc_a, "auc_b": auc_b,
        "delta_auc": delta, "z": z if math.isfinite(z) else None, "p_value": p,
        "significant_at_0.05": bool(p < 0.05),
    }
