"""Ranking metrics and the DeLong test for correlated ROC curves.

AUC is the Mann-Whitney statistic (ties count 0.5), computed from
midranks. The DeLong variance uses the fast midrank formulation, so two
models scored on the same records can be compared in O(n log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass
class ScoredSet:
    """Aligned scores and binary labels for one (node, outcome) stratum."""

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
        self.labels = labels.astype(np.int64)

    @property
    def stratum(self) -> str:
        return f"{self.node}|{self.outcome}" if self.node or self.outcome else "<scores>"

    @property
    def n_pos(self) -> int:
        return int(self.labels.sum())

    @property
    def n(self) -> int:
        return int(self.labels.size)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    z = x[order]
    n = len(x)
    new_block = np.empty(n, dtype=bool)
    new_block[:1] = True
    np.not_equal(z[1:], z[:-1], out=new_block[1:])
    starts = np.flatnonzero(new_block)
    sizes = np.diff(np.append(starts, n))
    out = np.empty(n)
    out[order] = np.repeat(0.5 * (2 * starts + sizes - 1) + 1, sizes)
    return out


def _require_both_classes(s: ScoredSet) -> tuple[int, int]:
    m, n = s.n_pos, s.n - s.n_pos
    if m == 0 or n == 0:
        raise ValidationError(
            f"stratum {s.stratum} needs both classes for AUC (pos={m}, neg={n})")
    return m, n


def auc_roc(s: ScoredSet) -> float:
    """P(score_pos > score_neg) + P(tie)/2 over all positive/negative pairs."""
    m, n = _require_both_classes(s)
    ranks = _midranks(s.scores)
    pos_rank_sum = ranks[s.labels == 1].sum()
    return (pos_rank_sum - m * (m + 1) / 2.0) / (m * n)


def _thresholds(s: ScoredSet) -> tuple[np.ndarray, np.ndarray]:
    """The positives and the records seen at each descending score
    threshold; tied scores form one threshold, so neither depends on input
    order."""
    order = np.argsort(-s.scores, kind="mergesort")
    scores = s.scores[order]
    # last index of each tied block = the threshold admitting the whole block
    last = np.nonzero(np.r_[scores[1:] != scores[:-1], True])[0]
    return np.cumsum(s.labels[order])[last], last + 1


def average_precision(s: ScoredSet) -> float:
    """Step-wise AP over descending score thresholds (`_thresholds`)."""
    if s.n_pos == 0:
        raise ValidationError(f"stratum {s.stratum} has no positives for AP")
    tp, seen = _thresholds(s)
    precision = tp / seen
    recall = tp / s.n_pos
    prev_recall = np.r_[0.0, recall[:-1]]
    return float(((recall - prev_recall) * precision).sum())


def roc_points(s: ScoredSet) -> list[tuple[float, float]]:
    """(fpr, tpr) pairs from (0,0) to (1,1), one per distinct threshold."""
    m, n = _require_both_classes(s)
    tp, seen = _thresholds(s)
    return [(0.0, 0.0)] + list(zip(((seen - tp) / n).tolist(), (tp / m).tolist()))


def _delong_components(s: ScoredSet) -> tuple[float, np.ndarray, np.ndarray]:
    """AUC, computed exactly as auc_roc does, plus the positive (v01) and
    negative (v10) structural components."""
    m, n = _require_both_classes(s)
    pos = s.scores[s.labels == 1]
    neg = s.scores[s.labels == 0]
    tx = _midranks(pos)
    ty = _midranks(neg)
    tz = _midranks(np.concatenate([pos, neg]))
    auc = (tz[:m].sum() - m * (m + 1) / 2.0) / (m * n)
    v01 = (tz[:m] - tx) / n
    v10 = 1.0 - (tz[m:] - ty) / m
    return auc, v01, v10


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
    auc_a, va01, va10 = _delong_components(a)
    auc_b, vb01, vb10 = _delong_components(b)
    m, n = len(va01), len(va10)
    delta = auc_a - auc_b
    d01 = va01 - vb01
    d10 = va10 - vb10
    var = 0.0
    if m > 1:
        var += d01.var(ddof=1) / m
    if n > 1:
        var += d10.var(ddof=1) / n
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
