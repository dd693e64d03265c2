"""Training losses: masked multi-task loss and level-weighted reward shaping.

The masked loss is
    L = L1 + lambda * L2
where L1 sums binary cross-entropy over (expressed core node, labeled
outcome) pairs and L2 sums squared reconstruction error over every
expressed node, so unlabeled records still shape the representations.
Reward shaping replaces L1's index set with all expressed nodes and
multiplies each node's term by a level-dependent weight. A batch's loss
is the mean of its records' losses.

Cross-entropy is evaluated from the head logits as softplus(z) - y*z,
which equals -[y*log(p) + (1-y)*log(1-p)] for p = sigmoid(z) but stays
finite for any logit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .datastore import Record
from .errors import ValidationError
from .ontology import OntologyGraph
from .tensor import Tensor


@dataclass
class LossBreakdown:
    l1: float
    l2: float
    lam: float
    total: float
    per_outcome: dict[tuple[str, str], float]
    per_node_recon: dict[str, float]
    loss: Tensor  # differentiable handle for the total


@dataclass(frozen=True)
class RewardScheme:
    """Level-based outcome-loss weights, mean-normalized over the graph."""

    f: float
    outcome: str
    depth: int
    weights: dict[str, float]


def reward_weights(graph: OntologyGraph, f: float) -> dict[str, float]:
    """((level+1)/depth)^f per node, rescaled so the mean weight is 1.

    Levels are shifted to 1-based so f = -1 stays finite at the roots;
    f = 0 gives every node weight exactly 1.
    """
    if not -1.0 <= f <= 1.0:
        raise ValidationError(f"reward exponent f must be in [-1, 1], got {f}")
    raw = {nid: ((graph.levels[nid] + 1) / graph.depth) ** f
           for nid in graph.ordered_ids}
    mean = sum(raw.values()) / len(raw)
    return {nid: w / mean for nid, w in raw.items()}


def make_reward_scheme(graph: OntologyGraph, f: float, outcome: str) -> RewardScheme:
    return RewardScheme(f=f, outcome=outcome, depth=graph.depth,
                        weights=reward_weights(graph, f))


def _bce_sum(logits: Tensor, rows: np.ndarray, records: list[Record],
             outcome: str) -> Tensor | None:
    """Sum of cross-entropy over the given rows of the batch, with rows
    that do not label outcome masked to exact 0."""
    y = np.zeros((rows.size, 1))
    mask = np.zeros((rows.size, 1))
    for j, i in enumerate(rows):
        labels = records[i].labels
        if outcome in labels:
            y[j, 0] = labels[outcome]
            mask[j, 0] = 1.0
    if not mask.any():
        return None
    return T.bce_with_logits_sum(logits, y, None if mask.all() else mask)


def _recon_terms(result) -> dict[str, Tensor]:
    return {nid: T.squared_error_sum(result.reconstructions[nid],
                                     result.inputs[result.rows[nid]])
            for nid in sorted(result.reconstructions)}


def _assemble(l1_terms: dict, l2_terms: dict[str, Tensor], lam: float,
              n_records: int) -> LossBreakdown:
    """Per-record means of the summed terms, so a batch of one record
    gives that record's loss."""
    inv = 1.0 / n_records
    zero = Tensor(np.zeros((1, 1)), const=True)
    per_outcome = {key: l1_terms[key].item() * inv for key in sorted(l1_terms)}
    per_node = {nid: l2_terms[nid].item() * inv for nid in sorted(l2_terms)}
    l1_t = T.sum_tensors([l1_terms[k] for k in sorted(l1_terms)]) if l1_terms else zero
    l2_t = T.sum_tensors([l2_terms[k] for k in sorted(l2_terms)]) if l2_terms else zero
    total_t = T.scale(T.add(l1_t, T.scale(l2_t, lam)), inv)
    l1 = l1_t.item() * inv
    l2 = l2_t.item() * inv
    return LossBreakdown(l1=l1, l2=l2, lam=lam, total=l1 + lam * l2,
                         per_outcome=per_outcome, per_node_recon=per_node,
                         loss=total_t)


def _as_records(records) -> list[Record]:
    return [records] if isinstance(records, Record) else list(records)


def masked_loss(result, records, graph: OntologyGraph, lam: float) -> LossBreakdown:
    """L1 over expressed core nodes with labeled outcomes, L2 over all
    expressed nodes, averaged over the records; a fully unlabeled record
    contributes L2 only."""
    if lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    recs = _as_records(records)
    l1_terms: dict[tuple[str, str], Tensor] = {}
    for (nid, outcome), logits in result.outcome_logits.items():
        if not graph.nodes[nid].core:
            continue
        if outcome not in graph.nodes[nid].outcomes:
            continue
        term = _bce_sum(logits, result.rows[nid], recs, outcome)
        if term is not None:
            l1_terms[(nid, outcome)] = term
    return _assemble(l1_terms, _recon_terms(result), lam, len(recs))


def shaped_loss(result, records, graph: OntologyGraph, lam: float,
                scheme: RewardScheme) -> LossBreakdown:
    """Reward-shaped variant: supervised loss at every expressed node for
    the scheme's shared outcome, each node weighted by its level weight."""
    if lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    recs = _as_records(records)
    o = scheme.outcome
    l1_terms: dict[tuple[str, str], Tensor] = {}
    for nid in sorted(result.representations):
        rows = result.rows[nid]
        if (nid, o) not in result.outcome_logits:
            if any(o in recs[i].labels for i in rows):
                raise ValidationError(
                    f"reward scheme is active but node {nid!r} has no head for "
                    f"outcome {o!r}")
            continue
        term = _bce_sum(result.outcome_logits[(nid, o)], rows, recs, o)
        if term is not None:
            l1_terms[(nid, o)] = T.scale(term, scheme.weights[nid])
    return _assemble(l1_terms, _recon_terms(result), lam, len(recs))
