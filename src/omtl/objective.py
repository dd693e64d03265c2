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

A loss is one tape op, `tensor.multitask_loss`, over all (row, node)
pairs of a forward pass, whatever the depth or width of the graph: the
reconstructions, the outcome heads (left out when no term has weight) and
L1 + lambda * L2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .ontology import OntologyGraph
from .tensor import Tensor


@dataclass
class LossBreakdown:
    l1: float
    l2: float
    total: float
    per_outcome: dict[tuple[str, str], float]
    per_node_recon: dict[str, float]
    loss: Tensor  # differentiable handle for the total


@dataclass(frozen=True)
class RewardScheme:
    """Level-based outcome-loss weights, mean-normalized over the graph."""

    outcome: str
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
    return RewardScheme(outcome=outcome, weights=reward_weights(graph, f))


def _pair_loss(result, lam: float, head_weight: np.ndarray) -> LossBreakdown:
    """Mean-per-record loss of a forward pass, as one `multitask_loss` op
    over all of its (row, node) pairs. head_weight[h] is head h's weight in
    L1 (0 leaves it out); a (row, head) term counts only where the row
    labels the head's outcome."""
    if lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    model, seg, rows, rep = result.model, result.seg, result.pair_rows, result.rep
    if rep is None:
        return LossBreakdown(0.0, 0.0, 0.0, {}, {}, Tensor([[0.0]], const=True))
    inv = 1.0 / result.inputs.shape[0]
    heads = hseg = None
    if model.head_w is not None:
        pair, head = model.head_pairs(seg)
        prow, outcome = rows[pair], model.head_outcome[head]
        weight = result.labeled[prow, outcome] * head_weight[head]
        keep = np.flatnonzero(weight)
        if keep.size:
            hseg = T.Segments(head[keep])
            heads = (pair[keep], hseg, model.head_w, model.head_b,
                     result.labels[prow[keep], outcome[keep]], weight[keep])
    loss, l1, l2, node_sums, head_sums = T.multitask_loss(
        rep, seg, model.recon_w, model.recon_b, result.inputs[rows], heads, lam, inv)
    nodes = model.graph.ordered_ids
    per_node = dict(zip([nodes[m] for m in seg.members.tolist()],
                        (node_sums * inv).tolist()))
    per_outcome = {} if hseg is None else \
        dict(zip([model.head_keys[h] for h in hseg.members.tolist()],
                 (head_sums * inv).tolist()))
    return LossBreakdown(l1=l1, l2=l2, total=loss.item(), per_outcome=per_outcome,
                         per_node_recon=per_node, loss=loss)


def masked_loss(result, lam: float) -> LossBreakdown:
    """L1 over expressed core nodes with labeled outcomes, L2 over all
    expressed nodes, averaged over the forwarded records; a fully unlabeled
    record contributes L2 only."""
    return _pair_loss(result, lam, result.model.head_masked)


def shaped_loss(result, lam: float, scheme: RewardScheme) -> LossBreakdown:
    """Reward-shaped variant: supervised loss at every expressed node for
    the scheme's shared outcome, each node weighted by its level weight."""
    model = result.model
    k = model.outcome_col.get(scheme.outcome)
    if k is not None and result.seg is not None:
        bad = np.flatnonzero(result.labeled[result.pair_rows, k]
                             & ~model.has_head[result.seg.of, k])
        if bad.size:
            raise ValidationError(
                f"reward scheme is active but node "
                f"{model.graph.ordered_ids[result.seg.of[bad[0]]]!r} has no head "
                f"for outcome {scheme.outcome!r}")
    node_w = np.array([scheme.weights[n] for n in model.graph.ordered_ids])
    return _pair_loss(result, lam, np.where(model.head_outcome == k,
                                            node_w[model.head_node], 0.0))
