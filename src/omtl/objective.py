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

from . import tensor as T
from .errors import ValidationError
from .ontology import OntologyGraph
from .tensor import Tensor


@dataclass
class LossBreakdown:
    """A batch's loss: l1, l2, their total and its differentiable handle.
    per_outcome and per_node_recon are built when read, from the per-head
    and per-node sums, so a training step, which reads neither, never
    builds them."""

    l1: float
    l2: float
    total: float
    loss: Tensor
    sums: tuple = ()  # (model, nodes, their recon sums, heads, their sums, 1/batch)

    @property
    def per_node_recon(self) -> dict[str, float]:
        if not self.sums:
            return {}
        model, nodes, node_sums, _, _, inv = self.sums
        ids = model.graph.ordered_ids
        return dict(zip([ids[m] for m in nodes.tolist()], (node_sums * inv).tolist()))

    @property
    def per_outcome(self) -> dict[tuple[str, str], float]:
        if not self.sums or self.sums[3] is None:
            return {}
        model, _, _, heads, head_sums, inv = self.sums
        return dict(zip([model.head_keys[h] for h in heads.tolist()],
                        (head_sums * inv).tolist()))


@dataclass(frozen=True)
class RewardScheme:
    """Level-based outcome-loss weights, mean-normalized over the graph."""

    outcome: str
    weights: dict[str, float]


def check_reward_f(f: float) -> None:
    """The reward exponent's range, [-1, 1]."""
    if not -1.0 <= f <= 1.0:
        raise ValidationError(f"reward exponent f must be in [-1, 1], got {f}")


def reward_weights(graph: OntologyGraph, f: float) -> dict[str, float]:
    """((level+1)/depth)^f per node, rescaled so the mean weight is 1.

    Levels are shifted to 1-based so f = -1 stays finite at the roots;
    f = 0 gives every node weight exactly 1.
    """
    check_reward_f(f)
    raw = {nid: ((graph.levels[nid] + 1) / graph.depth) ** f
           for nid in graph.ordered_ids}
    mean = sum(raw.values()) / len(raw)
    return {nid: w / mean for nid, w in raw.items()}


def make_reward_scheme(graph: OntologyGraph, f: float, outcome: str) -> RewardScheme:
    return RewardScheme(outcome=outcome, weights=reward_weights(graph, f))


def batch_loss(result, lam: float) -> LossBreakdown:
    """Mean-per-record loss of a forward pass, as one `multitask_loss` op
    over all of its (row, node) pairs and the head terms its batch was
    planned with (`model.BatchPlan`)."""
    if lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    model, batch = result.model, result.batch
    if result.rep is None:
        return LossBreakdown(0.0, 0.0, 0.0, Tensor([[0.0]], const=True))
    inv = 1.0 / batch.rows.size
    heads = None
    if batch.heads is not None:
        pair, hseg, y, weight = batch.heads
        heads = (pair, hseg, model.head_w, model.head_b, y, weight)
    loss, l1, l2, node_sums, head_sums = T.multitask_loss(
        result.rep, batch.seg, model.recon_w, model.recon_b, result.targets, heads, lam,
        inv)
    return LossBreakdown(l1, l2, loss.item(), loss,
                         (model, batch.seg.members, node_sums,
                          None if heads is None else heads[1].members, head_sums, inv))


def masked_loss(result, lam: float) -> LossBreakdown:
    """L1 over expressed core nodes with labeled outcomes, L2 over all
    expressed nodes, averaged over the forwarded records; a fully unlabeled
    record contributes L2 only."""
    return batch_loss(result.planned_for(None), lam)


def shaped_loss(result, lam: float, scheme: RewardScheme) -> LossBreakdown:
    """Reward-shaped variant: supervised loss at every expressed node for
    the scheme's shared outcome, each node weighted by its level weight."""
    return batch_loss(result.planned_for(scheme), lam)
