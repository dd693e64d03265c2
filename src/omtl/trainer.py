"""Training, scoring, and cross-validation.

`train_variant` is the one way to train. It turns the cohort into columns
once, builds the model, holds out one validation slice, and runs the
variant's phases through one loop. sb, moe and mmoe train in one phase.
omtl trains in two: phase 1 with ontology routing off and the parent gates
frozen (experts, expert gates, representations, reconstructions, heads);
then, when `hierarchy_finetune` is set, phase 2 draws fresh parent gates,
switches routing on, freezes the experts and expert gates, and fine-tunes
everything else. A phase sets the arena's `trainable` slice to its span
(`OmtlModel.phase_span`), which is all that Adam updates and all that is
not const. Each epoch is planned once after its shuffle (`BatchPlan`):
every batch's pairs, segments, route and head terms, so a step slices the
plan and runs the tape. Early stopping watches total loss on the held-out
slice, which both omtl phases share and which is planned once per phase,
and always restores the best snapshot seen (one copy of the arena). A loss
that is not finite, in a step or on the slice, is a NumericalError.

Every loss is `objective.batch_loss` of a forward pass over a batch
planned for the phase's scheme: a step's in train mode, and otherwise
through `evaluate_loss`, the one eval loss, which the monitor calls with
its planned slice and other callers with records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .datastore import Columns, Dataset, FoldPlan, columns_of, make_folds
from .fields import config_fields
from .errors import NumericalError, ValidationError
from .metrics import (EvalReport, ScoredSet, compare_scored_sets, score_metrics,
                      two_class)
from .model import (Batch, BatchPlan, ModelSpec, OmtlModel, build_model,
                    forward, reinit_parent_gates)
from .objective import (LossBreakdown, RewardScheme, batch_loss, check_reward_f,
                        make_reward_scheme)
from .ontology import OntologyGraph
from .rng import substream
from .tensor import Arena, Tape

# records per forward pass when scoring; bounds the memory a pass holds
SCORE_CHUNK = 1024


class _FlatAdam:
    """Bias-corrected Adam over the arena's trainable span, as it is when
    the optimizer is made: each step reads that span of the gradients a
    backward-replayed Tape accumulated and updates the arena's values in
    place, through buffers allocated once."""

    def __init__(self, arena: Arena, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.arena, self.span = arena, arena.trainable
        size = self.span.stop - self.span.start
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._num = np.empty(size)
        self._den = np.empty(size)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0

    def step(self, tape: Tape) -> None:
        g = tape.arena_grads(self.arena)[self.span]
        # one entrywise scan: it raises no overflow warning, as a sum of
        # large finite entries would, and costs less than the sum
        if not np.isfinite(g).all():
            at = self.span.start + np.flatnonzero(~np.isfinite(g))[0]
            name = next(n for n, p in self.arena.params.items() if at < p.span.stop)
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        num, den = self._num, self._den
        # m = beta1 m + (1 - beta1) g and v = beta2 v + ((1 - beta2) g) g,
        # then values -= (step * m) / (sqrt(v / (1 - beta2^t)) + eps)
        self.m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=num)
        self.m += num
        self.v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=num)
        num *= g
        self.v += num
        step = self.lr / (1.0 - self.beta1 ** self.t)
        np.divide(self.v, 1.0 - self.beta2 ** self.t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.multiply(self.m, step, out=num)
        num /= den
        self.arena.values[self.span] -= num


@dataclass
class TrainConfig:
    variant: str = "omtl"
    batch_size: int = 64
    lr: float = 0.001
    dropout: float = 0.5
    lam: float = 0.0001
    num_experts: int = 3
    repr_dim: int = 5
    max_epochs: int = 100
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0
    hierarchy_finetune: bool = True
    reward_f: float | None = None
    leaky_slope: float = 0.01

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not self.lr > 0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if self.lam < 0:
            raise ValidationError("lambda must be >= 0")
        if self.max_epochs < 0 or self.patience < 0:
            raise ValidationError("max_epochs and patience must be >= 0")
        if not 0.0 <= self.val_fraction < 0.5:
            raise ValidationError("val_fraction must be in [0, 0.5)")
        if self.reward_f is not None:
            check_reward_f(self.reward_f)
        # the model's checks that need no cohort; its dimensions and size
        # are checked by model_spec, once the cohort's feature_dim is known
        ModelSpec.check_fields(self.variant, self.experts, self.dropout)

    @staticmethod
    def from_json_obj(obj: dict) -> "TrainConfig":
        cfg = TrainConfig(**config_fields(TrainConfig, obj, "train config"))
        cfg.validate()
        return cfg

    @property
    def experts(self) -> int:
        """The model's num_experts: one for sb, whatever num_experts says."""
        return 1 if self.variant == "sb" else self.num_experts

    def model_spec(self, feature_dim: int) -> ModelSpec:
        return ModelSpec(variant=self.variant, num_experts=self.experts,
                         feature_dim=feature_dim, repr_dim=self.repr_dim,
                         dropout=self.dropout, leaky_slope=self.leaky_slope)


@dataclass
class TrainLog:
    entries: list[dict] = field(default_factory=list)
    train_record_ids: set[str] = field(default_factory=set)
    final_param_hash: str = ""

    def to_json_obj(self) -> dict:
        return {"entries": self.entries, "final_param_hash": self.final_param_hash}


def evaluate_loss(model: OmtlModel, graph: OntologyGraph, records,
                  cfg: TrainConfig, scheme: RewardScheme | None,
                  batch: Batch | None = None) -> LossBreakdown:
    """The one eval loss: eval-mode (dropout-free) `batch_loss` over all
    of records (a record list, or anything else `columns_of` takes over
    graph) as one batch planned for scheme; or over batch, a caller's
    one-batch plan of them for the same scheme. The plan rejects columns
    built over a graph other than the model's."""
    if batch is None:
        batch = BatchPlan(model, columns_of(records, graph), scheme=scheme).batch(0)
    return batch_loss(forward(model, batch), cfg.lam)


# the (training, held-out) row indices of one model's records
Split = tuple[np.ndarray, np.ndarray]


def _split_validation(cols: Columns, graph: OntologyGraph, cfg: TrainConfig) -> Split:
    """One model's split: the held-out records are fold 0 of a
    1/val_fraction-fold plan seeded from the "valsplit.0" stream, and none
    when val_fraction is 0 or too few records are labeled."""
    every, none = np.arange(len(cols)), np.arange(0)
    if cfg.val_fraction <= 0.0:
        return every, none
    k = max(2, round(1.0 / cfg.val_fraction))
    if np.count_nonzero(cols.labeled.any(axis=1)) < k:
        return every, none
    seed = int(substream(cfg.seed, "valsplit.0").integers(2 ** 31))
    plan = make_folds(cols, graph, k=k, seed=seed)
    fold = plan.folds_of(cols.ids)
    return np.flatnonzero(fold != 0), np.flatnonzero(fold == 0)


def _train_epoch(model: OmtlModel, plan: BatchPlan, cfg: TrainConfig, dropout_rng,
                 adam: _FlatAdam, where: str) -> tuple[float, float]:
    """One Adam step per batch of plan; returns the epoch's mean l1 and
    l2. The plan, and the last step's tape, which reads it, are freed on
    return, before the monitor runs and the next epoch is planned."""
    l1 = l2 = 0.0
    for b in range(len(plan)):
        batch = plan.batch(b)
        with Tape() as tape:
            breakdown = batch_loss(forward(model, batch, "train", dropout_rng), cfg.lam)
        if not np.isfinite(breakdown.total):
            raise NumericalError(f"non-finite loss in {where}, batch starting at "
                                 f"record {plan.cols.ids[batch.rows[0]]!r}")
        tape.backward(breakdown.loss)
        adam.step(tape)
        w = len(batch.rows) / max(len(plan.rows), 1)
        l1 += breakdown.l1 * w
        l2 += breakdown.l2 * w
    return l1, l2


def _train_phase(model: OmtlModel, cols: Columns, split: Split, cfg: TrainConfig,
                 log: TrainLog, phase: str, stage: int,
                 scheme: RewardScheme | None = None) -> None:
    """One phase: Adam over shuffled mini-batches of split's training rows
    of cols, only the phase's span of the arena trained, with
    patience-based early stopping on the held-out rows (the training rows
    when there are none) and the best snapshot restored at the end. stage
    indexes the rng streams, so omtl phase 1 and a single-phase baseline
    draw identical shuffles and dropout masks for the same seed.

    Each epoch's batches are planned once, after its shuffle
    (`BatchPlan`), and the held-out rows once per phase, so a step only
    slices the plan.
    """
    arena = model.arena
    arena.trainable = model.phase_span(phase)
    try:
        train_rows, val_rows = split
        shuffle_rng = substream(cfg.seed, f"shuffle.{stage}")
        dropout_rng = substream(cfg.seed, f"dropout.{stage}")
        adam = _FlatAdam(arena, lr=cfg.lr)

        best = arena.values.copy()
        best_loss = float("inf")
        strikes = 0
        order = train_rows.copy()
        watch = None
        for epoch in range(cfg.max_epochs):
            shuffle_rng.shuffle(order)
            epoch_l1, epoch_l2 = _train_epoch(
                model, BatchPlan(model, cols, order, cfg.batch_size, scheme), cfg,
                dropout_rng, adam, f"phase {phase!r}, epoch {epoch}")
            # without held-out rows the monitor reads the shuffled training
            # rows, whose order its sums follow, so it is planned anew
            if watch is None or not val_rows.size:
                watch = BatchPlan(model, cols, val_rows if val_rows.size else order,
                                  scheme=scheme).batch(0)
            monitored = evaluate_loss(model, model.graph, cols, cfg, scheme, batch=watch)
            if not np.isfinite(monitored.total):
                raise NumericalError(
                    f"non-finite monitored loss in phase {phase!r}, epoch {epoch}")
            log.entries.append({
                "phase": phase, "epoch": epoch,
                "train_l1": epoch_l1, "train_l2": epoch_l2,
                "train_total": epoch_l1 + cfg.lam * epoch_l2,
                "val_total": monitored.total,
                "val_l1": monitored.l1, "val_l2": monitored.l2,
            })
            if monitored.total < best_loss:
                best_loss = monitored.total
                best = arena.values.copy()
                strikes = 0
            else:
                strikes += 1
                if strikes >= cfg.patience:
                    break
        if cfg.max_epochs:  # an epoch steps every training record
            log.train_record_ids.update(cols.ids[train_rows].tolist())
        arena.values[...] = best
    finally:
        arena.trainable = slice(0, arena.size)


def shaping_scheme(cfg: TrainConfig, graph: OntologyGraph) -> RewardScheme | None:
    """The reward scheme omtl's phase 2 trains with, None without reward_f
    or for another variant. It needs no cohort, so a caller can check it
    before reading one."""
    if cfg.reward_f is None or cfg.variant != "omtl":
        return None
    outcomes = graph.outcome_names()
    if len(outcomes) != 1:
        raise ValidationError(
            "reward shaping needs a single shared outcome; graph declares "
            f"{list(outcomes)}")
    return make_reward_scheme(graph, cfg.reward_f, outcomes[0])


def train_variant(graph: OntologyGraph, data,
                  cfg: TrainConfig) -> tuple[OmtlModel, TrainLog]:
    """Train cfg.variant on data (a `Dataset`, `Columns` or records): one
    phase for sb, moe and mmoe; for omtl, phase 1 and then, when
    cfg.hierarchy_finetune is set, phase 2."""
    cfg.validate()
    scheme = shaping_scheme(cfg, graph)
    cols = columns_of(data, graph)
    model = build_model(cfg.model_spec(cols.X.shape[1]), graph, seed=cfg.seed,
                        shared_outcome=scheme.outcome if scheme else None)
    split = _split_validation(cols, graph, cfg)
    log = TrainLog()
    if cfg.variant != "omtl":
        _train_phase(model, cols, split, cfg, log, "single", 0)
    else:
        model.hierarchy_enabled = False
        _train_phase(model, cols, split, cfg, log, "phase1", 0)
        if cfg.hierarchy_finetune:
            reinit_parent_gates(model, cfg.seed)
            model.hierarchy_enabled = True
            _train_phase(model, cols, split, cfg, log, "phase2", 1, scheme)
    log.final_param_hash = _param_hash(model)
    return model, log


def _param_hash(model: OmtlModel) -> str:
    import hashlib
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].values.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# cross-validated experiments


@dataclass
class CvResult:
    variant: str
    plan: FoldPlan
    fold_reports: list[EvalReport]
    pooled: dict[tuple[str, str], ScoredSet]
    pooled_report: EvalReport
    logs: list[TrainLog]

    def to_json_obj(self) -> dict:
        agg: dict[str, dict] = {}
        for key in sorted(self.pooled):
            folds = [r.per_target[key] for r in self.fold_reports if key in r.per_target]
            per_fold = [m.auc for m in folds]
            agg["|".join(key)] = {
                "auc_mean": float(np.mean(per_fold)) if folds else None,
                "auc_per_fold": per_fold,
                "aps_mean": float(np.mean([m.aps for m in folds])) if folds else None,
            }
        return {
            "variant": self.variant,
            "k": self.plan.k,
            "aggregate": agg,
            "pooled": self.pooled_report.to_json_obj(),
            "folds": [r.to_json_obj() for r in self.fold_reports],
        }


def _chunks(records, graph: OntologyGraph):
    """records as `Columns` of at most SCORE_CHUNK rows each. Columns and a
    Dataset's columns are cut into row ranges read in place; a record list
    is converted a chunk at a time. So scoring never holds a second copy of
    all the features."""
    if isinstance(records, (Columns, Dataset)):
        cols = columns_of(records, graph)
        return (cols.take(slice(start, start + SCORE_CHUNK))
                for start in range(0, len(cols), SCORE_CHUNK))
    records = list(records)
    return (Columns.from_records(records[start:start + SCORE_CHUNK], graph)
            for start in range(0, len(records), SCORE_CHUNK))


def score_holdout(model: OmtlModel, graph: OntologyGraph,
                  records) -> dict[tuple[str, str], list[tuple[str, int, float]]]:
    """Eval-mode scores of every head the masked loss supervises (a core
    node's own outcome) over the held-out records (a record list, Columns
    or a Dataset) that express its node and label its outcome; returns
    (record id, label, score) triples by (node, outcome). Scores are
    sigmoids of the head logits, clipped into open (0, 1).

    Records are scored SCORE_CHUNK at a time. A chunk takes one forward
    pass and one head product over every (pair, head) term; one mask then
    keeps the terms of supervised heads whose row labels the head's
    outcome, and each head takes its run of them as list slices. So the
    triples come chunk by chunk, then by head in `model.head_keys` order,
    then by row, and keys in the order a chunk first holds their node: a
    supervised head gets its key, perhaps with no triples, from the first
    chunk that expresses its node."""
    collected: dict[tuple[str, str], list[tuple[str, int, float]]] = {}
    lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    supervised = model.head_masked.astype(bool)
    for cols in _chunks(records, graph):
        batch = BatchPlan(model, cols, heads=False).batch(0)
        if batch.seg is None:
            continue
        pair, head = model.head_pairs(batch.seg)
        if not pair.size:
            continue
        hseg = T.Segments(head)
        z, _ = T.rowwise_affine(forward(model, batch).rep.values[pair],
                                model.head_w.values, model.head_b.values, hseg)
        scores = np.clip(T._sigmoid_values(z[:, 0]), lo, hi)
        rows, k = batch.pair_rows[pair], model.head_outcome[head]
        keep = supervised[head] & batch.labeled[rows, k]
        rows, k = rows[keep], k[keep]
        triples = list(zip(cols.ids[rows].tolist(),
                           batch.labels[rows, k].astype(int).tolist(),
                           scores[keep].tolist()))
        # a supervised head's run of kept terms: the kept terms before its
        # run's start up to those before its end
        before = np.concatenate(([0], np.cumsum(keep)))
        runs = supervised[hseg.members]
        for h, a, b in zip(hseg.members[runs].tolist(), before[hseg.starts[runs]].tolist(),
                           before[hseg.ends[runs]].tolist()):
            collected.setdefault(model.head_keys[h], []).extend(triples[a:b])
    return collected


def scored_set(key: tuple[str, str],
                triples: list[tuple[str, int, float]]) -> ScoredSet:
    triples = sorted(triples)  # record-id order aligns sets across models
    return ScoredSet(
        scores=np.array([t[2] for t in triples]),
        labels=np.array([t[1] for t in triples]),
        node=key[0], outcome=key[1], ids=tuple(t[0] for t in triples))


def run_cv(graph: OntologyGraph, data, cfg: TrainConfig, k: int = 5,
           plan: FoldPlan | None = None) -> CvResult:
    """Train and score cfg.variant across k folds of one shared plan; data
    is a `Dataset`, `Columns` or records."""
    cfg.validate()
    cols = columns_of(data, graph)
    if plan is None:
        plan = make_folds(cols, graph, k=k, seed=cfg.seed)
    elif plan.k != k:
        raise ValidationError(f"fold plan has k={plan.k}, requested k={k}")
    folds = plan.folds_of(cols.ids)

    fold_reports: list[EvalReport] = []
    logs: list[TrainLog] = []
    pooled_triples: dict[tuple[str, str], list[tuple[str, int, float]]] = {}
    for fold in range(k):
        test = cols.take(np.flatnonzero(folds == fold))
        model, log = train_variant(graph, cols.take(np.flatnonzero(folds != fold)), cfg)
        leaked = log.train_record_ids & set(test.ids.tolist())
        if leaked:
            raise NumericalError(f"fold {fold}: test records leaked into "
                                 f"training: {sorted(leaked)[:3]}")
        collected = score_holdout(model, graph, test)
        logs.append(log)
        for key, triples in sorted(collected.items()):
            pooled_triples.setdefault(key, []).extend(triples)
        sets = {key: scored_set(key, t) for key, t in sorted(collected.items())}
        fold_reports.append(EvalReport(
            per_target={key: score_metrics(s, with_roc=False)
                        for key, s in two_class(sets).items()},
            metadata={"fold": fold}))
    pooled = {key: scored_set(key, triples)
              for key, triples in sorted(pooled_triples.items())}
    pooled_report = EvalReport(
        per_target={key: score_metrics(s) for key, s in two_class(pooled).items()},
        metadata={"delong_pooling": "out_of_fold_pooled", "k": k,
                  "variant": cfg.variant, "seed": cfg.seed})
    return CvResult(variant=cfg.variant, plan=plan, fold_reports=fold_reports,
                    pooled=pooled, pooled_report=pooled_report, logs=logs)


def compare_variants(graph: OntologyGraph, data, cfg: TrainConfig,
                     variants: list[str],
                     k: int = 5) -> tuple[dict[str, CvResult], list[dict]]:
    """Run several distinct variants on exactly the same folds and
    DeLong-test every pair on the pooled out-of-fold scores."""
    repeated = [v for i, v in enumerate(variants) if v in variants[:i]]
    if repeated:
        raise ValidationError(f"variant {repeated[0]!r} is listed more than once")
    for v in variants:
        replace(cfg, variant=v).validate()
    cols = columns_of(data, graph)
    plan = make_folds(cols, graph, k=k, seed=cfg.seed)
    results = {v: run_cv(graph, cols, replace(cfg, variant=v), k=k, plan=plan)
               for v in variants}
    comparisons: list[dict] = []
    for i, va in enumerate(variants):
        for vb in variants[i + 1:]:
            shared = sorted(two_class(results[va].pooled).keys()
                            & two_class(results[vb].pooled).keys())
            for key in shared:
                comparisons.append(compare_scored_sets(
                    results[va].pooled[key], results[vb].pooled[key], va, vb))
    return results, comparisons
