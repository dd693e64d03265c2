"""Records, dataset IO, folds, and synthetic cohorts.

Record files are JSONL, one object per line:
    {"id": str, "features": [float x d], "concepts": [str, ...],
     "labels": {outcome: 0|1, ...}}
Concept sets are closed upward at load time so a record expressing a
concept always expresses all of its ancestors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import config_fields, json_field, json_lines, output_file
from .ontology import ConceptNode, OntologyGraph, ancestor_closure
from .rng import substream


@dataclass
class Record:
    id: str
    features: np.ndarray
    concepts: frozenset[str]
    labels: dict[str, int]

    @property
    def labeled(self) -> bool:
        return bool(self.labels)


@dataclass
class Dataset:
    records: list[Record]
    feature_dim: int
    outcomes: tuple[str, ...]

    def labeled_records(self) -> list[Record]:
        return [r for r in self.records if r.labeled]


@dataclass
class FoldPlan:
    k: int
    seed: int
    assignment: dict[str, int]

    def fold_of(self, record_id: str) -> int:
        return self.assignment[record_id]

    def to_json_obj(self) -> dict:
        return {"k": self.k, "seed": self.seed, "assignment": self.assignment}


def load_dataset(path: str, graph: OntologyGraph) -> Dataset:
    """Read a JSONL record file, validating every line against the graph."""
    known_outcomes = set(graph.outcome_names())
    records: list[Record] = []
    seen_ids: set[str] = set()
    for lineno, raw in json_lines(path, "records"):
        where = f"{path}:{lineno}"
        rec = _record_from_obj(raw, graph, known_outcomes, where)
        if records and rec.features.size != records[0].features.size:
            raise ValidationError(
                f"{where}: feature dimension {rec.features.size} does not "
                f"match dataset dimension {records[0].features.size}")
        if rec.id in seen_ids:
            raise ValidationError(f"{where}: duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
        records.append(rec)
    if not records:
        raise ValidationError(f"{path}: no records")
    _require_finite(records, path)
    return Dataset(records=records, feature_dim=records[0].features.size,
                   outcomes=graph.outcome_names())


def _require_finite(records: list[Record], path: str) -> None:
    """Raise, naming the first line, if some record loaded from the file at
    path holds a non-finite feature; one vectorised check covers 1,024
    records and copies their features."""
    for start in range(0, len(records), 1024):
        chunk = [r.features for r in records[start:start + 1024]]
        if not np.isfinite(np.concatenate(chunk)).all():
            bad = start + next(i for i, f in enumerate(chunk) if not np.isfinite(f).all())
            lineno = next(n for i, (n, _) in enumerate(json_lines(path, "records")) if i == bad)
            raise ValidationError(f"{path}:{lineno}: features must be finite numbers")


def _record_from_obj(raw, graph: OntologyGraph, known_outcomes: set[str],
                     where: str) -> Record:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: record must be a JSON object")
    rid = json_field(raw, "id", "str", where)
    features = json_field(raw, "features", "list[float]", where)
    concepts = json_field(raw, "concepts", "list[str]", where)
    labels = json_field(raw, "labels", "dict", where, default={})
    if not concepts:
        raise ValidationError(f"{where}: concepts must be nonempty")
    for cid in concepts:
        if cid not in graph.nodes:
            raise ValidationError(f"{where}: unknown concept id {cid!r}")
    for name in labels:
        if name not in known_outcomes:
            raise ValidationError(f"{where}: unknown outcome name {name!r}")
        if json_field(labels, name, "int", f"{where}: labels") not in (0, 1):
            raise ValidationError(f"{where}: label for {name!r} must be 0 or 1, "
                                  f"got {labels[name]!r}")
    return Record(id=rid, features=features,
                  concepts=ancestor_closure(graph, concepts), labels=labels)


def save_dataset(dataset: Dataset, path: str) -> None:
    with output_file(path) as fh:
        for r in dataset.records:
            obj = {"id": r.id, "features": [float(v) for v in r.features],
                   "concepts": sorted(r.concepts), "labels": r.labels}
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# stratified folds


def strata_of(record: Record, graph: OntologyGraph) -> list[tuple[str, str, int]]:
    """(core node, outcome, label) memberships of one record."""
    out = []
    for nid in sorted(record.concepts):
        node = graph.nodes[nid]
        if not node.core:
            continue
        for o in node.outcomes:
            if o in record.labels:
                out.append((nid, o, record.labels[o]))
    return out


def _balanced_sets(record: Record, graph: OntologyGraph) -> tuple[tuple, ...]:
    """Counts a fold plan keeps level that include this record: each core
    node it expresses, as (node,), and each of its strata."""
    nodes = [(nid,) for nid in graph.core_ids if nid in record.concepts]
    return tuple(nodes + strata_of(record, graph))


def _rebalance(labeled: list[Record], assignment: dict[str, int],
               graph: OntologyGraph, k: int) -> None:
    """Swap labeled records between folds while that levels the counts.

    Records with the same `_balanced_sets` are interchangeable. While some
    set's fold counts differ by two or more, swap a record holding it in
    its fullest fold against one lacking it in its emptiest fold, picking
    the pair that lowers the sum of squared fold counts over all sets the
    most. Stops when no such swap lowers that sum, so it always ends. Fold
    sizes never change.
    """
    folds: dict[tuple, list[list[str]]] = {}
    for rec in labeled:
        sig = _balanced_sets(rec, graph)
        folds.setdefault(sig, [[] for _ in range(k)])[assignment[rec.id]].append(rec.id)
    members = {sig: frozenset(sig) for sig in folds}
    counts: dict[tuple, list[int]] = {}
    for sig, per_fold in folds.items():
        for s in sig:
            c = counts.setdefault(s, [0] * k)
            for f, ids in enumerate(per_fold):
                c[f] += len(ids)
    while True:
        best_gain, best = 0, None
        for s in sorted(counts):
            c = counts[s]
            hi, lo = c.index(max(c)), c.index(min(c))
            if c[hi] - c[lo] < 2:
                continue
            # gain is half the drop in the sum of squares: moving a record of
            # set t from hi to lo lowers it by 2 * d[t], the reverse move
            # raises it by 2 * (d[t] + 2), and a set both records hold stays
            d = {t: ct[hi] - ct[lo] - 1 for t, ct in counts.items()}
            out = [(sum(d[t] for t in a), a) for a in folds
                   if s in members[a] and folds[a][hi]]
            into = [(-sum(d[t] + 2 for t in b), b) for b in folds
                    if s not in members[b] and folds[b][lo]]
            for gain_a, a in out:
                for gain_b, b in into:
                    gain = gain_a + gain_b + 2 * len(members[a] & members[b])
                    if gain > best_gain:
                        best_gain, best = gain, (a, b, hi, lo)
            if best is not None:
                break
        if best is None:
            return
        a, b, hi, lo = best
        rid_a, rid_b = folds[a][hi].pop(), folds[b][lo].pop()
        folds[a][lo].append(rid_a)
        folds[b][hi].append(rid_b)
        assignment[rid_a], assignment[rid_b] = lo, hi
        for s in a:
            counts[s][hi] -= 1
            counts[s][lo] += 1
        for s in b:
            counts[s][lo] -= 1
            counts[s][hi] += 1


def make_folds(dataset: Dataset, graph: OntologyGraph, k: int = 5,
               seed: int = 0) -> FoldPlan:
    """Stratified fold plan: a round-robin deal, then levelling swaps.

    The counts kept level are each core node's labeled members and each
    (core node, outcome, label) stratum; see `_balanced_sets`. Labeled
    records are shuffled, stably sorted by the sets they belong to, and
    dealt to folds c, c+1, ..., c+k-1, c, ... by one cursor that starts at
    a random fold c and carries over from one key group to the next. A run
    of records contiguous in that order lands within one of even across
    the folds. The runs cover all labeled records, so labeled fold sizes
    are within one, and, when each labeled record expresses a single core
    node, that node's members and the strata of its first outcome.
    `_rebalance` then swaps records between folds to bring every other
    count within one of even. Its search is local and can stop short of
    that where records express several overlapping core nodes, carry three
    or more outcomes per node, or lack some of a node's labels, since
    their strata can only move together.

    Unlabeled records are spread uniformly at random. The plan is a pure
    function of (dataset, graph, k, seed); its randomness comes from the
    "folds" substream of seed.
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    labeled = sorted(dataset.labeled_records(), key=lambda r: r.id)
    if len(labeled) < k:
        raise ValidationError(
            f"need at least k={k} labeled records, have {len(labeled)}")
    rng = substream(seed, "folds")
    rng.shuffle(labeled)
    labeled.sort(key=lambda r: _balanced_sets(r, graph))
    start = int(rng.integers(k))
    assignment = {rec.id: (start + i) % k for i, rec in enumerate(labeled)}
    _rebalance(labeled, assignment, graph, k)
    for rec in dataset.records:
        if rec.id not in assignment:
            assignment[rec.id] = int(rng.integers(k))
    return FoldPlan(k=k, seed=seed, assignment=assignment)


# ---------------------------------------------------------------------------
# synthetic cohorts


@dataclass
class SynthConfig:
    """Layered-DAG cohort generator settings.

    The graph is a `branching`-ary tree of `levels` levels; leaves are core
    nodes carrying every outcome, inner nodes are augmented (records
    anchored there stay unlabeled). Child task weights follow
    rho * parent + sqrt(1 - rho^2) * noise, so high rho means strongly
    shared tasks along the hierarchy.
    """

    levels: int = 3
    branching: int = 2
    records_per_node: int = 500
    feature_dim: int = 41
    prevalence: float = 0.15
    rho: float = 0.9
    noise_scale: float = 1.0
    signal_gain: float = 2.5  # score sharpening; larger = less label noise
    root_weight_scale: float = 1.0  # < 1 damps the shared root task component
    outcomes: tuple[str, ...] = ("mortality", "phenotype")
    low_data_node: str | None = None  # defaults to the last leaf
    low_data_records: int = 200
    seed: int = 0

    @staticmethod
    def from_json_obj(obj: dict) -> "SynthConfig":
        cfg = SynthConfig(**config_fields(SynthConfig, obj, "synth config"))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.levels < 1 or self.branching < 1:
            raise ValidationError("levels and branching must be >= 1")
        if self.records_per_node < 1 or self.feature_dim < 1:
            raise ValidationError("records_per_node and feature_dim must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must be in [0, 1], got {self.rho}")
        if not 0.0 < self.prevalence < 1.0:
            raise ValidationError(f"prevalence must be in (0, 1), got {self.prevalence}")
        if not self.outcomes:
            raise ValidationError("need at least one outcome name")


def _synth_node_id(level: int, index: int) -> str:
    return f"n{level}_{index}"


def build_synth_graph(config: SynthConfig) -> OntologyGraph:
    """Perfect branching-tree DAG; deepest level flagged core."""
    nodes: list[ConceptNode] = []
    edges: list[tuple[str, str]] = []
    last = config.levels - 1
    for level in range(config.levels):
        width = config.branching ** level
        for i in range(width):
            nid = _synth_node_id(level, i)
            core = level == last
            nodes.append(ConceptNode(
                id=nid, concept=str(10000 + 100 * level + i), core=core,
                outcomes=config.outcomes if core else ()))
            if level > 0:
                edges.append((_synth_node_id(level - 1, i // config.branching), nid))
    return OntologyGraph(nodes, edges)


def _tune_bias(scores: np.ndarray, uniforms: np.ndarray, target: float) -> float:
    """Bisect the shared label bias until realized prevalence hits target.

    Labels are (uniform < sigmoid(score + b)), monotone in b, so realized
    prevalence can always be driven to within one record of the target.
    """
    def realized(b: float) -> float:
        p = 1.0 / (1.0 + np.exp(-(scores + b)))
        return float(np.mean(uniforms < p))

    lo, hi = -60.0, 60.0
    if realized(lo) > target or realized(hi) < target:
        raise ValidationError(f"prevalence target {target} unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if realized(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def generate_synthetic(config: SynthConfig) -> tuple[OntologyGraph, Dataset]:
    """Build the layered graph plus an anchored, partially labeled cohort."""
    config.validate()
    graph = build_synth_graph(config)
    rng = substream(config.seed, "synth")
    d = config.feature_dim

    prototypes = {nid: rng.normal(0.0, 1.0, size=d) for nid in graph.ordered_ids}
    weights: dict[str, dict[str, np.ndarray]] = {}
    for outcome in config.outcomes:
        w: dict[str, np.ndarray] = {}
        for nid in graph.ordered_ids:  # parents precede children
            ps = graph.parents[nid]
            fresh = rng.normal(0.0, 1.0, size=d) / np.sqrt(d)
            if ps:
                base = np.mean([w[p] for p in ps], axis=0)
                w[nid] = config.rho * base + np.sqrt(1.0 - config.rho ** 2) * fresh
            else:
                # a damped root keeps sibling subtrees related but distinct,
                # so fully shared models cannot ride one global direction
                w[nid] = config.root_weight_scale * fresh
        weights[outcome] = w

    low_data = config.low_data_node
    if low_data is None:
        leaves = [nid for nid in graph.ordered_ids if graph.nodes[nid].core]
        low_data = leaves[-1] if leaves else None
    if low_data is not None and low_data not in graph.nodes:
        raise ValidationError(f"low_data_node {low_data!r} is not in the graph")

    records: list[Record] = []
    anchors: list[str] = []
    feats: list[np.ndarray] = []
    for nid in graph.ordered_ids:
        n = config.records_per_node
        if nid == low_data:
            n = min(n, config.low_data_records)
        mu = prototypes[nid]
        for _ in range(n):
            anchors.append(nid)
            feats.append(mu + config.noise_scale * rng.normal(0.0, 1.0, size=d))

    labeled_idx = [i for i, a in enumerate(anchors) if graph.nodes[a].core]
    labels_by_idx: dict[int, dict[str, int]] = {i: {} for i in labeled_idx}
    for outcome in config.outcomes:
        if not labeled_idx:
            break
        scores = np.array([weights[outcome][anchors[i]] @ feats[i] for i in labeled_idx])
        # center per anchor cohort so every node sees the target prevalence,
        # then sharpen the within-cohort signal
        for nid in set(anchors[i] for i in labeled_idx):
            sel = np.array([anchors[i] == nid for i in labeled_idx])
            scores[sel] -= scores[sel].mean()
        scores = config.signal_gain * scores / max(np.std(scores), 1e-12)
        uniforms = rng.random(len(labeled_idx))
        bias = _tune_bias(scores, uniforms, config.prevalence)
        p = 1.0 / (1.0 + np.exp(-(scores + bias)))
        drawn = uniforms < p
        for j, i in enumerate(labeled_idx):
            labels_by_idx[i][outcome] = int(drawn[j])

    for i, (anchor, x) in enumerate(zip(anchors, feats)):
        records.append(Record(
            id=f"r{i:05d}",
            features=x,
            concepts=ancestor_closure(graph, [anchor]),
            labels=labels_by_idx.get(i, {}),
        ))
    dataset = Dataset(records=records, feature_dim=d, outcomes=config.outcomes)
    return graph, dataset
