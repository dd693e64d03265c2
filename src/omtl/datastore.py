"""Records, dataset IO, columns, folds, and synthetic cohorts.

Record files are JSONL, one object per line:
    {"id": str, "features": [float x d], "concepts": [str, ...],
     "labels": {outcome: 0|1, ...}}
Concept sets are closed upward at load time so a record expressing a
concept always expresses all of its ancestors.

`Record` lives at the IO edge. Training, fold planning and scoring read a
cohort as `Columns` and address records by row index. `load_dataset`
reads a file a chunk of lines at a time, checks each chunk field by field
and builds the columns as it goes; a loaded record's features are a row
of those columns' feature matrix. A cohort made in memory becomes columns
on first use.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import MISSING, dataclass, field

import numpy as np

from .errors import ValidationError
from .fields import (MAX_SIZE, config_fields, has_kind, json_field, json_floats, json_lines,
                     output_file)
from .ontology import ConceptNode, OntologyGraph, ancestor_closure
from .rng import substream


@dataclass(slots=True)
class Record:
    id: str
    features: np.ndarray
    concepts: frozenset[str]
    labels: dict[str, int]


@dataclass(frozen=True, eq=False)
class Columns:
    """A cohort's records as arrays, one row per record, in record order.

    `member` has one column per graph node, in `graph.ordered_ids` order;
    `labels` (0 or 1) and `labeled` one per outcome, the graph's outcome
    names and then any other label name the records carry. `unclosed`
    marks rows whose concept set lacks a parent of one of its nodes, which
    the forward pass rejects when it routes through parents.
    """

    ids: np.ndarray       # (n,) object: record ids
    X: np.ndarray         # (n, d) features
    member: np.ndarray    # (n, nodes) bool
    labels: np.ndarray    # (n, outcomes) float
    labeled: np.ndarray   # (n, outcomes) bool
    unclosed: np.ndarray  # (n,) bool
    nodes: tuple[str, ...]
    outcomes: tuple[str, ...]
    graph_hash: str

    @staticmethod
    def from_records(records: list[Record], graph: OntologyGraph) -> "Columns":
        # records share few concept sets: map each distinct one once
        set_of: dict[frozenset, int] = {}
        which = [set_of.setdefault(rec.concepts, len(set_of)) for rec in records]
        try:
            x = np.array([rec.features for rec in records], dtype=np.float64)
        except ValueError:
            raise ValidationError("records' features differ in length") from None
        return Columns.build([rec.id for rec in records],
                             x if records else np.zeros((0, 0)), list(set_of), which,
                             [rec.labels for rec in records], graph)

    @staticmethod
    def build(ids: list[str], x: np.ndarray, sets: list[frozenset], which: list[int],
              labels: list[dict], graph: OntologyGraph) -> "Columns":
        """The columns of records given field by field: ids, features x
        (n, d), the distinct concept sets and each record's index into
        them, and label dicts."""
        nodes = tuple(graph.ordered_ids)
        node_col = {nid: j for j, nid in enumerate(nodes)}
        rows = np.zeros((len(sets), len(nodes)), dtype=bool)
        for i, concepts in enumerate(sets):
            unknown = [c for c in concepts if c not in node_col]
            if unknown:
                raise ValidationError(f"record {ids[which.index(i)]!r}: "
                                      f"unknown concept id {unknown[0]!r}")
            rows[i, [node_col[c] for c in concepts]] = True
        member = rows[which] if ids else np.zeros((0, len(nodes)), dtype=bool)
        outcomes = tuple(dict.fromkeys(itertools.chain(graph.outcome_names(), *labels)))
        # a missing label reads as NaN
        label_cols = np.array([[lab.get(o) for lab in labels] for o in outcomes],
                              dtype=np.float64).reshape(len(outcomes), len(ids)).T.copy()
        labeled = ~np.isnan(label_cols)
        label_cols[~labeled] = 0.0
        parent, child = (np.array([node_col[e[j]] for e in graph.edges], dtype=np.intp)
                         for j in (0, 1))
        return Columns(
            ids=np.array(ids, dtype=object), X=x, member=member,
            labels=label_cols, labeled=labeled,
            unclosed=(member[:, child] & ~member[:, parent]).any(axis=1),
            nodes=nodes, outcomes=outcomes, graph_hash=graph.graph_hash())

    def __len__(self) -> int:
        return self.ids.size

    def take(self, rows: np.ndarray | slice) -> "Columns":
        """The columns of rows, in that order: copies for an index array,
        views of these arrays for a slice."""
        return Columns(self.ids[rows], self.X[rows], self.member[rows],
                       self.labels[rows], self.labeled[rows], self.unclosed[rows],
                       self.nodes, self.outcomes, self.graph_hash)

    def closure_error(self, rows: np.ndarray, graph: OntologyGraph) -> ValidationError:
        """The error for rows holding an unclosed one: it names the first
        node, in routing order, that one of them expresses without all of
        its parents, and the parents the first such row lacks."""
        member = self.member[rows]
        col = {nid: j for j, nid in enumerate(self.nodes)}
        for j, nid in enumerate(self.nodes):
            parents = graph.parents[nid]
            has = member[:, [col[p] for p in parents]]
            bad = np.flatnonzero(member[:, j] & ~has.all(axis=1))
            if bad.size:
                missing = [p for p, ok in zip(parents, has[bad[0]]) if not ok]
                return ValidationError(
                    f"node {nid!r} is missing parent representations {missing}; "
                    f"concept sets must be ancestor-closed")
        raise AssertionError("no row among rows is unclosed")


@dataclass
class Dataset:
    records: list[Record]
    feature_dim: int
    outcomes: tuple[str, ...]
    _columns: Columns | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def columns(self, graph: OntologyGraph) -> Columns:
        """The records as columns over graph: a loaded dataset's own, built
        as it was read, or else built on first use and kept; the records
        must not change after that."""
        if self._columns is None or self._columns.graph_hash != graph.graph_hash():
            self._columns = Columns.from_records(self.records, graph)
        return self._columns


def columns_of(data, graph: OntologyGraph) -> Columns:
    """data as columns over graph: `Columns` as given, a `Dataset`'s own
    (`Dataset.columns`, built once and kept), or a Record or a sequence of
    records converted once."""
    if isinstance(data, Columns):
        return data
    if isinstance(data, Dataset):
        return data.columns(graph)
    return Columns.from_records([data] if isinstance(data, Record) else list(data), graph)


@dataclass
class FoldPlan:
    k: int
    seed: int
    assignment: dict[str, int]

    def fold_of(self, record_id: str) -> int:
        return self.assignment[record_id]

    def folds_of(self, ids: np.ndarray) -> np.ndarray:
        """The fold of each record id of ids, which the plan must cover."""
        missing = [rid for rid in ids.tolist() if rid not in self.assignment]
        if missing:
            raise ValidationError(f"fold plan does not cover {len(missing)} records "
                                  f"(first: {missing[0]!r})")
        return np.fromiter(map(self.assignment.__getitem__, ids), dtype=np.intp,
                           count=len(ids))

    def to_json_obj(self) -> dict:
        return {"k": self.k, "seed": self.seed, "assignment": self.assignment}


# lines of a record file checked and converted together. Their parsed JSON
# is alive at once, about 2 KB a line at 41 features: 1,024 lines raised
# the peak memory of loading a 3,200-record file above that of reading one
# line at a time, while 256 lines keep it below and load as fast
LOAD_CHUNK = 256


def load_dataset(path: str, graph: OntologyGraph) -> Dataset:
    """Read a JSONL record file, validating every line against the graph.

    The lines come LOAD_CHUNK at a time and `_Loader.add` checks each
    chunk field by field. A chunk that fails is checked again line by
    line, so an error names the first bad line, as reading one line at a
    time would. A non-finite feature is reported, by its line, only once
    every line has passed. The dataset's columns are built as the chunks
    pass, and each record's features are a row of their `X`."""
    loader = _Loader(path, graph)
    for linenos, objs in json_lines(path, "records", LOAD_CHUNK):
        loader.add(linenos, objs)
    return loader.dataset()


class _Loader:
    """What `load_dataset` has read so far: the checked chunks' fields, the
    ids seen, the feature dimension, the closure of each distinct concept
    list, and the first line holding a non-finite feature."""

    def __init__(self, path: str, graph: OntologyGraph):
        self.path, self.graph = path, graph
        self.known = set(graph.outcome_names())
        self.dim: int | None = None
        self.seen: set[str] = set()
        self.set_of: dict[tuple, int] = {}  # concept list -> its closure's index
        self.closures: list[frozenset[str]] = []
        self.ids: list[str] = []
        self.xs: list[np.ndarray] = []
        self.which: list[int] = []
        self.labels: list[dict] = []
        self.nonfinite: int | None = None

    def add(self, linenos: list[int], objs: list) -> None:
        """Check the parsed lines objs, numbered linenos, and keep them."""
        fields = self._fields(objs)
        if fields is None:
            self._check_lines(linenos, objs)
        ids, x, which, labels = fields
        finite = np.isfinite(x).all(axis=1)
        if self.nonfinite is None and not finite.all():
            self.nonfinite = linenos[int(finite.argmin())]
        self.dim = x.shape[1]
        self.seen.update(ids)
        self.ids += ids
        self.xs.append(x)
        self.which += which
        self.labels += labels

    def _fields(self, objs) -> tuple | None:
        """(ids, features, closure indices, labels) of a chunk's parsed
        lines, or None if one of them breaks a rule of `_record_from_obj`
        or of `_clash`. Each field's kind is checked with one set of the
        types it holds. A missing field reads as {}, which has the kind of
        labels alone, for none, and fails any other field's."""
        if not has_kind(objs, "dict"):
            return None
        fields = [[obj.get(key, {}) for obj in objs] for key in RECORD_KINDS]
        if not all(map(has_kind, fields, RECORD_KINDS.values())):
            return None
        ids, features, concepts, labels = fields
        values = list(itertools.chain.from_iterable(map(dict.values, labels)))
        if not (set(itertools.chain.from_iterable(labels)) <= self.known
                and has_kind(values, LABEL_KIND) and set(values) <= {0, 1}
                and self._clash(ids, list(map(len, features))) is None):
            return None
        dim = len(features[0])
        which = []
        for key in map(tuple, concepts):
            i = self.set_of.get(key)
            if i is None:
                if not key or not set(key) <= self.graph.nodes.keys():
                    return None
                i = self.set_of[key] = len(self.closures)
                self.closures.append(ancestor_closure(self.graph, key))
            which.append(i)
        x = json_floats(features, len(features) * dim)
        return None if x is None else (ids, x.reshape(len(features), dim), which, labels)

    def _clash(self, ids: list[str], dims: list[int]) -> tuple[int, str] | None:
        """The index and fault of the first of a chunk's lines, of ids ids
        and feature dimensions dims, that breaks a rule between lines: its
        dimension is not the dataset's (the first line's), or a line before
        it, in this chunk or an earlier one, holds its id. None if none does."""
        dim = self.dim if self.dim is not None or not dims else dims[0]
        if len(set(ids)) == len(ids) and self.seen.isdisjoint(ids) and set(dims) <= {dim}:
            return None
        seen = set(self.seen)
        for i, (rid, n) in enumerate(zip(ids, dims)):
            if n != dim:
                return i, f"feature dimension {n} does not match dataset dimension {dim}"
            if rid in seen:
                return i, f"duplicate record id {rid!r}"
            seen.add(rid)

    def _check_lines(self, linenos: list[int], objs: list) -> None:
        """Raise the error of the chunk's first bad line, checked as
        `_record_from_obj` checks one line, after the chunks before it."""
        recs, fault = [], None
        for lineno, obj in zip(linenos, objs):
            try:
                recs.append(_record_from_obj(obj, self.graph, self.known,
                                             f"{self.path}:{lineno}"))
            except ValidationError as e:
                fault = e
                break
        clash = self._clash([r.id for r in recs], [r.features.size for r in recs])
        if clash is not None:
            raise ValidationError(f"{self.path}:{linenos[clash[0]]}: {clash[1]}")
        if fault is not None:
            raise fault
        raise AssertionError(f"{self.path}: the lines from {linenos[0]} on failed "
                             f"as a chunk but pass one by one")

    def dataset(self) -> Dataset:
        if not self.ids:
            raise ValidationError(f"{self.path}: no records")
        if self.nonfinite is not None:
            raise ValidationError(f"{self.path}:{self.nonfinite}: "
                                  f"features must be finite numbers")
        x = np.concatenate(self.xs)
        self.xs.clear()
        records = list(map(Record, self.ids, x,
                           map(self.closures.__getitem__, self.which), self.labels))
        data = Dataset(records=records, feature_dim=self.dim,
                       outcomes=self.graph.outcome_names())
        data._columns = Columns.build(self.ids, x, self.closures, self.which,
                                      self.labels, self.graph)
        return data


# each field of a record line and its JSON kind, in the order a line's
# faults are named; a line may leave out "labels", for none
RECORD_KINDS = {"id": "str", "features": "list[float]", "concepts": "list[str]",
                "labels": "dict"}
LABEL_KIND = "int"  # of a label's value


def _record_from_obj(raw, graph: OntologyGraph, known_outcomes: set[str],
                     where: str) -> Record:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: record must be a JSON object")
    rid, features, concepts, labels = (
        json_field(raw, key, kind, where, {} if key == "labels" else MISSING)
        for key, kind in RECORD_KINDS.items())
    if not concepts:
        raise ValidationError(f"{where}: concepts must be nonempty")
    for cid in concepts:
        if cid not in graph.nodes:
            raise ValidationError(f"{where}: unknown concept id {cid!r}")
    for name in labels:
        if name not in known_outcomes:
            raise ValidationError(f"{where}: unknown outcome name {name!r}")
        if json_field(labels, name, LABEL_KIND, f"{where}: labels") not in (0, 1):
            raise ValidationError(f"{where}: label for {name!r} must be 0 or 1, "
                                  f"got {labels[name]!r}")
    return Record(id=rid, features=features,
                  concepts=ancestor_closure(graph, concepts), labels=labels)


def save_dataset(dataset: Dataset, path: str) -> None:
    with output_file(path) as fh:
        for r in dataset.records:
            obj = {"id": r.id, "features": np.asarray(r.features, float).tolist(),
                   "concepts": sorted(r.concepts), "labels": r.labels}
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# stratified folds


def _balanced_sets(core: list[str], labels: dict[str, int],
                   graph: OntologyGraph) -> tuple[tuple, ...]:
    """Counts a fold plan keeps level that include a labeled record whose
    core nodes are core, in graph order, and whose labels are labels: each
    of those nodes, as (node,), and then each of its strata."""
    return tuple([(nid,) for nid in core]
                 + [(nid, o, labels[o]) for nid in sorted(core)
                    for o in graph.nodes[nid].outcomes if o in labels])


def _signatures(cols: Columns, rows: np.ndarray,
                graph: OntologyGraph) -> tuple[np.ndarray, list[tuple]]:
    """The `_balanced_sets` of rows of cols, as each row's index into the
    sorted list of the distinct ones. Rows with the same core nodes and
    labels hold the same sets, so the sets are found once per such pattern."""
    core = [j for j, nid in enumerate(cols.nodes) if graph.nodes[nid].core]
    pattern = np.concatenate([cols.member[rows][:, core], cols.labeled[rows],
                              cols.labels[rows] > 0], axis=1)
    # group equal patterns: read each as 64-bit words, then sort them (a
    # column-indexed pattern may be column-major, which .view cannot read)
    packed = np.packbits(pattern, axis=1)
    words = np.ascontiguousarray(
        np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))).view(np.uint64).T
    order = np.lexsort(words[::-1])
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (words[:, order[1:]] != words[:, order[:-1]]).any(axis=0)
    group = np.empty(rows.size, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    names, n_out = [cols.nodes[j] for j in core], len(cols.outcomes)
    keys = []
    for bits in pattern[order[first]].tolist():
        labeled, labels = bits[len(core):len(core) + n_out], bits[len(core) + n_out:]
        keys.append(_balanced_sets(
            [n for n, b in zip(names, bits) if b],
            {o: int(v) for o, has, v in zip(cols.outcomes, labeled, labels) if has},
            graph))
    distinct = sorted(set(keys))
    rank = {key: i for i, key in enumerate(distinct)}
    return np.array([rank[key] for key in keys], dtype=np.intp)[group], distinct


def _rebalance(sig_of: np.ndarray, sigs: list[tuple], fold: np.ndarray,
               k: int) -> None:
    """Swap labeled records between folds while that levels the counts.

    The record dealt p-th holds the sets sigs[sig_of[p]] and sits in fold
    fold[p], which this updates in place. Records with the same sets are
    interchangeable. While some set's fold counts differ by two or more,
    swap a record holding it in its fullest fold against one lacking it in
    its emptiest fold, picking the pair that lowers the sum of squared fold
    counts over all sets the most. Stops when no such swap lowers that
    sum, so it always ends. Fold sizes never change.
    """
    sets = sorted({s for sig in sigs for s in sig})
    col = {s: j for j, s in enumerate(sets)}
    # counts as floats, exact at these sizes, so the products run in BLAS
    holds = np.zeros((len(sigs), len(sets)))
    for a, sig in enumerate(sigs):
        holds[a, [col[s] for s in sig]] = 1
    held_by = holds.T.astype(bool)  # held_by[s, a]: signature a holds set s
    n_sets = holds.sum(axis=1)
    # the records of each (signature, fold) group, a stack in deal order
    group = sig_of * k + fold
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(len(sigs) * k + 1))
    stacks: dict[int, list[int]] = {}

    def stack(a: int, f: int) -> list[int]:
        g = a * k + f
        if g not in stacks:
            stacks[g] = order[bounds[g]:bounds[g + 1]].tolist()
        return stacks[g]

    filled = np.diff(bounds).reshape(len(sigs), k).T > 0  # [f, a]: a in fold f
    counts = holds.T @ np.diff(bounds).reshape(len(sigs), k)
    while True:
        best = None
        for s in np.flatnonzero(counts.max(axis=1) - counts.min(axis=1) >= 2):
            hi, lo = int(counts[s].argmax()), int(counts[s].argmin())
            out = np.flatnonzero(held_by[s] & filled[hi])
            into = np.flatnonzero(~held_by[s] & filled[lo])
            if not out.size or not into.size:
                continue
            # gain is half the drop in the sum of squares: moving a record of
            # set t from hi to lo lowers it by 2 * d[t], the reverse move
            # raises it by 2 * (d[t] + 2), and a set both records hold stays
            gain_of = holds @ (counts[:, hi] - counts[:, lo] - 1)
            gain = ((gain_of[out])[:, None] - (gain_of[into] + 2 * n_sets[into])[None, :]
                    + 2 * holds[out] @ holds[into].T)
            i = int(gain.argmax())
            if gain.flat[i] > 0:
                best = int(out[i // into.size]), int(into[i % into.size]), hi, lo
                break
        if best is None:
            return
        a, b, hi, lo = best
        p_a, p_b = stack(a, hi).pop(), stack(b, lo).pop()
        stack(a, lo).append(p_a)
        stack(b, hi).append(p_b)
        fold[p_a], fold[p_b] = lo, hi
        for g, f in ((a, hi), (a, lo), (b, lo), (b, hi)):
            filled[f, g] = bool(stack(g, f))
        counts[:, hi] += holds[b] - holds[a]
        counts[:, lo] += holds[a] - holds[b]


def make_folds(dataset, graph: OntologyGraph, k: int = 5,
               seed: int = 0) -> FoldPlan:
    """Stratified fold plan: a round-robin deal, then levelling swaps.

    dataset is `Columns`, a `Dataset` (whose columns are built once and
    kept, `Dataset.columns`) or anything else `columns_of` takes. The
    counts kept level are each core node's labeled members and each (core
    node, outcome, label) stratum; see `_balanced_sets`. Labeled records are
    shuffled, stably sorted by the sets they belong to, and dealt to folds
    c, c+1, ..., c+k-1, c, ... by one cursor that starts at a random fold c
    and carries over from one key group to the next. A run of records
    contiguous in that order lands within one of even across the folds.
    The runs cover all labeled records, so labeled fold sizes are within
    one, and, when each labeled record expresses a single core node, that
    node's members and the strata of its first outcome. `_rebalance` then
    swaps records between folds to bring every other count within one of
    even. Its search is local and can stop short of that where records
    express several overlapping core nodes, carry three or more outcomes
    per node, or lack some of a node's labels, since their strata can only
    move together.

    Unlabeled records are spread uniformly at random. The plan is a pure
    function of (dataset, graph, k, seed); its randomness comes from the
    "folds" substream of seed.
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    cols = columns_of(dataset, graph)
    has_labels = cols.labeled.any(axis=1)
    ids = cols.ids.tolist()
    labeled = np.array(sorted(np.flatnonzero(has_labels).tolist(), key=ids.__getitem__),
                       dtype=np.intp)
    if labeled.size < k:
        raise ValidationError(
            f"need at least k={k} labeled records, have {labeled.size}")
    rng = substream(seed, "folds")
    rng.shuffle(labeled)
    sig_of, sigs = _signatures(cols, labeled, graph)
    by_sets = np.argsort(sig_of, kind="stable")
    labeled, sig_of = labeled[by_sets], sig_of[by_sets]
    fold = (int(rng.integers(k)) + np.arange(labeled.size)) % k
    _rebalance(sig_of, sigs, fold, k)
    assignment = dict(zip(cols.ids[labeled].tolist(), fold.tolist()))
    rest = dict.fromkeys(cols.ids[~has_labels].tolist())
    for rid in rest.keys() & assignment.keys():  # an id a labeled record has
        del rest[rid]
    assignment.update(zip(rest, rng.integers(k, size=len(rest)).tolist()))
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
        if self.low_data_records < 0:
            raise ValidationError(
                f"low_data_records must be >= 0, got {self.low_data_records}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must be in [0, 1], got {self.rho}")
        if not 0.0 < self.prevalence < 1.0:
            raise ValidationError(f"prevalence must be in (0, 1), got {self.prevalence}")
        if not self.outcomes:
            raise ValidationError("need at least one outcome name")
        nodes = self.levels if self.branching == 1 else \
            MAX_SIZE + 1 if self.levels > 64 else \
            (self.branching ** self.levels - 1) // (self.branching - 1)
        if max(nodes, nodes * self.records_per_node * self.feature_dim) > MAX_SIZE:
            raise ValidationError(
                f"levels={self.levels}, branching={self.branching}, records_per_node="
                f"{self.records_per_node} and feature_dim={self.feature_dim} ask for "
                f"more than {MAX_SIZE} nodes or feature values")


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

    nodes = graph.ordered_ids
    prototypes = rng.normal(0.0, 1.0, size=(len(nodes), d))
    weights: dict[str, dict[str, np.ndarray]] = {}
    for outcome in config.outcomes:
        w: dict[str, np.ndarray] = {}
        for nid in nodes:  # parents precede children
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
    if low_data is None:  # the last leaf
        low_data = [nid for nid in nodes if graph.nodes[nid].core][-1]
    elif low_data not in graph.nodes:
        raise ValidationError(f"low_data_node {low_data!r} is not in the graph")

    counts = [min(config.records_per_node, config.low_data_records) if nid == low_data
              else config.records_per_node for nid in nodes]
    anchors = np.repeat(np.arange(len(nodes)), counts)
    feats = prototypes[anchors] + config.noise_scale * rng.normal(
        0.0, 1.0, size=(anchors.size, d))

    labeled = np.flatnonzero(np.array([graph.nodes[n].core for n in nodes])[anchors])
    drawn: dict[str, np.ndarray] = {}
    for outcome in config.outcomes if labeled.size else ():
        w = weights[outcome]
        # one dot per record: a batched product may round differently
        scores = np.array([w[nodes[a]] @ feats[i]
                           for a, i in zip(anchors[labeled], labeled)])
        # center per anchor cohort so every node sees the target prevalence,
        # then sharpen the within-cohort signal
        for a in np.unique(anchors[labeled]):
            sel = anchors[labeled] == a
            scores[sel] -= scores[sel].mean()
        scores = config.signal_gain * scores / max(np.std(scores), 1e-12)
        uniforms = rng.random(labeled.size)
        bias = _tune_bias(scores, uniforms, config.prevalence)
        drawn[outcome] = uniforms < 1.0 / (1.0 + np.exp(-(scores + bias)))

    closures = [ancestor_closure(graph, [nid]) for nid in nodes]
    records = [Record(id=f"r{i:05d}", features=x, concepts=closures[a], labels={})
               for i, (a, x) in enumerate(zip(anchors.tolist(), feats))]
    for j, i in enumerate(labeled.tolist()):
        records[i].labels.update((o, int(v[j])) for o, v in drawn.items())
    return graph, Dataset(records=records, feature_dim=d, outcomes=config.outcomes)
