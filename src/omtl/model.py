"""The ontology-mirrored network plus its SB / MOE / MMOE baselines.

One shared bank of experts feeds per-concept representation blocks. Each
concept node owns an expert gate (softmax over experts), a representation
layer (Softplus), a reconstruction head (ReLU), and, when ontology routing
is enabled, a parent gate (softmax over its graph parents) that mixes the
parents' representations into its own input. Outcome heads hang off the
representation of their node and emit sigmoid probabilities. A forward
pass returns arrays (`ForwardResult`); the loss (one
`tensor.multitask_loss` op) and scoring (`trainer.score_holdout`) each run
the heads once over all of the pass's pairs.

All parameters live in one `tensor.Arena`, laid out kind by kind over
every node in level order: the experts and expert gates, then the
representation, reconstruction and head layers, then the parent gates.
So the experts and every kind of node layer are each one stacked view,
and each training phase trains one span of the arena (`phase_span`):
phase 1 a prefix, phase 2 a suffix.

Routing is pair-major: a forward pass runs the experts as one op over the
whole batch, then one op per stage over all of the batch's (row, node)
pairs, a record contributing one pair per node of its concept set. Pairs
are node-major and nodes are in level order, so each level is a
contiguous range of pairs, and the representation op visits the levels
in order. Concept sets are ancestor-closed, so every parent representation
a pair consumes was computed on an earlier level for the same record; a
record is never routed through a node outside its own concept set. One
weight rule covers every routed pair: a node with two or more parents
mixes them through its parent gate, and any other node below the first
level takes its one parent with weight exactly 1, as the softmax over one
logit would (`tensor.Route.weights`).

The indices all of this reads depend only on which rows a batch holds.
`BatchPlan` builds them for every batch of an epoch at once, with the
checks a forward pass needs, and a training step's `Batch` is slices of
its arrays; a forward pass given anything else plans all of its rows as
one batch.

Outside the step, a model's hundreds of parameters are handled in array
passes, not one at a time: `build_model` draws every initial value in one
`rng.uniform` call (`_draw`), `save_model` hands the parameters to the
encoder in a few runs (`fields.write_json`), and `load_model` checks and
reads every parameter entry in one pass (`_read_params`), reading them
one at a time only to name the first fault of a faulty file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import chain

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .ontology import OntologyGraph
from .datastore import Columns, columns_of
from .fields import MAX_SIZE, config_fields, json_field, read_json, write_json
from .rng import substream
from .tensor import Arena, Block, Segments, Tensor, _ranges

VARIANTS = ("sb", "moe", "mmoe", "omtl")


@dataclass
class ModelSpec:
    variant: str
    num_experts: int = 3
    feature_dim: int = 41
    repr_dim: int = 5
    dropout: float = 0.5
    leaky_slope: float = 0.01

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.variant == "sb" and self.num_experts != 1:
            raise ValidationError("sb uses exactly one expert")
        if self.variant in ("moe", "mmoe", "omtl") and self.num_experts < 2:
            raise ValidationError(f"{self.variant} needs more than one expert")
        if self.feature_dim < 1 or self.repr_dim < 1:
            raise ValidationError("feature_dim and repr_dim must be >= 1, got "
                                  f"{self.feature_dim} and {self.repr_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0, 1), got {self.dropout}")
        self.check_size()

    def check_size(self, nodes: int = 1, heads: int = 0, parent_links: int = 0) -> None:
        """Reject a model of this spec that would hold more than MAX_SIZE
        parameters over a graph of nodes nodes, heads outcome heads and
        parent_links edges (by default a one-node graph), counted before
        any is built."""
        d, de, experts = self.feature_dim, self.repr_dim, self.num_experts
        per_node = (de + 1) * de + (de + 1) * d
        if self.has_expert_gates:
            per_node += (d + 1) * experts
        gates = (d + 1) * parent_links if self.has_parent_gates else 0
        if experts * (d + 1) * de + nodes * per_node + heads * (de + 1) + gates > MAX_SIZE:
            raise ValidationError(
                f"a {self.variant} model with num_experts={experts}, feature_dim={d} "
                f"and repr_dim={de} would hold more than {MAX_SIZE} parameters")

    @property
    def has_expert_gates(self) -> bool:
        return self.variant in ("mmoe", "omtl")

    @property
    def has_parent_gates(self) -> bool:
        return self.variant == "omtl"

    def to_json_obj(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_obj(obj: dict) -> "ModelSpec":
        return ModelSpec(**config_fields(ModelSpec, obj, "model spec"))


def param_layout(spec: ModelSpec, graph: OntologyGraph,
                 outcome_map: dict[str, tuple[str, ...]]) -> list[tuple[str, tuple[int, int]]]:
    """Every parameter's name and shape, in arena order.

    Kinds come one after another, each over every node in level order
    (heads in node order), weights first and then biases. The experts and
    expert gates, which phase 2 freezes, come first and the parent gates,
    which phase 1 freezes, last, so each phase trains one contiguous span
    (`OmtlModel.phase_span`).
    """
    spec.check_size(nodes=len(graph.nodes), parent_links=len(graph.edges),
                     heads=sum(len(outcome_map.get(n, ())) for n in graph.nodes))
    d, de, n_exp = spec.feature_dim, spec.repr_dim, spec.num_experts
    nodes = graph.ordered_ids
    shapes: list[tuple[str, tuple[int, int]]] = []

    def stack(kind: str, owners, rows: int, cols) -> None:
        shapes.extend((f"{kind}.{o}.w", (rows, cols(o))) for o in owners)
        shapes.extend((f"{kind}.{o}.b", (1, cols(o))) for o in owners)

    stack("expert", [f"{e:02d}" for e in range(n_exp)], d, lambda _: de)
    if spec.has_expert_gates:
        stack("expert_gate", nodes, d, lambda _: n_exp)
    stack("repr", nodes, de, lambda _: de)
    stack("recon", nodes, de, lambda _: d)
    stack("head", [f"{n}.{o}" for n in nodes for o in outcome_map.get(n, ())],
          de, lambda _: 1)
    if spec.has_parent_gates:
        stack("parent_gate", [n for n in nodes if graph.parents[n]], d,
              lambda n: len(graph.parents[n]))
    return shapes


def _stack(arena: Arena, kind: str, owners) -> tuple[Block, Block] | tuple[None, None]:
    """The weight and bias blocks of the `kind` layers of owners."""
    if not owners:
        return None, None
    return (arena.block([f"{kind}.{o}.w" for o in owners]),
            arena.block([f"{kind}.{o}.b" for o in owners]))


class OmtlModel:
    """Parameters of one graph in an arena, with a runtime routing toggle.

    hierarchy_enabled controls whether forward uses the parent-gate path;
    an omtl model with it switched off computes exactly what an mmoe model
    with the same non-parent-gate parameters would.
    """

    def __init__(self, spec: ModelSpec, graph: OntologyGraph, arena: Arena,
                 outcome_map: dict[str, tuple[str, ...]]):
        self.spec = spec
        self.graph = graph
        self.arena = arena
        self.params = arena.params
        self.outcome_map = outcome_map
        self.hierarchy_enabled = spec.has_parent_gates
        self.graph_hash = graph.graph_hash()
        outcomes = list(graph.outcome_names())
        for nid in graph.ordered_ids:
            outcomes += [o for o in outcome_map.get(nid, ()) if o not in outcomes]
        self.outcomes = tuple(outcomes)
        self.outcome_col = {o: k for k, o in enumerate(outcomes)}
        self.node_col = {nid: i for i, nid in enumerate(graph.ordered_ids)}
        nodes = graph.ordered_ids
        self.expert_w, self.expert_b = _stack(
            arena, "expert", [f"{e:02d}" for e in range(spec.num_experts)])
        self.gate_w, self.gate_b = _stack(arena, "expert_gate", nodes) \
            if spec.has_expert_gates else (None, None)
        self.repr_w, self.repr_b = _stack(arena, "repr", nodes)
        self.recon_w, self.recon_b = _stack(arena, "recon", nodes)
        self.level = np.array([graph.levels[n] for n in nodes], dtype=np.intp)

        # heads, in node order
        self.head_keys = [(n, o) for n in nodes for o in outcome_map.get(n, ())]
        self.head_w, self.head_b = _stack(arena, "head",
                                          [f"{n}.{o}" for n, o in self.head_keys])
        self.head_node = np.array([self.node_col[n] for n, _ in self.head_keys],
                                  dtype=np.intp)
        self.head_outcome = np.array([self.outcome_col[o] for _, o in self.head_keys],
                                     dtype=np.intp)
        self.head_count = np.bincount(self.head_node, minlength=len(nodes))
        self.head_start = np.cumsum(self.head_count) - self.head_count
        self.has_head = np.zeros((len(nodes), len(outcomes)), dtype=bool)
        self.has_head[self.head_node, self.head_outcome] = True
        # masked loss: a head counts at a core node, for that node's own outcomes
        self.head_masked = np.array(
            [1.0 if graph.nodes[n].core and o in graph.nodes[n].outcomes else 0.0
             for n, o in self.head_keys])

        # parent routing: each node's parents' indices, padded with -1 to
        # the largest in-degree; nodes with two or more parents own row
        # gate_row of the padded parent-gate stacks
        n_parents = np.array([len(graph.parents[n]) for n in nodes], dtype=np.intp)
        self.parents = np.full((len(nodes), n_parents.max(initial=0)), -1, dtype=np.intp)
        self.parents[np.repeat(np.arange(len(nodes)), n_parents),
                     _ranges(np.zeros_like(n_parents), n_parents)] = \
            [self.node_col[p] for n in nodes for p in graph.parents[n]]
        gated = [n for n, k in zip(nodes, n_parents) if k >= 2]
        self.gate_row = np.full(len(nodes), -1, dtype=np.intp)
        self.gate_row[[self.node_col[n] for n in gated]] = np.arange(len(gated))
        self.pgate_w = self.pgate_b = None
        if gated and spec.has_parent_gates:
            self.pgate_w = arena.padded_block([f"parent_gate.{n}.w" for n in gated], 0.0)
            self.pgate_b = arena.padded_block([f"parent_gate.{n}.b" for n in gated],
                                              -np.inf)

    def __reduce__(self):
        """A copy or an unpickled model is rebuilt around the copy of its
        arena (`Arena.__reduce__`), so its parameters and blocks are views
        of that arena."""
        return _rebuild, (self.spec, self.graph, self.outcome_map, self.arena,
                          self.hierarchy_enabled)

    def head_pairs(self, seg: Segments) -> tuple[np.ndarray, np.ndarray]:
        """Every (pair, head) combination of seg's pairs with the heads of
        their node, as pair and head index arrays grouped by head within
        each run."""
        counts = self.head_count[seg.members]
        heads = _ranges(self.head_start[seg.members], counts)
        run_len = np.repeat(seg.ends - seg.starts, counts)
        return _ranges(np.repeat(seg.starts, counts), run_len), np.repeat(heads, run_len)

    def param_count(self) -> int:
        return self.arena.size

    def phase_span(self, phase: str) -> slice:
        """The span of the arena a training phase trains: for phase 1
        everything before the parent gates, which come last; for phase 2
        everything after the experts and expert gates, which come first;
        otherwise the whole arena."""
        size = self.arena.size
        if phase == "phase1":
            return slice(0, next((p.span.start for n, p in self.params.items()
                                  if n.startswith("parent_gate.")), size))
        if phase == "phase2":
            return slice((self.gate_b or self.expert_b).span.stop, size)
        return slice(0, size)


def _rebuild(spec: ModelSpec, graph: OntologyGraph, outcome_map: dict, arena: Arena,
             hierarchy_enabled: bool) -> OmtlModel:
    model = OmtlModel(spec, graph, arena, outcome_map)
    model.hierarchy_enabled = hierarchy_enabled
    return model


def _draw(arena: Arena, rng, names: list[str]) -> None:
    """Fan-in uniform draws, U(-1/sqrt(rows), 1/sqrt(rows)), of name.w and
    then name.b for each of names in turn, written into their arena views.
    One `rng.uniform` call with a bound per entry takes the same numbers
    from the stream, in the same order, as one call per parameter."""
    params = [arena.params[n + part] for n in names for part in (".w", ".b")]
    if not params:
        return
    starts = np.array([p.span.start for p in params])
    sizes = np.array([p.span.stop for p in params]) - starts
    rows = np.array([max(p.values.shape[0], 1) for p in params[::2]])
    bound = np.repeat(np.repeat(1.0 / np.sqrt(rows), 2), sizes)
    arena.values[_ranges(starts, sizes)] = rng.uniform(-bound, bound)


def build_model(spec: ModelSpec, graph: OntologyGraph, seed: int = 0,
                shared_outcome: str | None = None) -> OmtlModel:
    """Allocate all parameters with seeded fan-in-uniform initialization.

    shared_outcome, when given, attaches that outcome head to every node
    (the reward-shaping setup); otherwise heads exist only where the graph
    associates outcomes, i.e. at core nodes.
    """
    outcome_map: dict[str, tuple[str, ...]] = {}
    for nid in graph.ordered_ids:
        outcomes = list(graph.nodes[nid].outcomes)
        if shared_outcome and shared_outcome not in outcomes:
            outcomes.append(shared_outcome)
        outcome_map[nid] = tuple(outcomes)
    arena = Arena(param_layout(spec, graph, outcome_map))
    # draws come in the order of the per-node layout that predates the
    # arena, so a seed keeps giving the same initial values
    names = [f"expert.{e:02d}" for e in range(spec.num_experts)]
    for nid in graph.ordered_ids:
        if spec.has_expert_gates:
            names.append(f"expert_gate.{nid}")
        if spec.has_parent_gates and graph.parents[nid]:
            names.append(f"parent_gate.{nid}")
        names += [f"repr.{nid}", f"recon.{nid}"]
        names += [f"head.{nid}.{o}" for o in outcome_map[nid]]
    _draw(arena, substream(seed, "init"), names)
    return OmtlModel(spec, graph, arena, outcome_map)


def reinit_parent_gates(model: OmtlModel, seed: int) -> None:
    """Fresh fan-in-uniform draw for every parent gate (start of phase 2)."""
    if model.spec.has_parent_gates:
        _draw(model.arena, substream(seed, "h_init"),
              [f"parent_gate.{n}" for n in model.graph.ordered_ids if model.graph.parents[n]])


def _label_arrays(model: OmtlModel, cols: Columns,
                  rows: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(labels, labeled) of rows of cols (all rows for None) over the
    model's outcomes: views when the columns' outcomes begin with the
    model's, and otherwise remapped, since a loaded model may carry heads
    for outcomes the cohort lacks."""
    outcomes = model.outcomes
    rows = slice(None) if rows is None else rows
    if cols.outcomes[:len(outcomes)] == outcomes:
        return cols.labels[rows, :len(outcomes)], cols.labeled[rows, :len(outcomes)]
    have = [k for k, o in enumerate(outcomes) if o in cols.outcomes]
    src = [cols.outcomes.index(outcomes[k]) for k in have]
    labels = np.zeros((cols.ids[rows].size, len(outcomes)))
    labeled = np.zeros(labels.shape, dtype=bool)
    labels[:, have] = cols.labels[rows][:, src]
    labeled[:, have] = cols.labeled[rows][:, src]
    return labels, labeled


class _Runs:
    """Runs of equal (batch, member) over elements sorted by batch and then
    member of: batch b's elements are lo[b]:lo[b+1] and its runs
    run_lo[b]:run_lo[b+1], with starts and ends local to the batch."""

    def __init__(self, of: np.ndarray, batch: np.ndarray, count: int):
        runs = Segments(batch * (of.max(initial=0) + 1) + of)
        self.of, self.members = of, of[runs.starts]
        # the same runs over all elements
        self.all = Segments.from_runs(of, runs.starts, runs.ends, self.members)
        self.lo = np.searchsorted(batch, np.arange(count + 1))
        self.run_batch = batch[runs.starts]
        self.run_lo = np.searchsorted(self.run_batch, np.arange(count + 1))
        self.starts = runs.starts - self.lo[self.run_batch]
        self.ends = runs.ends - self.lo[self.run_batch]

    def segments(self, b: int) -> Segments:
        lo, hi = self.lo[b], self.lo[b + 1]
        r0, r1 = self.run_lo[b], self.run_lo[b + 1]
        return Segments.from_runs(self.of[lo:hi], self.starts[r0:r1], self.ends[r0:r1],
                                  self.members[r0:r1])


@dataclass(eq=False)
class Batch:
    """One batch of a `BatchPlan`: rows (in order) of the plan's columns
    (whole when the batch is every row of them, in order), their labels
    and whether they have them over the model's outcomes, and the index
    arrays a forward pass and its loss read.

    Pairs are node-major, nodes in level order: pair p is batch row
    pair_rows[p] at node seg.of[p], rows ascending within a node. A batch
    whose records express no node has no pairs, and seg is None. route is
    None unless the plan routes through parents; otherwise it holds the
    `tensor.Route` levels, src and gated pairs (those of nodes with two or
    more parents), and the gated pairs' segments (None when the batch has
    none); every other routed pair takes its first parent whole. heads is
    None when no head term counts or none were planned, and otherwise
    (pair, hseg, y, weight): each kept (pair, head) term's pair, the terms
    grouped by head, and each term's label and weight.
    """

    cols: Columns
    rows: np.ndarray
    whole: bool  # the batch is every row of cols, in order
    scheme: object
    labels: np.ndarray
    labeled: np.ndarray
    pair_rows: np.ndarray
    seg: Segments | None
    route: tuple | None
    heads: tuple | None


class BatchPlan:
    """Every batch's routing and loss indices, for rows of cols (all rows
    by default) taken in order size at a time (all in one batch by
    default).

    The trainer plans each epoch once, after its shuffle, so that a
    training step only slices epoch-wide arrays. They come from one
    `np.nonzero` over member[rows], node-major, and one stable sort by
    batch, which puts each batch's pairs node-major with rows ascending,
    as the batch alone would form them. A plan holds index arrays and the
    head terms' labels and weights, never features; heads=False leaves the
    head terms out, for scoring, which reads none.

    The checks a forward pass needs run here, once per plan: cols must be
    over the model's graph and of its feature dim; routing must be off
    unless the model is omtl, whose parent gates the route's weight rule
    needs; with routing on, every row must be ancestor-closed (the error
    names what the first batch holding an unclosed row lacks); with a
    reward scheme, a row labeling the scheme's outcome must have that head
    at each of its nodes. A
    (pair, head) term of the loss counts where its row labels the head's
    outcome and the head has weight: `model.head_masked` without a scheme,
    else the scheme's level weight at each head of its outcome.
    """

    def __init__(self, model: OmtlModel, cols: Columns, rows: np.ndarray | None = None,
                 size: int | None = None, scheme=None, heads: bool = True):
        if cols.graph_hash != model.graph_hash:
            raise ValidationError("forward: columns were built over another graph")
        if cols.X.shape[1] != model.spec.feature_dim:
            raise ValidationError(f"record feature dim {cols.X.shape[1]} != model dim "
                                  f"{model.spec.feature_dim}")
        if model.hierarchy_enabled and not model.spec.has_parent_gates:
            raise ValidationError("forward: hierarchy_enabled needs the parent gates of "
                                  f"the omtl variant, not {model.spec.variant!r}")
        every = rows is None  # every row in order: cols' arrays are read in place
        rows = np.arange(len(cols)) if every else np.asarray(rows)
        size = max(rows.size, 1) if size is None else size
        if model.hierarchy_enabled and cols.unclosed[rows].any():
            b = np.flatnonzero(cols.unclosed[rows])[0] // size
            raise cols.closure_error(rows[b * size:(b + 1) * size], model.graph)
        self.model, self.cols, self.rows, self.size = model, cols, rows, size
        self.scheme = scheme
        self.count = -(-rows.size // size)
        count = max(self.count, 1)  # a plan of no rows has one batch, empty
        # a batch reads the features in place only when it holds them all
        self.whole = every and count == 1

        node, pos = np.nonzero((cols.member if every else cols.member[rows]).T)
        if count > 1:
            by = np.argsort(pos // size, kind="stable")
            node, pos = node[by], pos[by]
        batch = pos // size
        self.pairs = _Runs(node, batch, count)
        self.pair_rows = pos - batch * size
        local = np.arange(node.size) - self.pairs.lo[batch]  # a pair's index in its batch
        self.labels, self.labeled = _label_arrays(model, cols, None if every else rows)
        self.terms = None  # scoring reads no head terms, so need not plan them
        if heads:
            self._plan_heads(pos, node, batch, local, count)
        self.routed = model.hierarchy_enabled and model.parents.shape[1] > 0
        if self.routed:
            self._plan_route(node, batch, local, count)

    def _head_weight(self, labeled, pos, node) -> np.ndarray:
        model, scheme = self.model, self.scheme
        if scheme is None:
            return model.head_masked
        k = model.outcome_col.get(scheme.outcome)
        if k is not None:
            bad = np.flatnonzero(labeled[pos, k] & ~model.has_head[node, k])
            if bad.size:
                raise ValidationError(
                    f"reward scheme is active but node "
                    f"{model.graph.ordered_ids[node[bad[0]]]!r} has no head "
                    f"for outcome {scheme.outcome!r}")
        node_w = np.array([scheme.weights[n] for n in model.graph.ordered_ids])
        return np.where(model.head_outcome == k, node_w[model.head_node], 0.0)

    def _plan_heads(self, pos, node, batch, local, count) -> None:
        """The kept head terms of every batch: each (pair, head) combination
        of a pair with a head of its node, grouped by head within a batch,
        kept where its weight and its row's label are present."""
        model, pairs = self.model, self.pairs
        labels, labeled = self.labels, self.labeled
        weight = self._head_weight(labeled, pos, node)
        pair, head = model.head_pairs(pairs.all)
        outcome = model.head_outcome[head]
        w = labeled[pos[pair], outcome] * weight[head]
        keep = np.flatnonzero(w)
        pair, head, outcome = pair[keep], head[keep], outcome[keep]
        self.terms = _Runs(head, batch[pair], count)
        self.term_pair, self.term_y, self.term_w = \
            local[pair], labels[pos[pair], outcome], w[keep]

    def _plan_route(self, node, batch, local, count) -> None:
        """Every batch's parent routing: its levels, each pair's parents'
        pairs, and its gated pairs, grouped by gate."""
        model, pairs, depth = self.model, self.pairs, self.model.graph.depth
        # a level is a run of a batch's node runs: the first run of each
        # (batch, level), and each run's bounds within its level
        level_key = pairs.run_batch * depth + model.level[pairs.members]
        self.level_runs = np.searchsorted(level_key, np.arange(count * depth + 1))
        first = pairs.starts[self.level_runs[level_key]]
        self.level_starts, self.level_ends = pairs.starts - first, pairs.ends - first
        # a pair's parent is the pair of its row at the parent node, found
        # by its (batch, node, row) key, which ascends over the pairs
        key = (batch * len(model.node_col) + node) * self.size + self.pair_rows
        par = model.parents[node]
        at = np.searchsorted(key, key[:, None] + (par - node[:, None]) * self.size)
        self.src = np.where(par >= 0, at - self.pairs.lo[batch][:, None], 0)
        gated = np.flatnonzero(model.gate_row[node] >= 0)
        self.gated = local[gated]
        self.gates = _Runs(model.gate_row[node[gated]], batch[gated], count) \
            if gated.size else None

    def __len__(self) -> int:
        return self.count

    def batch(self, b: int) -> Batch:
        pairs, at = self.pairs, slice(b * self.size, (b + 1) * self.size)
        p0, p1 = pairs.lo[b], pairs.lo[b + 1]
        batch = Batch(self.cols, self.rows[at], self.whole, self.scheme,
                      self.labels[at], self.labeled[at], self.pair_rows[p0:p1],
                      None, None, None)
        if p0 < p1:
            batch.seg, batch.route = pairs.segments(b), self._route(b, p0, p1)
            t0, t1 = (0, 0) if self.terms is None else self.terms.lo[b:b + 2]
            if t0 < t1:
                batch.heads = (self.term_pair[t0:t1], self.terms.segments(b),
                               self.term_y[t0:t1], self.term_w[t0:t1])
        return batch

    def _route(self, b: int, p0: int, p1: int) -> tuple | None:
        if not self.routed:
            return None
        pairs, levels, depth = self.pairs, [], self.model.graph.depth
        for lvl in range(depth):
            r0, r1 = self.level_runs[b * depth + lvl], self.level_runs[b * depth + lvl + 1]
            if r0 < r1:
                lo, hi = pairs.starts[r0], pairs.ends[r1 - 1]
                levels.append((lo, hi, Segments.from_runs(
                    pairs.of[p0 + lo:p0 + hi], self.level_starts[r0:r1],
                    self.level_ends[r0:r1], pairs.members[r0:r1]), lvl > 0))
        gates, gated, gseg = self.gates, self.gated[:0], None
        if gates is not None and gates.lo[b] < gates.lo[b + 1]:
            gated, gseg = self.gated[gates.lo[b]:gates.lo[b + 1]], gates.segments(b)
        return levels, self.src[p0:p1], gated, gseg


@dataclass(eq=False)
class ForwardResult:
    """A forward pass over a `Batch`: the representations of its pairs
    (None without pairs), the batch's feature rows x, and the pairs' feature
    rows when the expert gates read them."""

    model: OmtlModel
    batch: Batch
    rep: Tensor | None
    x: np.ndarray
    gate_in: np.ndarray | None

    @property
    def targets(self) -> np.ndarray:
        """The pairs' feature rows, the reconstruction targets: gathered
        once, for the expert gates when they run, else here."""
        return self.gate_in if self.gate_in is not None else self.x[self.batch.pair_rows]

    def planned_for(self, scheme) -> "ForwardResult":
        """This pass, with its batch's head terms planned for scheme (None
        for the masked loss)."""
        if self.batch.scheme is scheme:
            return self
        b = self.batch
        return replace(self, batch=BatchPlan(self.model, b.cols, b.rows,
                                             scheme=scheme).batch(0))


def forward(model: OmtlModel, data, mode: str = "eval",
            dropout_rng=None) -> ForwardResult:
    """Route a batch through the model's graph.

    data is a `Batch` of a `BatchPlan`, or else `Columns` or anything
    `columns_of` turns into columns (a Dataset, a record or records), all
    of whose rows are planned as one batch. The experts run once over
    every row; then the expert mixture and the representations run once
    over the batch's (row, node) pairs, the representations reading parent
    representations from earlier levels by row when the plan routes
    through parents: through the parent gate at a node of two or more
    parents, and with weight exactly 1 at a node of one.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"unknown forward mode {mode!r}")
    batch = data if isinstance(data, Batch) else \
        BatchPlan(model, columns_of(data, model.graph)).batch(0)
    train = mode == "train"
    if train and model.spec.dropout > 0.0 and dropout_rng is None:
        raise ValidationError("train-mode forward needs a dropout rng")
    x = Tensor(batch.cols.X if batch.whole else batch.cols.X[batch.rows], const=True)
    spec = model.spec
    experts = T.expert_layer(x, model.expert_w, model.expert_b, spec.leaky_slope,
                             spec.dropout, dropout_rng, train)
    if batch.seg is None:
        return ForwardResult(model, batch, None, x.values, None)
    # parent gates come only with expert gates (omtl), so they read these too
    gate_in = None if model.gate_w is None else x.values[batch.pair_rows]
    mixed, _ = T.expert_mix(x, gate_in, experts, spec.num_experts, batch.pair_rows,
                            batch.seg, model.gate_w, model.gate_b)
    route = None
    if batch.route is not None:
        # routing runs only for omtl, so every gated pair has its gate
        levels, src, gated, gseg = batch.route
        route = T.Route(levels, src) if gseg is None else \
            T.Route(levels, src, gated, gate_in[gated], gseg, model.pgate_w, model.pgate_b)
    rep = T.represent(mixed, model.repr_w, model.repr_b, batch.seg, route)
    return ForwardResult(model, batch, rep, x.values, gate_in)


# ---------------------------------------------------------------------------
# serialization


def model_to_json_obj(model: OmtlModel) -> dict:
    flat = model.arena.values.tolist()
    params = {name: {"shape": list(p.values.shape), "values": flat[p.span]}
              for name, p in sorted(model.params.items())}
    return {"spec": model.spec.to_json_obj(),
            "graph_hash": model.graph_hash,
            "outcome_map": {nid: list(v) for nid, v in model.outcome_map.items()},
            "hierarchy_enabled": model.hierarchy_enabled,
            "params": params}


def _read_params(arena: Arena, entries: dict) -> bool:
    """Whether every parameter's entry in a model file is a JSON object
    whose shape is the parameter's [rows, cols] as ints and whose values
    are as many int or float numbers, each within float range: checked
    over all entries at once, and their values then written into arena in
    one pass."""
    params = arena.params.values()
    picked = [entries[name] for name in arena.params]
    if not set(map(type, picked)) <= {dict}:
        return False
    shapes = [entry.get("shape") for entry in picked]
    values = [entry.get("values") for entry in picked]
    if (shapes != [list(p.values.shape) for p in params]
            or not set(map(type, chain.from_iterable(shapes))) <= {int}
            or not set(map(type, values)) <= {list}
            or list(map(len, values)) != [p.values.size for p in params]):
        return False
    if not set(map(type, chain.from_iterable(values))) <= {int, float}:
        return False
    try:
        arena.values[...] = np.fromiter(chain.from_iterable(values), np.float64,
                                        arena.size)
    except OverflowError:
        return False
    return True


def model_from_json_obj(obj: dict, graph: OntologyGraph) -> OmtlModel:
    """The model a parsed model file describes over graph. Its parameter
    entries are checked and read in one pass (`_read_params`); only when
    that pass finds a fault are they read again one at a time, in file
    order, through `json_field`, so that the first faulty entry is named."""
    where = "model file"
    spec = ModelSpec.from_json_obj(json_field(obj, "spec", "dict", where))
    graph_hash = json_field(obj, "graph_hash", "str", where)
    if graph_hash != graph.graph_hash():
        raise ValidationError("model was built against a different graph "
                              f"(hash {graph_hash[:12]}...)")
    outcomes = json_field(obj, "outcome_map", "dict", where)
    outcome_map = {}
    for nid in outcomes:
        names = json_field(outcomes, nid, "list[str]", f"{where}: outcome_map")
        if nid not in graph.nodes:
            raise ValidationError(f"{where}: outcome_map names unknown node {nid!r}")
        if len(set(names)) != len(names):
            raise ValidationError(f"{where}: outcome_map repeats an outcome of {nid!r}")
        outcome_map[nid] = tuple(names)
    shapes = dict(param_layout(spec, graph, outcome_map))
    entries = json_field(obj, "params", "dict", where)
    missing = [n for n in shapes if n not in entries]
    if missing:
        raise ValidationError(f"{where}: missing parameter {missing[0]!r} "
                              f"({len(missing)} missing in all)")
    extra = sorted(n for n in entries if n not in shapes)
    if extra:
        raise ValidationError(f"{where}: unexpected parameter {extra[0]!r}")
    arena = Arena(shapes.items())
    if not _read_params(arena, entries):
        for name, entry in entries.items():
            at = f"{where}: parameter {name!r}"
            shape = json_field(entry, "shape", "list[int]", at)
            values = json_field(entry, "values", "list[float]", at)
            if len(shape) != 2 or shape[0] * shape[1] != len(values):
                raise ValidationError(f"{at}: {len(values)} values do not fill "
                                      f"a matrix of shape {shape}")
            if tuple(shape) != shapes[name]:
                raise ValidationError(f"{at}: shape {shape}, the model needs "
                                      f"{list(shapes[name])}")
            arena.params[name].values[...] = values.reshape(shape)
    if not np.isfinite(arena.values).all():
        bad = next(n for n, p in arena.params.items() if not np.isfinite(p.values).all())
        raise ValidationError(f"{where}: parameter {bad!r} holds a non-finite value")
    model = OmtlModel(spec, graph, arena, outcome_map)
    model.hierarchy_enabled = json_field(obj, "hierarchy_enabled", "bool", where,
                                         default=spec.has_parent_gates)
    if model.hierarchy_enabled and not spec.has_parent_gates:
        raise ValidationError(f"{where}: hierarchy_enabled needs the parent gates "
                              f"of the omtl variant, not {spec.variant!r}")
    return model


def save_model(model: OmtlModel, path: str) -> None:
    write_json(path, model_to_json_obj(model))


def load_model(path: str, graph: OntologyGraph) -> OmtlModel:
    return model_from_json_obj(read_json(path, "model file"), graph)
