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
record is never routed through a node outside its own concept set. A node
with a single parent takes that parent with weight exactly 1, as the
softmax over one logit would.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .ontology import OntologyGraph
from .datastore import Columns, columns_of
from .fields import MAX_SIZE, config_fields, json_field, read_json, write_json
from .rng import substream
from .tensor import Arena, Block, Segments, Tensor

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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(starts[i], starts[i] + counts[i])."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts,
                                                               counts)


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
        # the first node of each level, then the node count
        self.level_start = np.searchsorted([graph.levels[n] for n in nodes],
                                           np.arange(graph.depth + 1))

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
        self.n_parents = np.array([len(graph.parents[n]) for n in nodes], dtype=np.intp)
        self.parents = np.full((len(nodes), self.n_parents.max(initial=0)), -1,
                               dtype=np.intp)
        for j, n in enumerate(nodes):
            self.parents[j, :self.n_parents[j]] = [self.node_col[p]
                                                   for p in graph.parents[n]]
        gated = [n for n, k in zip(nodes, self.n_parents) if k >= 2]
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
        their node, as pair and head index arrays grouped by head."""
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


def _draw(params, rng, name: str) -> None:
    """Fan-in uniform draw, U(-1/sqrt(rows), 1/sqrt(rows)), of name.w and
    then name.b, written into their arena views."""
    w, b = params[name + ".w"].values, params[name + ".b"].values
    bound = 1.0 / np.sqrt(max(w.shape[0], 1))
    w[...] = rng.uniform(-bound, bound, size=w.shape)
    b[...] = rng.uniform(-bound, bound, size=b.shape)


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
    rng = substream(seed, "init")
    params = arena.params
    for e in range(spec.num_experts):
        _draw(params, rng, f"expert.{e:02d}")
    for nid in graph.ordered_ids:
        if spec.has_expert_gates:
            _draw(params, rng, f"expert_gate.{nid}")
        if spec.has_parent_gates and graph.parents[nid]:
            _draw(params, rng, f"parent_gate.{nid}")
        _draw(params, rng, f"repr.{nid}")
        _draw(params, rng, f"recon.{nid}")
        for o in outcome_map[nid]:
            _draw(params, rng, f"head.{nid}.{o}")
    return OmtlModel(spec, graph, arena, outcome_map)


def reinit_parent_gates(model: OmtlModel, seed: int) -> None:
    """Fresh fan-in-uniform draw for every parent gate (start of phase 2)."""
    rng = substream(seed, "h_init")
    for nid in model.graph.ordered_ids:
        if model.spec.has_parent_gates and model.graph.parents[nid]:
            _draw(model.params, rng, f"parent_gate.{nid}")


@dataclass(eq=False)
class ForwardResult:
    """A forward pass over rows of a cohort's columns, as arrays: the
    batch's (row, node) pairs and their representations, the batch's
    feature rows (the reconstruction targets), and its labels.

    Pairs are node-major, nodes in level order: pair p is batch row
    pair_rows[p] at node seg.of[p], rows ascending within a node. A batch
    whose records express no node has no pairs, and seg and rep are None.
    labels and labeled are (batch, model outcomes) arrays of each row's
    label and of whether it has one.
    """

    model: OmtlModel
    pair_rows: np.ndarray
    seg: Segments | None
    rep: Tensor | None
    inputs: np.ndarray
    labels: np.ndarray
    labeled: np.ndarray


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


def _route(model: OmtlModel, x: np.ndarray, rows: np.ndarray, node: np.ndarray,
           batch_size: int) -> T.Route:
    """The parent routing of a batch's pairs (batch row rows[p] at node
    node[p], node-major). The batch's concept sets are ancestor-closed, so
    every parent a pair reads has a pair on an earlier level."""
    pos = np.full((batch_size, len(model.node_col)), -1, dtype=np.intp)
    pos[rows, node] = np.arange(rows.size)
    par = model.parents[node]
    src = np.where(par >= 0, pos[rows[:, None], par], 0)
    bounds = np.searchsorted(node, model.level_start)
    single = np.flatnonzero(model.n_parents[node] == 1)
    gate_row = model.gate_row[node]
    gated = np.flatnonzero(gate_row >= 0)
    if not gated.size or model.pgate_w is None:
        return T.Route(bounds, src, single)
    return T.Route(bounds, src, single, gated, x[rows[gated]],
                   Segments(gate_row[gated]), model.pgate_w, model.pgate_b)


def forward(model: OmtlModel, data, mode: str = "eval", dropout_rng=None,
            rows: np.ndarray | None = None) -> ForwardResult:
    """Route rows of a cohort's columns through the model's graph.

    data is `Columns`, or anything else `columns_of` turns into columns (a
    Dataset, a record or records); rows are the batch's row indices, all
    rows by default. The experts run once over every row; then the expert
    mixture and the representations run once over the (row, node) pairs
    the batch's concept sets form, the representations reading parent
    representations from earlier levels by row when routing is on.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"unknown forward mode {mode!r}")
    cols = columns_of(data, model.graph)
    if cols.graph_hash != model.graph_hash:
        raise ValidationError("forward: columns were built over another graph")
    if rows is None:
        x, member, unclosed = cols.X, cols.member, cols.unclosed
    else:
        x, member, unclosed = cols.X[rows], cols.member[rows], cols.unclosed[rows]
    if x.shape[1] != model.spec.feature_dim:
        raise ValidationError(
            f"record feature dim {x.shape[1]} != model dim {model.spec.feature_dim}")
    if model.hierarchy_enabled and unclosed.any():
        raise cols.closure_error(np.arange(len(cols)) if rows is None else rows,
                                 model.graph)
    train = mode == "train"
    if train and model.spec.dropout > 0.0 and dropout_rng is None:
        raise ValidationError("train-mode forward needs a dropout rng")
    x = Tensor(x, const=True)
    spec = model.spec
    experts = T.expert_layer(x, model.expert_w, model.expert_b, spec.leaky_slope,
                             spec.dropout, dropout_rng, train)
    node, pair_rows = np.nonzero(member.T)
    labels, labeled = _label_arrays(model, cols, rows)
    if not pair_rows.size:
        return ForwardResult(model, pair_rows, None, None, x.values, labels, labeled)
    seg = Segments(node)
    mixed, _ = T.expert_mix(x, experts, spec.num_experts, pair_rows, seg,
                            model.gate_w, model.gate_b)
    route = None
    if model.hierarchy_enabled and model.parents.shape[1]:
        route = _route(model, x.values, pair_rows, node, member.shape[0])
    rep = T.represent(mixed, model.repr_w, model.repr_b, seg, route)
    return ForwardResult(model, pair_rows, seg, rep, x.values, labels, labeled)


# ---------------------------------------------------------------------------
# serialization


def model_to_json_obj(model: OmtlModel) -> dict:
    params = {}
    for name in sorted(model.params):
        p = model.params[name]
        params[name] = {"shape": list(p.shape), "values": p.values.ravel().tolist()}
    return {"spec": model.spec.to_json_obj(),
            "graph_hash": model.graph_hash,
            "outcome_map": {nid: list(v) for nid, v in model.outcome_map.items()},
            "hierarchy_enabled": model.hierarchy_enabled,
            "params": params}


def model_from_json_obj(obj: dict, graph: OntologyGraph) -> OmtlModel:
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
