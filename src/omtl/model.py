"""The ontology-mirrored network plus its SB / MOE / MMOE baselines.

One shared bank of experts feeds per-concept representation blocks. Each
concept node owns an expert gate (softmax over experts), a representation
layer (Softplus), a reconstruction head (ReLU), and, when ontology routing
is enabled, a parent gate (softmax over its graph parents) that mixes the
parents' representations into its own input. Outcome heads hang off the
representation of their node and emit sigmoid probabilities.

Routing is node-major: a forward pass runs the experts once over the
whole batch, then visits each node that some record expresses once, in
nondecreasing level order, over exactly the rows that express it. Concept
sets are ancestor-closed, so a child's rows are a subset of each parent's
rows and the parent representations it consumes are a row gather of
representations already computed; a record is never routed through a
node outside its own concept set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .ontology import OntologyGraph
from .datastore import Record, config_fields, json_field
from .rng import substream
from .tensor import Tensor

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
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def has_expert_gates(self) -> bool:
        return self.variant in ("mmoe", "omtl")

    @property
    def has_parent_gates(self) -> bool:
        return self.variant == "omtl"

    def to_json_obj(self) -> dict:
        return {"variant": self.variant, "num_experts": self.num_experts,
                "feature_dim": self.feature_dim, "repr_dim": self.repr_dim,
                "dropout": self.dropout, "leaky_slope": self.leaky_slope}

    @staticmethod
    def from_json_obj(obj: dict) -> "ModelSpec":
        return ModelSpec(**config_fields(ModelSpec, obj, "model spec"))


class OmtlModel:
    """Parameter container bound to one graph, with a runtime routing toggle.

    hierarchy_enabled controls whether forward uses the parent-gate path;
    an omtl model with it switched off computes exactly what an mmoe model
    with the same non-parent-gate parameters would.
    """

    def __init__(self, spec: ModelSpec, graph: OntologyGraph,
                 params: dict[str, Tensor], outcome_map: dict[str, tuple[str, ...]]):
        self.spec = spec
        self.graph = graph
        self.params = params
        self.outcome_map = outcome_map
        self.hierarchy_enabled = spec.has_parent_gates
        self.graph_hash = graph.graph_hash()

    def param(self, name: str) -> Tensor:
        return self.params[name]

    def param_count(self) -> int:
        return sum(p.values.size for p in self.params.values())

    def parameter_names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self.params if n.startswith(prefix))

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: p.values.copy() for n, p in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for n, values in snap.items():
            self.params[n].values = values.copy()


def _alloc(params: dict[str, Tensor], rng, name: str, rows: int, cols: int) -> None:
    params[name + ".w"] = T.fan_in_uniform(rng, rows, cols)
    bound = 1.0 / np.sqrt(max(rows, 1))
    params[name + ".b"] = Tensor(rng.uniform(-bound, bound, size=(1, cols)))


def build_model(spec: ModelSpec, graph: OntologyGraph, seed: int = 0,
                shared_outcome: str | None = None) -> OmtlModel:
    """Allocate all parameters with seeded fan-in-uniform initialization.

    shared_outcome, when given, attaches that outcome head to every node
    (the reward-shaping setup); otherwise heads exist only where the graph
    associates outcomes, i.e. at core nodes.
    """
    rng = substream(seed, "init")
    d, de, e_cnt = spec.feature_dim, spec.repr_dim, spec.num_experts
    params: dict[str, Tensor] = {}
    outcome_map: dict[str, tuple[str, ...]] = {}

    for e in range(e_cnt):
        _alloc(params, rng, f"expert.{e:02d}", d, de)
    for nid in graph.ordered_ids:
        if spec.has_expert_gates:
            _alloc(params, rng, f"expert_gate.{nid}", d, e_cnt)
        if spec.has_parent_gates and graph.parents[nid]:
            _alloc(params, rng, f"parent_gate.{nid}", d, len(graph.parents[nid]))
        _alloc(params, rng, f"repr.{nid}", de, de)
        _alloc(params, rng, f"recon.{nid}", de, d)
        outcomes = list(graph.nodes[nid].outcomes)
        if shared_outcome and shared_outcome not in outcomes:
            outcomes.append(shared_outcome)
        outcome_map[nid] = tuple(outcomes)
        for o in outcomes:
            _alloc(params, rng, f"head.{nid}.{o}", de, 1)
    return OmtlModel(spec, graph, params, outcome_map)


def reinit_parent_gates(model: OmtlModel, seed: int) -> None:
    """Fresh fan-in-uniform draw for every parent gate (start of phase 2)."""
    rng = substream(seed, "h_init")
    for nid in model.graph.ordered_ids:
        n_par = len(model.graph.parents[nid])
        if model.spec.has_parent_gates and n_par:
            bound_w = 1.0 / np.sqrt(model.spec.feature_dim)
            model.params[f"parent_gate.{nid}.w"].values = rng.uniform(
                -bound_w, bound_w, size=(model.spec.feature_dim, n_par))
            model.params[f"parent_gate.{nid}.b"].values = rng.uniform(
                -bound_w, bound_w, size=(1, n_par))


@dataclass
class ForwardResult:
    """Per expressed node: the batch rows that express it (ascending indices
    into the forwarded records), and over those rows its representation and
    reconstruction; per computed (node, outcome): the pre-sigmoid logit
    tensor over the node's rows. inputs keeps the stacked feature rows of
    the whole batch (the reconstruction targets)."""

    rows: dict[str, np.ndarray]
    representations: dict[str, Tensor]
    reconstructions: dict[str, Tensor]
    outcome_logits: dict[tuple[str, str], Tensor]
    inputs: np.ndarray

    def predictions(self) -> dict[tuple[str, str], np.ndarray]:
        """Sigmoid of each logit column, clipped into open (0, 1)."""
        out = {}
        lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        for key, z in self.outcome_logits.items():
            out[key] = np.clip(T._sigmoid_values(z.values[:, 0]), lo, hi)
        return out


def _expert_outputs(model: OmtlModel, x: Tensor, mode: str,
                    rng: np.random.Generator | None) -> list[Tensor]:
    outs = []
    train = mode == "train"
    if train and model.spec.dropout > 0.0 and rng is None:
        raise ValidationError("train-mode forward needs a dropout rng")
    for e in range(model.spec.num_experts):
        h = T.affine(x, model.param(f"expert.{e:02d}.w"),
                     model.param(f"expert.{e:02d}.b"))
        h = T.leaky_relu(h, model.spec.leaky_slope)
        h = T.dropout(h, model.spec.dropout, rng, train)
        outs.append(h)
    return outs


def _mix(model: OmtlModel, nid: str, x: Tensor, expert_outs: list[Tensor]) -> Tensor:
    """Node nid's expert mixture: sb passes its one expert through, moe takes
    the unweighted mean, mmoe and omtl weight by the node's expert gate."""
    variant = model.spec.variant
    if variant == "sb":
        return expert_outs[0]
    if variant == "moe":
        acc = expert_outs[0]
        for h in expert_outs[1:]:
            acc = T.add(acc, h)
        return T.scale(acc, 1.0 / len(expert_outs))
    gate = T.softmax_affine(x, model.param(f"expert_gate.{nid}.w"),
                            model.param(f"expert_gate.{nid}.b"))
    return T.weighted_sum(gate, expert_outs)


def _node_repr(model: OmtlModel, nid: str, x: Tensor, mixed: Tensor,
               parent_reprs: dict[str, Tensor]) -> Tensor:
    parents = model.graph.parents[nid]
    pre = mixed
    if model.hierarchy_enabled and parents:
        missing = [p for p in parents if p not in parent_reprs]
        if missing:
            raise ValidationError(
                f"node {nid!r} is missing parent representations {missing}; "
                f"concept sets must be ancestor-closed")
        gate = T.softmax_affine(x, model.param(f"parent_gate.{nid}.w"),
                                model.param(f"parent_gate.{nid}.b"))
        mixed_parents = T.weighted_sum(gate, [parent_reprs[p] for p in parents])
        pre = T.add(mixed, mixed_parents)
    return T.softplus_affine(pre, model.param(f"repr.{nid}.w"),
                             model.param(f"repr.{nid}.b"))


def _parent_rows(graph: OntologyGraph, nid: str, idx: np.ndarray,
                 rows: dict[str, np.ndarray],
                 reprs: dict[str, Tensor]) -> dict[str, Tensor]:
    """Each parent's representation gathered onto the rows idx of nid.

    A parent is left out unless its rows cover every row in idx, so a
    record whose concept set lacks the parent surfaces as a missing parent
    even when other records in the batch express it.
    """
    out = {}
    for p in graph.parents[nid]:
        prow = rows.get(p)
        if prow is None:
            continue
        pos = np.searchsorted(prow, idx)
        if pos[-1] < prow.size and np.array_equal(prow[pos], idx):
            out[p] = reprs[p] if prow.size == idx.size else T.take_rows(reprs[p], pos)
    return out


def forward(model: OmtlModel, graph: OntologyGraph, records,
            mode: str = "eval", dropout_rng=None) -> ForwardResult:
    """Route a batch of records (or one record) through the graph.

    The experts run once over every row. Then each expressed node runs
    once, in level order, over the rows that express it, reading its
    parents' representations by row gather. In train mode a head is
    computed only when some row of its node labels its outcome; in eval
    mode, unconditionally.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"unknown forward mode {mode!r}")
    recs = [records] if isinstance(records, Record) else list(records)
    x = Tensor(np.vstack([rec.features for rec in recs]), const=True)
    if x.shape[1] != model.spec.feature_dim:
        raise ValidationError(
            f"record feature dim {x.shape[1]} != model dim {model.spec.feature_dim}")
    expert_outs = _expert_outputs(model, x, mode, dropout_rng)
    members: dict[str, list[int]] = {}
    for i, rec in enumerate(recs):
        for nid in rec.concepts:
            members.setdefault(nid, []).append(i)
    rows: dict[str, np.ndarray] = {}
    reprs: dict[str, Tensor] = {}
    recons: dict[str, Tensor] = {}
    logits: dict[tuple[str, str], Tensor] = {}
    for nid in graph.ordered_ids:
        if nid not in members:
            continue
        idx = rows[nid] = np.asarray(members[nid])
        if idx.size == len(recs):
            x_n, experts_n = x, expert_outs
        else:
            x_n = T.take_rows(x, idx)
            experts_n = [T.take_rows(h, idx) for h in expert_outs]
        parents = {}
        if model.hierarchy_enabled and graph.parents[nid]:
            parents = _parent_rows(graph, nid, idx, rows, reprs)
        rep = reprs[nid] = _node_repr(model, nid, x_n,
                                      _mix(model, nid, x_n, experts_n), parents)
        recons[nid] = T.relu_affine(rep, model.param(f"recon.{nid}.w"),
                                    model.param(f"recon.{nid}.b"))
        for o in model.outcome_map.get(nid, ()):
            if mode == "train" and not any(o in recs[i].labels for i in idx):
                continue
            logits[(nid, o)] = T.affine(rep, model.param(f"head.{nid}.{o}.w"),
                                        model.param(f"head.{nid}.{o}.b"))
    return ForwardResult(rows=rows, representations=reprs,
                         reconstructions=recons, outcome_logits=logits,
                         inputs=x.values)


# ---------------------------------------------------------------------------
# serialization


def model_to_json_obj(model: OmtlModel) -> dict:
    params = {}
    for name in sorted(model.params):
        p = model.params[name]
        params[name] = {"shape": list(p.shape),
                        "values": [float(v) for v in p.values.ravel()]}
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
    params = {}
    for name, entry in json_field(obj, "params", "dict", where).items():
        at = f"{where}: parameter {name!r}"
        shape = json_field(entry, "shape", "list[int]", at)
        values = json_field(entry, "values", "list[float]", at)
        if len(shape) != 2 or shape[0] * shape[1] != len(values):
            raise ValidationError(f"{at}: {len(values)} values do not fill "
                                  f"a matrix of shape {shape}")
        params[name] = Tensor(np.array(values, dtype=np.float64).reshape(shape))
    outcomes = json_field(obj, "outcome_map", "dict", where)
    outcome_map = {nid: tuple(json_field(outcomes, nid, "list[str]", where))
                   for nid in outcomes}
    model = OmtlModel(spec, graph, params, outcome_map)
    model.hierarchy_enabled = json_field(obj, "hierarchy_enabled", "bool", where,
                                         default=spec.has_parent_gates)
    return model


def save_model(model: OmtlModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_obj(model), fh)
        fh.write("\n")


def load_model(path: str, graph: OntologyGraph) -> OmtlModel:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    return model_from_json_obj(obj, graph)
