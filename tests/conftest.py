import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from omtl import tensor as T
from omtl.datastore import Record, columns_of
from omtl.model import Batch, BatchPlan, ModelSpec, build_model
from omtl.ontology import ConceptNode, OntologyGraph, ancestor_closure
from omtl.tensor import Arena, Parameter, Segments, Tensor

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # collecting a property test makes hypothesis cache constants it reads
    # from the source in its home directory, whatever the test's settings;
    # keep that cache out of the working tree, for this run only
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="omtl-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


# any JSON value json.load can return, for the loaders' property tests
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=16)


def field(right):
    """A field's value: one of its right type, or any JSON value."""
    return right | JSON


def diamond_graph(core_outcomes=("event",)) -> OntologyGraph:
    nodes = [
        ConceptNode("a"),
        ConceptNode("b"),
        ConceptNode("c"),
        ConceptNode("d", core=True, outcomes=core_outcomes),
    ]
    return OntologyGraph(nodes, [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def chain_graph(n=3, outcomes=("event",)) -> OntologyGraph:
    names = [chr(ord("a") + i) for i in range(n)]
    nodes = [ConceptNode(nid, core=(i == n - 1),
                         outcomes=outcomes if i == n - 1 else ())
             for i, nid in enumerate(names)]
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    return OntologyGraph(nodes, edges)


def random_dag(rng: np.random.Generator, n_nodes: int, edge_prob=0.35,
               core_frac=0.4, outcomes=("event",)) -> OntologyGraph:
    """Random DAG on id-ordered nodes: edges only point id-forward."""
    names = [f"n{i:02d}" for i in range(n_nodes)]
    core = rng.random(n_nodes) < core_frac
    if not core.any():
        core[rng.integers(n_nodes)] = True
    nodes = [ConceptNode(nid, core=bool(c), outcomes=outcomes if c else ())
             for nid, c in zip(names, core)]
    edges = [(names[i], names[j])
             for i in range(n_nodes) for j in range(i + 1, n_nodes)
             if rng.random() < edge_prob]
    return OntologyGraph(nodes, edges)


def make_record(graph: OntologyGraph, rng: np.random.Generator, d: int,
                anchor: str | None = None, label=None, rid="r0") -> Record:
    if anchor is None:
        ids = graph.ordered_ids
        anchor = ids[rng.integers(len(ids))]
    labels = {}
    if label is not None:
        for nid in ancestor_closure(graph, [anchor]):
            for o in graph.nodes[nid].outcomes:
                labels[o] = label
    return Record(id=rid, features=rng.normal(size=d),
                  concepts=ancestor_closure(graph, [anchor]), labels=labels)


def tiny_model(graph, variant="omtl", d=7, de=3, experts=2, seed=0,
               dropout=0.0, shared_outcome=None):
    spec = ModelSpec(variant=variant, num_experts=1 if variant == "sb" else experts,
                     feature_dim=d, repr_dim=de, dropout=dropout)
    return build_model(spec, graph, seed=seed, shared_outcome=shared_outcome)


def one_batch(model, recs, scheme=None) -> Batch:
    """A record, or records, as the one batch of a plan for the model,
    with the head terms of scheme's loss (the masked loss's for None)."""
    return BatchPlan(model, columns_of(recs, model.graph), scheme=scheme).batch(0)


def gate_weights(model, x: np.ndarray) -> dict[tuple[str, str], np.ndarray]:
    """The weights every gate the forward pass runs puts on the rows of x,
    by (node, "expert" or "parent"), from the model's stacks: expert gates
    through the `expert_mix` op, parent gates through the gate arithmetic
    of `represent`'s route. Parent gates run only for nodes with two or
    more parents (a single parent takes weight exactly 1); their rows keep
    the padding columns of the graph's widest gate, each of weight 0."""
    n = x.shape[0]
    nodes = model.graph.ordered_ids
    gates = {}
    if model.gate_w is not None:
        count = len(nodes)
        n_exp = model.spec.num_experts
        _, s = T.expert_mix(Tensor(x, const=True), np.tile(x, (count, 1)),
                            Tensor(np.zeros((n, n_exp)), const=True), n_exp,
                            np.tile(np.arange(n), count),
                            Segments(np.repeat(np.arange(count), n)),
                            model.gate_w, model.gate_b)
        gates.update(((nid, "expert"), s[j * n:(j + 1) * n])
                     for j, nid in enumerate(nodes))
    if model.pgate_w is not None:
        count, _, width = model.pgate_w.shape
        pairs = np.arange(count * n)
        s = T.Route([], np.zeros((count * n, width), dtype=np.intp),
                    pairs, np.tile(x, (count, 1)),
                    Segments(np.repeat(np.arange(count), n)),
                    model.pgate_w, model.pgate_b).weights()
        gated = [nid for nid, row in zip(nodes, model.gate_row) if row >= 0]
        gates.update(((nid, "parent"), s[j * n:(j + 1) * n])
                     for j, nid in enumerate(gated))
    return gates


def arena_params(values: dict) -> dict[str, Parameter]:
    """Parameters holding the given 2-D values, laid out in one new arena
    in the order given."""
    arrays = {n: np.array(v, dtype=np.float64, ndmin=2) for n, v in values.items()}
    arena = Arena([(n, a.shape) for n, a in arrays.items()])
    for n, a in arrays.items():
        arena.params[n].values[...] = a
    return arena.params


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays are equal bit for bit, -0.0 and NaN
    payloads included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def sq_loss(x: Tensor, target) -> Tensor:
    """sum((x - target)^2) recorded as one tape op: a scalar loss for tests
    of the tape and the optimizer (the model's own losses are pair ops)."""
    resid = x.values - target
    out, t = T._result(np.array([[(resid * resid).sum()]]), x)
    if t is not None:
        t._ops.append((out, lambda g, t: t._accum(x, (2.0 * g[0, 0]) * resid,
                                                  own=True)))
    return out


def loss_sum(*terms: Tensor) -> Tensor:
    """The sum of (1, 1) losses recorded as one tape op, which hands each
    term the gradient it receives."""
    out, t = T._result(np.array([[sum(p.item() for p in terms)]]), *terms)
    if t is not None:
        def backward(g, t):
            for p in terms:
                t._accum(p, g)
        t._ops.append((out, backward))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
