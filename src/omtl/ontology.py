"""The concept DAG the network mirrors: loading, levels, closure, growth.

Graphs are JSON files of the form
    {"nodes": [{"id": str, "concept": str, "core": bool, "outcomes": [str]}],
     "edges": [{"parent": str, "child": str}]}
where "concept", "core", "outcomes" and "edges" may be left out.
Every graph keeps one name rule (`check_names`), and so does a model
file's outcome map: a node's outcome names are not empty, not repeated
and hold neither '.' nor '|', and node ids hold no '|'. Levels are
longest-path-from-roots, so a child always sits strictly below every
parent. Iteration order is (level, id), which fixes the routing order
used by the model's forward pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter

from .errors import ValidationError
from .fields import json_field, read_json, write_json
from .rng import substream


@dataclass(frozen=True)
class ConceptNode:
    id: str
    concept: str = ""
    core: bool = False
    outcomes: tuple[str, ...] = ()


@dataclass(frozen=True)
class GrowthConfig:
    core_ids: tuple[str, ...]
    max_hops: int = 2
    iterations: int = 100
    seed: int = 0


class OntologyGraph:
    """Validated DAG over ConceptNodes with precomputed levels.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, nodes: list[ConceptNode], edges: list[tuple[str, str]]):
        self.nodes: dict[str, ConceptNode] = {}
        for n in nodes:
            check_names(n.id, n.outcomes, f"node {n.id!r}")
            if n.id in self.nodes:
                raise ValidationError(f"duplicate node id {n.id!r}")
            if n.outcomes and not n.core:
                raise ValidationError(
                    f"node {n.id!r} carries outcomes but is not a core node")
            self.nodes[n.id] = n
        self.edges: list[tuple[str, str]] = []
        parents: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        seen = set()
        for parent, child in edges:
            for end in (parent, child):
                if end not in self.nodes:
                    raise ValidationError(f"edge endpoint {end!r} is not a node")
            if (parent, child) in seen:
                raise ValidationError(f"duplicate edge {parent!r} -> {child!r}")
            seen.add((parent, child))
            self.edges.append((parent, child))
            parents[child].append(parent)
        self.parents = {nid: tuple(sorted(ps)) for nid, ps in parents.items()}
        self.levels = compute_levels(self)
        self.depth = 1 + max(self.levels.values()) if self.levels else 0
        self.ordered_ids = sorted(self.nodes, key=lambda nid: (self.levels[nid], nid))
        self.core_ids = tuple(nid for nid in self.ordered_ids if self.nodes[nid].core)

    def outcome_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for nid in self.ordered_ids:
            for o in self.nodes[nid].outcomes:
                if o not in names:
                    names.append(o)
        return tuple(names)

    def to_json_obj(self) -> dict:
        return {
            "nodes": [
                {"id": n.id, "concept": n.concept, "core": n.core,
                 "outcomes": list(n.outcomes)}
                for n in self.nodes.values()
            ],
            "edges": [{"parent": p, "child": c} for p, c in self.edges],
        }

    def graph_hash(self) -> str:
        return self._hash

    @cached_property
    def _hash(self) -> str:
        blob = json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def check_names(nid: str, outcomes, at: str) -> None:
    """The name rule, at node nid with outcomes: an outcome name is not
    empty, holds neither '.' nor '|' and is not repeated, and a node id
    holds no '|'. A head parameter is named node.outcome and a report
    target node|outcome, so under this rule no two heads share either."""
    if "|" in nid:
        raise ValidationError(f"{at}: node id {nid!r} holds '|'")
    for o in outcomes:
        if not o:
            raise ValidationError(f"{at}: outcome names must not be empty")
        if "." in o or "|" in o:
            raise ValidationError(f"{at}: outcome name {o!r} holds '.' or '|'")
    if len(set(outcomes)) != len(outcomes):
        raise ValidationError(f"{at}: repeats an outcome name")


# a longer cycle is named by its length and its first this many nodes
_CYCLE_SHOWN = 8


def compute_levels(graph: OntologyGraph) -> dict[str, int]:
    """Longest-path-from-roots level for every node; raises on cycles."""
    sorter = TopologicalSorter({nid: graph.parents[nid] for nid in sorted(graph.nodes)})
    try:
        order = list(sorter.static_order())
    except CycleError as exc:  # exc.args[1] runs parent to child, back to its start
        cycle = exc.args[1]
        named = f": {' -> '.join(cycle)}" if len(cycle) <= _CYCLE_SHOWN + 1 else \
            f" of {len(cycle) - 1} nodes: {' -> '.join(cycle[:_CYCLE_SHOWN])} -> ..."
        raise ValidationError(f"graph contains a cycle{named}") from None
    level: dict[str, int] = {}
    for nid in order:
        level[nid] = 1 + max((level[p] for p in graph.parents[nid]), default=-1)
    return level


def load_graph(path: str) -> OntologyGraph:
    """Read and validate a graph JSON file."""
    return graph_from_json_obj(read_json(path, "graph file"))


def graph_from_json_obj(obj) -> OntologyGraph:
    """A graph from a parsed graph file; every field must have its JSON type."""
    where = "graph file"
    nodes = []
    for i, raw in enumerate(json_field(obj, "nodes", "list[dict]", where)):
        at = f"{where}: node {i}"
        outcomes = json_field(raw, "outcomes", "list[str]", at, default=[])
        nid = json_field(raw, "id", "str", at)
        check_names(nid, outcomes, at)  # here, to name the node's place in the file
        nodes.append(ConceptNode(
            id=nid,
            concept=json_field(raw, "concept", "str", at, default=""),
            core=json_field(raw, "core", "bool", at, default=False),
            outcomes=tuple(outcomes),
        ))
    edges = []
    for i, raw in enumerate(json_field(obj, "edges", "list[dict]", where, default=[])):
        at = f"{where}: edge {i}"
        edges.append((json_field(raw, "parent", "str", at),
                      json_field(raw, "child", "str", at)))
    return OntologyGraph(nodes, edges)


def save_graph(graph: OntologyGraph, path: str) -> None:
    write_json(path, graph.to_json_obj(), indent=1, sort_keys=True)


def ancestor_closure(graph: OntologyGraph, concept_set) -> frozenset[str]:
    """Smallest superset of concept_set closed under adding parents."""
    closed: set[str] = set()
    frontier = list(concept_set)
    for nid in frontier:
        if nid not in graph.nodes:
            raise ValidationError(f"unknown concept id {nid!r}")
    while frontier:
        nid = frontier.pop()
        if nid in closed:
            continue
        closed.add(nid)
        frontier.extend(graph.parents[nid])
    return frozenset(closed)


def induced_subgraph(graph: OntologyGraph, keep) -> OntologyGraph:
    keep = set(keep)
    nodes = [n for n in graph.nodes.values() if n.id in keep]
    edges = [(p, c) for p, c in graph.edges if p in keep and c in keep]
    return OntologyGraph(nodes, edges)


def grow_from_core(graph: OntologyGraph, config: GrowthConfig) -> OntologyGraph:
    """Grow an augmented subgraph by random predecessor walks from the core.

    Each iteration starts one walk at a uniformly chosen core node and takes
    up to max_hops uniform steps along parent edges, collecting every node
    visited. The result is the induced subgraph on core plus collected
    nodes, so every included node is within max_hops reverse-edge hops of
    some core node.
    """
    for cid in config.core_ids:
        if cid not in graph.nodes:
            raise ValidationError(f"core id {cid!r} is not in the graph")
    if config.max_hops < 0 or config.iterations < 0:
        raise ValidationError("max_hops and iterations must be >= 0, got "
                              f"{config.max_hops} and {config.iterations}")
    starts = sorted(set(config.core_ids))
    selected = set(starts)
    rng = substream(config.seed, "growth")
    if config.max_hops > 0:
        for _ in range(config.iterations):
            cur = starts[rng.integers(len(starts))]
            for _ in range(config.max_hops):
                ps = graph.parents[cur]
                if not ps:
                    break
                cur = ps[rng.integers(len(ps))]
                selected.add(cur)
    return induced_subgraph(graph, selected)
