import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omtl.errors import ValidationError
from omtl.ontology import (ConceptNode, GrowthConfig, OntologyGraph,
                           ancestor_closure, graph_from_json_obj, grow_from_core,
                           load_graph, save_graph)

from conftest import JSON, chain_graph, diamond_graph, field, random_dag
from oracles import brute_force_levels, predecessor_ball


def write_graph(tmp_path, obj, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestLoadAndValidate:
    def test_single_node(self, tmp_path):
        g = load_graph(write_graph(tmp_path, {"nodes": [{"id": "a"}], "edges": []}))
        assert g.levels == {"a": 0}
        assert g.depth == 1

    def test_chain_levels(self, tmp_path):
        obj = {"nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
               "edges": [{"parent": "a", "child": "b"},
                         {"parent": "b", "child": "c"}]}
        g = load_graph(write_graph(tmp_path, obj))
        assert [g.levels[n] for n in "abc"] == [0, 1, 2]
        assert g.depth == 3

    def test_seven_node_two_core_topology(self, tmp_path):
        # two sibling subtrees joining on shared ancestors, two core leaves
        obj = {"nodes": [
                   {"id": "root", "concept": "138875005"},
                   {"id": "organ", "concept": "123037004"},
                   {"id": "disease", "concept": "64572001"},
                   {"id": "liver", "concept": "235856003"},
                   {"id": "valve", "concept": "368009"},
                   {"id": "rheum", "concept": "23685000", "core": True,
                    "outcomes": ["mortality"]},
                   {"id": "stenosis", "concept": "79619009", "core": True,
                    "outcomes": ["mortality"]}],
               "edges": [{"parent": "root", "child": "organ"},
                         {"parent": "root", "child": "disease"},
                         {"parent": "disease", "child": "liver"},
                         {"parent": "disease", "child": "valve"},
                         {"parent": "organ", "child": "valve"},
                         {"parent": "valve", "child": "rheum"},
                         {"parent": "valve", "child": "stenosis"}]}
        g = load_graph(write_graph(tmp_path, obj))
        assert len(g.core_ids) == 2
        assert g.parents["valve"] == ("disease", "organ")
        assert g.parents["rheum"] == ("valve",)

    def test_cycle_rejected_with_cycle_named(self, tmp_path):
        obj = {"nodes": [{"id": "a"}, {"id": "b"}],
               "edges": [{"parent": "a", "child": "b"},
                         {"parent": "b", "child": "a"}]}
        with pytest.raises(ValidationError, match="cycle.*a -> b -> a|cycle.*b -> a -> b"):
            load_graph(write_graph(tmp_path, obj))

    def test_duplicate_id_rejected(self, tmp_path):
        obj = {"nodes": [{"id": "a"}, {"id": "a"}], "edges": []}
        with pytest.raises(ValidationError, match="duplicate"):
            load_graph(write_graph(tmp_path, obj))

    def test_dangling_edge_rejected(self, tmp_path):
        obj = {"nodes": [{"id": "a"}], "edges": [{"parent": "a", "child": "zz"}]}
        with pytest.raises(ValidationError, match="zz"):
            load_graph(write_graph(tmp_path, obj))

    def test_outcomes_on_non_core_rejected(self, tmp_path):
        obj = {"nodes": [{"id": "a", "outcomes": ["event"]}], "edges": []}
        with pytest.raises(ValidationError, match="core"):
            load_graph(write_graph(tmp_path, obj))

    def test_bad_outcome_name_rejected(self, tmp_path):
        obj = {"nodes": [{"id": "a", "core": True, "outcomes": [""]}], "edges": []}
        with pytest.raises(ValidationError, match="outcome"):
            load_graph(write_graph(tmp_path, obj))

    def test_save_load_round_trip(self, tmp_path):
        g = diamond_graph()
        path = str(tmp_path / "out.json")
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.graph_hash() == g.graph_hash()
        assert g2.levels == g.levels


class TestLevels:
    def test_diamond(self):
        g = diamond_graph()
        assert g.levels == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_max_parent_rule(self):
        # parents at levels 1 and 3 force the child to level 4
        nodes = [ConceptNode(n) for n in ["r", "p1", "q1", "q2", "q3", "x"]]
        edges = [("r", "p1"), ("r", "q1"), ("q1", "q2"), ("q2", "q3"),
                 ("p1", "x"), ("q3", "x")]
        g = OntologyGraph(nodes, edges)
        assert g.levels["p1"] == 1
        assert g.levels["q3"] == 3
        assert g.levels["x"] == 4

    def test_random_dags_match_brute_force(self, rng):
        for _ in range(25):
            g = random_dag(rng, int(rng.integers(2, 21)))
            expect = brute_force_levels(list(g.nodes), g.edges)
            assert g.levels == expect

    def test_levels_are_topological_grading(self, rng):
        for _ in range(10):
            g = random_dag(rng, 15)
            for parent, child in g.edges:
                assert g.levels[parent] < g.levels[child]


class TestClosure:
    def test_chain_leaf_closes_to_whole_chain(self):
        g = chain_graph(3)
        assert ancestor_closure(g, ["c"]) == {"a", "b", "c"}

    def test_root_closes_to_itself(self):
        g = chain_graph(3)
        assert ancestor_closure(g, ["a"]) == {"a"}

    def test_diamond_full_closure(self):
        assert ancestor_closure(diamond_graph(), ["d"]) == {"a", "b", "c", "d"}

    def test_unknown_id(self):
        with pytest.raises(ValidationError, match="unknown"):
            ancestor_closure(chain_graph(3), ["nope"])

    def test_idempotent_and_monotone(self, rng):
        for _ in range(10):
            g = random_dag(rng, 12)
            ids = list(g.nodes)
            small = set(rng.choice(ids, size=2, replace=False))
            big = small | set(rng.choice(ids, size=3))
            c_small = ancestor_closure(g, small)
            c_big = ancestor_closure(g, big)
            assert ancestor_closure(g, c_small) == c_small
            assert c_small <= c_big


class TestGrowth:
    def test_no_iterations_gives_core_only(self):
        g = diamond_graph()
        sub = grow_from_core(g, GrowthConfig(core_ids=("d",), iterations=0))
        assert set(sub.nodes) == {"d"}

    def test_zero_hops_gives_core_only(self):
        g = diamond_graph()
        sub = grow_from_core(g, GrowthConfig(core_ids=("d",), max_hops=0,
                                             iterations=500))
        assert set(sub.nodes) == {"d"}

    def test_chain_two_hop_ball(self):
        g = chain_graph(4)  # a -> b -> c -> d
        cfg = GrowthConfig(core_ids=("d",), max_hops=2, iterations=400, seed=3)
        sub = grow_from_core(g, cfg)
        assert set(sub.nodes) == {"b", "c", "d"}

    def test_missing_core_id(self):
        with pytest.raises(ValidationError, match="core id"):
            grow_from_core(chain_graph(3), GrowthConfig(core_ids=("zz",)))

    def test_subgraph_between_core_and_ball(self, rng):
        for trial in range(10):
            g = random_dag(rng, 14, edge_prob=0.25)
            cores = tuple(rng.choice(list(g.nodes), size=2, replace=False))
            hops = int(rng.integers(0, 3))
            cfg = GrowthConfig(core_ids=cores, max_hops=hops,
                               iterations=int(rng.integers(0, 40)), seed=trial)
            sub = grow_from_core(g, cfg)
            ball = predecessor_ball(list(g.nodes), g.edges, cores, hops)
            assert set(cores) <= set(sub.nodes) <= ball
            kept = set(sub.nodes)
            assert set(sub.edges) == {(p, c) for p, c in g.edges
                                      if p in kept and c in kept}

    def test_growth_deterministic(self):
        g = diamond_graph()
        cfg = GrowthConfig(core_ids=("d",), max_hops=2, iterations=7, seed=11)
        a = grow_from_core(g, cfg)
        b = grow_from_core(g, cfg)
        assert list(a.nodes) == list(b.nodes)


IDS = st.sampled_from(["a", "b", "c", "d"])
NODES = st.fixed_dictionaries(
    {"id": field(IDS)},
    optional={"concept": field(st.text(max_size=3)), "core": field(st.booleans()),
              "outcomes": field(st.lists(st.sampled_from(["", "x", "y"]), max_size=3))})
EDGES = st.fixed_dictionaries({"parent": field(IDS), "child": field(IDS)})
GRAPH_FILES = JSON | st.fixed_dictionaries(
    {"nodes": field(st.lists(field(NODES), max_size=5))},
    optional={"edges": field(st.lists(field(EDGES), max_size=6))})


@settings(derandomize=True, database=None, max_examples=400)
@given(GRAPH_FILES)
def test_graph_loader_returns_a_graph_or_raises_validation_error(obj):
    # any parsed JSON, and graph-shaped objects whose fields may have any
    # JSON type: a graph that saves and reloads unchanged, or ValidationError
    try:
        graph = graph_from_json_obj(obj)
    except ValidationError:
        return
    assert isinstance(graph, OntologyGraph)
    assert graph_from_json_obj(graph.to_json_obj()).graph_hash() == graph.graph_hash()
