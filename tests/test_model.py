import copy
import hashlib
import json
import pickle

import numpy as np
import pytest

from omtl import tensor as T
from omtl.errors import ValidationError
from omtl.datastore import Columns, Dataset, Record, SynthConfig, generate_synthetic
from omtl.model import (BatchPlan, ModelSpec, build_model, forward,
                        load_model, model_from_json_obj, model_to_json_obj,
                        reinit_parent_gates, save_model)
from omtl.objective import make_reward_scheme, masked_loss
from omtl.ontology import ConceptNode, OntologyGraph, ancestor_closure
from omtl.rng import substream
from omtl.tensor import Tape
from omtl.trainer import TrainConfig, score_holdout, train_variant

from conftest import (chain_graph, diamond_graph, gate_weights, make_record,
                      random_dag, same_bits, tiny_model)
from oracles import (finite_difference_gradients, max_relative_error,
                     node_block_forward, node_views, reference_batch)


def eval_experts(model, x):
    """Loop-based re-computation of every expert output (eval mode)."""
    outs = []
    for e in range(model.spec.num_experts):
        w = model.params[f"expert.{e:02d}.w"].values
        b = model.params[f"expert.{e:02d}.b"].values
        h = x @ w + b
        outs.append(np.where(h > 0, h, model.spec.leaky_slope * h))
    return outs


def eval_mix(model, nid, x):
    """Loop-based re-computation of node nid's expert mixture (eval mode)."""
    experts = eval_experts(model, x)
    if model.spec.variant == "sb":
        return experts[0]
    z = x @ model.params[f"expert_gate.{nid}.w"].values \
        + model.params[f"expert_gate.{nid}.b"].values
    e = np.exp(z - z.max(axis=1, keepdims=True))
    gate = e / e.sum(axis=1, keepdims=True)
    out = np.zeros_like(experts[0])
    for k, h in enumerate(experts):
        out += gate[:, k:k + 1] * h
    return out


def repr_layer(model, nid, pre):
    """Node nid's Softplus representation layer applied to its input pre."""
    return np.logaddexp(0.0, pre @ model.params[f"repr.{nid}.w"].values
                        + model.params[f"repr.{nid}.b"].values)


def recon_sums(result) -> dict[str, float]:
    """Each expressed node's squared reconstruction error summed over its
    rows, as the loss computes it."""
    n = result.batch.rows.size
    return {nid: err * n
            for nid, err in masked_loss(result, lam=1.0).per_node_recon.items()}


def records_at(graph, x, anchor):
    """One unlabeled record per row of x, each expressing anchor's closure."""
    return [Record(id=f"r{i}", features=row,
                   concepts=ancestor_closure(graph, [anchor]), labels={})
            for i, row in enumerate(x)]


class TestSpec:
    def test_sb_single_expert_enforced(self):
        with pytest.raises(ValidationError, match="one expert"):
            ModelSpec(variant="sb", num_experts=3)

    def test_moe_needs_multiple_experts(self):
        with pytest.raises(ValidationError):
            ModelSpec(variant="moe", num_experts=1)

    def test_unknown_variant(self):
        with pytest.raises(ValidationError, match="variant"):
            ModelSpec(variant="fancy")

    @pytest.mark.parametrize("dims", [dict(repr_dim=0), dict(feature_dim=0)])
    def test_empty_layers_rejected(self, dims):
        with pytest.raises(ValidationError, match=">= 1"):
            ModelSpec(variant="mmoe", **dims)


class TestBuild:
    def test_sb_param_count_one_node(self):
        g = OntologyGraph([ConceptNode("only", core=True, outcomes=("event",))], [])
        spec = ModelSpec(variant="sb", num_experts=1, feature_dim=41, repr_dim=5)
        model = build_model(spec, g, seed=0)
        # expert 41x5+5, repr 5x5+5, recon 5x41+41, head 5+1
        assert model.param_count() == 210 + 30 + 246 + 6 == 492

    def test_omtl_on_parentless_graph_has_no_parent_gates(self):
        g = OntologyGraph([ConceptNode("x"), ConceptNode("y")], [])
        model = tiny_model(g, "omtl")
        assert not any(n.startswith("parent_gate.") for n in model.params)

    def test_omtl_vs_mmoe_delta_is_parent_gates(self):
        g = diamond_graph()
        omtl = tiny_model(g, "omtl", d=7, de=3, experts=2)
        mmoe = tiny_model(g, "mmoe", d=7, de=3, experts=2)
        # nodes b, c have 1 parent, d has 2: sum_j (d*n_j + n_j)
        expected_delta = (7 + 1) + (7 + 1) + (2 * 7 + 2)
        assert omtl.param_count() - mmoe.param_count() == expected_delta

    def test_full_count_formula_random_graphs(self, rng):
        for _ in range(5):
            g = random_dag(rng, 8, edge_prob=0.3)
            d, de, ec = 7, 3, 2
            model = tiny_model(g, "omtl", d=d, de=de, experts=ec)
            expect = ec * (d * de + de)
            for nid in g.nodes:
                expect += (d * ec + ec) + (de * de + de) + (de * d + d)
                n_par = len(g.parents[nid])
                if n_par:
                    expect += d * n_par + n_par
                expect += len(g.nodes[nid].outcomes) * (de + 1)
            assert model.param_count() == expect

    @pytest.mark.parametrize("variant", ["sb", "moe", "mmoe", "omtl"])
    def test_size_cap_counts_every_parameter(self, rng, monkeypatch, variant):
        import omtl.model
        g = random_dag(rng, 8, edge_prob=0.4)
        size = tiny_model(g, variant, shared_outcome="other").param_count()
        monkeypatch.setattr(omtl.model, "MAX_SIZE", size)
        tiny_model(g, variant, shared_outcome="other")
        monkeypatch.setattr(omtl.model, "MAX_SIZE", size - 1)
        with pytest.raises(ValidationError, match=f"more than {size - 1} parameters"):
            tiny_model(g, variant, shared_outcome="other")

    def test_shared_outcome_adds_heads_everywhere(self):
        g = chain_graph(3)
        model = tiny_model(g, "omtl", shared_outcome="event")
        assert all("event" in model.outcome_map[nid] for nid in g.nodes)

    @pytest.mark.parametrize("clone", [
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(lambda m: pickle.loads(pickle.dumps(m)), id="pickle")])
    def test_copy_views_its_own_arena(self, rng, clone):
        model = tiny_model(diamond_graph(), "omtl")
        twin = clone(model)
        assert all(np.shares_memory(p.values, twin.arena.values)
                   for p in twin.params.values())
        assert np.shares_memory(twin.repr_w.values, twin.arena.values)
        assert not np.shares_memory(twin.arena.values, model.arena.values)
        assert twin.hierarchy_enabled and twin.arena.trainable == model.arena.trainable
        rec = make_record(model.graph, rng, d=7, anchor="d", label=1)
        before = forward(model, rec).rep.values
        assert np.array_equal(forward(twin, rec).rep.values, before)
        twin.arena.values += 0.1
        assert not np.array_equal(forward(twin, rec).rep.values, before)
        assert np.array_equal(forward(model, rec).rep.values, before)


    @pytest.mark.parametrize("clone", [
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(lambda a: pickle.loads(pickle.dumps(a)), id="pickle")])
    def test_copied_arena_views_its_own_buffer(self, clone):
        model = tiny_model(diamond_graph(), "omtl")
        arena = model.arena
        arena.trainable = model.phase_span("phase2")
        twin = clone(arena)
        assert list(twin.params) == list(arena.params)
        assert not np.shares_memory(twin.values, arena.values)
        assert twin.values.tobytes() == arena.values.tobytes()
        for name, p in twin.params.items():
            assert p.arena is twin and np.shares_memory(p.values, twin.values)
            assert p.values.tobytes() == arena.params[name].values.tobytes()
        consts = [p.const for p in arena.params.values()]
        assert twin.trainable == arena.trainable and any(consts) and not all(consts)
        assert [p.const for p in twin.params.values()] == consts
        twin.trainable = slice(0, 0)
        assert all(p.const for p in twin.params.values())
        assert [p.const for p in arena.params.values()] == consts
        name, param = next(iter(arena.params.items()))
        alone = clone(param)
        assert alone.arena is not arena and alone.arena.params[name] is alone
        assert alone.values.tobytes() == param.values.tobytes()


class TestMixExperts:
    def test_sb_passes_single_expert_through(self, rng):
        g = chain_graph(2)
        model = tiny_model(g, "sb", d=5, de=3)
        x = rng.normal(size=(1, 5))
        rep = node_views(forward(model, records_at(g, x, "a"))).reps["a"]
        assert np.array_equal(rep,
                              repr_layer(model, "a", eval_experts(model, x)[0]))

    def test_uniform_gate_equals_mean(self, rng):
        g = chain_graph(2)
        model = tiny_model(g, "omtl", d=5, de=3, experts=3)
        model.params["expert_gate.a.w"].values[:] = 0.0
        model.params["expert_gate.a.b"].values[:] = 0.0
        x = rng.normal(size=(1, 5))
        rep = node_views(forward(model, records_at(g, x, "a"))).reps["a"]
        mean = np.mean(eval_experts(model, x), axis=0)
        assert np.allclose(rep, repr_layer(model, "a", mean), atol=1e-15)

    def test_three_expert_mixture_matches_explicit_loop(self, rng):
        g = chain_graph(2)
        model = tiny_model(g, "mmoe", d=6, de=4, experts=3)
        x = rng.normal(size=(2, 6))
        rep = node_views(forward(model, records_at(g, x, "b"))).reps["b"]
        experts = eval_experts(model, x)
        logits = x @ model.params["expert_gate.b.w"].values \
            + model.params["expert_gate.b.b"].values
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        gate = e / e.sum(axis=1, keepdims=True)
        expect = np.zeros((2, 4))
        for row in range(2):
            for k in range(3):
                expect[row] += gate[row, k] * experts[k][row]
        assert np.allclose(rep, repr_layer(model, "b", expect), atol=1e-12)


class TestNodeRepresentation:
    def test_hierarchy_disabled_ignores_parents(self, rng):
        g = chain_graph(2)
        model = tiny_model(g, "omtl", d=5, de=3, experts=2)
        x = rng.normal(size=(1, 5))
        recs = records_at(g, x, "b")
        with_h = node_views(forward(model, recs)).reps["b"]
        model.hierarchy_enabled = False
        without = node_views(forward(model, recs)).reps["b"]
        assert not np.allclose(with_h, without)
        assert np.array_equal(without,
                              repr_layer(model, "b", eval_mix(model, "b", x)))
        # and the disabled path never needs the parent at all
        alone = Record(id="alone", features=x[0], concepts=frozenset({"b"}),
                       labels={})
        again = node_views(forward(model, alone)).reps["b"]
        assert np.array_equal(again, without)

    def test_single_parent_softmax_is_identity_mix(self, rng):
        g = chain_graph(2)
        model = tiny_model(g, "omtl", d=5, de=3, experts=2)
        x = rng.normal(size=(1, 5))
        reps = node_views(forward(model, records_at(g, x, "b"))).reps
        # softmax over one entry is exactly 1
        pre = eval_mix(model, "b", x) + reps["a"]
        assert np.allclose(reps["b"], repr_layer(model, "b", pre), atol=1e-12)

    def test_two_parent_extreme_gate_picks_first(self, rng):
        g = diamond_graph()
        model = tiny_model(g, "omtl", d=7, de=3, experts=2)
        model.params["parent_gate.d.w"].values[:] = 0.0
        model.params["parent_gate.d.b"].values[:] = np.array([[10.0, -10.0]])
        x = rng.normal(size=(1, 7))
        reps = node_views(forward(model, records_at(g, x, "d"))).reps
        p_b = reps["b"]
        p_c = reps["c"]
        # gate weight on parent b is 1/(1+e^-20); recompute by loop
        wb = 1.0 / (1.0 + np.exp(-20.0))
        pre = eval_mix(model, "d", x) + wb * p_b + (1 - wb) * p_c
        assert np.allclose(reps["d"], repr_layer(model, "d", pre), atol=1e-12)

    def test_missing_parent_representation_raises(self, rng):
        g = diamond_graph()
        model = tiny_model(g, "omtl")
        rec = Record(id="r", features=rng.normal(size=7),
                     concepts=frozenset({"a", "d"}), labels={})
        with pytest.raises(ValidationError, match="missing parent"):
            forward(model, rec)


class TestForward:
    def test_root_only_record(self, rng):
        g = chain_graph(3)
        model = tiny_model(g, "omtl")
        rec = make_record(g, rng, d=7, anchor="a")
        result = forward(model, rec)
        assert set(node_views(result).reps) == {"a"}
        assert set(masked_loss(result, lam=1.0).per_node_recon) == {"a"}

    def test_chain_routing_child_consumes_parent(self, rng):
        g = chain_graph(3)
        model = tiny_model(g, "omtl", d=7, de=3, experts=2)
        rec = make_record(g, rng, d=7, anchor="c", label=1)
        reps = node_views(forward(model, rec, mode="eval")).reps
        # recompute c's representation from the emitted parent output; the
        # gate over c's single parent is exactly 1
        x = rec.features.reshape(1, -1)
        pre = eval_mix(model, "c", x) + reps["b"]
        assert np.array_equal(repr_layer(model, "c", pre), reps["c"])

    def test_computed_set_equals_closure_random(self, rng):
        for _ in range(20):
            g = random_dag(rng, int(rng.integers(2, 15)))
            model = tiny_model(g, "omtl")
            rec = make_record(g, rng, d=7)
            result = forward(model, rec)
            reps = node_views(result).reps
            assert set(reps) == set(rec.concepts)
            assert set(masked_loss(result, lam=1.0).per_node_recon) == set(rec.concepts)
            # dependency order respected: every expressed parent of an
            # expressed node is available, by closure
            for nid in reps:
                assert set(g.parents[nid]) <= set(reps)

    def test_predictions_strictly_inside_unit_interval(self, rng):
        g = chain_graph(2)
        model = tiny_model(g, "omtl", shared_outcome="event")
        rec = make_record(g, rng, d=7, anchor="b", label=1)
        for bias in (500.0, -800.0):  # saturate the sigmoid either way
            model.params["head.b.event.b"].values[:] = bias
            (_, _, p), = score_holdout(model, g, [rec])[("b", "event")]
            assert 0.0 < p < 1.0

    def test_gate_outputs_normalized(self, rng):
        g = diamond_graph()
        model = tiny_model(g, "omtl", d=7, de=3, experts=3)
        gates = gate_weights(model, rng.normal(scale=3.0, size=(100, 7)))
        assert len(gates) == 4 + 1
        for gate in gates.values():
            assert (gate >= 0).all()
            assert np.abs(gate.sum(axis=1) - 1.0).max() < 1e-9

    def test_group_forward_matches_single_records(self, rng):
        # a mixed batch: every anchor, labeled and unlabeled records
        g = diamond_graph()
        model = tiny_model(g, "omtl", d=7, de=3, experts=2)
        recs = [make_record(g, rng, d=7, anchor=anchor, label=label,
                            rid=f"r{i}")
                for i, (anchor, label) in enumerate(
                    [("d", 1), ("a", None), ("b", 0), ("d", None),
                     ("c", 1), ("d", 0), ("b", None)])]
        batch = forward(model, recs, mode="eval")
        views = node_views(batch)
        single_recon = dict.fromkeys(g.nodes, 0.0)
        for i, rec in enumerate(recs):
            single = forward(model, rec, mode="eval")
            one = node_views(single)
            expressed = {nid for nid, rows in views.rows.items() if i in rows}
            assert expressed == set(one.reps) == set(rec.concepts)
            for nid in one.reps:
                row = int(np.searchsorted(views.rows[nid], i))
                assert np.abs(views.reps[nid][row] - one.reps[nid][0]).max() <= 1e-12
            for (nid, o), z in one.logits.items():
                row = int(np.searchsorted(views.rows[nid], i))
                assert np.abs(views.logits[(nid, o)][row] - z[0]).max() <= 1e-12
            for nid, err in recon_sums(single).items():
                single_recon[nid] += err
        # each node's reconstruction error, summed over its rows
        for nid, err in recon_sums(batch).items():
            assert abs(err - single_recon[nid]) <= 1e-12

    def test_unclosed_record_raises_even_when_batch_expresses_parent(self, rng):
        g = diamond_graph()
        model = tiny_model(g, "omtl")
        closed_d = make_record(g, rng, d=7, anchor="d", label=1, rid="full")
        closed_b = make_record(g, rng, d=7, anchor="b", rid="b")
        broken = Record(id="broken", features=rng.normal(size=7),
                        concepts=frozenset({"a", "d"}), labels={"event": 1})
        # rows of b are {full, b} and rows of d are {full, broken}: the same
        # count, so only a checked gather can tell they do not line up
        for batch in ([closed_d, broken, closed_b], [broken, closed_b, closed_d]):
            with pytest.raises(ValidationError, match="missing parent"):
                forward(model, batch)
        model.hierarchy_enabled = False
        forward(model, [closed_d, broken, closed_b])


class TestMmoeReduction:
    def test_bit_identical_forward_when_hierarchy_off(self, rng):
        g = diamond_graph()
        omtl = tiny_model(g, "omtl", d=7, de=3, experts=2, seed=4)
        mmoe = tiny_model(g, "mmoe", d=7, de=3, experts=2, seed=999)
        # share every non-parent-gate parameter
        for name in mmoe.params:
            mmoe.params[name].values[:] = omtl.params[name].values
        omtl.hierarchy_enabled = False
        for i in range(50):
            rec = make_record(g, rng, d=7, label=1, rid=f"r{i}")
            ra = node_views(forward(omtl, rec, mode="eval"))
            rb = node_views(forward(mmoe, rec, mode="eval"))
            for nid in ra.reps:
                assert np.array_equal(ra.reps[nid], rb.reps[nid])
            for key in ra.logits:
                assert np.array_equal(ra.logits[key], rb.logits[key])


class TestRoutingGradientSparsity:
    def test_non_expressed_nodes_get_exact_zero_grads(self, rng):
        g = diamond_graph()
        model = tiny_model(g, "omtl", d=7, de=3, experts=2)
        rec = make_record(g, rng, d=7, anchor="b", label=1)  # expresses a, b
        with Tape() as tape:
            result = forward(model, rec, mode="train")
            breakdown = masked_loss(result, lam=0.5)
        tape.backward(breakdown.loss)
        grads = tape.gradients(model.params)
        for name, grad in grads.items():
            touches = any(f".{nid}." in name for nid in ("c", "d"))
            if touches:
                assert (grad == 0.0).all(), name


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        g = diamond_graph()
        model = tiny_model(g, "omtl", d=7, de=3, experts=2, seed=8)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        back = load_model(path, g)
        assert back.spec == model.spec
        for name, p in model.params.items():
            assert np.array_equal(back.params[name].values, p.values)
        assert sorted(model_to_json_obj(model)["params"]) == \
               sorted(model.params)

    @pytest.mark.parametrize("variant, digest", [
        pytest.param("omtl", "216687866bbdd13ea2373b6d19bc9114b2b4e492ade9014f8dc5a5fe18431dcc",
                     id="omtl"),
        pytest.param("mmoe", "6ac598bceaea09edc7d76af24516a29473bb46d92834fe2867abfd5ce45047ed",
                     id="mmoe"),
        pytest.param("sb", "d3384dba046279d9cccd314bfe568ccc09ee021ed45ea05d5fdb10a3d7350d8b",
                     id="sb")])
    def test_model_file_bytes_are_pinned(self, tmp_path, variant, digest):
        # sha256 of the file save_model writes for a model of the 40-node
        # wide-ontology cohort shape; a change that moves a byte must
        # update these and say why
        graph, data = generate_synthetic(SynthConfig(levels=4, branching=3,
                                                     records_per_node=40,
                                                     low_data_records=20))
        model, _ = train_variant(graph, data, TrainConfig(variant=variant, max_epochs=1,
                                                          seed=0))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        back = load_model(str(path), graph)
        assert same_bits(back.arena.values, model.arena.values)
        assert back.hierarchy_enabled == model.hierarchy_enabled

    @pytest.mark.parametrize("fault, message", [
        pytest.param(lambda e: e["values"].__setitem__(-1, "x"),
                     "field 'values' must be list[float], got [0.3907114523411733, "
                     "-0.4674558436698804", id="not-a-number"),
        pytest.param(lambda e: e["values"].__setitem__(-1, True),
                     "field 'values' must be list[float], got [0.3907114523411733, "
                     "-0.4674558436698804", id="bool"),
        pytest.param(lambda e: e.__setitem__("shape", [1, 9]),
                     "shape [1, 9], the model needs [3, 3]", id="wrong-shape"),
        pytest.param(lambda e: e.__setitem__("shape", [3.0, 3.0]),
                     "field 'shape' must be list[int], got [3.0, 3.0]", id="float-shape"),
        pytest.param(lambda e: e["values"].pop(),
                     "8 values do not fill a matrix of shape [3, 3]", id="short"),
        pytest.param(lambda e: e.pop("shape"), "missing field 'shape'", id="no-shape"),
        pytest.param(lambda e: e["values"].__setitem__(-1, int("9" * 400)),
                     "field 'values' is too large for a float", id="400-digits"),
        pytest.param(lambda e: e["values"].__setitem__(-1, float("nan")),
                     None, id="nan")])
    def test_fault_in_last_parameter_is_named(self, fault, message):
        # the last parameter of the file and of the arena's check order;
        # every parameter before it is valid
        g = diamond_graph()
        obj = json.loads(json.dumps(model_to_json_obj(tiny_model(g, "omtl", d=7, de=3,
                                                                 experts=2, seed=8))))
        last = list(obj["params"])[-1]
        assert last == sorted(obj["params"])[-1] == "repr.d.w"
        fault(obj["params"][last])
        with pytest.raises(ValidationError) as err:
            model_from_json_obj(obj, g)
        assert str(err.value) == (f"model file: parameter 'repr.d.w': {message}"
                                  if message else
                                  "model file: parameter 'repr.d.w' holds a non-finite value")

    def test_entry_not_an_object_is_named(self):
        g = diamond_graph()
        obj = model_to_json_obj(tiny_model(g, "omtl"))
        obj["params"]["repr.d.w"] = [1.0]
        with pytest.raises(ValidationError, match=r"^model file: parameter 'repr\.d\.w' "
                                                  r"must be a JSON object$"):
            model_from_json_obj(obj, g)

    def test_graph_hash_mismatch_rejected(self, tmp_path):
        g = diamond_graph()
        model = tiny_model(g, "omtl")
        obj = model_to_json_obj(model)
        with pytest.raises(ValidationError, match="different graph"):
            model_from_json_obj(obj, chain_graph(3))

    def test_reinit_parent_gates_changes_only_parent_gates(self):
        g = diamond_graph()
        model = tiny_model(g, "omtl", seed=1)
        before = {n: p.values.copy() for n, p in model.params.items()}
        reinit_parent_gates(model, seed=777)
        for name, p in model.params.items():
            if name.startswith("parent_gate."):
                assert not np.array_equal(p.values, before[name])
            else:
                assert np.array_equal(p.values, before[name])


def ragged_dags(rng, count: int) -> list[OntologyGraph]:
    """Random DAGs with a level that holds a node of two or more parents
    beside a node of another in-degree."""
    graphs = []
    while len(graphs) < count:
        g = random_dag(rng, int(rng.integers(5, 11)), edge_prob=0.4)
        degrees: dict[int, set] = {}
        for nid in g.nodes:
            degrees.setdefault(g.levels[nid], set()).add(len(g.parents[nid]))
        if any(max(d) >= 2 and len(d) >= 2 for d in degrees.values()):
            graphs.append(g)
    return graphs


def mixed_batch(graph, rng, n: int, d: int) -> list[Record]:
    return [make_record(graph, rng, d=d, label=[None, 0, 1][int(rng.integers(3))],
                        rid=f"r{j}") for j in range(n)]


def check_against_oracle(model, g, recs) -> None:
    """forward on the batch recs within 1e-12 of the per-node oracle, one
    record at a time; reconstructions through the loss, per record in a
    batch of one and summed over a node's rows in larger batches."""
    result = forward(model, recs)
    views = node_views(result)
    values = {n: q.values for n, q in model.params.items()}
    oracle_recon = dict.fromkeys(g.nodes, 0.0)
    for j, rec in enumerate(recs):
        reps, recons, logits = node_block_forward(
            values, model.spec.variant, model.spec.num_experts,
            model.spec.leaky_slope, g.parents, g.ordered_ids, model.outcome_map,
            model.hierarchy_enabled, rec.features, rec.concepts)
        assert set(reps) == {n for n, rows in views.rows.items() if j in rows}
        for nid in reps:
            row = int(np.searchsorted(views.rows[nid], j))
            got = views.reps[nid][row]
            assert np.abs(got - reps[nid]).max() <= 1e-12
            oracle_recon[nid] += float(((recons[nid] - rec.features) ** 2).sum())
        for (nid, o), z in logits.items():
            row = int(np.searchsorted(views.rows[nid], j))
            assert abs(views.logits[(nid, o)][row, 0] - z) <= 1e-12
    for nid, err in recon_sums(result).items():
        assert abs(err - oracle_recon[nid]) <= 1e-12 * max(1.0, oracle_recon[nid])


def padded_gate_dags(rng, count: int) -> list[OntologyGraph]:
    """Random DAGs with a level whose gated nodes differ in width, so the
    narrower parent gates are padded with -inf logits."""
    padded = []
    for g in ragged_dags(rng, 40 * count):
        widths: dict[int, set] = {}
        for nid in g.nodes:
            if len(g.parents[nid]) >= 2:
                widths.setdefault(g.levels[nid], set()).add(len(g.parents[nid]))
        if any(len(w) >= 2 for w in widths.values()):
            padded.append(g)
            if len(padded) == count:
                return padded
    raise AssertionError(f"only {len(padded)} of {count} padded-gate graphs")


def expressing_batch(g, rng, d: int) -> list[Record]:
    """A mixed batch of 12 records plus one anchored at every node."""
    recs = mixed_batch(g, rng, 12, d=d)
    for j, nid in enumerate(g.ordered_ids):
        recs.append(make_record(g, rng, d=d, anchor=nid, label=j % 2, rid=f"a{j}"))
    return recs


def check_parent_gate_gradients(model, g, recs) -> None:
    """Tape gradients of the gates over two or more parents within 1e-4
    (relative) of finite differences, and none of them all zero."""
    gates = {n: q for n, q in model.params.items()
             if n.startswith("parent_gate.") and len(g.parents[n.split(".")[1]]) >= 2}

    def loss() -> float:
        return masked_loss(forward(model, recs, mode="train"), lam=0.3).total

    with Tape() as tape:
        breakdown = masked_loss(forward(model, recs, mode="train"), lam=0.3)
    tape.backward(breakdown.loss)
    analytic = tape.gradients(gates)
    assert all(np.abs(a).max() > 0 for a in analytic.values())
    numeric = finite_difference_gradients(loss, gates)
    assert max_relative_error(analytic, numeric) < 1e-4


class TestLevelBatching:
    def test_forward_matches_node_by_node_oracle(self, rng):
        # batches of 1, 7 and 60 records: short and long runs of rows per node
        for i, g in enumerate(ragged_dags(rng, 100)):
            variant = ("omtl", "omtl", "mmoe", "sb", "moe")[i % 5]
            model = tiny_model(g, variant, d=6, de=3, experts=3, seed=i,
                               shared_outcome="event" if i % 3 == 0 else None)
            if i % 10 == 5:
                model.hierarchy_enabled = False
            check_against_oracle(model, g, mixed_batch(g, rng, (1, 7, 60)[i % 3], d=6))

    def test_parent_gate_gradients_match_finite_differences(self, rng):
        for i, g in enumerate(padded_gate_dags(rng, 5)):
            model = tiny_model(g, "omtl", d=5, de=3, experts=2, seed=i)
            check_parent_gate_gradients(model, g, expressing_batch(g, rng, d=5))

    def test_both_product_paths(self, rng, monkeypatch):
        # every pair op forced onto one product per node, then onto the
        # batched product, whatever the lengths of its runs
        graphs = padded_gate_dags(rng, 3)
        for limit in (0, 1 << 62):
            monkeypatch.setattr(T, "_GATHER_PER_MEMBER", limit)
            for i, g in enumerate(graphs):
                model = tiny_model(g, "omtl", d=5, de=3, experts=2, seed=i,
                                   shared_outcome="event")
                recs = expressing_batch(g, rng, d=5)
                check_against_oracle(model, g, recs)
                check_parent_gate_gradients(model, g, recs)

    def test_non_expressed_nodes_get_exact_zero_slices(self, rng):
        for i, g in enumerate(ragged_dags(rng, 30)):
            model = tiny_model(g, "omtl", d=5, de=3, experts=2, seed=i,
                               shared_outcome="event")
            anchors = rng.choice(g.ordered_ids, size=2)
            recs = [make_record(g, rng, d=5, anchor=str(a), label=j % 2, rid=f"r{j}")
                    for j, a in enumerate(np.repeat(anchors, 3))]
            expressed = set().union(*(r.concepts for r in recs))
            with Tape() as tape:
                breakdown = masked_loss(forward(model, recs, mode="train"), lam=0.3)
            tape.backward(breakdown.loss)
            grads = tape.arena_grads(model.arena)
            for name, q in model.params.items():
                nid = name.split(".")[1]
                single_gate = name.startswith("parent_gate.") and len(g.parents[nid]) == 1
                if nid in g.nodes and (nid not in expressed or single_gate):
                    assert (grads[q.span] == 0.0).all(), name


def same_segments(got, want) -> bool:
    return all(np.array_equal(getattr(got, a), getattr(want, a))
               for a in ("of", "starts", "ends", "members"))


def check_batch(got, want) -> None:
    """A planned batch's index arrays equal the reference's, array by array."""
    assert np.array_equal(got.pair_rows, want.pair_rows)
    assert (got.seg is None) == (want.pair_rows.size == 0)
    if got.seg is None:
        assert got.route is None and got.heads is None
        return
    assert same_segments(got.seg, want.seg)
    assert (got.route is None) == (want.route is None)
    if got.route is not None:
        levels, src, gated, gseg = got.route
        assert [(lo, hi, routed) for lo, hi, _, routed in levels] == \
            [(lo, hi, routed) for lo, hi, _, routed in want.route.levels]
        assert all(same_segments(a[2], b[2]) for a, b in zip(levels, want.route.levels))
        assert np.array_equal(src, want.route.src)
        assert np.array_equal(gated, want.route.gated)
        assert (gseg is None) == (want.route.gseg is None)
        assert gseg is None or same_segments(gseg, want.route.gseg)
    assert (got.heads is None) == (want.heads is None)
    if got.heads is not None:
        pair, hseg, y, weight = got.heads
        assert np.array_equal(pair, want.heads.pair)
        assert same_segments(hseg, want.heads.hseg)
        assert np.array_equal(y, want.heads.y)
        assert np.array_equal(weight, want.heads.weight)


class TestBatchPlan:
    @pytest.mark.parametrize("shaped", [False, True], ids=["masked", "shaped"])
    def test_every_batch_equals_the_batch_alone(self, rng, shaped):
        # random DAGs with gated and padded-gate levels, shuffled rows (a
        # few expressing no node), and batches of one row, of 7, of all
        # rows and of more than all
        graphs = padded_gate_dags(rng, 3) + ragged_dags(rng, 5)
        seen = set()
        for i, g in enumerate(graphs):
            model = tiny_model(g, "omtl", d=5, de=3, experts=2, seed=i,
                               shared_outcome="event" if shaped else None)
            model.hierarchy_enabled = i != len(graphs) - 1
            scheme = make_reward_scheme(g, 0.5, "event") if shaped else None
            # the head weights, from the scheme's node weights, or the
            # masked loss's own outcomes at core nodes
            weight = np.array([
                (scheme.weights[n] if o == "event" else 0.0) if shaped else
                float(g.nodes[n].core and o in g.nodes[n].outcomes)
                for n, o in model.head_keys])
            recs = mixed_batch(g, rng, 20, d=5) + [
                Record(id=f"e{j}", features=rng.normal(size=5), concepts=frozenset(),
                       labels={"event": j % 2}) for j in range(3)]
            cols = Columns.from_records(recs, g)
            n = len(recs)
            for size in (1, 7, n, n + 5):
                order = rng.permutation(n)
                plan = BatchPlan(model, cols, order, size, scheme)
                assert len(plan) == -(-n // size)
                for b in range(len(plan)):
                    rows = order[b * size:(b + 1) * size]
                    got = plan.batch(b)
                    assert np.array_equal(got.rows, rows)
                    check_batch(got, reference_batch(model, cols, rows, weight))
                    seen.add("no pairs" if got.seg is None else
                             "gated" if got.route and got.route[3] else "pairs")
        assert seen == {"no pairs", "gated", "pairs"}

    @pytest.mark.parametrize("variant", ["sb", "moe", "mmoe"])
    def test_routing_without_parent_gates_is_rejected(self, rng, variant):
        # the route's weight rule needs a gate at every node of two or
        # more parents, which only omtl has
        g = diamond_graph()
        model = tiny_model(g, variant, d=5, de=3, experts=2)
        cols = Columns.from_records(mixed_batch(g, rng, 4, d=5), g)
        model.hierarchy_enabled = True
        with pytest.raises(ValidationError, match=f"parent gates .* not '{variant}'"):
            BatchPlan(model, cols)

    def test_plan_of_every_row_in_batches(self, rng):
        # a plan of all rows (rows=None) in batches smaller than the cohort:
        # each batch reads its own rows' features, as the same plan over
        # np.arange(n) does; only a plan of one batch reads them in place
        g = diamond_graph()
        model = tiny_model(g, "omtl", d=5, de=3, experts=2)
        cols = Columns.from_records(mixed_batch(g, rng, 20, d=5), g)
        assert BatchPlan(model, cols).batch(0).whole
        for size in (7, 20):
            every = BatchPlan(model, cols, None, size)
            listed = BatchPlan(model, cols, np.arange(len(cols)), size)
            assert len(every) == len(listed) == -(-20 // size)
            for b in range(len(every)):
                got, want = forward(model, every.batch(b)), forward(model, listed.batch(b))
                assert same_bits(got.x, want.x)
                assert same_bits(got.rep.values, want.rep.values)
                assert got.batch.whole == (size == 20)

    def test_closure_error_names_the_first_failing_batch(self):
        # phase 2's first epoch: an unclosed row at c (lacking b) in the
        # first batch and one at b (lacking a) in the last; the error is
        # the first batch's, while one over the whole epoch would name b
        g = chain_graph(3)
        rng = np.random.default_rng(3)
        recs = [make_record(g, rng, d=5, anchor="c", label=i % 2, rid=f"r{i:02d}")
                for i in range(20)]
        cfg = TrainConfig(variant="omtl", batch_size=4, max_epochs=1,
                          val_fraction=0.0, num_experts=2, repr_dim=3, seed=5)
        order = np.arange(len(recs))
        substream(cfg.seed, "shuffle.1").shuffle(order)
        recs[order[1]].concepts = frozenset({"a", "c"})
        recs[order[-1]].concepts = frozenset({"b"})
        model = tiny_model(g, "omtl", d=5)
        with pytest.raises(ValidationError) as first:
            forward(model, [recs[j] for j in order[:4]])
        with pytest.raises(ValidationError) as epoch:
            forward(model, recs)
        assert "'c'" in str(first.value) and "'b'" in str(epoch.value)
        with pytest.raises(ValidationError) as trained:
            train_variant(g, Dataset(recs, 5, ("event",)), cfg)
        assert str(trained.value) == str(first.value)
