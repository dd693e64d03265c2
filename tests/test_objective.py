import math

import numpy as np
import pytest

from omtl.errors import ValidationError
from omtl.model import forward
from omtl.objective import batch_loss, make_reward_scheme, reward_weights
from omtl.ontology import ConceptNode, OntologyGraph
from omtl.tensor import Tape

from conftest import chain_graph, diamond_graph, make_record, one_batch, tiny_model
from oracles import node_views


def all_core_chain(n=3, outcome="event"):
    names = [chr(ord("a") + i) for i in range(n)]
    nodes = [ConceptNode(nid, core=True, outcomes=(outcome,)) for nid in names]
    return OntologyGraph(nodes, [(names[i], names[i + 1]) for i in range(n - 1)])


class TestMaskedLoss:
    def test_unlabeled_record_is_reconstruction_only(self, rng):
        g = chain_graph(3)
        model = tiny_model(g, "omtl")
        rec = make_record(g, rng, d=7, anchor="c", label=None)
        with Tape() as tape:
            result = forward(model, one_batch(model, rec), mode="train")
            breakdown = batch_loss(result, lam=0.3)
        tape.backward(breakdown.loss)
        assert breakdown.l1 == 0.0
        assert breakdown.l2 > 0.0
        grads = tape.gradients(model.params)
        for name in [n for n in model.params if n.startswith("head.")]:
            assert (grads[name] == 0.0).all()

    def test_perfect_reconstruction_zeroes_that_node(self, rng):
        g = chain_graph(2)
        model = tiny_model(g, "omtl")
        rec = make_record(g, rng, d=7, anchor="a")
        rec.features = np.abs(rec.features)
        # a reconstruction layer that outputs the (nonnegative) input itself
        model.params["recon.a.w"].values[:] = 0.0
        model.params["recon.a.b"].values[:] = rec.features
        result = forward(model, one_batch(model, rec), mode="train")
        breakdown = batch_loss(result, lam=1.0)
        assert breakdown.per_node_recon["a"] == 0.0

    def test_two_core_nodes_at_half_probability(self, rng):
        g = all_core_chain(2)
        model = tiny_model(g, "omtl")
        rec = make_record(g, rng, d=7, anchor="b", label=1)
        for name in [n for n in model.params if n.startswith("head.")]:
            model.params[name].values[:] = 0.0  # logit 0, sigmoid 0.5
        result = forward(model, one_batch(model, rec), mode="train")
        assert len(node_views(result).logits) == 2
        breakdown = batch_loss(result, lam=0.0)
        assert breakdown.l1 == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_additivity_exact(self, rng):
        # for batches of 1 to 20 records, the loss the tape differentiates
        # is the reported total, bit for bit
        g = chain_graph(3)
        model = tiny_model(g, "omtl")
        recs = [make_record(g, rng, d=7, anchor="c", label=i % 2, rid=f"r{i}")
                for i in range(20)]
        for n in range(1, 21):
            result = forward(model, one_batch(model, recs[:n]), mode="train")
            breakdown = batch_loss(result, lam=0.37)
            assert breakdown.total == breakdown.l1 + 0.37 * breakdown.l2
            assert breakdown.total == breakdown.loss.item(), n
            assert breakdown.l1 >= 0 and breakdown.l2 >= 0

    def test_negative_lambda_rejected(self, rng):
        g = chain_graph(2)
        model = tiny_model(g, "omtl")
        rec = make_record(g, rng, d=7, anchor="a")
        result = forward(model, one_batch(model, rec), mode="train")
        with pytest.raises(ValidationError, match="lambda"):
            batch_loss(result, lam=-1.0)

    def test_lambda_scales_only_l2(self, rng):
        g = chain_graph(3)
        model = tiny_model(g, "omtl")
        rec = make_record(g, rng, d=7, anchor="c", label=1)
        result = forward(model, one_batch(model, rec), mode="train")
        b1 = batch_loss(result, lam=0.2)
        b2 = batch_loss(result, lam=0.6)
        assert b2.l1 == b1.l1
        assert b2.l2 == b1.l2
        assert (b2.total - b2.l1) == pytest.approx(3 * (b1.total - b1.l1), rel=1e-12)

    def test_match_direct_bce_formula(self, rng):
        g = chain_graph(2, outcomes=("event",))
        model = tiny_model(g, "omtl")
        for label in (0, 1):
            rec = make_record(g, rng, d=7, anchor="b", label=label)
            result = forward(model, one_batch(model, rec), mode="train")
            z = node_views(result).logits[("b", "event")].item()
            p = 1.0 / (1.0 + math.exp(-z))
            expect = -(label * math.log(p) + (1 - label) * math.log(1 - p))
            got = batch_loss(result, lam=0.0).l1
            assert got == pytest.approx(expect, rel=1e-10)


class TestRewardWeights:
    def test_f_zero_all_ones(self, rng):
        for graph in (chain_graph(3), diamond_graph()):
            w = reward_weights(graph, 0.0)
            assert all(v == 1.0 for v in w.values())

    def test_chain_f_one_increasing_toward_leaves(self):
        g = chain_graph(3)
        w = reward_weights(g, 1.0)
        # pre-normalization (1/3, 2/3, 1); mean 2/3; normalized (1/2, 1, 3/2)
        assert w["a"] == pytest.approx(0.5)
        assert w["b"] == pytest.approx(1.0)
        assert w["c"] == pytest.approx(1.5)
        assert w["a"] < w["b"] < w["c"]

    def test_chain_f_minus_one_decreasing(self):
        g = chain_graph(3)
        w = reward_weights(g, -1.0)
        # pre-normalization (3, 3/2, 1); mean 11/6
        assert w["a"] == pytest.approx(18 / 11)
        assert w["b"] == pytest.approx(9 / 11)
        assert w["c"] == pytest.approx(6 / 11)
        assert w["a"] > w["b"] > w["c"]

    def test_out_of_range_f(self):
        with pytest.raises(ValidationError):
            reward_weights(chain_graph(3), 1.5)

    def test_mean_is_one(self, rng):
        from conftest import random_dag
        for f in (-1.0, -0.5, 0.25, 1.0):
            g = random_dag(rng, 10)
            w = reward_weights(g, f)
            assert np.mean(list(w.values())) == pytest.approx(1.0, abs=1e-12)


class TestShapedLoss:
    def test_f_zero_all_core_equals_masked(self, rng):
        g = all_core_chain(3)
        model = tiny_model(g, "omtl")
        scheme = make_reward_scheme(g, 0.0, "event")
        rec = make_record(g, rng, d=7, anchor="c", label=1)
        a = batch_loss(forward(model, one_batch(model, rec), mode="train"), lam=0.25)
        b = batch_loss(forward(model, one_batch(model, rec, scheme), mode="train"),
                       lam=0.25)
        assert a.total == b.total
        assert a.l1 == b.l1
        assert a.per_outcome == b.per_outcome

    def test_root_only_record_single_weighted_term(self, rng):
        g = chain_graph(3)
        model = tiny_model(g, "omtl", shared_outcome="event")
        scheme = make_reward_scheme(g, 1.0, "event")
        rec = make_record(g, rng, d=7, anchor="a")
        rec.labels["event"] = 1
        result = forward(model, one_batch(model, rec, scheme), mode="train")
        breakdown = batch_loss(result, lam=0.0)
        assert set(breakdown.per_outcome) == {("a", "event")}
        z = node_views(result).logits[("a", "event")].item()
        bce = math.log1p(math.exp(z)) - z
        assert breakdown.l1 == pytest.approx(scheme.weights["a"] * bce, rel=1e-12)

    def test_hand_computed_weighted_sum_two_nodes(self, rng):
        g = chain_graph(2)
        model = tiny_model(g, "omtl", shared_outcome="event")
        scheme = make_reward_scheme(g, 1.0, "event")
        rec = make_record(g, rng, d=7, anchor="b")
        rec.labels["event"] = 0
        for nid, z in (("a", 0.4), ("b", -1.1)):  # logits z at any representation
            model.params[f"head.{nid}.event.w"].values[:] = 0.0
            model.params[f"head.{nid}.event.b"].values[:] = z
        result = forward(model, one_batch(model, rec, scheme), mode="train")
        breakdown = batch_loss(result, lam=0.0)
        # label 0: term = softplus(z); weights (1/2)/(3/4), 1/(3/4)
        expect = (scheme.weights["a"] * math.log1p(math.exp(0.4))
                  + scheme.weights["b"] * math.log1p(math.exp(-1.1)))
        assert breakdown.l1 == pytest.approx(expect, rel=1e-12)

    def test_missing_head_raises_when_labeled(self, rng):
        g = chain_graph(3)
        model = tiny_model(g, "omtl")  # heads at core leaf only
        scheme = make_reward_scheme(g, 1.0, "event")
        rec = make_record(g, rng, d=7, anchor="c", label=1)
        with pytest.raises(ValidationError, match="no head"):
            one_batch(model, rec, scheme)

    def test_unlabeled_record_contributes_l2_only(self, rng):
        g = chain_graph(3)
        model = tiny_model(g, "omtl", shared_outcome="event")
        scheme = make_reward_scheme(g, 1.0, "event")
        rec = make_record(g, rng, d=7, anchor="c", label=None)
        result = forward(model, one_batch(model, rec, scheme), mode="train")
        breakdown = batch_loss(result, lam=0.5)
        assert breakdown.l1 == 0.0
        assert breakdown.l2 > 0.0

    def test_node_with_only_unlabeled_rows_beside_labeled_node(self, rng):
        g = diamond_graph()
        model = tiny_model(g, "omtl", shared_outcome="event")
        scheme = make_reward_scheme(g, 1.0, "event")
        labeled = make_record(g, rng, d=7, anchor="b", rid="lab")
        labeled.labels["event"] = 1
        unlabeled = make_record(g, rng, d=7, anchor="c", rid="unlab")
        batch = [labeled, unlabeled]
        result = forward(model, one_batch(model, batch, scheme), mode="train")
        breakdown = batch_loss(result, lam=0.2)
        assert set(breakdown.per_outcome) == {("a", "event"), ("b", "event")}
        singles = [batch_loss(forward(model, one_batch(model, rec, scheme), mode="train"),
                              lam=0.2).total for rec in batch]
        assert breakdown.total == pytest.approx(np.mean(singles), abs=1e-12)
