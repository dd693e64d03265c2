import gc
import hashlib
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from omtl import trainer
from omtl.datastore import (Dataset, Record, SynthConfig, columns_of, generate_synthetic,
                            make_folds)
from omtl.errors import NumericalError, ValidationError
from omtl.model import forward, load_model, reinit_parent_gates, save_model
from omtl.objective import make_reward_scheme, masked_loss
from omtl.ontology import ConceptNode, OntologyGraph
from omtl.tensor import Tape
from omtl.trainer import (SCORE_CHUNK, TrainConfig, TrainLog, evaluate_loss, run_cv,
                          score_holdout, train_variant)

from conftest import chain_graph, diamond_graph, make_record, tiny_model

# the parameters phase 2 freezes
EXPERT_PREFIXES = ("expert.", "expert_gate.")


def small_benchmark(seed=0, records=40, d=10):
    cfg = SynthConfig(levels=2, branching=2, records_per_node=records,
                      feature_dim=d, low_data_records=records, seed=seed)
    return generate_synthetic(cfg)


def multi_parent_cohort(n=240, d=8):
    """A 6-node DAG, a and b its roots, with edges a,b -> c, a -> d,
    c,d -> e and d -> f; c, e and f are core nodes with outcome "event".
    Records are anchored at seeded nodes, about one in five unlabeled."""
    nodes = [ConceptNode(nid) for nid in "abd"] + [
        ConceptNode(nid, core=True, outcomes=("event",)) for nid in "cef"]
    graph = OntologyGraph(nodes, [("a", "c"), ("b", "c"), ("a", "d"), ("c", "e"),
                                  ("d", "e"), ("d", "f")])
    rng = np.random.default_rng(7)
    records = []
    for i in range(n):
        label = int(rng.random() < 0.35) if rng.random() < 0.8 else None
        records.append(make_record(graph, rng, d=d, label=label, rid=f"r{i:03d}"))
    return graph, Dataset(records=records, feature_dim=d, outcomes=("event",))


def tiny_config(**over):
    base = dict(variant="omtl", batch_size=16, max_epochs=4, patience=2,
                val_fraction=0.0, num_experts=2, repr_dim=3, dropout=0.2,
                seed=0)
    base.update(over)
    return TrainConfig(**base)


class TestConfig:
    def test_defaults_match_published_setup(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64
        assert cfg.lr == 0.001
        assert cfg.dropout == 0.5
        assert cfg.lam == 0.0001
        assert cfg.num_experts == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            TrainConfig.from_json_obj({"learning_rate": 0.1})

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValidationError):
            TrainConfig(lam=-0.1).validate()
        for lr in (0.0, -1.0, float("nan")):
            with pytest.raises(ValidationError, match="lr"):
                TrainConfig(lr=lr).validate()
        with pytest.raises(ValidationError, match="unknown variant 'bogus'"):
            TrainConfig(variant="bogus").validate()


class TestPhase1:
    def test_zero_epochs_returns_initial_snapshot(self):
        graph, data = small_benchmark()
        before = tiny_model(graph, "omtl", d=10, de=3, experts=2).arena.values.copy()
        model, _ = train_variant(graph, data, tiny_config(max_epochs=0,
                                                          hierarchy_finetune=False))
        assert np.array_equal(model.arena.values, before)

    def test_loss_decreases_over_first_epochs(self):
        graph, data = small_benchmark()
        for seed in (0, 1, 2):
            _, log = train_variant(graph, data, tiny_config(
                max_epochs=5, seed=seed, hierarchy_finetune=False))
            totals = [e["train_total"] for e in log.entries]
            assert totals[-1] < totals[0]

    def test_lambda_zero_decouples_reconstruction_heads(self, rng):
        # with lam = 0 the recon heads sit on no path to the loss, so their
        # gradients are exactly zero for any labeled record
        graph = chain_graph(3)
        model = tiny_model(graph, "omtl", d=7, de=3, experts=2)
        model.hierarchy_enabled = False
        rec = make_record(graph, rng, d=7, anchor="c", label=1)
        from omtl.tensor import Tape
        with Tape() as tape:
            result = forward(model, rec, mode="train")
            breakdown = masked_loss(result, lam=0.0)
        tape.backward(breakdown.loss)
        grads = tape.gradients(model.params)
        for name in model.params:
            if name.startswith("recon."):
                assert (grads[name] == 0.0).all()
        assert any((grads[n] != 0).any() for n in model.params if n.startswith("head."))


class TestPhase2:
    def test_freeze_contract_bit_identical(self):
        graph, data = small_benchmark()
        cfg = tiny_config(max_epochs=3)
        phase1, _ = train_variant(graph, data, replace(cfg, hierarchy_finetune=False))
        model, log = train_variant(graph, data, cfg)
        assert {e["phase"] for e in log.entries} == {"phase1", "phase2"}
        frozen = [n for n in model.params if n.startswith(EXPERT_PREFIXES)]
        assert frozen
        for name in frozen:
            assert np.array_equal(model.params[name].values,
                                  phase1.params[name].values), name

    def test_edgeless_graph_has_no_parent_gates_but_still_tunes(self):
        nodes = [ConceptNode(f"n{i}", core=True, outcomes=("event",))
                 for i in range(3)]
        graph = OntologyGraph(nodes, [])
        rng = np.random.default_rng(0)
        recs = [make_record(graph, rng, d=6, label=int(rng.random() < 0.4),
                            rid=f"r{i}") for i in range(40)]
        data = Dataset(records=recs, feature_dim=6, outcomes=("event",))
        cfg = tiny_config(max_epochs=3)
        phase1, _ = train_variant(graph, data, replace(cfg, hierarchy_finetune=False))
        model, _ = train_variant(graph, data, cfg)
        assert not any(n.startswith("parent_gate.") for n in model.params)
        changed = any(not np.array_equal(model.params[n].values, p.values)
                      for n, p in phase1.params.items() if n.startswith("repr."))
        assert changed

    def test_nodeless_graph_trains_both_phases(self):
        # the arena holds only the experts, which phase 2 freezes
        recs = [Record(id=f"r{i}", features=np.full(3, float(i)), concepts=frozenset(),
                       labels={}) for i in range(10)]
        model, log = train_variant(OntologyGraph([], []), Dataset(recs, 3, ()),
                                   tiny_config(max_epochs=2))
        assert {e["phase"] for e in log.entries} == {"phase1", "phase2"}
        assert model.phase_span("phase1") == slice(0, model.arena.size)
        assert model.phase_span("phase2") == slice(model.arena.size, model.arena.size)

    def test_frozen_step_gradients_match_unfrozen_step(self, monkeypatch):
        # one phase-2 step through the phase loop, with and without the freeze
        graph, data = small_benchmark()
        tapes = []

        class KeptTape(Tape):
            def backward(self, loss):
                super().backward(loss)
                tapes.append(self)

        monkeypatch.setattr(trainer, "Tape", KeptTape)
        cfg = tiny_config(max_epochs=1, batch_size=len(data.records))
        cols = columns_of(data, graph)
        split = trainer._split_validation(cols, graph, cfg)
        models = []
        for phase in ("phase2", "single"):
            model = tiny_model(graph, "omtl", d=10, de=3, experts=2, dropout=0.2)
            reinit_parent_gates(model, cfg.seed)
            trainer._train_phase(model, cols, split, cfg, TrainLog(), phase, 1)
            models.append(model)
        frozen_tape, free_tape = tapes
        for (name, p), q in zip(models[0].params.items(),
                                models[1].params.values()):
            if name.startswith(EXPERT_PREFIXES):
                assert not frozen_tape.gradient(p).any(), name
                assert free_tape.gradient(q).any(), name
            else:
                assert np.array_equal(frozen_tape.gradient(p),
                                      free_tape.gradient(q)), name
        assert len(frozen_tape._ops) < len(free_tape._ops)

    def test_failed_phase_leaves_no_parameter_const(self):
        graph, data = small_benchmark()
        model = tiny_model(graph, "omtl", d=10, de=3, experts=2)
        scheme = make_reward_scheme(graph, 0.5, "mortality")
        cfg = tiny_config()
        cols = columns_of(data, graph)
        # built without shared heads, so inner nodes lack the scheme's head
        with pytest.raises(ValidationError, match="no head"):
            trainer._train_phase(model, cols, trainer._split_validation(cols, graph, cfg),
                                 cfg, TrainLog(), "phase2", 1, scheme)
        assert [n for n, p in model.params.items() if p.const] == []
        assert model.arena.trainable == slice(0, model.arena.size)

    def test_phase2_reinitializes_parent_gates(self):
        graph, data = small_benchmark()
        cfg = tiny_config(max_epochs=0)
        gates_at_build = {n: p.values.copy() for n, p in tiny_model(
            graph, "omtl", d=10, de=3, experts=2).params.items()
            if n.startswith("parent_gate.")}
        model, _ = train_variant(graph, data, cfg)
        assert gates_at_build
        for name, values in gates_at_build.items():
            assert not np.array_equal(model.params[name].values, values)


class TestBaselines:
    def test_mmoe_on_edgeless_graph_equals_omtl_phase1(self):
        nodes = [ConceptNode(f"n{i}", core=(i == 0),
                             outcomes=("event",) if i == 0 else ())
                 for i in range(3)]
        graph = OntologyGraph(nodes, [])
        rng = np.random.default_rng(1)
        recs = [make_record(graph, rng, d=6, label=int(rng.random() < 0.4),
                            rid=f"r{i}") for i in range(30)]
        data = Dataset(records=recs, feature_dim=6, outcomes=("event",))
        omtl, _ = train_variant(graph, data, tiny_config(
            variant="omtl", max_epochs=3, dropout=0.3, seed=5, hierarchy_finetune=False))
        mmoe, _ = train_variant(graph, data, tiny_config(
            variant="mmoe", max_epochs=3, dropout=0.3, seed=5))
        # same init stream, same shuffles, same dropout draws, no gates H
        assert sorted(omtl.params) == sorted(mmoe.params)
        for name in omtl.params:
            assert np.array_equal(omtl.params[name].values,
                                  mmoe.params[name].values), name

    def test_sb_fewer_params_than_moe(self):
        graph, _ = small_benchmark()
        sb = tiny_model(graph, "sb", d=10, de=3)
        moe = tiny_model(graph, "moe", d=10, de=3, experts=3)
        assert sb.param_count() < moe.param_count()

    def test_all_variants_finite_losses(self):
        graph, data = small_benchmark()
        for seed in (0, 1, 2):
            for variant in ("sb", "moe", "mmoe", "omtl"):
                cfg = tiny_config(variant=variant, max_epochs=2, seed=seed)
                model, log = train_variant(graph, data, cfg)
                for entry in log.entries:
                    assert np.isfinite(entry["train_total"])
                post = evaluate_loss(model, graph, data.records, cfg, None)
                assert np.isfinite(post.total)


class TestEarlyStopping:
    def test_best_snapshot_restored(self):
        graph, data = small_benchmark(records=30)
        cfg = tiny_config(variant="mmoe", max_epochs=12, patience=3,
                          val_fraction=0.2, seed=3)
        model, log = train_variant(graph, data, cfg)
        vals = [e["val_total"] for e in log.entries]
        final = evaluate_loss(
            model, graph,
            self._val_records(graph, data, cfg), cfg, None).total
        assert final == pytest.approx(min(vals), abs=1e-12)

    @staticmethod
    def _val_records(graph, data, cfg):
        # mirror the trainer's validation carve-out
        from omtl.rng import substream
        seed = int(substream(cfg.seed, "valsplit.0").integers(2 ** 31))
        plan = make_folds(data, graph, k=5, seed=seed)
        return [r for r in data.records if plan.fold_of(r.id) == 0]

    def test_omtl_phases_share_one_held_out_slice(self, monkeypatch):
        planned = []

        def counted_make_folds(*args, **kwargs):
            planned.append(args)
            return make_folds(*args, **kwargs)

        monkeypatch.setattr(trainer, "make_folds", counted_make_folds)
        graph, data = small_benchmark(records=30)
        cfg = tiny_config(max_epochs=6, patience=3, val_fraction=0.2, seed=3)
        model, log = train_variant(graph, data, cfg)
        assert len(planned) == 1
        # phase 2 monitors, and restores its best epoch on, phase 1's slice
        vals = [e["val_total"] for e in log.entries if e["phase"] == "phase2"]
        final = evaluate_loss(
            model, graph,
            self._val_records(graph, data, cfg), cfg, None).total
        assert final == pytest.approx(min(vals), abs=1e-12)

    def test_patience_stops_early(self):
        graph, data = small_benchmark(records=30)
        cfg = tiny_config(variant="sb", max_epochs=50, patience=2,
                          val_fraction=0.2, seed=1, lr=1e-300)
        model, log = train_variant(graph, data, cfg)
        # steps of ~1e-300 leave every parameter as it was: no improvement
        # after the first epoch
        assert len(log.entries) <= 4


class TestDivergence:
    @pytest.mark.parametrize("variant", ["omtl", "mmoe", "sb"])
    @pytest.mark.parametrize("budget", [dict(max_epochs=1), dict(patience=1)],
                             ids=["one-epoch", "patience-1"])
    def test_diverged_run_raises(self, variant, budget):
        # one batch per epoch: the step that diverges is the epoch's last,
        # so only the monitored loss can show it
        graph, data = generate_synthetic(SynthConfig(
            levels=2, branching=2, records_per_node=30, feature_dim=4,
            low_data_records=10, seed=1))
        cfg = TrainConfig(variant=variant, lr=1e300, batch_size=len(data.records),
                          **budget)
        with np.errstate(all="ignore"), \
                pytest.raises(NumericalError, match="monitored loss in phase '.*', epoch 0"):
            train_variant(graph, data, cfg)


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        graph, data = small_benchmark()
        cfg = tiny_config(variant="omtl", max_epochs=3, dropout=0.4, seed=9)
        m1, _ = train_variant(graph, data, cfg)
        m2, _ = train_variant(graph, data, cfg)
        for name in m1.params:
            assert np.array_equal(m1.params[name].values, m2.params[name].values)


class TestColumnarTraining:
    @pytest.mark.parametrize("variant, digest", [
        pytest.param("omtl", "eb72016ea88e6ce266626a0e187408ba865c75d99cfec740eda952d5f71bba08",
                     id="omtl"),
        pytest.param("mmoe", "3314a1f6a1a74675d04fdfbbb7cead78557c072e24989e42ba56429eb901c936",
                     id="mmoe"),
        pytest.param("sb", "953f0416beebe933214fa04d5de19070120e4db373ccb8831b72243a3a19bd37",
                     id="sb")])
    def test_final_param_hash_is_pinned(self, variant, digest):
        # the trainer's bits; a change that moves them must update these
        # and say why
        graph, data = generate_synthetic(SynthConfig(seed=0, records_per_node=60))
        _, log = train_variant(graph, data, TrainConfig(variant=variant, max_epochs=2,
                                                        seed=0))
        assert log.final_param_hash == digest

    @pytest.mark.parametrize("variant, hierarchy, digest", [
        pytest.param("omtl", True, "2fc74e809425b1ce1062bc4863522a194ac1ff7f806c897e9e85a50838305b14",
                     id="omtl"),
        pytest.param("mmoe", False, "76adf2812f7149a166fb43fe4bea410758052027732a3bce94c3f9a393cf2356",
                     id="mmoe"),
        pytest.param("sb", False, "400e040f27de7e9f263c0d8fb0707eb5afd6fed8c461aa9fafeba112d2835658",
                     id="sb")])
    def test_scores_are_pinned(self, variant, hierarchy, digest):
        # sha256 of the (record id, label, score) triples of every scored
        # target, over a cohort of several scoring chunks; a change that
        # moves a score must update it and say why
        graph, data = generate_synthetic(SynthConfig(seed=0, records_per_node=60))
        _, held = generate_synthetic(SynthConfig(seed=1, records_per_node=400))
        model, _ = train_variant(graph, data, TrainConfig(variant=variant, max_epochs=2,
                                                          seed=0))
        assert model.hierarchy_enabled == hierarchy
        assert len(held.records) > 2 * SCORE_CHUNK
        collected = score_holdout(model, graph, held.records)
        blob = json.dumps([["|".join(key), collected[key]] for key in sorted(collected)])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    @pytest.mark.parametrize("reward_f, digest", [
        pytest.param(None, "5ca78f81823296d3ad78c01ad77805bb8537f7a5c7ba754fb6d83c172432273f",
                     id="omtl"),
        pytest.param(0.5, "89bfcbb23c7a3c47674fa352bb5e864cfd5ac23aa9fa4c97c0f0cd4bdfd3a2e1",
                     id="omtl-shaped")])
    def test_final_param_hash_is_pinned_on_multi_parent_graph(self, reward_f, digest):
        # the trainer's bits where parent gates run: c and e have two
        # parents each, and the single-parent d sits between them in level
        # order, so the gated parent gates are not consecutive in the arena
        graph, data = multi_parent_cohort()
        model, log = train_variant(graph, data, TrainConfig(
            variant="omtl", max_epochs=2, seed=0, reward_f=reward_f))
        assert model.pgate_w.shape[0] == 2 and model.hierarchy_enabled
        assert log.final_param_hash == digest

    @pytest.mark.parametrize("reward_f, digest", [
        pytest.param(None, "25eeee09a1282b137ab4b4ac58938e4c4c8f241e2df13d4f6a07df67251136da",
                     id="omtl"),
        pytest.param(0.5, "6e6eb8d7454a6bb15ae49a30b12afe30d8368168e92fd598695422c70f3ff30c",
                     id="omtl-shaped")])
    def test_scores_are_pinned_on_multi_parent_graph(self, reward_f, digest):
        # scores where parent gates run and, when shaped, where every node
        # has a head but only the core nodes' own are scored
        graph, data = multi_parent_cohort()
        _, held = multi_parent_cohort(n=2500)
        model, _ = train_variant(graph, data, TrainConfig(
            variant="omtl", max_epochs=2, seed=0, reward_f=reward_f))
        collected = score_holdout(model, graph, held.records)
        blob = json.dumps([["|".join(key), collected[key]] for key in sorted(collected)])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    @pytest.mark.parametrize("cohort, batch_size, reward_f, digest", [
        pytest.param("tree", 1, None,
                     "26493924f22e305512babb56fa042247ace070558e2245fdda63716161772dfe",
                     id="batch-1"),
        pytest.param("tree", 1, -0.5,
                     "dc916eb18c805eae0a59b3efc8c39f47fa34aa5b2d04af2397e17bca33d15809",
                     id="batch-1-shaped"),
        pytest.param("tree", None, None,
                     "40d15ff66f4e6ffab99e6536bfb7b00f3df42bf38faf6134b1c043097a95121f",
                     id="batch-over-cohort"),
        pytest.param("no-concepts", 2, None,
                     "176d152d3f707132c1e53da0dc67621a002210f3bbc5d4800cfd0ffd4d7106ba",
                     id="rows-without-pairs"),
        pytest.param("multi-parent", 3, None,
                     "d9d3ad85b16e22e5a9c1151a7a49c33d568a28fcec9353d665eae212985ae18c",
                     id="multi-parent-batch-3"),
        pytest.param("multi-parent", 3, 0.5,
                     "d1906f84586e1c3b7bf0e5031f92e1c278c863a6aa47fdbd8bc9277a1138a062",
                     id="multi-parent-batch-3-shaped")])
    def test_final_param_hash_is_pinned_at_batch_edges(self, cohort, batch_size,
                                                       reward_f, digest):
        # omtl's bits where batches are single rows, one batch larger than
        # the cohort, batches whose rows express no node, and gated routes
        # spread over many small batches
        if cohort == "multi-parent":
            graph, data = multi_parent_cohort()
        else:
            graph, data = generate_synthetic(SynthConfig(
                levels=3, branching=2, records_per_node=4, feature_dim=6,
                low_data_records=4, outcomes=("mortality",), seed=2))
        if cohort == "no-concepts":
            for rec in data.records[::3]:
                rec.concepts = frozenset()
        if batch_size is None:
            batch_size = len(data.records) + 5
        _, log = train_variant(graph, data, TrainConfig(
            variant="omtl", batch_size=batch_size, max_epochs=2, seed=0,
            reward_f=reward_f))
        assert log.final_param_hash == digest

    def test_train_record_ids_are_the_training_split(self):
        graph, data = small_benchmark(records=30)
        cfg = tiny_config(variant="mmoe", max_epochs=2, val_fraction=0.2, seed=3)
        _, log = train_variant(graph, data, cfg)
        held = {r.id for r in TestEarlyStopping._val_records(graph, data, cfg)}
        assert held and log.train_record_ids == {r.id for r in data.records} - held

    def test_index_batch_loss_equals_record_batch_loss(self):
        graph, data = small_benchmark()
        model = tiny_model(graph, "omtl", d=10, de=3, experts=2, seed=1)
        rows = np.array([7, 3, 60, 11, 0, 59])
        by_rows = evaluate_loss(model, graph, data.columns(graph).take(rows),
                                tiny_config(), None)
        by_records = evaluate_loss(model, graph, [data.records[i] for i in rows],
                                   tiny_config(), None)
        assert by_rows.total == by_records.total
        assert by_rows.per_outcome == by_records.per_outcome


class TestCv:
    def test_two_fold_partition_covers_all_labeled(self):
        graph, data = small_benchmark(records=24)
        cfg = tiny_config(variant="sb", max_epochs=1)
        result = run_cv(graph, data, cfg, k=2)
        tested = set()
        for key, s in result.pooled.items():
            tested.update(s.ids)
        labeled_ids = {r.id for r in data.records
                       if r.labeled and any(graph.nodes[c].core
                                            for c in r.concepts)}
        assert tested == labeled_ids

    def test_same_seed_bitwise_identical_reports(self):
        graph, data = small_benchmark(records=24)
        cfg = tiny_config(variant="mmoe", max_epochs=2, seed=4)
        import json
        a = json.dumps(run_cv(graph, data, cfg, k=2).to_json_obj(), sort_keys=True)
        b = json.dumps(run_cv(graph, data, cfg, k=2).to_json_obj(), sort_keys=True)
        assert a == b

    def test_no_leakage_between_train_and_test(self):
        graph, data = small_benchmark(records=24)
        cfg = tiny_config(variant="sb", max_epochs=2)
        result = run_cv(graph, data, cfg, k=2)
        for fold, log in enumerate(result.logs):
            test_ids = {rid for rid, f in result.plan.assignment.items()
                        if f == fold}
            assert not (log.train_record_ids & test_ids)

    def test_unknown_variant_rejected_before_anything_trains(self, monkeypatch):
        graph, data = small_benchmark(records=12)
        calls = []
        monkeypatch.setattr(trainer, "make_folds", lambda *a, **k: calls.append("folds"))
        monkeypatch.setattr(trainer, "train_variant", lambda *a, **k: calls.append("train"))
        with pytest.raises(ValidationError, match="unknown variant 'bogus'"):
            trainer.compare_variants(graph, data, tiny_config(), ["omtl", "mmoe", "bogus"],
                                     k=2)
        assert calls == []

    def test_plan_that_misses_a_record_is_rejected(self):
        graph, data = small_benchmark(records=12)
        plan = make_folds(data, graph, k=2, seed=0)
        del plan.assignment[data.records[5].id]
        with pytest.raises(ValidationError, match="does not cover 1 records "
                                                  f"\\(first: '{data.records[5].id}'\\)"):
            run_cv(graph, data, tiny_config(max_epochs=1), k=2, plan=plan)

    def test_one_class_target_is_pooled_but_not_measured(self):
        graph, data = small_benchmark(records=12)
        one_class = ("n1_1", "mortality")
        for rec in data.records:
            if one_class[0] in rec.concepts and rec.labels:
                rec.labels[one_class[1]] = 0
        results, comparisons = trainer.compare_variants(
            graph, data, tiny_config(max_epochs=1), ["sb", "mmoe"], k=2)
        for result in results.values():
            assert result.pooled[one_class].n_pos == 0
            assert one_class not in result.pooled_report.per_target
            assert result.pooled_report.per_target
        compared = {(c["node"], c["outcome"]) for c in comparisons}
        assert compared and one_class not in compared

    def test_score_holdout_beyond_one_chunk_matches_single_records(self):
        graph, data = small_benchmark(records=400, d=6)
        assert len(data.records) > SCORE_CHUNK
        model = tiny_model(graph, "omtl", d=6, de=3, experts=2, seed=2)
        chunked = score_holdout(model, graph, data.records)
        alone: dict = {}
        for rec in data.records:
            for key, triples in score_holdout(model, graph, [rec]).items():
                alone.setdefault(key, []).extend(triples)
        assert sorted(chunked) == sorted(alone)
        for key in alone:
            got, want = sorted(chunked[key]), sorted(alone[key])
            assert [t[:2] for t in got] == [t[:2] for t in want]
            assert max(abs(a[2] - b[2]) for a, b in zip(got, want)) <= 1e-12


class TestMixedBatchLoss:
    def test_evaluate_loss_rejects_another_graph(self, rng):
        g = diamond_graph()
        model = tiny_model(g, "omtl", d=7, de=3, experts=2)
        batch = [make_record(g, rng, d=7, anchor="d", label=1)]
        with pytest.raises(ValidationError, match="model's graph"):
            evaluate_loss(model, chain_graph(4), batch, tiny_config(), None)
        equal = OntologyGraph(list(g.nodes.values()),
                              [(p, c) for c in g.ordered_ids for p in g.parents[c]])
        assert evaluate_loss(model, equal, batch, tiny_config(), None).total == \
            evaluate_loss(model, g, batch, tiny_config(), None).total

    def test_evaluate_loss_is_mean_of_single_record_losses(self, rng):
        g = diamond_graph()
        model = tiny_model(g, "omtl", d=7, de=3, experts=2, seed=3)
        cfg = tiny_config(lam=0.3)
        batch = [make_record(g, rng, d=7, anchor=anchor, label=label,
                             rid=f"r{i}")
                 for i, (anchor, label) in enumerate(
                     [("d", 1), ("a", None), ("b", 0), ("d", None),
                      ("c", 1), ("d", 0)])]
        with Tape() as tape:
            mixed = evaluate_loss(model, g, batch, cfg, None)
        tape.backward(mixed.loss)
        total = 0.0
        grads = {n: np.zeros_like(p.values) for n, p in model.params.items()}
        for rec in batch:
            with Tape() as single_tape:
                single = masked_loss(forward(model, rec), cfg.lam)
            single_tape.backward(single.loss)
            total += single.total / len(batch)
            for name, p in model.params.items():
                grads[name] += single_tape.gradient(p) / len(batch)
        assert abs(mixed.total - total) <= 1e-12
        assert abs(mixed.loss.item() - total) <= 1e-12
        for name, p in model.params.items():
            assert np.abs(tape.gradient(p) - grads[name]).max() <= 1e-12, name


class _FirstStep(Exception):
    """Stops a training run at its first backward pass."""


def first_step_ops(monkeypatch, variant: str, phase: int = 1, **cohort) -> int:
    """Tape ops of the first training step of `variant` (of omtl's `phase`),
    default training config but one epoch per phase, on the seed-0
    synthetic cohort with `cohort` fields."""
    ops = []
    counting = [phase == 1]

    class CountingTape(Tape):
        def backward(self, loss):
            if not counting[0]:
                return super().backward(loss)
            ops.append(len(self._ops))
            raise _FirstStep

    def phase2_starts(model, seed):
        counting[0] = True
        reinit_parent_gates(model, seed)

    graph, data = generate_synthetic(SynthConfig(seed=0, **cohort))
    monkeypatch.setattr(trainer, "Tape", CountingTape)
    monkeypatch.setattr(trainer, "reinit_parent_gates", phase2_starts)
    with pytest.raises(_FirstStep):
        train_variant(graph, data, TrainConfig(variant=variant, seed=0, max_epochs=1))
    return ops[0]


class TestLevelOps:
    def test_ops_per_step_scale_with_depth_not_width(self, monkeypatch):
        # one op for the experts, one per stage per level, one for the loss
        wide = dict(levels=4, records_per_node=40, low_data_records=20)
        assert first_step_ops(monkeypatch, "omtl", phase=2) <= 10
        assert first_step_ops(monkeypatch, "omtl", phase=2, branching=3, **wide) <= 13
        assert first_step_ops(monkeypatch, "omtl", phase=2, branching=3, **wide) == \
            first_step_ops(monkeypatch, "omtl", phase=2, branching=2, **wide)
        for variant in ("omtl", "mmoe", "sb"):
            assert first_step_ops(monkeypatch, variant) <= 12
            assert first_step_ops(monkeypatch, variant, branching=3, **wide) <= 15

    @pytest.mark.parametrize("cohort", [
        pytest.param({}, id="default"),
        pytest.param(dict(levels=4, branching=2, records_per_node=40,
                          low_data_records=20), id="4-levels-branching-2"),
        pytest.param(dict(levels=4, branching=3, records_per_node=40,
                          low_data_records=20), id="4-levels-branching-3")])
    def test_ops_per_step_do_not_depend_on_depth(self, monkeypatch, cohort):
        # expert_layer, expert_mix, represent and multitask_loss; in omtl
        # phase 2 the experts and expert gates are frozen, so their two ops
        # are const and record nothing
        for variant in ("omtl", "mmoe", "sb"):
            assert first_step_ops(monkeypatch, variant, **cohort) == 4, variant
        assert first_step_ops(monkeypatch, "omtl", phase=2, **cohort) == 2

    @pytest.mark.parametrize("variant", ["omtl", "mmoe", "sb"])
    def test_step_tape_is_freed_without_the_collector(self, monkeypatch, variant):
        # nothing of a finished step refers back to its tape, so reference
        # counting frees it, with its activations and gradient buffer
        tapes = []

        class WatchedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(trainer, "Tape", WatchedTape)
        graph, data = small_benchmark()
        cfg = tiny_config(variant=variant, max_epochs=1, batch_size=len(data.records))
        gc.collect()
        gc.disable()
        try:
            train_variant(graph, data, cfg)
            assert tapes and all(ref() is None for ref in tapes)
        finally:
            gc.enable()

    def test_parameters_stay_views_of_the_arena(self, tmp_path):
        graph, data = small_benchmark()

        def attached(m) -> bool:
            return all(np.shares_memory(p.values, m.arena.values)
                       for p in m.params.values())

        assert attached(tiny_model(graph, "omtl", d=10, de=3, experts=2))
        cfg = tiny_config(max_epochs=2)
        assert attached(train_variant(graph, data, replace(cfg, hierarchy_finetune=False))[0])
        model, _ = train_variant(graph, data, cfg)
        assert attached(model)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        assert attached(load_model(path, graph))
