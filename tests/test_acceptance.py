"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the line per
criterion. The end-to-end directional experiment (criteria 9-11) trains
15 cross-validated models over 5 seeds and is the slow part.
"""

import json
import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from omtl.datastore import SynthConfig, generate_synthetic, make_folds
from omtl.metrics import ScoredSet, auc_roc, average_precision, delong_test
from omtl.model import ModelSpec, build_model, forward
from omtl.objective import batch_loss, make_reward_scheme, reward_weights
from omtl.ontology import ConceptNode, OntologyGraph
from omtl.tensor import Tape
from omtl.trainer import TrainConfig, _FlatAdam, compare_variants, train_variant

from conftest import (arena_params, chain_graph, diamond_graph, gate_weights,
                      make_record, one_batch, random_dag, sq_loss, tiny_model)
from oracles import (ReferenceAdam, finite_difference_gradients,
                     max_relative_error, node_views, pairwise_auc,
                     permutation_delong_p, threshold_sweep_ap)

LOW_DATA_KEY = "n2_3|mortality"

# training setup for the directional experiment (criteria 9-11): defaults
# except a doubled learning rate and a tighter epoch budget, so all 15
# cross-validated configurations converge inside the ten-minute budget
ACCEPT_TRAIN = dict(lr=0.002, max_epochs=50, patience=6)
VARIANTS = ["omtl", "mmoe", "sb"]


def criterion(num: int, desc: str, ok: bool) -> None:
    print(f"\nCRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@lru_cache(maxsize=1)
def benchmark():
    """The default synthetic benchmark shared by criteria 8-11."""
    return generate_synthetic(SynthConfig())


@lru_cache(maxsize=1)
def directional_experiment():
    """Five replicate benchmarks; per replicate, all variants CV'd on one
    shared fold plan. Returns low-data-leaf mortality AUC means per seed,
    the serialized seed-0 report, and the wall time."""
    started = time.perf_counter()
    per_seed: dict[int, dict[str, float]] = {}
    seed0_report = ""
    for seed in range(5):
        graph, data = generate_synthetic(SynthConfig(seed=seed))
        cfg = TrainConfig(seed=seed, **ACCEPT_TRAIN)
        results, comps = compare_variants(graph, data, cfg, VARIANTS, k=5)
        per_seed[seed] = {
            v: results[v].to_json_obj()["aggregate"][LOW_DATA_KEY]["auc_mean"]
            for v in VARIANTS}
        if seed == 0:
            seed0_report = json.dumps(
                {v: results[v].to_json_obj() for v in VARIANTS}, sort_keys=True)
    return per_seed, seed0_report, time.perf_counter() - started


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        graph = random_dag(rng, int(rng.integers(3, 7)), edge_prob=0.45)
        model = tiny_model(graph, "omtl", d=7, de=3, experts=2, seed=seed)
        anchor = graph.ordered_ids[-1]  # deepest node exercises the gates H
        batch = one_batch(model, make_record(graph, rng, d=7, anchor=anchor, label=1))

        def loss_value() -> float:
            result = forward(model, batch, mode="train")
            return batch_loss(result, lam=0.1).total

        with Tape() as tape:
            result = forward(model, batch, mode="train")
            breakdown = batch_loss(result, lam=0.1)
        tape.backward(breakdown.loss)
        analytic = tape.gradients(model.params)
        numeric = finite_difference_gradients(loss_value, model.params, h=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.perf_counter() - started
    criterion(1, f"analytic vs central-difference gradients: max rel err "
                 f"{worst:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)",
              worst < 1e-4 and elapsed < 30.0)


def test_criterion_2_gate_normalization():
    graph = diamond_graph()
    model = tiny_model(graph, "omtl", d=7, de=3, experts=3)
    rng = np.random.default_rng(2)
    gates = gate_weights(model, rng.normal(scale=4.0, size=(1000, 7)))
    # every node's expert gate, and a parent gate wherever a node has two
    # or more parents (one parent takes weight exactly 1)
    ok = set(gates) == {(n, "expert") for n in graph.nodes} | {("d", "parent")}
    worst = 0.0
    for gate in gates.values():
        ok = ok and (gate >= 0).all()
        worst = max(worst, float(np.abs(gate.sum(axis=1) - 1.0).max()))
    criterion(2, f"1000 inputs: every gate row sums to 1 (worst dev "
                 f"{worst:.1e} < 1e-9) with nonnegative entries",
              ok and worst < 1e-9)


def test_criterion_3_mmoe_reduction():
    graph = diamond_graph()
    omtl = tiny_model(graph, "omtl", d=7, de=3, experts=3, seed=3)
    mmoe = tiny_model(graph, "mmoe", d=7, de=3, experts=3, seed=99)
    for name in mmoe.params:
        mmoe.params[name].values[:] = omtl.params[name].values
    omtl.hierarchy_enabled = False
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(1000):
        rec = make_record(graph, rng, d=7, label=1, rid=f"r{i}")
        ra = node_views(forward(omtl, one_batch(omtl, rec), mode="eval"))
        rb = node_views(forward(mmoe, one_batch(mmoe, rec), mode="eval"))
        for nid in ra.reps:
            worst = max(worst, np.abs(ra.reps[nid] - rb.reps[nid]).max())
        for key in ra.logits:
            worst = max(worst, np.abs(ra.logits[key] - rb.logits[key]).max())
    criterion(3, f"omtl with hierarchy off vs mmoe with shared parameters: "
                 f"max output diff {worst:.1e} (< 1e-12) over 1000 records",
              worst < 1e-12)


def test_criterion_4_routing_and_masking():
    rng = np.random.default_rng(4)
    ok = True
    for i in range(100):
        graph = random_dag(rng, int(rng.integers(2, 10)), edge_prob=0.35)
        model = tiny_model(graph, "omtl", d=7, de=3, experts=2, seed=i)
        anchor = graph.ordered_ids[int(rng.integers(len(graph.ordered_ids)))]
        labeled = bool(rng.integers(2))
        rec = make_record(graph, rng, d=7, anchor=anchor,
                          label=1 if labeled else None, rid=f"r{i}")
        with Tape() as tape:
            result = forward(model, one_batch(model, rec), mode="train")
            breakdown = batch_loss(result, lam=0.2)
        tape.backward(breakdown.loss)
        grads = tape.gradients(model.params)

        # brute-force closure oracle: saturate "add all parents" via edges
        closure = set(rec.concepts)
        while True:
            grown = set(closure)
            for parent, child in graph.edges:
                if child in grown:
                    grown.add(parent)
            if grown == closure:
                break
            closure = grown
        ok = ok and set(node_views(result).reps) == closure

        for name, grad in grads.items():
            outside = any(f".{nid}." in name for nid in graph.nodes
                          if nid not in closure)
            unlabeled_head = name.startswith("head.") and not labeled
            if outside or unlabeled_head:
                ok = ok and (grad == 0.0).all()
    criterion(4, "100 random (graph, record) pairs: computed nodes equal the "
                 "closed concept set; non-expressed and unlabeled parameters "
                 "get exactly-zero gradients", ok)


def test_criterion_5_metrics_oracles():
    rng = np.random.default_rng(5)
    worst_auc = worst_aps = 0.0
    for trial in range(1000):
        n = int(rng.integers(4, 40))
        labels = (rng.random(n) < 0.4).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.random(n)
        if trial % 2:
            scores = np.round(scores * 4) / 4  # heavy ties
        s = ScoredSet(scores=scores, labels=labels)
        worst_auc = max(worst_auc, abs(auc_roc(s) - pairwise_auc(scores, labels)))
        worst_aps = max(worst_aps, abs(average_precision(s)
                                       - threshold_sweep_ap(scores, labels)))

    n = 200
    labels = (rng.random(n) < 0.35).astype(int)
    latent = rng.normal(size=n)
    sa = latent + 0.8 * labels + rng.normal(scale=0.9, size=n)
    sb = latent + 0.6 * labels + rng.normal(scale=0.9, size=n)
    *_, p = delong_test(ScoredSet(scores=sa, labels=labels),
                          ScoredSet(scores=sb, labels=labels))
    p_perm = permutation_delong_p(sa, sb, labels, n_resamples=10_000, seed=5)
    self_set = ScoredSet(scores=sa, labels=labels)
    *_, p_self = delong_test(self_set, self_set)
    criterion(5, f"auc vs pair counting {worst_auc:.1e}, aps vs sweep "
                 f"{worst_aps:.1e} (both < 1e-12); delong p {p:.3f} within "
                 f"0.05 of permutation {p_perm:.3f}; delong(a,a) p = {p_self}",
              worst_auc < 1e-12 and worst_aps < 1e-12
              and abs(p - p_perm) <= 0.05 and p_self == 1.0)


def test_criterion_6_reward_shaping():
    # exactness at f = 0
    names = ["a", "b", "c"]
    nodes = [ConceptNode(n, core=True, outcomes=("event",)) for n in names]
    all_core = OntologyGraph(nodes, [("a", "b"), ("b", "c")])
    model = tiny_model(all_core, "omtl", d=7, de=3, experts=2)
    rng = np.random.default_rng(6)
    scheme0 = make_reward_scheme(all_core, 0.0, "event")
    exact = True
    for i in range(20):
        rec = make_record(all_core, rng, d=7, anchor="c", label=int(rng.integers(2)),
                          rid=f"r{i}")
        a = batch_loss(forward(model, one_batch(model, rec), mode="train"), lam=0.3)
        b = batch_loss(forward(model, one_batch(model, rec, scheme0), mode="train"),
                       lam=0.3)
        exact = exact and a.total == b.total and a.l1 == b.l1

    chain = chain_graph(3)
    w_up = reward_weights(chain, 1.0)
    w_down = reward_weights(chain, -1.0)
    increasing = w_up["a"] < w_up["b"] < w_up["c"]
    decreasing = w_down["a"] > w_down["b"] > w_down["c"]
    criterion(6, "f=0 reproduces the unweighted loss exactly; depth-3 chain "
                 "weights strictly increase with level at f=1 and strictly "
                 "decrease at f=-1", exact and increasing and decreasing)


def test_criterion_7_adam_against_reference():
    # the optimizer training runs, fed by the tape: loss w^2, gradient 2w
    w = arena_params({"w": [[1.0]]})["w"]
    adam = _FlatAdam(w.arena, lr=0.001)
    ref = ReferenceAdam(lr=0.001)
    w_ref = np.array([[1.0]])
    worst = 0.0
    for _ in range(20):
        with Tape() as tape:
            loss = sq_loss(w, np.zeros((1, 1)))
        tape.backward(loss)
        adam.step(tape)
        w_ref = ref.step(w_ref, 2.0 * w_ref)
        worst = max(worst, abs(w.item() - w_ref[0, 0]))
    criterion(7, f"20 Adam steps on w^2: max deviation from hand-coded "
                 f"reference {worst:.1e} (< 1e-12)", worst < 1e-12)


def test_criterion_8_fold_stratification():
    graph, data = benchmark()
    k = 5
    plan = make_folds(data, graph, k=k, seed=0)
    # exact rationals: the best level plan for 36 positives in 200 members
    # deviates by 8/40 - 36/200 = 1/50, which floats round to above 0.02
    worst = Fraction(0)
    checked = 0
    for nid in graph.core_ids:
        for outcome in graph.nodes[nid].outcomes:
            members = [r for r in data.records
                       if nid in r.concepts and outcome in r.labels]
            pos = sum(r.labels[outcome] for r in members)
            if pos < 5 or len(members) - pos < 5:
                continue
            global_prev = Fraction(pos, len(members))
            for fold in range(k):
                fm = [r for r in members if plan.fold_of(r.id) == fold]
                prev = Fraction(sum(r.labels[outcome] for r in fm), len(fm))
                worst = max(worst, abs(prev - global_prev))
                checked += 1
    criterion(8, f"default benchmark folds: {checked} (node, outcome, fold) "
                 f"strata, worst prevalence deviation {float(worst):.4f} "
                 f"(<= 0.02)",
              checked > 0 and worst <= Fraction(1, 50))


@pytest.mark.slow
def test_criterion_9_directional_reproduction():
    per_seed, _, elapsed = directional_experiment()
    wins = sum(per_seed[s]["omtl"] > per_seed[s]["mmoe"] for s in per_seed)
    means = {v: float(np.mean([per_seed[s][v] for s in per_seed]))
             for v in VARIANTS}
    detail = {s: {v: round(a, 3) for v, a in row.items()}
              for s, row in per_seed.items()}
    print(f"\n  low-data leaf mortality AUC per seed: {detail}")
    criterion(9, f"low-data leaf: omtl > mmoe in {wins}/5 seeds (need >= 4); "
                 f"means omtl {means['omtl']:.3f}, mmoe {means['mmoe']:.3f}, "
                 f"sb {means['sb']:.3f} (both > sb); "
                 f"runtime {elapsed:.0f}s (< 600s)",
              wins >= 4 and means["omtl"] > means["sb"]
              and means["mmoe"] > means["sb"] and elapsed < 600.0)


def test_criterion_10_two_phase_freeze():
    # criterion 9's seed-0, fold-0 training call (same data, plan and
    # config), made once in full and once stopped after phase 1
    graph, data = benchmark()
    cfg = TrainConfig(seed=0, **ACCEPT_TRAIN)
    cols = data.columns(graph)
    plan = make_folds(cols, graph, k=5, seed=0)
    fold_data = cols.take(np.flatnonzero([plan.fold_of(rid) != 0 for rid in cols.ids]))
    phase1, _ = train_variant(graph, fold_data, replace(cfg, hierarchy_finetune=False))
    model, log = train_variant(graph, fold_data, cfg)
    frozen = [n for n in model.params if n.startswith(("expert.", "expert_gate."))]
    ok = all(np.array_equal(model.params[n].values, phase1.params[n].values)
             for n in frozen)
    tuned = any(e["phase"] == "phase2" for e in log.entries)
    criterion(10, f"{len(frozen)} expert and expert-gate parameter blocks "
                  "bit-identical across phase 2", ok and tuned and len(frozen) > 0)


@pytest.mark.slow
def test_criterion_11_determinism():
    per_seed, seed0_report, _ = directional_experiment()
    graph, data = benchmark()
    cfg = TrainConfig(seed=0, **ACCEPT_TRAIN)
    results, _ = compare_variants(graph, data, cfg, VARIANTS, k=5)
    again = json.dumps({v: results[v].to_json_obj() for v in VARIANTS},
                       sort_keys=True)
    criterion(11, "repeating the seed-0 replicate reproduces the report "
                  "byte for byte", again == seed0_report)
