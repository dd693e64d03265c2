import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import omtl.datastore
from omtl.datastore import (Columns, Dataset, Record, SynthConfig, _record_from_obj,
                            generate_synthetic, load_dataset, make_folds, save_dataset)
from omtl.errors import ValidationError
from omtl.fields import json_lines
from omtl.ontology import ancestor_closure
from omtl.trainer import TrainConfig, score_holdout, train_variant

from conftest import JSON, chain_graph, diamond_graph, field, random_dag
from oracles import per_record_folds, strata
from test_trainer import multi_parent_cohort


def write_jsonl(tmp_path, rows, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(path)


def row(rid, concepts, labels=None, d=4):
    return {"id": rid, "features": [0.1 * i for i in range(d)],
            "concepts": concepts, "labels": labels or {}}


class TestLoad:
    def test_concepts_closed_upward(self, tmp_path):
        g = chain_graph(3)
        ds = load_dataset(write_jsonl(tmp_path, [row("r1", ["c"])]), g)
        assert ds.records[0].concepts == {"a", "b", "c"}

    def test_empty_labels_accepted_as_unlabeled(self, tmp_path):
        g = chain_graph(3)
        ds = load_dataset(write_jsonl(tmp_path, [row("r1", ["a"])]), g)
        assert not ds.records[0].labeled

    def test_non_binary_label_rejected_with_line(self, tmp_path):
        g = chain_graph(3)
        rows = [row("r1", ["c"], {"event": 1}), row("r2", ["c"], {"event": 2})]
        with pytest.raises(ValidationError, match=":2:.*0 or 1"):
            load_dataset(write_jsonl(tmp_path, rows), g)

    def test_unknown_outcome_rejected(self, tmp_path):
        g = chain_graph(3)
        with pytest.raises(ValidationError, match="unknown outcome"):
            load_dataset(write_jsonl(tmp_path, [row("r1", ["c"], {"oops": 1})]), g)

    def test_unknown_concept_rejected(self, tmp_path):
        g = chain_graph(3)
        with pytest.raises(ValidationError, match="unknown concept"):
            load_dataset(write_jsonl(tmp_path, [row("r1", ["zzz"])]), g)

    def test_dimension_mismatch_rejected(self, tmp_path):
        g = chain_graph(3)
        rows = [row("r1", ["a"], d=4), row("r2", ["a"], d=5)]
        with pytest.raises(ValidationError, match=":2:.*dimension"):
            load_dataset(write_jsonl(tmp_path, rows), g)

    def test_non_finite_feature_named_by_its_line(self, tmp_path):
        # one bad record among more than one finiteness check's worth
        g = chain_graph(3)
        rows = [row(f"r{i}", ["a"]) for i in range(2500)]
        rows[2100]["features"][1] = float("nan")
        with pytest.raises(ValidationError, match=":2101:.*finite"):
            load_dataset(write_jsonl(tmp_path, rows), g)

    def test_round_trip(self, tmp_path):
        g = diamond_graph()
        cfg = SynthConfig(levels=2, branching=2, records_per_node=20,
                          feature_dim=6, seed=5)
        graph, ds = generate_synthetic(cfg)
        path = str(tmp_path / "out.jsonl")
        save_dataset(ds, path)
        ds2 = load_dataset(path, graph)
        assert len(ds2.records) == len(ds.records)
        for a, b in zip(ds.records, ds2.records):
            assert a.id == b.id
            assert a.concepts == b.concepts
            assert a.labels == b.labels
            assert (a.features == b.features).all()


def assert_columns_equal(a: Columns, b: Columns) -> None:
    """Every array of a equals b's in dtype, shape and bits."""
    for name in ("ids", "X", "member", "labels", "labeled", "unclosed"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tolist() == y.tolist() if x.dtype == object else x.tobytes() == y.tobytes()
    assert (a.nodes, a.outcomes, a.graph_hash) == (b.nodes, b.outcomes, b.graph_hash)


def cohort_file(tmp_path, cohort: str):
    """(graph, path) of a written cohort: a 2,800-record synthetic tree
    (several load chunks), the 6-node multi-parent DAG, or the tree with
    blank and whitespace-only lines between its records."""
    if cohort == "multi_parent":
        graph, data = multi_parent_cohort()
    else:
        graph, data = generate_synthetic(SynthConfig(records_per_node=400, feature_dim=5,
                                                     low_data_records=200, seed=3))
    path = tmp_path / f"{cohort}.jsonl"
    save_dataset(data, str(path))
    if cohort == "blank_lines":
        lines = path.read_text().splitlines()
        path.write_text("\n \t\n".join(lines[:40]) + "\n\n" + "\n".join(lines[40:]) + "\n\n")
    return graph, str(path)


class TestLoadedColumns:
    @pytest.mark.parametrize("cohort", ["tree", "multi_parent", "blank_lines"])
    def test_loaded_columns_equal_columns_of_their_records(self, tmp_path, cohort):
        graph, path = cohort_file(tmp_path, cohort)
        data = load_dataset(path, graph)
        cols = data.columns(graph)
        assert_columns_equal(cols, Columns.from_records(data.records, graph))
        assert all(np.shares_memory(rec.features, cols.X) for rec in data.records)
        assert not hasattr(data.records[0], "__dict__")  # a slotted Record
        assert len({id(rec.concepts) for rec in data.records}) == len(np.unique(
            cols.member, axis=0))  # one shared frozenset per concept set

    def test_loaded_cohort_is_never_converted_again(self, tmp_path, monkeypatch):
        graph, path = cohort_file(tmp_path, "multi_parent")
        data = load_dataset(path, graph)

        def refuse(records, graph):
            raise AssertionError("a loaded cohort was converted to columns again")

        monkeypatch.setattr(Columns, "from_records", refuse)
        make_folds(data, graph, k=3)
        model, _ = train_variant(graph, data, TrainConfig(variant="omtl", max_epochs=1,
                                                          batch_size=32, seed=0))
        assert score_holdout(model, graph, data)


def per_line_load(path: str, graph) -> list[Record]:
    """The record loader as one loop over single lines: each line's
    checks, then its dimension and id against the lines before it, and
    non-finite features only once every line has passed."""
    known, records, seen, first_nonfinite = set(graph.outcome_names()), [], set(), None
    for (lineno,), (obj,) in json_lines(path, "records", 1):
        where = f"{path}:{lineno}"
        rec = _record_from_obj(obj, graph, known, where)
        if records and rec.features.size != records[0].features.size:
            raise ValidationError(f"{where}: feature dimension {rec.features.size} does "
                                  f"not match dataset dimension {records[0].features.size}")
        if rec.id in seen:
            raise ValidationError(f"{where}: duplicate record id {rec.id!r}")
        seen.add(rec.id)
        if first_nonfinite is None and not np.isfinite(rec.features).all():
            first_nonfinite = lineno
        records.append(rec)
    if not records:
        raise ValidationError(f"{path}: no records")
    if first_nonfinite is not None:
        raise ValidationError(f"{path}:{first_nonfinite}: features must be finite numbers")
    return records


def good_line(i: int) -> str:
    return json.dumps({"id": f"g{i}", "features": [0.5 * i, -1],
                       "concepts": [["a"], ["c"], ["b", "a"]][i % 3],
                       **({"labels": {"event": i % 2}} if i % 4 else {})})


# lines that break one rule each, beside any parsed JSON or record-shaped
# object of RECORD_LINES (defined below)
BAD_LINES = [
    '{"id": "x", "features": [1.0, 2.0]', "[1, 2]", "NaN", '"text"',
    '{"id": "g0", "features": [1.0, 2.0], "concepts": ["a"]}',
    '{"id": "x", "features": [1.0, 2.0, 3.0], "concepts": ["a"]}',
    '{"id": "x", "features": [1.0, NaN], "concepts": ["a"]}',
    '{"id": "x", "features": [1.0, Infinity], "concepts": ["a"]}',
    '{"id": "x", "features": [1.0, 1e999], "concepts": ["a"]}',
    '{"id": "x", "features": [1.0, ' + "9" * 400 + '], "concepts": ["a"]}',
    '{"id": "x", "features": [true, 2.0], "concepts": ["a"]}',
    '{"id": "x", "features": [1.0, 2.0], "concepts": []}',
    '{"id": "x", "features": [1.0, 2.0], "concepts": ["a", ["b"]]}',
    '{"id": "x", "features": [1.0, 2.0], "concepts": ["a"], "labels": {"event": 2}}',
    '{"id": "x", "features": [1.0, 2.0], "concepts": ["a"], "labels": {"event": true}}',
    '{"id": "x", "features": [1.0, 2.0], "concepts": ["a"], "labels": {"oops": 1}}',
    '{"id": "x", "features": [1.0, 2.0], "concepts": ["a"], "labels": null}',
    '{"id": "x", "features": [1.0, 2.0], "concepts": ["a"]} extra',
    '\ufeff{"id": "x", "features": [1.0, 2.0], "concepts": ["a"]}',
]


def outcome(load, path, graph):
    """The error message of load(path, graph), or the loaded records'
    ids, feature bits, concepts and labels."""
    try:
        data = load(path, graph)
    except ValidationError as exc:
        return str(exc)
    records = data.records if isinstance(data, Dataset) else data
    return [(r.id, r.features.tobytes(), r.concepts, r.labels) for r in records]


class TestFolds:
    def make_simple(self, g, n=100, prevalence=0.2, d=3):
        recs = []
        for i in range(n):
            label = 1 if i < n * prevalence else 0
            recs.append(Record(id=f"r{i:03d}", features=np.zeros(d),
                               concepts=ancestor_closure(g, ["c"]),
                               labels={"event": label}))
        return Dataset(records=recs, feature_dim=d, outcomes=("event",))

    def test_exact_divisibility_case(self):
        g = chain_graph(3)
        ds = self.make_simple(g, n=100, prevalence=0.2)
        plan = make_folds(ds, g, k=5, seed=0)
        for fold in range(5):
            ids = [r for r in ds.records if plan.fold_of(r.id) == fold]
            assert len(ids) == 20
            assert sum(r.labels["event"] for r in ids) == 4

    def test_partition(self):
        g = chain_graph(3)
        ds = self.make_simple(g, n=37, prevalence=0.3)
        plan = make_folds(ds, g, k=5, seed=1)
        assert sorted(plan.assignment) == sorted(r.id for r in ds.records)
        assert set(plan.assignment.values()) <= set(range(5))

    def test_degenerate_stratum_still_partitions(self):
        g = chain_graph(3)
        ds = self.make_simple(g, n=20, prevalence=0.0)
        plan = make_folds(ds, g, k=4, seed=2)
        assert len(plan.assignment) == 20

    def test_too_few_labeled(self):
        g = chain_graph(3)
        ds = self.make_simple(g, n=3)
        with pytest.raises(ValidationError, match="at least k"):
            make_folds(ds, g, k=5, seed=0)

    def test_deterministic(self):
        g = chain_graph(3)
        ds = self.make_simple(g, n=53, prevalence=0.25)
        assert make_folds(ds, g, 5, seed=9).assignment == \
               make_folds(ds, g, 5, seed=9).assignment

    def test_multi_node_overlap_prevalence_by_recount(self, rng):
        # overlapping strata: records express 1-2 core leaves of a diamond
        # with both b and d core
        from omtl.ontology import ConceptNode, OntologyGraph
        nodes = [ConceptNode("a"),
                 ConceptNode("b", core=True, outcomes=("event",)),
                 ConceptNode("c"),
                 ConceptNode("d", core=True, outcomes=("event",))]
        g = OntologyGraph(nodes, [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        recs = []
        for i in range(400):
            anchor = "b" if rng.random() < 0.5 else "d"
            label = int(rng.random() < (0.15 if anchor == "b" else 0.3))
            recs.append(Record(id=f"r{i:04d}", features=np.zeros(2),
                               concepts=ancestor_closure(g, [anchor]),
                               labels={"event": label}))
        ds = Dataset(records=recs, feature_dim=2, outcomes=("event",))
        k = 5
        plan = make_folds(ds, g, k=k, seed=4)

        # recount oracle straight from the emitted plan
        for nid in ("b", "d"):
            members = [r for r in recs if nid in r.concepts]
            pos = [r for r in members if r.labels["event"] == 1]
            neg = [r for r in members if r.labels["event"] == 0]
            if len(pos) < k or len(neg) < k:
                continue
            global_prev = len(pos) / len(members)
            for fold in range(k):
                fold_members = [r for r in members if plan.fold_of(r.id) == fold]
                fold_prev = (sum(r.labels["event"] for r in fold_members)
                             / len(fold_members))
                assert abs(fold_prev - global_prev) <= 0.02

    @staticmethod
    def fold_spreads(graph, ds, plan):
        """max - min over folds of each core node's labeled members and of
        each (core node, outcome, label) stratum"""
        counts: dict[tuple, list[int]] = {}
        for r in (r for r in ds.records if r.labels):
            keys = [(nid,) for nid in graph.core_ids if nid in r.concepts]
            for key in keys + strata(r, graph):
                counts.setdefault(key, [0] * plan.k)[plan.fold_of(r.id)] += 1
        return {key: max(c) - min(c) for key, c in counts.items()}

    @pytest.mark.parametrize("seed", range(5))
    def test_synthetic_strata_within_one_of_even(self, seed):
        # at the CV k and at the validation split's k
        graph, ds = generate_synthetic(SynthConfig(seed=seed))
        for k in (5, 10):
            spreads = self.fold_spreads(graph, ds, make_folds(ds, graph, k=k, seed=seed))
            assert len(spreads) == 4 + 4 * 2 * 2
            assert max(spreads.values()) <= 1, (k, spreads)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_uneven_node_sizes_within_one_of_even(self, k):
        # node sizes that are not multiples of k: the deal alone can leave a
        # second-outcome stratum off by two, and the swaps must level it
        cfg = SynthConfig(levels=2, branching=3, records_per_node=37,
                          low_data_records=23, feature_dim=3, seed=k)
        graph, ds = generate_synthetic(cfg)
        spreads = self.fold_spreads(graph, ds, make_folds(ds, graph, k=k, seed=k))
        assert max(spreads.values()) <= 1, spreads

    def test_single_outcome_wide_tree(self):
        # nine core leaves and one outcome: the rows' label patterns come
        # out column-major and must still be read as 64-bit words
        cfg = SynthConfig(levels=3, branching=3, records_per_node=24,
                          low_data_records=12, feature_dim=4, outcomes=("event",))
        graph, ds = generate_synthetic(cfg)
        spreads = self.fold_spreads(graph, ds, make_folds(ds, graph, k=3, seed=0))
        assert max(spreads.values()) <= 1, spreads

    @pytest.mark.parametrize("k, digest", [
        (5, "177bbeec233c3d03559fd5a89c6aa3ef26373983015a59cf36a509e70e30d8d7"),
        (10, "3e390c70fda97a2ce29d10f16a6afa6a7bdeb8af81e572d00fd76eb35951e9d5")])
    def test_fold_plan_bits_are_pinned(self, k, digest):
        # sha256 of the sorted assignment as the per-record planner wrote
        # it; a change that moves a record must update it and say why
        graph, ds = generate_synthetic(SynthConfig(seed=0, records_per_node=60))
        plan = make_folds(ds, graph, k=k, seed=0)
        blob = json.dumps(sorted(plan.assignment.items())).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("cohort", ["synthetic", "overlapping", "dag"])
    def test_plan_equals_per_record_planner(self, cohort):
        graph, recs = self.cohort(cohort)
        ds = Dataset(records=recs, feature_dim=2, outcomes=graph.outcome_names())
        for seed in range(3):
            for k in (3, 5, 10):
                plan = make_folds(ds, graph, k=k, seed=seed)
                want = per_record_folds(recs, graph, k, seed)
                assert list(plan.assignment.items()) == list(want.items())

    @staticmethod
    def cohort(kind):
        """A synthetic tree cohort, or records expressing one or two core
        nodes of a diamond, or of a random DAG with two outcomes, some
        records lacking one of their labels."""
        rng = np.random.default_rng(11)
        if kind == "synthetic":
            graph, ds = generate_synthetic(SynthConfig(levels=3, branching=3,
                                                       records_per_node=23, seed=4))
            return graph, ds.records
        graph = diamond_graph() if kind == "overlapping" else \
            random_dag(rng, 9, outcomes=("event", "other"))
        if kind == "overlapping":
            from omtl.ontology import ConceptNode, OntologyGraph
            graph = OntologyGraph(
                [ConceptNode("a"), ConceptNode("b", core=True, outcomes=("event",)),
                 ConceptNode("c"), ConceptNode("d", core=True, outcomes=("event",))],
                graph.edges)
        ids = graph.ordered_ids
        recs = []
        for i in range(300):
            anchors = rng.choice(ids, size=int(rng.integers(1, 3)), replace=False)
            concepts = ancestor_closure(graph, anchors)
            outcomes = sorted({o for c in concepts for o in graph.nodes[c].outcomes})
            labels = {o: int(rng.random() < 0.3) for o in outcomes if rng.random() < 0.8}
            recs.append(Record(id=f"r{i:03d}", features=np.zeros(2),
                               concepts=concepts, labels=labels))
        return graph, recs

    def test_plan_from_columns_equals_plan_from_records(self):
        graph, ds = generate_synthetic(SynthConfig(seed=2, records_per_node=40))
        again = Dataset(records=list(ds.records), feature_dim=ds.feature_dim,
                        outcomes=ds.outcomes)
        plan = make_folds(ds.columns(graph), graph, k=5, seed=3)
        # the same folds, and the same key order in the written plan
        assert list(plan.assignment.items()) == list(
            make_folds(again, graph, k=5, seed=3).assignment.items())


class TestColumns:
    def records(self, graph, rng):
        return [make_row_record(graph, rng, anchor, labels, f"r{i}")
                for i, (anchor, labels) in enumerate(
                    [("c", {"event": 1}), ("a", {}), ("b", {"event": 0}),
                     ("c", {"other": 1, "event": 0}), ("c", {})])]

    def test_columns_equal_their_records(self, rng):
        g = chain_graph(3)
        recs = self.records(g, rng)
        cols = Columns.from_records(recs, g)
        assert cols.nodes == tuple(g.ordered_ids)
        assert cols.outcomes == ("event", "other")  # graph's, then the rest
        assert cols.ids.tolist() == [r.id for r in recs]
        for i, rec in enumerate(recs):
            assert cols.X[i].tobytes() == rec.features.tobytes()
            assert {n for n, m in zip(cols.nodes, cols.member[i]) if m} == rec.concepts
            assert {o: int(v) for o, v, has in zip(cols.outcomes, cols.labels[i],
                                                  cols.labeled[i]) if has} == rec.labels
            assert not cols.unclosed[i]

    def test_synthetic_columns_equal_records(self):
        graph, ds = generate_synthetic(SynthConfig(seed=1, records_per_node=30))
        cols = ds.columns(graph)
        assert cols.X.tobytes() == np.array([r.features for r in ds.records]).tobytes()
        col = {n: j for j, n in enumerate(cols.nodes)}
        for i, rec in enumerate(ds.records):
            assert set(np.flatnonzero(cols.member[i])) == {col[c] for c in rec.concepts}
            for k, o in enumerate(cols.outcomes):
                assert cols.labeled[i, k] == (o in rec.labels)
                assert cols.labels[i, k] == rec.labels.get(o, 0)
        assert ds.columns(graph) is cols  # built once

    def test_take_selects_rows_in_order(self, rng):
        g = chain_graph(3)
        cols = Columns.from_records(self.records(g, rng), g)
        rows = np.array([3, 0])
        part = cols.take(rows)
        assert part.ids.tolist() == ["r3", "r0"]
        assert part.X.tobytes() == cols.X[rows].tobytes()
        assert (part.labels == cols.labels[rows]).all()

    def test_unclosed_rows_marked_once(self, rng):
        g = diamond_graph()
        rec = Record(id="open", features=rng.normal(size=3),
                     concepts=frozenset({"a", "d"}), labels={})
        cols = Columns.from_records([make_row_record(g, rng, "d", {}, "shut"), rec], g)
        assert cols.unclosed.tolist() == [False, True]

    def test_unknown_concept_names_its_record(self, rng):
        rec = Record(id="x", features=np.zeros(2), concepts=frozenset({"zz"}), labels={})
        with pytest.raises(ValidationError, match="'x'.*unknown concept id 'zz'"):
            Columns.from_records([rec], chain_graph(2))


def make_row_record(graph, rng, anchor, labels, rid):
    return Record(id=rid, features=rng.normal(size=3),
                  concepts=ancestor_closure(graph, [anchor]), labels=labels)


class TestSynthetic:
    def test_default_prevalence_hits_target(self):
        cfg = SynthConfig(seed=0)
        graph, ds = generate_synthetic(cfg)
        labeled = [r for r in ds.records if r.labeled]
        prev = sum(r.labels["mortality"] for r in labeled) / len(labeled)
        assert abs(prev - 0.15) <= 0.02

    def test_structure(self):
        cfg = SynthConfig(levels=3, branching=2, records_per_node=30,
                          feature_dim=8, seed=1)
        graph, ds = generate_synthetic(cfg)
        assert len(graph.nodes) == 7
        assert len(graph.core_ids) == 4
        # only leaf-anchored records are labeled, all concept sets closed
        for r in ds.records:
            for c in r.concepts:
                assert set(graph.parents[c]) <= r.concepts
            deepest = max(graph.levels[c] for c in r.concepts)
            assert r.labeled == (deepest == 2)

    def test_low_data_node_has_fewer_records(self):
        cfg = SynthConfig(levels=2, branching=2, records_per_node=50,
                          feature_dim=4, low_data_records=10, seed=2)
        graph, ds = generate_synthetic(cfg)
        low = cfg.low_data_node or graph.core_ids[-1]
        anchored = [r for r in ds.records
                    if max(graph.levels[c] for c in r.concepts) == 1
                    and low in r.concepts]
        assert len(anchored) == 10

    def test_rho_one_shares_weights_exactly(self):
        # with rho = 1 every node's task weights equal the root's
        from omtl.rng import substream
        cfg = SynthConfig(levels=3, branching=2, records_per_node=5,
                          feature_dim=6, rho=1.0, seed=3)
        graph, ds = generate_synthetic(cfg)
        # regenerate the weight tree the same way the generator does
        rng = substream(cfg.seed, "synth")
        protos = {nid: rng.normal(0.0, 1.0, size=6) for nid in graph.ordered_ids}
        w = {}
        for nid in graph.ordered_ids:
            ps = graph.parents[nid]
            fresh = rng.normal(0.0, 1.0, size=6) / np.sqrt(6)
            w[nid] = (np.mean([w[p] for p in ps], axis=0)
                      if ps else cfg.root_weight_scale * fresh)
        root = graph.ordered_ids[0]
        for nid in graph.ordered_ids:
            assert np.allclose(w[nid], w[root])

    def test_byte_identical_regeneration(self, tmp_path):
        cfg = SynthConfig(levels=2, records_per_node=25, feature_dim=5, seed=7)
        g1, d1 = generate_synthetic(cfg)
        g2, d2 = generate_synthetic(cfg)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(d1, str(p1))
        save_dataset(d2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert g1.graph_hash() == g2.graph_hash()

    @pytest.mark.parametrize("fields, digest", [
        pytest.param({}, "1fb0ee8093486a2c8eac149350693258600eaec72f5e90269e55713cf49242ab", id="default"),
        pytest.param({"levels": 3, "branching": 2, "records_per_node": 60,
                      "feature_dim": 12, "low_data_records": 20, "seed": 3},
                     "0bc7769bf9e4cc0a2f4b349fe3c9364dd529634b451b124f837fb02e76fe84bc", id="one-class-leaf"),
        pytest.param({"levels": 4, "branching": 3, "records_per_node": 12,
                      "feature_dim": 6, "seed": 1}, "e9d7083928c23146e2e265c50fa939fa4cae9287fcfef3df7a9b5fbe664a6a9c", id="wide"),
        pytest.param({"levels": 3, "branching": 1, "records_per_node": 9,
                      "feature_dim": 3, "rho": 1.0, "outcomes": ["event"], "seed": 5},
                     "6d0e1a2f8c97d623bac3410e42245f4451379924a65287fe39fdf039a9afc046", id="chain"),
        pytest.param({"levels": 1, "records_per_node": 15, "feature_dim": 2,
                      "seed": 2}, "865142e6590f3f19d510736bfc536070dda38749ed32cf4ee417aaeb5bffaabf", id="one-node"),
        pytest.param({"levels": 2, "branching": 2, "records_per_node": 30,
                      "feature_dim": 5, "low_data_node": "n0_0",
                      "low_data_records": 4, "seed": 8}, "8ad77f4d5ec450394971247df8af21861619dc6d4295099019d19558d06354f3", id="scarce-root")])
    def test_cohort_bits_are_pinned(self, fields, digest):
        # sha256 of every record's id, feature bytes, sorted concepts and
        # labels; a change that moves a record must update it and say why
        _, ds = generate_synthetic(SynthConfig.from_json_obj(fields))
        h = hashlib.sha256()
        for r in ds.records:
            h.update(json.dumps([r.id, sorted(r.concepts), sorted(r.labels.items())])
                     .encode())
            h.update(np.ascontiguousarray(r.features, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest

    def test_unreachable_target_errors(self):
        with pytest.raises(ValidationError):
            SynthConfig(prevalence=1.5).validate()


RECORD_LINES = JSON | st.fixed_dictionaries(
    {"id": field(st.text(max_size=3)),
     "features": field(st.lists(st.floats(), min_size=2, max_size=2)),
     "concepts": field(st.lists(st.sampled_from(["a", "b", "c", "z"]), min_size=1,
                                max_size=3))},
    optional={"labels": field(st.dictionaries(st.sampled_from(["event", "other"]),
                                              field(st.sampled_from([0, 1])),
                                              max_size=2))})


@settings(derandomize=True, database=None, max_examples=400)
@given(RECORD_LINES)
def test_record_loader_returns_a_record_or_raises_validation_error(tmp_path_factory, obj):
    # any parsed JSON, and record-shaped objects whose fields may have any
    # JSON type, as the one line of a record file: a record with the
    # declared types, or ValidationError
    g = chain_graph(3)
    path = tmp_path_factory.getbasetemp() / "record.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    try:
        (rec,) = load_dataset(str(path), g).records
    except ValidationError:
        return
    assert rec.id == obj["id"] and isinstance(rec.id, str)
    assert rec.features.dtype == np.float64 and np.isfinite(rec.features).all()
    assert rec.concepts == ancestor_closure(g, obj["concepts"])
    assert all(type(v) is int and v in (0, 1) for v in rec.labels.values())


@settings(derandomize=True, database=None, max_examples=300)
@given(n_good=st.integers(1, 10), bad=st.tuples(st.integers(0, 10), st.sampled_from(BAD_LINES)),
       other=st.none() | st.tuples(st.integers(0, 11), RECORD_LINES.map(json.dumps)))
def test_chunked_loader_fails_as_the_per_line_loop(tmp_path_factory, n_good, bad, other):
    # chunks of 3 lines, so bad lines fall anywhere in a chunk and good
    # ones on both sides of chunk borders: the loader's error, or its
    # records, are those of a loop over single lines
    g = chain_graph(3)
    lines = [good_line(i) for i in range(n_good)]
    for at, line in filter(None, [bad, other]):
        lines.insert(min(at, len(lines)), line)
    path = tmp_path_factory.getbasetemp() / "chunked.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(omtl.datastore, "LOAD_CHUNK", 3)
        assert outcome(load_dataset, str(path), g) == outcome(per_line_load, str(path), g)


@pytest.mark.parametrize("chunk", [3, 1024])
def test_structural_fault_reported_before_an_earlier_non_finite_feature(
        tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(omtl.datastore, "LOAD_CHUNK", chunk)
    rows = [row(f"r{i}", ["a"]) for i in range(6)]
    rows[1]["features"][0] = float("nan")
    rows[4]["concepts"] = ["zzz"]
    with pytest.raises(ValidationError, match=r":5: unknown concept id 'zzz'"):
        load_dataset(write_jsonl(tmp_path, rows), chain_graph(3))


@pytest.mark.parametrize("fields", [dict(levels=10 ** 30), dict(levels=30, branching=3),
                                    dict(records_per_node=10 ** 30),
                                    dict(feature_dim=10 ** 9)])
def test_synth_sizes_bounded_before_allocation(fields):
    with pytest.raises(ValidationError, match="more than"):
        SynthConfig(**fields).validate()
