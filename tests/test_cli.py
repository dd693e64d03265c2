import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import omtl
from omtl.cli import dispatch
from omtl.datastore import SynthConfig, generate_synthetic, save_dataset
from omtl.ontology import GrowthConfig, grow_from_core, save_graph

from conftest import chain_graph, random_dag
from test_trainer import multi_parent_cohort


@pytest.fixture
def workdir(tmp_path):
    graph_path = tmp_path / "graph.json"
    data_path = tmp_path / "data.jsonl"
    cfg = SynthConfig(levels=2, branching=2, records_per_node=30,
                      feature_dim=8, low_data_records=30, seed=0)
    graph, data = generate_synthetic(cfg)
    save_graph(graph, str(graph_path))
    save_dataset(data, str(data_path))
    return tmp_path


def test_validate_graph_ok(workdir):
    assert dispatch(["validate-graph", "--graph", str(workdir / "graph.json")]) == 0


def test_validate_graph_cycle_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [{"parent": "a", "child": "b"},
                  {"parent": "b", "child": "a"}]}))
    assert dispatch(["validate-graph", "--graph", str(bad)]) == 1
    assert "cycle" in capsys.readouterr().err


def test_long_cycle_named_by_length_and_first_nodes(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(LONG_CYCLE))
    assert dispatch(["validate-graph", "--graph", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.rstrip("\n")) < 200 and "cycle of 2999 nodes" in err


@pytest.mark.parametrize("graph, code", [("graph.json", 0), ("cycle.json", 1)])
def test_python_m_omtl_runs_the_command_line(workdir, graph, code):
    _json_file(workdir, "cycle.json", LONG_CYCLE)
    src = str(Path(omtl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "omtl", "validate-graph", "--graph",
                          str(workdir / graph)], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == code, run.stderr
    assert run.stderr.startswith("error: ") == bool(code)


def test_unknown_flag_rejected(workdir):
    with pytest.raises(SystemExit):
        dispatch(["validate-graph", "--graph", str(workdir / "graph.json"),
                  "--frobnicate"])


def test_augment_writes_subgraph_and_manifest(tmp_path):
    g = chain_graph(4)
    src = tmp_path / "chain.json"
    save_graph(g, str(src))
    out = tmp_path / "sub.json"
    rc = dispatch(["augment", "--graph", str(src), "--core", "d",
                   "--hops", "2", "--iters", "50", "--seed", "3",
                   "--out", str(out)])
    assert rc == 0
    sub = json.loads(out.read_text())
    assert {n["id"] for n in sub["nodes"]} == {"b", "c", "d"}
    manifest = json.loads((tmp_path / "sub.json.manifest.json").read_text())
    assert manifest["seed"] == 3
    assert (tmp_path / "sub.json.manifest.stamp.json").exists()


def test_synth_folds_train_eval_pipeline(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "levels": 2, "branching": 2, "records_per_node": 30,
        "feature_dim": 8, "low_data_records": 30}))
    gp, dp = tmp_path / "g.json", tmp_path / "d.jsonl"
    assert dispatch(["synth", "--config", str(synth_cfg), "--seed", "1",
                     "--out-graph", str(gp), "--out-data", str(dp)]) == 0

    fp = tmp_path / "folds.json"
    assert dispatch(["folds", "--data", str(dp), "--graph", str(gp),
                     "--k", "3", "--seed", "2", "--out", str(fp)]) == 0
    plan = json.loads(fp.read_text())
    assert plan["k"] == 3

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "max_epochs": 2, "patience": 1, "batch_size": 16,
        "num_experts": 2, "repr_dim": 3, "val_fraction": 0.0}))
    mp, lp = tmp_path / "model.json", tmp_path / "log.json"
    assert dispatch(["train", "--graph", str(gp), "--data", str(dp),
                     "--config", str(train_cfg), "--variant", "mmoe",
                     "--seed", "5", "--out", str(mp), "--log", str(lp)]) == 0
    assert json.loads(lp.read_text())["entries"]

    rp = tmp_path / "report.json"
    sp = tmp_path / "scores.json"
    assert dispatch(["eval", "--model", str(mp), "--graph", str(gp),
                     "--data", str(dp), "--report", str(rp),
                     "--roc-out", str(tmp_path / "roc.json"),
                     "--scores-out", str(sp)]) == 0
    report = json.loads(rp.read_text())
    assert report["per_target"]
    for entry in report["per_target"].values():
        assert 0.0 <= entry["auc"] <= 1.0


def test_train_rerun_byte_identical_model(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "levels": 2, "branching": 2, "records_per_node": 24,
        "feature_dim": 6, "low_data_records": 24}))
    gp, dp = tmp_path / "g.json", tmp_path / "d.jsonl"
    dispatch(["synth", "--config", str(synth_cfg), "--seed", "1",
              "--out-graph", str(gp), "--out-data", str(dp)])
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "max_epochs": 2, "patience": 1, "batch_size": 16,
        "num_experts": 2, "repr_dim": 3, "val_fraction": 0.0}))
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for out in (m1, m2):
        assert dispatch(["train", "--graph", str(gp), "--data", str(dp),
                         "--config", str(train_cfg), "--variant", "omtl",
                         "--seed", "7", "--out", str(out)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_compare_runs_delong_on_score_files(tmp_path):
    rng = np.random.default_rng(0)
    labels = (rng.random(80) < 0.4).astype(int).tolist()
    ids = [f"r{i}" for i in range(80)]
    a = {"leaf|event": {"ids": ids, "labels": labels,
                        "scores": rng.random(80).tolist()}}
    b = {"leaf|event": {"ids": ids, "labels": labels,
                        "scores": rng.random(80).tolist()}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    out = tmp_path / "cmp.json"
    rc = dispatch(["compare", "--reports", "omtl,mmoe",
                   "--scores-a", str(pa), "--scores-b", str(pb),
                   "--out", str(out)])
    assert rc == 0
    cmp_obj = json.loads(out.read_text())
    row = cmp_obj["comparisons"][0]
    assert row["model_a"] == "omtl"
    assert 0.0 <= row["p_value"] <= 1.0


def test_cv_multi_variant_report(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "levels": 2, "branching": 2, "records_per_node": 30,
        "feature_dim": 6, "low_data_records": 30}))
    gp, dp = tmp_path / "g.json", tmp_path / "d.jsonl"
    dispatch(["synth", "--config", str(synth_cfg), "--seed", "2",
              "--out-graph", str(gp), "--out-data", str(dp)])
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "max_epochs": 1, "patience": 1, "batch_size": 16,
        "num_experts": 2, "repr_dim": 3, "val_fraction": 0.0}))
    rp = tmp_path / "cv.json"
    rc = dispatch(["cv", "--graph", str(gp), "--data", str(dp),
                   "--config", str(train_cfg), "--variants", "sb,mmoe",
                   "--k", "2", "--seed", "3", "--report", str(rp)])
    assert rc == 0
    obj = json.loads(rp.read_text())
    assert set(obj["variants"]) == {"sb", "mmoe"}
    assert obj["comparisons"]


# the trained variants of the pinned pipeline: (name, --variant, train config)
PIPELINE_RUNS = [
    ("omtl", "omtl", {}),
    ("mmoe", "mmoe", {}),
    ("sb", "sb", {}),
    ("omtl-shaped", "omtl", {"reward_f": 0.5}),
]


def _artifact_digest(path: Path) -> str:
    """sha256 of a written file; a manifest is hashed without its path
    fields (the output paths it keys its hashes by)."""
    if not path.name.endswith(".manifest.json"):
        return hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = json.loads(path.read_text())
    manifest["outputs"] = sorted(manifest["outputs"].values())
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def _pipeline_digest(cohort: str) -> str:
    """Run folds, train, eval, cv and compare on cohort in the working
    directory, with relative paths, and hash every file written but the
    timestamp sidecars."""
    if cohort == "tree":
        synth = _json_file(Path("."), "synth.json", {
            "levels": 3, "branching": 3, "records_per_node": 24, "feature_dim": 24,
            "low_data_records": 12, "outcomes": ["event"]})
        assert dispatch(["synth", "--config", synth, "--seed", "4",
                         "--out-graph", "graph.json", "--out-data", "data.jsonl"]) == 0
    else:
        graph, data = multi_parent_cohort()
        save_graph(graph, "graph.json")
        save_dataset(data, "data.jsonl")
    cohort_args = ["--graph", "graph.json", "--data", "data.jsonl"]
    assert dispatch(["folds", *cohort_args, "--k", "3", "--seed", "2",
                     "--out", "folds.json"]) == 0
    base = {"max_epochs": 3, "patience": 1, "batch_size": 64, "num_experts": 2,
            "repr_dim": 3}
    for name, variant, extra in PIPELINE_RUNS:
        config = _json_file(Path("."), f"{name}.train.json", {**base, **extra})
        assert dispatch(["train", *cohort_args, "--config", config, "--variant",
                         variant, "--seed", "5", "--out", f"{name}.model.json",
                         "--log", f"{name}.log.json"]) == 0
        assert dispatch(["eval", "--model", f"{name}.model.json", *cohort_args,
                         "--report", f"{name}.report.json", "--roc-out",
                         f"{name}.roc.json", "--scores-out", f"{name}.scores.json"]) == 0
    config = _json_file(Path("."), "cv.train.json", {**base, "max_epochs": 2})
    assert dispatch(["cv", *cohort_args, "--config", config, "--variants",
                     "omtl,mmoe,sb", "--k", "2", "--seed", "3", "--report", "cv.json",
                     "--scores-out", "cv.scores.json"]) == 0
    assert dispatch(["compare", "--reports", "omtl,mmoe", "--scores-a",
                     "omtl.scores.json", "--scores-b", "mmoe.scores.json",
                     "--out", "compare.json"]) == 0
    digests = {path.name: _artifact_digest(path) for path in sorted(Path(".").iterdir())
               if not path.name.endswith(".stamp.json")}
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


@pytest.mark.slow
@pytest.mark.parametrize("cohort, digest", [
    pytest.param("tree", "5117de74fb9731900cd48ceefda2f78d437bea8be06703e0214b6aade4fe1289",
                 id="tree"),
    pytest.param("multi-parent",
                 "7e34bfd49c5d57111a805df3f0041eaf3d1b27aecc2ab2db004b6dbe439a7f93",
                 id="multi-parent")])
def test_cli_artifacts_are_pinned(tmp_path, monkeypatch, cohort, digest):
    # every file a synth/folds/train/eval/cv/compare pipeline writes, over
    # omtl, mmoe, sb and reward-shaped omtl: trained bits, scores, reports
    # and manifests stay byte-identical
    monkeypatch.chdir(tmp_path)
    assert _pipeline_digest(cohort) == digest


# n2_3, the low-data leaf of this cohort, has 20 phenotype labels, all 0
ONE_CLASS = "n2_3|phenotype"


@pytest.fixture
def one_class_cohort(tmp_path):
    config = _json_file(tmp_path, "synth.json", {
        "levels": 3, "branching": 2, "records_per_node": 60, "feature_dim": 12,
        "low_data_records": 20})
    assert dispatch(["synth", "--config", config, "--seed", "3",
                     "--out-graph", str(tmp_path / "graph.json"),
                     "--out-data", str(tmp_path / "data.jsonl")]) == 0
    return tmp_path


def _two_class(scores: dict) -> set[str]:
    return {name for name, entry in scores.items()
            if 0 < sum(entry["labels"]) < len(entry["labels"])}


def test_one_class_target_is_scored_but_not_measured(one_class_cohort):
    w = one_class_cohort
    for variant in ("omtl", "mmoe"):
        assert dispatch(_train_on(w, _quick_config(w), out=f"{variant}.json")
                        + ["--variant", variant]) == 0
        assert dispatch(_eval_on(w, w / f"{variant}.json", report=f"{variant}.r.json",
                                 scores_out=f"{variant}.s.json")) == 0
    scores = json.loads((w / "omtl.s.json").read_text())
    assert scores[ONE_CLASS]["labels"] == [0] * 20
    assert ONE_CLASS not in _two_class(scores)
    report = json.loads((w / "omtl.r.json").read_text())
    assert set(report["per_target"]) == _two_class(scores)
    assert dispatch(["compare", "--scores-a", str(w / "omtl.s.json"), "--scores-b",
                     str(w / "mmoe.s.json"), "--out", str(w / "c.json")]) == 0
    compared = json.loads((w / "c.json").read_text())["comparisons"]
    assert {f"{c['node']}|{c['outcome']}" for c in compared} == _two_class(scores)


@pytest.mark.parametrize("variants", ["omtl", "omtl,mmoe"])
def test_cv_with_a_one_class_target(one_class_cohort, variants):
    w = one_class_cohort
    assert dispatch(["cv", "--graph", str(w / "graph.json"),
                     "--data", str(w / "data.jsonl"), "--config", _quick_config(w),
                     "--variants", variants, "--k", "3", "--report", str(w / "cv.json"),
                     "--scores-out", str(w / "s.json")]) == 0
    report = json.loads((w / "cv.json").read_text())
    scores = json.loads((w / "s.json").read_text())
    for v in variants.split(","):
        assert scores[v][ONE_CLASS]["labels"] == [0] * 20
        result = report["variants"][v] if "," in variants else report
        assert set(result["pooled"]["per_target"]) == _two_class(scores[v])
    if "," in variants:
        compared = {f"{c['node']}|{c['outcome']}" for c in report["comparisons"]}
        assert compared == _two_class(scores["omtl"])


def test_gradcheck_exit_zero(capsys):
    # its line is pinned too: the audit differences the very loss it tapes
    for seed, error in ((0, "2.232e-06"), (7, "1.709e-07")):
        capsys.readouterr()
        assert dispatch(["gradcheck", "--seed", str(seed)]) == 0
        assert capsys.readouterr().err == f"gradcheck: max relative error {error}\n"


def _without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


def _json_file(workdir, name: str, obj) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj))
    return str(path)


def _quick_config(workdir, max_epochs: int = 1) -> str:
    return _json_file(workdir, "train.json", {"max_epochs": max_epochs,
                                              "num_experts": 2, "repr_dim": 2})


def _train_on(workdir, config, out="m.json", log=None) -> list[str]:
    return ["train", "--graph", str(workdir / "graph.json"),
            "--data", str(workdir / "data.jsonl"), "--config", str(config),
            "--out", str(workdir / out)] + (["--log", str(workdir / log)] if log else [])


def _synth_on(workdir, config, out_data="d2.jsonl") -> list[str]:
    return ["synth", "--config", str(config), "--out-graph", str(workdir / "g2.json"),
            "--out-data", str(workdir / out_data)]


def _good_model(workdir):
    good = workdir / "good_model.json"
    assert dispatch(_train_on(workdir, _quick_config(workdir, max_epochs=0),
                              out=good.name)) == 0
    return good


def _eval_on(workdir, model, report="r.json", scores_out=None) -> list[str]:
    return (["eval", "--model", str(model), "--graph", str(workdir / "graph.json"),
             "--data", str(workdir / "data.jsonl"), "--report", str(workdir / report)]
            + (["--scores-out", str(workdir / scores_out)] if scores_out else []))


def _compare_on(workdir, scores_b, out="cmp.json") -> list[str]:
    good = {"ids": ["r0", "r1"], "labels": [0, 1], "scores": [0.2, 0.7]}
    pa = workdir / "a.json"
    pa.write_text(json.dumps({"leaf|event": good}))
    return ["compare", "--scores-a", str(pa), "--scores-b", str(scores_b),
            "--out", str(workdir / out)]


def _folds_on(workdir, path, out="f.json") -> list[str]:
    return ["folds", "--data", str(path), "--graph", str(workdir / "graph.json"),
            "--out", str(workdir / out)]


def _validate_graph_on(workdir, path) -> list[str]:
    return ["validate-graph", "--graph", str(path)]


def _bad_train_config(workdir, cfg: dict) -> list[str]:
    return _train_on(workdir, _json_file(workdir, "bad_train.json", cfg))


def _bad_synth_config(workdir, cfg: dict) -> list[str]:
    return _synth_on(workdir, _json_file(workdir, "bad_synth.json", cfg))


def _bad_model_file(workdir, edit) -> list[str]:
    bad = workdir / "bad_model.json"
    bad.write_text(json.dumps(edit(json.loads(_good_model(workdir).read_text()))))
    return _eval_on(workdir, bad)


def _bad_scores_file(workdir, entry) -> list[str]:
    return _compare_on(workdir, _json_file(workdir, "b.json", {"leaf|event": entry}))


def _scores_against_itself(workdir, entry) -> list[str]:
    """compare of a one-target scores file with itself, so that a fault
    the two files share is the only one."""
    path = _json_file(workdir, "b.json", {"leaf|event": entry})
    return ["compare", "--scores-a", path, "--scores-b", path,
            "--out", str(workdir / "cmp.json")]


def _bad_records_file(workdir, line: str) -> list[str]:
    path = workdir / "bad.jsonl"
    path.write_text(line + "\n")
    return _folds_on(workdir, path)


def _edit_first_record(workdir, **fields) -> list[str]:
    """folds on the work directory's records, the first with fields set;
    every line else is valid, so only the edit can fail."""
    lines = (workdir / "data.jsonl").read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **fields})
    path = workdir / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return _folds_on(workdir, path)


def _bad_graph_file(workdir, edit) -> list[str]:
    """validate-graph on the work directory's graph file as edited by edit."""
    path = workdir / "bad_graph.json"
    path.write_text(json.dumps(edit(json.loads((workdir / "graph.json").read_text()))))
    return _validate_graph_on(workdir, path)


# the command that reads each kind of input file, given its path
READERS = {"graph": _validate_graph_on, "records": _folds_on,
           "train config": _train_on, "synth config": _synth_on,
           "model": _eval_on, "scores": _compare_on}


def _raw_input(workdir, kind: str, data: bytes) -> list[str]:
    path = workdir / f"raw_{kind.replace(' ', '_')}"
    path.write_bytes(data)
    return READERS[kind](workdir, path)


# far deeper than the JSON parser's recursion limit
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
# a 400-digit integer: valid JSON, too large for a float
HUGE = 10 ** 400
# an output path in a directory that does not exist
MISSING_DIR = "no_such_dir/out.json"
# written by json.dumps as the non-standard tokens NaN and Infinity
NAN, INF = float("nan"), float("inf")
# a 3,000-node chain closed into a cycle by the edge v02999 -> v00001
_CHAIN = [f"v{i:05d}" for i in range(3000)]
LONG_CYCLE = {"nodes": [{"id": v} for v in _CHAIN],
              "edges": [{"parent": p, "child": c}
                        for p, c in zip(_CHAIN, _CHAIN[1:] + ["v00001"])]}


def _edit_core_node(obj: dict, field: str, value) -> dict:
    """The graph obj with field of its first core node set to value."""
    nodes = list(obj["nodes"])
    i = next(i for i, node in enumerate(nodes) if node["core"])
    nodes[i] = {**nodes[i], field: value}
    return {**obj, "nodes": nodes}


def _set_param_values(obj: dict, values) -> dict:
    obj["params"]["expert.00.b"]["values"] = values
    return obj


def _edit_params(obj: dict, edit) -> dict:
    params = dict(obj["params"])
    edit(params)
    return {**obj, "params": params}


def _on_cohort(workdir, command: str, nodes: dict, *flags: str) -> list[str]:
    """command on a graph file of unlinked core nodes, nodes mapping each
    id to its outcomes, and a records file of eight records per node, each
    labeling its node's outcomes 0 and 1 in turn."""
    graph = {"nodes": [{"id": n, "core": True, "outcomes": o} for n, o in nodes.items()]}
    data = workdir / "cohort.jsonl"
    data.write_text("".join(
        json.dumps({"id": f"{n}-{i}", "features": [i / 8, 1 - i / 8, 0.5],
                    "concepts": [n], "labels": {o: i % 2 for o in outcomes}}) + "\n"
        for n, outcomes in nodes.items() for i in range(8)))
    return [command, "--graph", _json_file(workdir, "cohort_graph.json", graph),
            "--data", str(data), *flags]


def _model_heads_named_alike(workdir) -> list[str]:
    """eval with a model file whose outcome_map gives node x the outcome
    y.z, so that its head and node x.y's head z share one name."""
    nodes, model = {"x": ["m"], "x.y": ["z"]}, str(workdir / "alike_model.json")
    assert dispatch(_on_cohort(workdir, "train", nodes, "--config", _quick_config(workdir),
                               "--out", model)) == 0
    obj = json.loads(Path(model).read_text())
    obj["outcome_map"]["x"] = ["m", "y.z"]
    Path(model).write_text(json.dumps(obj))
    return _on_cohort(workdir, "eval", nodes, "--model", model,
                      "--report", str(workdir / "r.json"))


def _routed_mmoe(obj: dict) -> dict:
    """An omtl model file relabelled mmoe, without its parent gates but
    with routing still on."""
    params = {n: e for n, e in obj["params"].items() if not n.startswith("parent_gate.")}
    return {**obj, "spec": {**obj["spec"], "variant": "mmoe"}, "params": params,
            "hierarchy_enabled": True}


BAD_INPUTS = {
    "train batch_size as string": lambda w: _bad_train_config(w, {"batch_size": "64"}),
    "train negative lr": lambda w: _bad_train_config(w, {"lr": -1}),
    "train bool for int": lambda w: _bad_train_config(w, {"max_epochs": True}),
    "train config not an object": lambda w: _bad_train_config(w, [1, 2]),
    "train zero repr_dim": lambda w: _bad_train_config(w, {"repr_dim": 0}),
    "synth zero records per node": lambda w: _bad_synth_config(w, {"records_per_node": 0}),
    "synth zero feature dim": lambda w: _bad_synth_config(w, {"feature_dim": 0}),
    "synth negative low-data records":
        lambda w: _bad_synth_config(w, {"low_data_records": -5}),
    "synth outcomes not strings": lambda w: _bad_synth_config(w, {"outcomes": [1]}),
    "model without graph_hash": lambda w: _bad_model_file(w, lambda o: _without(o, "graph_hash")),
    "model without params": lambda w: _bad_model_file(w, lambda o: _without(o, "params")),
    "model spec field mistyped": lambda w: _bad_model_file(
        w, lambda o: {**o, "spec": {**o["spec"], "num_experts": "2"}}),
    "model values of wrong size": lambda w: _bad_model_file(
        w, lambda o: _set_param_values(o, [0.0])),
    "model values not numbers": lambda w: _bad_model_file(
        w, lambda o: _set_param_values(o, ["x", "y"])),
    "model zero repr_dim": lambda w: _bad_model_file(
        w, lambda o: {**o, "spec": {**o["spec"], "repr_dim": 0}}),
    "model without a repr weight": lambda w: _bad_model_file(
        w, lambda o: _edit_params(o, lambda p: p.pop("repr.n0_0.w"))),
    "model outcome without head": lambda w: _bad_model_file(
        w, lambda o: {**o, "outcome_map": {**o["outcome_map"], "n0_0": ["mortality"]}}),
    "model parameter misshaped": lambda w: _bad_model_file(
        w, lambda o: _edit_params(o, lambda p: p.update(
            {"expert.00.b": {"shape": [2, 1], "values": [0.0, 0.0]}}))),
    "model routed without parent gates": lambda w: _bad_model_file(
        w, _routed_mmoe),
    "model unexpected parameter": lambda w: _bad_model_file(
        w, lambda o: _edit_params(o, lambda p: p.update(
            {"extra.w": {"shape": [1, 1], "values": [0.0]}}))),
    "records file missing": lambda w: _folds_on(w, w / "missing.jsonl"),
    "record features not numbers": lambda w: _bad_records_file(
        w, '{"id": "x", "features": "abc", "concepts": ["n0_0"]}'),
    "record concepts not a list": lambda w: _bad_records_file(
        w, '{"id": "x", "features": [1.0], "concepts": 5}'),
    "record labels not an object": lambda w: _bad_records_file(
        w, '{"id": "x", "features": [1.0], "concepts": ["n0_0"], "labels": [1]}'),
    "scores without scores": lambda w: _bad_scores_file(
        w, {"ids": ["r0", "r1"], "labels": [0, 1]}),
    "scores labels not ints": lambda w: _bad_scores_file(
        w, {"ids": ["r0", "r1"], "labels": ["0", "1"], "scores": [0.1, 0.9]}),
    "scores entry not an object": lambda w: _bad_scores_file(w, [0.1, 0.9]),
    "scores ids of another length": lambda w: _scores_against_itself(
        w, {"ids": ["r0"], "labels": [0, 1], "scores": [0.1, 0.9]}),
    "graph nodes not a list": lambda w: _bad_graph_file(w, lambda o: {**o, "nodes": 5}),
    "graph outcomes not a list": lambda w: _bad_graph_file(
        w, lambda o: _edit_core_node(o, "outcomes", 5)),
    "graph edges not a list": lambda w: _bad_graph_file(w, lambda o: {**o, "edges": 5}),
    "graph core as a string": lambda w: _bad_graph_file(
        w, lambda o: _edit_core_node(o, "core", "false")),
    "graph outcomes as a string": lambda w: _bad_graph_file(
        w, lambda o: _edit_core_node(o, "outcomes", "mort")),
    "train lr of 400 digits": lambda w: _bad_train_config(w, {"lr": HUGE}),
    "synth noise_scale of 400 digits": lambda w: _bad_synth_config(w, {"noise_scale": HUGE}),
    "model values of 400 digits": lambda w: _bad_model_file(
        w, lambda o: _set_param_values(o, [HUGE, 0.0])),
    "scores of 400 digits": lambda w: _bad_scores_file(
        w, {"ids": ["r0", "r1"], "labels": [0, 1], "scores": [HUGE, 0.5]}),
    "record features of 400 digits": lambda w: _edit_first_record(w, features=[HUGE] * 8),
    "scores label of 400 digits": lambda w: _bad_scores_file(
        w, {"ids": ["r0", "r1"], "labels": [HUGE, 1], "scores": [0.1, 0.9]}),
    "train num_experts too large": lambda w: _bad_train_config(w, {"num_experts": 10 ** 30}),
    "train repr_dim too large": lambda w: _bad_train_config(w, {"repr_dim": 10 ** 30}),
    "model num_experts too large": lambda w: _bad_model_file(
        w, lambda o: {**o, "spec": {**o["spec"], "num_experts": 10 ** 30}}),
    "synth levels too large": lambda w: _bad_synth_config(w, {"levels": 10 ** 30}),
    "synth levels and branching too large": lambda w: _bad_synth_config(
        w, {"levels": 30, "branching": 3}),
    "synth records_per_node too large": lambda w: _bad_synth_config(
        w, {"records_per_node": 10 ** 30}),
    "record id as a number": lambda w: _edit_first_record(w, id=5),
    "record id as a list": lambda w: _edit_first_record(w, id=["x"]),
    "record label true": lambda w: _edit_first_record(w, labels={"mortality": True}),
    "record label 1.0": lambda w: _edit_first_record(w, labels={"mortality": 1.0}),
    "record features as booleans": lambda w: _edit_first_record(
        w, features=[True, False] * 4),
    "record features as strings": lambda w: _edit_first_record(w, features=["1.5"] * 8),
    "record labels null": lambda w: _edit_first_record(w, labels=None),
    "record features with a null": lambda w: _edit_first_record(
        w, features=[None] + [0.5] * 7),
    "model shape with a null": lambda w: _bad_model_file(
        w, lambda o: _edit_params(o, lambda p: p.update(
            {"expert.00.b": {**p["expert.00.b"], "shape": [None, 5]}}))),
    "augment out in a missing directory": lambda w: [
        "augment", "--graph", str(w / "graph.json"), "--core", "n1_0",
        "--out", str(w / MISSING_DIR)],
    "synth out-data in a missing directory": lambda w: _synth_on(
        w, _json_file(w, "synth.json", {"levels": 2, "records_per_node": 5}),
        out_data=MISSING_DIR),
    "folds out is a directory": lambda w: _folds_on(w, w / "data.jsonl", out="."),
    "train log in a missing directory": lambda w: _train_on(
        w, _quick_config(w), log=MISSING_DIR),
    "eval scores-out in a missing directory": lambda w: _eval_on(
        w, _good_model(w), scores_out=MISSING_DIR),
    "cv report in a missing directory": lambda w: [
        "cv", "--graph", str(w / "graph.json"), "--data", str(w / "data.jsonl"),
        "--config", _quick_config(w), "--k", "2", "--report", str(w / MISSING_DIR)],
    "train lam NaN": lambda w: _bad_train_config(w, {"lam": NAN}),
    "train leaky_slope NaN": lambda w: _bad_train_config(w, {"leaky_slope": NAN}),
    "train lr Infinity": lambda w: _bad_train_config(w, {"lr": INF}),
    "train lr 1e999": lambda w: _raw_input(w, "train config", b'{"lr": 1e999}'),
    "model leaky_slope NaN": lambda w: _bad_model_file(
        w, lambda o: {**o, "spec": {**o["spec"], "leaky_slope": NAN}}),
    "model values NaN": lambda w: _bad_model_file(
        w, lambda o: _set_param_values(o, [NAN, 0.0])),
    "scores NaN": lambda w: _bad_scores_file(
        w, {"ids": ["r0", "r1"], "labels": [0, 1], "scores": [NAN, 0.5]}),
    "augment negative iters": lambda w: [
        "augment", "--graph", str(w / "graph.json"), "--core", "n1_0",
        "--iters", "-5", "--out", str(w / "sub.json")],
    "cv variant repeated": lambda w: [
        "cv", "--graph", str(w / "graph.json"), "--data", str(w / "data.jsonl"),
        "--config", _quick_config(w), "--k", "2", "--variants", "sb,sb",
        "--report", str(w / "cv.json")],
    "cv variant unknown": lambda w: [
        "cv", "--graph", str(w / "graph.json"), "--data", str(w / "data.jsonl"),
        "--config", _quick_config(w), "--k", "2", "--variants", "omtl,mmoe,bogus",
        "--report", str(w / "cv.json")],
    "graph with a 3,000-node cycle": lambda w: [
        "validate-graph", "--graph", _json_file(w, "cycle.json", LONG_CYCLE)],
    "compare no two-class target": lambda w: _bad_scores_file(
        w, {"ids": ["r0", "r1"], "labels": [1, 1], "scores": [0.4, 0.6]}),
    "synth seed 2**32": lambda w: _synth_on(
        w, _json_file(w, "synth.json", {"levels": 2, "records_per_node": 5})) + [
        "--seed", str(2 ** 32)],
    "train seed -1": lambda w: _train_on(w, _quick_config(w)) + ["--seed", "-1"],
    "folds seed 2**32": lambda w: _folds_on(w, w / "data.jsonl") + ["--seed", str(2 ** 32)],
    "augment seed -1": lambda w: [
        "augment", "--graph", str(w / "graph.json"), "--core", "n1_0", "--seed", "-1",
        "--out", str(w / "sub.json")],
    "compare out in a missing directory": lambda w: _compare_on(
        w, _json_file(w, "b.json", {"leaf|event": {
            "ids": ["r0", "r1"], "labels": [0, 1], "scores": [0.4, 0.6]}}),
        out=MISSING_DIR),
    # head parameters are named node.outcome: x.y's z and x's y.z would share one
    "train heads named alike": lambda w: _on_cohort(
        w, "train", {"x.y": ["z"], "x": ["y.z"]}, "--config", _quick_config(w),
        "--out", str(w / "m.json")),
    "model heads named alike": _model_heads_named_alike,
    # report targets are named node|outcome: both of these would be a|b|c
    "cv report targets named alike": lambda w: _on_cohort(
        w, "cv", {"a|b": ["c"], "a": ["b|c"]}, "--config", _quick_config(w), "--k", "2",
        "--variants", "sb", "--report", str(w / "cv.json")),
    "synth empty outcome name": lambda w: _bad_synth_config(w, {"outcomes": [""]}),
}
for _kind in READERS:
    BAD_INPUTS[f"{_kind} not UTF-8"] = \
        lambda w, kind=_kind: _raw_input(w, kind, b'{"id": "\xff"}')
    BAD_INPUTS[f"{_kind} nested too deeply"] = \
        lambda w, kind=_kind: _raw_input(w, kind, DEEP_JSON)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_with_one_line(workdir, capsys, case):
    argv = BAD_INPUTS[case](workdir)
    capsys.readouterr()
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("case, seed", [("synth seed 2**32", 2 ** 32),
                                        ("train seed -1", -1),
                                        ("folds seed 2**32", 2 ** 32),
                                        ("augment seed -1", -1)])
def test_seed_outside_32_bits_is_named(workdir, capsys, case, seed):
    # a seed is not reduced to 32 bits, where it would repeat another's streams
    argv = BAD_INPUTS[case](workdir)
    capsys.readouterr()
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**32), got {seed}\n"


@pytest.mark.parametrize("command", ["train", "cv"])
def test_train_config_is_checked_before_the_cohort_is_read(workdir, capsys, command):
    config = _json_file(workdir, "bad_train.json", {"dropout": 1.5})
    out = ["--out", str(workdir / "m.json")] if command == "train" else \
        ["--report", str(workdir / "cv.json")]
    capsys.readouterr()
    assert dispatch([command, "--graph", str(workdir / "graph.json"), "--data",
                     str(workdir / "missing.jsonl"), "--config", config, *out]) == 1
    assert capsys.readouterr().err == "error: dropout must be in [0, 1), got 1.5\n"


def _on_missing_data(workdir, command: str, config: dict, *flags: str) -> list[str]:
    out = ["--out", str(workdir / "m.json")] if command == "train" else \
        ["--report", str(workdir / "cv.json")]
    return [command, "--graph", str(workdir / "graph.json"), "--data",
            str(workdir / "missing.jsonl"), "--config",
            _json_file(workdir, "train.json", config), *out, *flags]


@pytest.mark.parametrize("command", ["train", "cv"])
@pytest.mark.parametrize("config, message", [
    pytest.param({"reward_f": 5}, "reward exponent f must be in [-1, 1], got 5.0",
                 id="range"),
    pytest.param({"reward_f": 0.5}, "reward shaping needs a single shared outcome; "
                 "graph declares ['mortality', 'phenotype']", id="one-outcome")])
def test_reward_f_is_checked_before_the_cohort_is_read(workdir, capsys, command,
                                                       config, message):
    capsys.readouterr()
    assert dispatch(_on_missing_data(workdir, command, config)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, flags, shaped", [
    ("train", ["--variant", "sb"], False),
    ("cv", ["--variants", "sb,mmoe"], False),
    ("cv", ["--variants", "sb,omtl"], True)])
def test_one_outcome_rule_binds_omtl_only(workdir, capsys, command, flags, shaped):
    # reward shaping is omtl's phase 2: without omtl, the cohort is read first
    capsys.readouterr()
    assert dispatch(_on_missing_data(workdir, command, {"reward_f": 0.5}, *flags)) == 1
    err = capsys.readouterr().err
    assert ("reward shaping needs a single shared outcome" in err) == shaped
    assert ("cannot read records" in err) == (not shaped)


def _cv_on(workdir, scores_out) -> list[str]:
    return ["cv", "--graph", str(workdir / "graph.json"), "--data",
            str(workdir / "data.jsonl"), "--report", str(workdir / "cv.json"),
            "--scores-out", str(workdir / scores_out)]


def _copy_of_data(workdir, name: str):
    path = workdir / name
    path.write_bytes((workdir / "data.jsonl").read_bytes())
    return path


# a command whose outputs name a file twice, or name one of its inputs: its
# argv, and the flags of the two names, in the order the message gives them
SHARED_OUTPUTS = {
    "synth": (lambda w: _synth_on(w, _json_file(w, "synth.json", {"levels": 2}),
                                  out_data="g2.json"), "--out-graph", "--out-data"),
    "train": (lambda w: _train_on(w, _quick_config(w), out="m.json", log="m.json"),
              "--out", "--log"),
    "eval": (lambda w: _eval_on(w, w / "m.json", report="r.json")
             + ["--roc-out", str(w / "r.json")], "--report", "--roc-out"),
    "cv": (lambda w: ["cv", "--graph", str(w / "graph.json"), "--data",
                      str(w / "data.jsonl"), "--report", str(w / "cv.json"),
                      "--scores-out", f"{w}/./cv.json"], "--report", "--scores-out"),
    # outputs over inputs
    "folds-over-data": (lambda w: _folds_on(w, w / "data.jsonl", out="data.jsonl"),
                        "--data", "--out"),
    "folds-over-graph": (lambda w: _folds_on(w, w / "data.jsonl", out="graph.json"),
                         "--graph", "--out"),
    "augment-over-graph": (lambda w: ["augment", "--graph", str(w / "graph.json"),
                                      "--core", "n1_0", "--out", str(w / "graph.json")],
                           "--graph", "--out"),
    "synth-over-config": (lambda w: _synth_on(w, _json_file(w, "synth.json", {}),
                                              out_data="synth.json"),
                          "--config", "--out-data"),
    "train-over-config": (lambda w: _train_on(w, _quick_config(w), out="train.json"),
                          "--config", "--out"),
    "eval-over-model": (lambda w: _eval_on(w, _json_file(w, "m.json", {}), report="m.json"),
                        "--model", "--report"),
    "cv-over-data": (lambda w: _cv_on(w, "data.jsonl"), "--data", "--scores-out"),
    "compare-over-scores-a": (lambda w: _compare_on(w, _json_file(w, "b.json", {}),
                                                    out="a.json"), "--scores-a", "--out"),
    "compare-over-scores-b": (lambda w: _compare_on(w, _json_file(w, "b.json", {}),
                                                    out="b.json"), "--scores-b", "--out"),
    # the manifest and its stamp, named after the first output
    "train-log-over-manifest": (lambda w: _train_on(w, _quick_config(w), out="m.json",
                                                    log="m.json.manifest.json"),
                                "--log", "the manifest of --out"),
    "cv-scores-over-stamp": (lambda w: _cv_on(w, "cv.json.manifest.stamp.json"),
                             "--scores-out", "the manifest stamp of --report"),
    "folds-manifest-over-data": (
        lambda w: _folds_on(w, _copy_of_data(w, "f.json.manifest.json"), out="f.json"),
        "--data", "the manifest of --out"),
}


@pytest.mark.parametrize("command", sorted(SHARED_OUTPUTS))
def test_two_outputs_naming_one_file_exit_1(workdir, capsys, command):
    # checked before any work: no file is written, not even the first
    # output, and no input is changed
    make_argv, first, second = SHARED_OUTPUTS[command]
    argv = make_argv(workdir)
    before = {path.name: path.read_bytes() for path in workdir.iterdir()}
    capsys.readouterr()
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {first} and {second} name the same file ")
    assert len(err.splitlines()) == 1
    assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before


@pytest.mark.parametrize("config, message", [
    pytest.param({"repr_dim": 0}, "feature_dim and repr_dim must be >= 1, got 8 and 0",
                 id="repr_dim"),
    pytest.param({"num_experts": 10 ** 30},
                 "feature_dim=8 and repr_dim=5 would hold more than", id="num_experts")])
def test_model_dimension_checks_name_the_cohorts_feature_dim(workdir, capsys, config,
                                                             message):
    # the checks that name feature_dim wait for the cohort, whose dimension is 8
    capsys.readouterr()
    assert dispatch(_bad_train_config(workdir, config)) == 1
    assert message in capsys.readouterr().err


def test_augment_defaults_are_the_growth_config_defaults(tmp_path):
    # a walk from the core of a random DAG: the result depends on hops,
    # iterations and seed, so the command's defaults must be the library's
    g = random_dag(np.random.default_rng(4), 30, edge_prob=0.3)
    core = g.ordered_ids[-1]
    src, out = tmp_path / "g.json", tmp_path / "sub.json"
    save_graph(g, str(src))
    assert dispatch(["augment", "--graph", str(src), "--core", core,
                     "--out", str(out)]) == 0
    library = tmp_path / "library.json"
    save_graph(grow_from_core(g, GrowthConfig(core_ids=(core,))), str(library))
    assert out.read_bytes() == library.read_bytes()
    fewer = grow_from_core(g, GrowthConfig(core_ids=(core,), iterations=3))
    assert len(fewer.nodes) < len(json.loads(library.read_text())["nodes"])


@pytest.mark.parametrize("config", [
    pytest.param({"lr": 1e308}, id="lr-1e308"),
    pytest.param({"lr": 1e300, "max_epochs": 1, "batch_size": 70}, id="diverged-run")])
def test_numerical_failure_exits_2_with_one_line(tmp_path, config):
    # in a subprocess: pytest would capture numpy's warnings in-process
    cohort = SynthConfig(levels=2, branching=2, records_per_node=30, feature_dim=4,
                         low_data_records=10, seed=1)
    graph, data = generate_synthetic(cohort)
    save_graph(graph, str(tmp_path / "graph.json"))
    save_dataset(data, str(tmp_path / "data.jsonl"))
    argv = _train_on(tmp_path, _json_file(tmp_path, "train.json", config))
    src = str(Path(omtl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", "from omtl.cli import main; main()",
                          *argv], capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 2, run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr
