"""Command-line entry point.

Exit codes: 0 success, 1 validation error (bad inputs), 2 runtime or
numerical error. Human-readable messages go to stderr; machine-readable
results are written only to files. Every command that writes files also
writes a deterministic <first-output>.manifest.json (seed, input hashes,
tool version) plus a .stamp.json sidecar carrying the timestamp, so the
artifacts themselves are byte-reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .datastore import (SynthConfig, generate_synthetic, load_dataset, make_folds,
                        save_dataset)
from .errors import OmtlError, ValidationError
from .fields import json_field, read_json, write_json
from .metrics import ScoredSet, compare_scored_sets, score_metrics, two_class
from .model import VARIANTS, build_model, forward, load_model, save_model
from .ontology import GrowthConfig, grow_from_core, load_graph, save_graph
from .rng import substream
from .tensor import Tape
from .trainer import (TrainConfig, compare_variants, run_cv, score_holdout,
                      scored_set, shaping_scheme, train_variant)

# the output flags of each command that writes, its first output first:
# the manifest and its stamp are named after that one
OUTPUT_FLAGS = {"augment": ("out",), "synth": ("out_graph", "out_data"),
                "folds": ("out",), "train": ("out", "log"),
                "eval": ("report", "roc_out", "scores_out"),
                "cv": ("report", "scores_out"), "compare": ("out",)}
INPUT_FLAGS = ("graph", "data", "model", "config", "scores_a", "scores_b")
MANIFEST_SUFFIXES = {"manifest": ".manifest.json", "manifest stamp": ".manifest.stamp.json"}


def _file_hash(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _check_outputs(args: argparse.Namespace) -> None:
    """Every file a command writes must be one no input flag and no other
    write names: its output flags, and the manifest and its stamp named
    after the first output. A later write would replace the file without a
    word."""
    outputs = [("--" + name.replace("_", "-"), getattr(args, name))
               for name in OUTPUT_FLAGS.get(args.command, ()) if getattr(args, name)]
    if not outputs:
        return
    first_flag, first = outputs[0]
    outputs += [(f"the {what} of {first_flag}", first + suffix)
                for what, suffix in MANIFEST_SUFFIXES.items()]
    flag_of = {os.path.realpath(path): "--" + name.replace("_", "-")
               for name in INPUT_FLAGS if (path := getattr(args, name, None))}
    for flag, path in outputs:
        other = flag_of.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ValidationError(f"{other} and {flag} name the same file {path}")


def _write_json(path: str, obj) -> None:
    write_json(path, obj, indent=1, sort_keys=True)


def _write_outputs(args: argparse.Namespace, outputs: dict, saved=()) -> None:
    """Write each JSON output whose path was given, then the manifest of
    saved (files written already) and those outputs, named after the first."""
    written = [*saved, *(path for path in outputs if path)]
    for path in written[len(saved):]:
        _write_json(path, outputs[path])
    manifest = {
        "tool_version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "inputs": {
            name: _file_hash(getattr(args, name, None))
            for name in ("graph", "data", "config", "model")
            if getattr(args, name, None)
        },
        "outputs": {path: _file_hash(path) for path in written},
    }
    _write_json(written[0] + MANIFEST_SUFFIXES["manifest"], manifest)
    _write_json(written[0] + MANIFEST_SUFFIXES["manifest stamp"],
                {"written_at_unix": time.time()})


def _load_train_config(args) -> TrainConfig:
    cfg = TrainConfig.from_json_obj(read_json(args.config, "config")) \
        if args.config else TrainConfig()
    if getattr(args, "variant", None):
        cfg.variant = args.variant
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate_graph(args) -> int:
    g = load_graph(args.graph)
    print(f"ok: {len(g.nodes)} nodes, {len(g.edges)} edges, depth {g.depth}, "
          f"{len(g.core_ids)} core", file=sys.stderr)
    return 0


def cmd_augment(args) -> int:
    g = load_graph(args.graph)
    cfg = GrowthConfig(core_ids=tuple(args.core.split(",")),
                       max_hops=args.hops, iterations=args.iters,
                       seed=args.seed)
    sub = grow_from_core(g, cfg)
    save_graph(sub, args.out)
    _write_outputs(args, {}, saved=[args.out])
    print(f"augmented subgraph: {len(sub.nodes)} nodes "
          f"({len(cfg.core_ids)} core)", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    cfg = SynthConfig.from_json_obj(read_json(args.config, "config")) \
        if args.config else SynthConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    graph, data = generate_synthetic(cfg)
    save_graph(graph, args.out_graph)
    save_dataset(data, args.out_data)
    _write_outputs(args, {}, saved=[args.out_graph, args.out_data])
    labeled = sum(1 for r in data.records if r.labels)
    print(f"synthetic cohort: {len(data.records)} records "
          f"({labeled} labeled), {len(graph.nodes)} nodes", file=sys.stderr)
    return 0


def cmd_folds(args) -> int:
    graph = load_graph(args.graph)
    data = load_dataset(args.data, graph)
    plan = make_folds(data, graph, k=args.k, seed=args.seed)
    _write_outputs(args, {args.out: plan.to_json_obj()})
    return 0


def cmd_train(args) -> int:
    cfg = _load_train_config(args)
    graph = load_graph(args.graph)
    shaping_scheme(cfg, graph)  # its rules need no cohort: checked before reading it
    data = load_dataset(args.data, graph)
    model, log = train_variant(graph, data, cfg)
    save_model(model, args.out)
    _write_outputs(args, {args.log: log.to_json_obj()}, saved=[args.out])
    print(f"trained {cfg.variant}: {model.param_count()} parameters, "
          f"{len(log.entries)} epochs", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    graph = load_graph(args.graph)
    data = load_dataset(args.data, graph)
    model = load_model(args.model, graph)
    collected = score_holdout(model, graph, data)
    sets = {key: scored_set(key, collected[key]) for key in sorted(collected)}
    per_target = {"|".join(key): score_metrics(s).to_json_obj()
                  for key, s in two_class(sets).items()}
    report = {"per_target": per_target,
              "metadata": {"model": args.model, "n_records": len(data.records)}}
    _write_outputs(args, {args.report: report,
                          args.roc_out: {n: tm["roc"] for n, tm in per_target.items()},
                          args.scores_out: _scores_obj(sets)})
    return 0


def cmd_cv(args) -> int:
    cfg = _load_train_config(args)
    graph = load_graph(args.graph)
    variants = args.variants.split(",")
    if "omtl" in variants:
        shaping_scheme(replace(cfg, variant="omtl"), graph)
    data = load_dataset(args.data, graph)
    if len(variants) == 1:
        cfg.variant = variants[0]
        result = run_cv(graph, data, cfg, k=args.k)
        obj = result.to_json_obj()
        scores = {v: result for v in variants}
    else:
        results, comparisons = compare_variants(graph, data, cfg, variants,
                                                k=args.k)
        obj = {"variants": {v: r.to_json_obj() for v, r in results.items()},
               "comparisons": comparisons}
        scores = results
    _write_outputs(args, {args.report: obj, args.scores_out: {
        v: _scores_obj(r.pooled) for v, r in scores.items()}})
    return 0


def _scores_obj(sets: dict[tuple[str, str], ScoredSet]) -> dict:
    """Score-file form of scored sets: {"node|outcome": {ids, labels, scores}}."""
    return {"|".join(key): {"ids": list(s.ids), "labels": s.labels.tolist(),
                            "scores": s.scores.tolist()}
            for key, s in sets.items()}


def _load_scores_file(path: str) -> dict[str, ScoredSet]:
    obj = read_json(path, "scores")
    if not isinstance(obj, dict):
        raise ValidationError(f"scores {path} must be a JSON object")
    out = {}
    for name, entry in obj.items():
        where = f"scores {path}: target {name!r}"
        ids = json_field(entry, "ids", "list[str]", where, default=None)
        node, _, outcome = name.partition("|")
        scores = json_field(entry, "scores", "list[float]", where)
        if not np.isfinite(scores).all():
            raise ValidationError(f"{where}: scores must be finite numbers")
        if ids is not None and len(ids) != len(scores):
            raise ValidationError(f"{where}: {len(ids)} ids for {len(scores)} scores")
        out[name] = ScoredSet(scores=scores,
                              labels=json_field(entry, "labels", "list[int]", where),
                              node=node, outcome=outcome,
                              ids=None if ids is None else tuple(ids))
    return out


def cmd_compare(args) -> int:
    sets_a = _load_scores_file(args.scores_a)
    sets_b = _load_scores_file(args.scores_b)
    names = args.reports.split(",") if args.reports else ["a", "b"]
    name_a = names[0]
    name_b = names[1] if len(names) > 1 else "b"
    shared = sorted(two_class(sets_a).keys() & two_class(sets_b).keys())
    if not shared:
        raise ValidationError("the two score files share no (node, outcome) target "
                              "that holds both classes")
    comparisons = [compare_scored_sets(sets_a[key], sets_b[key], name_a, name_b)
                   for key in shared]
    _write_outputs(args, {args.out: {"comparisons": comparisons}})
    return 0


def cmd_gradcheck(args) -> int:
    # self-contained finite-difference audit of the full pipeline gradient
    from .datastore import Columns
    from .model import BatchPlan, ModelSpec
    from .objective import batch_loss
    from .ontology import ConceptNode, OntologyGraph, ancestor_closure

    rng = substream(args.seed, "gradcheck")
    nodes = [ConceptNode("a", core=False),
             ConceptNode("b", core=True, outcomes=("event",)),
             ConceptNode("c", core=True, outcomes=("event",))]
    graph = OntologyGraph(nodes, [("a", "b"), ("a", "c"), ("b", "c")])
    spec = ModelSpec(variant="omtl", num_experts=2, feature_dim=7, repr_dim=3,
                     dropout=0.0)
    model = build_model(spec, graph, seed=args.seed)
    # one record per anchor, the b-anchored one unlabeled: node b's rows mix
    # labeled and unlabeled records and c gathers a subset of b's rows
    anchors = ("a", "b", "c")
    cols = Columns.build([f"r_{a}" for a in anchors],
                         np.array([rng.normal(size=7) for _ in anchors]),
                         [ancestor_closure(graph, [a]) for a in anchors], [0, 1, 2],
                         [{"event": 0}, {}, {"event": 1}], graph)
    batch = BatchPlan(model, cols).batch(0)

    def loss():
        return batch_loss(forward(model, batch, "train"), 0.1)

    with Tape() as tape:
        breakdown = loss()
    tape.backward(breakdown.loss)
    grads = tape.gradients(model.params)

    h = 1e-5
    worst = 0.0
    for name, p in model.params.items():
        flat = p.values.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss().total
            flat[i] = keep - h
            down = loss().total
            flat[i] = keep
            numeric = (up - down) / (2 * h)
            analytic = grads[name].ravel()[i]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    print(f"gradcheck: max relative error {worst:.3e}", file=sys.stderr)
    return 0 if worst < 1e-4 else 2


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omtl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-graph", help="check a graph file")
    p.add_argument("--graph", required=True)
    p.set_defaults(handler=cmd_validate_graph)

    p = sub.add_parser("augment", help="grow a core-anchored subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--core", required=True, help="comma-separated core node ids")
    p.add_argument("--hops", type=int, default=GrowthConfig.max_hops)
    p.add_argument("--iters", type=int, default=GrowthConfig.iterations)
    p.add_argument("--seed", type=int, default=GrowthConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-data", required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("folds", help="build a stratified fold plan")
    p.add_argument("--data", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_folds)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--graph", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="score a dataset with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--roc-out", default=None)
    p.add_argument("--scores-out", default=None)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("cv", help="cross-validate one or more variants")
    p.add_argument("--graph", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--variants", default="omtl")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--scores-out", default=None)
    p.set_defaults(handler=cmd_cv)

    p = sub.add_parser("compare", help="DeLong-test two score files")
    p.add_argument("--reports", default=None,
                   help="comma-separated display names for the two models")
    p.add_argument("--scores-a", required=True)
    p.add_argument("--scores-b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every loss and gradient is checked for finiteness, so numpy's
        # floating-point warnings would only repeat the error line
        with np.errstate(all="ignore"):
            _check_outputs(args)
            return args.handler(args)
    except OmtlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValidationError) else 2


def main() -> None:
    sys.exit(dispatch())
