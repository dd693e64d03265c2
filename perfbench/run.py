"""End-to-end benchmark of omtl: one workload, timed, with checked outputs.

    python3 perfbench/run.py --workload paper-default --seed 0 --seconds 30 --trace 0

Set-up generates the workload's cohort from --seed with the package's
synthetic generator and writes the graph and JSONL files; it runs at least
three times and for SETUP_SECONDS, and `setup_s` is the median. The timed
part then repeats whole rounds of the path a `cv` + `eval` user takes,
through the package's public calls only: load the graph and cohort, plan
k=5 folds, train omtl (both phases), mmoe and sb on the training folds,
save and reload each model, score the held-out records, compute AUC/AP/ROC
per target and DeLong-test every pair of variants. A new round starts only
while the rounds are expected to end within --seconds, not counting the
checks; every metric is the median over rounds. End-to-end times are
reference seconds: CPU seconds of this process rescaled by the median of
host-speed probes run before each span (layers.py).
Per-layer times are plain CPU seconds.

Every round's outputs are checked (see checks.py): the first round against
independent computations, later rounds for exact equality with the first.
An operation whose output fails its check, or that raises, counts as
failed. With --trace 1 the trainer's step machinery is wrapped (layers.py)
and the per-layer metrics are printed instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Generated files live in perfbench/work/
while the run lasts and are removed when it ends.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads: the rates then do not depend
# on what else shares the machine's cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "omtl").is_dir():
    sys.exit(f"perfbench: no omtl package under {SRC}")
sys.path.insert(0, str(SRC))
try:
    import numpy as np

    from omtl.datastore import (Dataset, SynthConfig, generate_synthetic,
                                load_dataset, make_folds, save_dataset)
    from omtl.metrics import ScoredSet, compare_scored_sets, score_metrics
    from omtl.model import load_model, save_model
    from omtl.ontology import load_graph, save_graph
    from omtl.tensor import Tape
    from omtl.trainer import (TrainConfig, evaluate_loss, score_holdout,
                              train_variant)
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the omtl package from {SRC}: {exc}")

from checks import (CheckFailed, ReferenceModel, check_delong, check_folds,
                    check_gradients, check_load, check_reload, check_report,
                    check_repeat, check_scores, check_training,
                    dataset_digest, params_digest, require)
from layers import (PROBE_REFERENCE_S, Clock, cpu_seconds, host_probe,
                    traced_training)


@dataclass(frozen=True)
class Workload:
    cohort: dict              # SynthConfig fields other than the seed
    epochs: int               # per phase; patience equals it, so no early stop
    bulk: dict | None = None  # a larger cohort, scored in place of the held-out fold


WORKLOADS = {
    # the paper's setting: a 7-node binary tree, 3,200 records, a 200-record
    # low-data leaf; per-op overhead of tiny matrices sets the step time
    "paper-default": Workload(cohort={}, epochs=3),
    # 40 nodes, 27 core leaves, 1,580 records: a batch spans many more
    # signature groups and Adam sees ~5x the parameters. Half the default's
    # records, so that a run holds enough rounds for a steady median
    "wide-ontology": Workload(
        cohort=dict(levels=4, branching=3, records_per_node=40,
                    low_data_records=20), epochs=2),
    # a short training budget, then 15,200 records of the same generator to
    # parse, score and rank: IO, eval forwards and metrics dominate
    "bulk-scoring": Workload(cohort={}, epochs=2,
                             bulk=dict(records_per_node=2_500)),
}
VARIANTS = ("omtl", "mmoe", "sb")
PAIRS = tuple((a, b) for i, a in enumerate(VARIANTS) for b in VARIANTS[i + 1:])
K = 5
HELD_FOLD = 0
LR = 0.002           # the acceptance suite's learning rate
SETUP_REPEATS = 3    # at least; more while set-ups have taken under
SETUP_SECONDS = 3.0  # this many wall seconds, so a small cohort's median is steady
GRAD_BATCH = 64      # records in the finite-difference batch
GRAD_ENTRIES = 8     # parameter entries checked per variant
SCORE_SAMPLE = 48    # held-out records per variant run through ReferenceModel

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s",
    "omtl_train_records_per_s": "records/s",
    "mmoe_train_records_per_s": "records/s",
    "sb_train_records_per_s": "records/s",
    "score_records_per_s": "records/s",
    "load_records_per_s": "records/s",
    "peak_rss_mib": "MiB",
}
PER_VARIANT_UNITS = {
    "tensor.ops_per_step": "ops", "trainer.forward_loss_ms": "ms",
    "tensor.backward_ms": "ms", "trainer.optimizer_ms": "ms",
    "trainer.steps": "steps", "trainer.monitor_s": "s",
}
PER_LAYER_UNITS = {f"{name}.{v}": unit for name, unit in PER_VARIANT_UNITS.items()
                   for v in VARIANTS}
PER_LAYER_UNITS.update({
    "datastore.folds_s": "s", "datastore.load_s": "s", "model.io_s": "s",
    "trainer.score_s": "s", "metrics.report_s": "s", "metrics.delong_s": "s",
})


def operations(wl: Workload) -> list[str]:
    """The public calls one round makes, each checked as one operation."""
    ops = ["load_dataset:cohort"] + (["load_dataset:bulk"] if wl.bulk else [])
    ops.append("make_folds")
    for v in VARIANTS:
        ops += [f"train_variant:{v}", f"save_load_model:{v}",
                f"score_holdout:{v}", f"score_metrics:{v}"]
    ops += [f"compare_scored_sets:{a}-{b}" for a, b in PAIRS]
    return ops


# ---------------------------------------------------------------------------
# set-up and one round


def set_up(wl: Workload, seed: int, work: Path) -> tuple[float, dict[str, str]]:
    """Generate and write the cohort(s); returns CPU seconds and record digests."""
    started = cpu_seconds()
    graph, data = generate_synthetic(SynthConfig(seed=seed, **wl.cohort))
    save_graph(graph, str(work / "graph.json"))
    save_dataset(data, str(work / "cohort.jsonl"))
    cohorts = {"cohort": data}
    if wl.bulk is not None:
        _, bulk = generate_synthetic(SynthConfig(seed=seed, **wl.bulk))
        save_dataset(bulk, str(work / "bulk.jsonl"))
        cohorts["bulk"] = bulk
    seconds = cpu_seconds() - started
    return seconds, {name: dataset_digest(d.records) for name, d in cohorts.items()}


def scored_set(key: tuple[str, str], triples) -> ScoredSet:
    """Triples in record-id order, as `omtl eval` writes them."""
    triples = sorted(triples)
    return ScoredSet(scores=np.array([t[2] for t in triples]),
                     labels=np.array([t[1] for t in triples]),
                     node=key[0], outcome=key[1],
                     ids=tuple(t[0] for t in triples))


@dataclass
class Trained:
    cfg: TrainConfig
    model: object
    log: object
    reloaded: object
    collected: dict
    sets: dict
    reports: dict


@dataclass
class Round:
    graph: object
    loaded: dict
    plan: object
    train: Dataset
    held: list
    variants: dict
    comparisons: dict
    seconds: float


def run_round(wl: Workload, seed: int, work: Path, clock: Clock) -> Round:
    started = cpu_seconds()
    graph = load_graph(str(work / "graph.json"))
    with clock.span("datastore.load"):
        data = load_dataset(str(work / "cohort.jsonl"), graph)
    loaded = {"cohort": data}
    with clock.span("datastore.folds"):
        plan = make_folds(data, graph, k=K, seed=seed)
    train = Dataset(records=[r for r in data.records
                             if plan.fold_of(r.id) != HELD_FOLD],
                    feature_dim=data.feature_dim, outcomes=data.outcomes)
    held = [r for r in data.records if plan.fold_of(r.id) == HELD_FOLD]
    if wl.bulk is not None:
        with clock.span("datastore.load"):
            loaded["bulk"] = load_dataset(str(work / "bulk.jsonl"), graph)
        held = loaded["bulk"].records

    variants = {}
    for v in VARIANTS:
        cfg = TrainConfig(variant=v, lr=LR, max_epochs=wl.epochs,
                          patience=wl.epochs, seed=seed)
        with clock.span(f"train.{v}"), clock.training(v):
            model, log = train_variant(graph, train, cfg)
        path = str(work / f"{v}.model.json")
        with clock.span("model.io"):
            save_model(model, path)
            reloaded = load_model(path, graph)
        with clock.span("trainer.score"):
            collected = score_holdout(reloaded, graph, held)
        sets = {key: scored_set(key, t) for key, t in sorted(collected.items())}
        with clock.span("metrics.report"):
            reports = {key: score_metrics(s) for key, s in sets.items()
                       if 0 < s.n_pos < s.n}
        variants[v] = Trained(cfg, model, log, reloaded, collected, sets, reports)

    comparisons = {}
    with clock.span("metrics.delong"):
        for a, b in PAIRS:
            shared = sorted(set(variants[a].reports) & set(variants[b].reports))
            comparisons[(a, b)] = [
                compare_scored_sets(variants[a].sets[key], variants[b].sets[key], a, b)
                for key in shared]
    return Round(graph, loaded, plan, train, held, variants, comparisons,
                 cpu_seconds() - started)


# ---------------------------------------------------------------------------
# checks


def tape_gradients(model, graph, batch, cfg, entries) -> dict:
    """The tape's d(eval loss)/d(entry) for (param name, flat index) entries."""
    with Tape() as tape:
        breakdown = evaluate_loss(model, graph, batch, cfg, None)
    tape.backward(breakdown.loss)
    return {(name, idx): float(tape.gradient(model.params[name]).ravel()[idx])
            for name, idx in entries}


def loss_probe(model, graph, batch, cfg):
    """loss_at(name, idx, delta) for check_gradients: eval loss with one
    parameter entry shifted, restored exactly afterwards."""
    def loss_at(name: str, idx: int, delta: float) -> float:
        values = model.params[name].values
        keep = values.flat[idx]
        values.flat[idx] = keep + delta
        try:
            return evaluate_loss(model, graph, batch, cfg, None).total
        finally:
            values.flat[idx] = keep
    return loss_at


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(tag.encode())])


def gradient_entries(model, seed: int, variant: str) -> list[tuple[str, int]]:
    rng = _rng(seed, f"grad.{variant}")
    names = sorted(model.params)
    picked = rng.choice(len(names), size=min(GRAD_ENTRIES, len(names)), replace=False)
    return [(names[i], int(rng.integers(model.params[names[i]].values.size)))
            for i in sorted(picked)]


def gradient_batch(r: Round, seed: int) -> list:
    """A seeded sample of training records, labeled and unlabeled mixed."""
    ordered = sorted(r.train.records, key=lambda rec: rec.id)
    picked = _rng(seed, "grad.batch").choice(
        len(ordered), size=min(GRAD_BATCH, len(ordered)), replace=False)
    return [ordered[i] for i in sorted(picked)]


def score_sample(r: Round, seed: int, variant: str) -> list[str]:
    labeled = sorted(rec.id for rec in r.held if rec.labels)
    rng = _rng(seed, f"score.{variant}")
    picked = rng.choice(len(labeled), size=min(SCORE_SAMPLE, len(labeled)),
                        replace=False)
    return [labeled[i] for i in sorted(picked)]


def epoch_budget(wl: Workload, variant: str) -> dict[str, int]:
    if variant == "omtl":
        return {"phase1": wl.epochs, "phase2": wl.epochs}
    return {"single": wl.epochs}


def independent_checks(wl: Workload, seed: int, work: Path, r: Round,
                       digests: dict[str, str]) -> dict:
    """One zero-argument check per operation, for the first round."""
    graph_obj = json.loads((work / "graph.json").read_text(encoding="utf-8"))
    checks = {f"load_dataset:{name}": (lambda name=name: check_load(
        r.loaded[name].records, digests[name])) for name in r.loaded}
    train_ids = {rec.id for rec in r.train.records}
    held_ids = {rec.id for rec in r.loaded["cohort"].records
                if r.plan.fold_of(rec.id) == HELD_FOLD}
    checks["make_folds"] = lambda: check_folds(
        r.plan.assignment, r.loaded["cohort"].records, train_ids, held_ids,
        graph_obj, K)
    batch = gradient_batch(r, seed)
    for v, t in r.variants.items():
        def train_check(v=v, t=t):
            require(t.log.train_record_ids <= train_ids,
                    "the trainer stepped records outside the training folds")
            check_training(t.log.entries, epoch_budget(wl, v))
            entries = gradient_entries(t.model, seed, v)
            check_gradients(tape_gradients(t.model, r.graph, batch, t.cfg, entries),
                            loss_probe(t.model, r.graph, batch, t.cfg))

        def score_check(v=v, t=t):
            model_obj = json.loads((work / f"{v}.model.json").read_text(encoding="utf-8"))
            check_scores(t.collected, r.held, score_sample(r, seed, v),
                         ReferenceModel(model_obj, graph_obj))

        def metrics_check(t=t):
            for key, tm in t.reports.items():
                check_report(t.sets[key].scores, t.sets[key].labels, tm)

        checks[f"train_variant:{v}"] = train_check
        checks[f"save_load_model:{v}"] = lambda t=t: check_reload(
            {n: p.values for n, p in t.model.params.items()},
            {n: p.values for n, p in t.reloaded.params.items()},
            t.model.hierarchy_enabled, t.reloaded.hierarchy_enabled)
        checks[f"score_holdout:{v}"] = score_check
        checks[f"score_metrics:{v}"] = metrics_check
    for a, b in PAIRS:
        def delong_check(a=a, b=b):
            for cmp in r.comparisons[(a, b)]:
                key = (cmp["node"], cmp["outcome"])
                sa, sb = r.variants[a].sets[key], r.variants[b].sets[key]
                check_delong(sa.scores, sb.scores, sa.labels, cmp)
        checks[f"compare_scored_sets:{a}-{b}"] = delong_check
    return checks


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def fingerprints(r: Round) -> dict[str, str]:
    """Per operation, a digest of everything it produced."""
    out = {f"load_dataset:{name}": dataset_digest(d.records)
           for name, d in r.loaded.items()}
    out["make_folds"] = _digest(sorted(r.plan.assignment.items()))
    for v, t in r.variants.items():
        out[f"train_variant:{v}"] = _digest(t.log.final_param_hash, t.log.entries)
        out[f"save_load_model:{v}"] = params_digest(
            {n: p.values for n, p in t.reloaded.params.items()})
        out[f"score_holdout:{v}"] = _digest(*[
            x for key, triples in sorted(t.collected.items())
            for x in (key, [(rid, label) for rid, label, _ in triples],
                      np.array([score for _, _, score in triples]))])
        out[f"score_metrics:{v}"] = _digest(*[
            x for key, tm in t.reports.items()
            for x in (key, tm.auc, tm.aps, tm.n, tm.n_pos, np.asarray(tm.roc))])
    for pair, cmps in r.comparisons.items():
        out["compare_scored_sets:{}-{}".format(*pair)] = _digest(cmps)
    return out


def run_checks(checks: dict) -> dict[str, str]:
    """Run each operation's check; returns operation -> reason for failures."""
    failures = {}
    for op, check in checks.items():
        try:
            check()
        except CheckFailed as exc:
            failures[op] = str(exc)
        except Exception as exc:  # a check that crashes on the output rejects it
            failures[op] = f"{type(exc).__name__}: {exc}"
    return failures


# ---------------------------------------------------------------------------
# metrics


def end_to_end(r: Round, clock: Clock) -> dict[str, float]:
    """In reference seconds (see layers.py); run_s leaves the probes out."""
    scale = clock.reference_scale()
    totals = clock.totals
    out = {"run_s": (r.seconds - sum(clock.probes)) * scale}
    for v, t in r.variants.items():
        stepped = len(r.train.records) * len(t.log.entries)
        out[f"{v}_train_records_per_s"] = stepped / (totals[f"train.{v}"] * scale)
    out["score_records_per_s"] = (len(VARIANTS) * len(r.held)
                                  / (totals["trainer.score"] * scale))
    loaded = sum(len(d.records) for d in r.loaded.values())
    out["load_records_per_s"] = loaded / (totals["datastore.load"] * scale)
    return out


def per_layer(totals: dict) -> dict[str, float]:
    out = {}
    for v in VARIANTS:
        steps = totals[f"trainer.steps.{v}"]
        out[f"tensor.ops_per_step.{v}"] = totals[f"tensor.ops.{v}"] / steps
        out[f"trainer.forward_loss_ms.{v}"] = 1e3 * totals[f"trainer.forward_loss_s.{v}"] / steps
        out[f"tensor.backward_ms.{v}"] = 1e3 * totals[f"tensor.backward_s.{v}"] / steps
        out[f"trainer.optimizer_ms.{v}"] = 1e3 * totals[f"trainer.optimizer_s.{v}"] / steps
        out[f"trainer.steps.{v}"] = steps
        out[f"trainer.monitor_s.{v}"] = totals[f"trainer.monitor_s.{v}"]
    for name in ("datastore.folds", "datastore.load", "model.io",
                 "trainer.score", "metrics.report", "metrics.delong"):
        out[f"{name}_s"] = totals[name]
    return out


def median_of(samples: list[dict], units: dict[str, str]) -> dict:
    return {name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
            for name, unit in units.items()}


# ---------------------------------------------------------------------------
# one run


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            work: Path) -> tuple[dict, int, int]:
    setups, setup_probes = [], []
    started = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - started < SETUP_SECONDS:
        setup_probes.append(host_probe())
        setups.append(set_up(wl, seed, work))
    digests = setups[-1][1]
    ops = operations(wl)
    clock = Clock()
    samples: list[dict] = []
    probes: list[float] = []  # per round, the median host probe
    attempted = failed = 0
    first: dict[str, str] | None = None
    measured = 0.0  # wall seconds spent in rounds; checks and gc are outside
    with traced_training(clock) if trace else contextlib.nullcontext():
        while True:
            gc.collect()  # the last round's garbage is not this round's work
            clock.clear()
            attempted += len(ops)
            round_started = time.perf_counter()
            try:
                r = run_round(wl, seed, work, clock)
            except Exception:
                traceback.print_exc()
                failed += len(ops)
                break
            round_wall = time.perf_counter() - round_started
            measured += round_wall
            if first is None:
                failures = run_checks(independent_checks(wl, seed, work, r, digests))
                first = fingerprints(r)
            else:
                again = fingerprints(r)
                failures = run_checks({op: (lambda op=op: check_repeat(
                    first[op], again[op], op)) for op in ops})
            for op, reason in failures.items():
                print(f"perfbench: round {len(samples) + 1}: {op} failed: {reason}",
                      file=sys.stderr)
            failed += len(failures)
            samples.append(end_to_end(r, clock) | (per_layer(clock.totals)
                                                   if trace else {}))
            probes.append(statistics.median(clock.probes))
            print(f"perfbench: round {len(samples)}: {r.seconds:.3f} CPU s",
                  file=sys.stderr)
            del r
            if measured + round_wall > seconds:
                break
    if not samples:
        return {}, attempted, failed
    print(f"perfbench: {len(samples)} rounds, median run_s "
          f"{statistics.median(s['run_s'] for s in samples):.4f} s, median host "
          f"probe {1e3 * statistics.median(probes):.3f} ms against "
          f"{1e3 * PROBE_REFERENCE_S:.1f} ms ({'traced' if trace else 'untraced'})",
          file=sys.stderr)
    if trace:
        return median_of(samples, PER_LAYER_UNITS), attempted, failed
    metrics = median_of(samples, {n: u for n, u in END_TO_END_UNITS.items()
                                  if n not in ("setup_s", "peak_rss_mib")})
    metrics["setup_s"] = {"value": statistics.median(s for s, _ in setups)
                          * PROBE_REFERENCE_S / statistics.median(setup_probes),
                          "unit": "s"}
    metrics["peak_rss_mib"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MiB"}
    return {n: metrics[n] for n in END_TO_END_UNITS}, attempted, failed


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, attempted, failed = measure(WORKLOADS[args.workload], args.seed,
                                             args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print("perfbench: no round completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
