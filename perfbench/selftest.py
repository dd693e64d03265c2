"""Self-test of the benchmark's checks: each must reject a perturbed output.

    python3 perfbench/selftest.py

Runs one round of the benchmark's protocol on a small cohort, requires
every check to pass on the program's real outputs, then perturbs one
output at a time and requires the check of that operation to fail. Exits
0 when every perturbation is caught. Takes a few seconds.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import numpy as np

import run
from checks import CheckFailed, check_repeat
from layers import Clock

WORKLOAD = run.Workload(cohort=dict(levels=2, branching=2, records_per_node=200,
                                    feature_dim=8, low_data_records=100),
                        epochs=3)
SEED = 0


def bump(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def first_triple(r, variant: str):
    """(key, index) of the first triple of a record the score check samples."""
    rid = run.score_sample(r, SEED, variant)[0]
    for key, triples in sorted(r.variants[variant].collected.items()):
        for i, t in enumerate(triples):
            if t[0] == rid:
                return key, i
    raise LookupError(rid)


def shift_score(r, delta: float) -> None:
    key, i = first_triple(r, "omtl")
    rid, label, score = r.variants["omtl"].collected[key][i]
    r.variants["omtl"].collected[key][i] = (rid, label, score + delta)


def flip_label(r) -> None:
    key, i = first_triple(r, "omtl")
    rid, label, score = r.variants["omtl"].collected[key][i]
    r.variants["omtl"].collected[key][i] = (rid, 1 - label, score)


def drop_triple(r) -> None:
    key, i = first_triple(r, "omtl")
    del r.variants["omtl"].collected[key][i]


def uneven_folds(r) -> None:
    leaf = r.graph.core_ids[0]
    moved = [rec.id for rec in r.loaded["cohort"].records
             if leaf in rec.concepts and rec.labels
             and r.plan.assignment[rec.id] == run.HELD_FOLD][:2]
    for rid in moved:
        r.plan.assignment[rid] = 1
    r.train.records += [rec for rec in r.loaded["cohort"].records if rec.id in moved]


def leak_held(r) -> None:
    held = next(rec for rec in r.loaded["cohort"].records
                if r.plan.fold_of(rec.id) == run.HELD_FOLD)
    r.train.records.append(held)


def stall_validation(r) -> None:
    entries = r.variants["omtl"].log.entries
    for e in entries[1:]:
        e["val_total"] = entries[0]["val_total"]


def first_report(r, variant: str):
    return r.variants[variant].reports[min(r.variants[variant].reports)]


def shift_roc(r) -> None:
    roc = first_report(r, "sb").roc
    fpr, tpr = roc[1]
    roc[1] = (fpr, tpr + 1e-6)


def first_comparison(r) -> dict:
    return r.comparisons[("omtl", "mmoe")][0]


def perturbed_gradients(model, graph, batch, cfg, entries):
    grads = real_tape_gradients(model, graph, batch, cfg, entries)
    key = min(grads)
    grads[key] += 1e-3 * (1.0 + abs(grads[key]))
    return grads


real_tape_gradients = run.tape_gradients

CASES = [
    ("a loaded feature one ulp off", "load_dataset:cohort",
     lambda r: r.loaded["cohort"].records[0].features.__setitem__(
         0, bump(r.loaded["cohort"].records[0].features[0]))),
    ("two held-out members of one leaf moved to fold 1", "make_folds", uneven_folds),
    ("a held-out record also trained on", "make_folds", leak_held),
    ("an epoch missing from the log", "train_variant:omtl",
     lambda r: r.variants["omtl"].log.entries.pop()),
    ("validation loss never falls", "train_variant:omtl", stall_validation),
    ("a tape gradient off by 1e-3", "train_variant:mmoe", None),
    ("a reloaded parameter one ulp off", "save_load_model:mmoe",
     lambda r: r.variants["mmoe"].reloaded.params["repr.n0_0.b"].values.__setitem__(
         (0, 0), bump(r.variants["mmoe"].reloaded.params["repr.n0_0.b"].values[0, 0]))),
    ("a sampled score off by 1e-8", "score_holdout:omtl", lambda r: shift_score(r, 1e-8)),
    ("a scored label flipped", "score_holdout:omtl", flip_label),
    ("a scored target dropped", "score_holdout:omtl", drop_triple),
    ("an AUC off by 1e-8", "score_metrics:sb",
     lambda r: setattr(first_report(r, "sb"), "auc", first_report(r, "sb").auc + 1e-8)),
    ("an AP off by 1e-8", "score_metrics:sb",
     lambda r: setattr(first_report(r, "sb"), "aps", first_report(r, "sb").aps + 1e-8)),
    ("a ROC point off by 1e-6", "score_metrics:sb", shift_roc),
    ("a DeLong delta off by 1e-8", "compare_scored_sets:omtl-mmoe",
     lambda r: first_comparison(r).__setitem__(
         "delta_auc", first_comparison(r)["delta_auc"] + 1e-8)),
    ("a DeLong z off by 1e-6", "compare_scored_sets:omtl-mmoe",
     lambda r: first_comparison(r).__setitem__("z", first_comparison(r)["z"] * (1 + 1e-6))),
    ("a DeLong p off by 1e-6", "compare_scored_sets:omtl-mmoe",
     lambda r: first_comparison(r).__setitem__(
         "p_value", first_comparison(r)["p_value"] + 1e-6)),
]


def main() -> int:
    work = run.HERE / "work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _, digests = run.set_up(WORKLOAD, SEED, work)
        clean = run.run_round(WORKLOAD, SEED, work, Clock())
        failures = run.run_checks(
            run.independent_checks(WORKLOAD, SEED, work, clean, digests))
        for op, reason in failures.items():
            print(f"clean output rejected: {op}: {reason}")
        missed = 0
        for what, op, perturb in CASES:
            r = copy.deepcopy(clean)
            if perturb is None:
                run.tape_gradients = perturbed_gradients
            else:
                perturb(r)
            try:
                check = run.independent_checks(WORKLOAD, SEED, work, r, digests)[op]
                reason = run.run_checks({op: check}).get(op)
            finally:
                run.tape_gradients = real_tape_gradients
            missed += reason is None
            print(f"{'caught' if reason else 'MISSED'}  {op}: {what}"
                  + (f" -> {reason}" if reason else ""))
        first = run.fingerprints(clean)
        r = copy.deepcopy(clean)
        shift_score(r, 1e-15)
        again = run.fingerprints(r)
        try:
            check_repeat(first["score_holdout:omtl"], again["score_holdout:omtl"],
                         "score_holdout:omtl")
            print("MISSED  repeat: a score off by 1e-15 in a later round")
            missed += 1
        except CheckFailed as exc:
            print(f"caught  repeat: a score off by 1e-15 in a later round -> {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(CASES) + 1 - missed} of {len(CASES) + 1} perturbations caught"
          + ("; the clean round failed its checks" if failures else ""))
    return 0 if missed == 0 and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
