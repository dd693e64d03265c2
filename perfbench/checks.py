"""Independent checks of the benchmark's outputs.

Each check takes what the program produced and compares it with a
computation that shares no code with the program: a plain-numpy forward
pass written from the model's equations, pairwise Mann-Whitney counts, an
explicit threshold sweep, the O(mn) DeLong structural components, central
finite differences, and counting properties of the fold plan. A check
raises CheckFailed with a one-line reason; `selftest.py` shows that each
one rejects a perturbed output.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SCORE_TOL = 1e-9
METRIC_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# datasets and fold plans


def dataset_digest(records) -> str:
    """Order-sensitive digest of ids, exact feature bits, concepts, labels."""
    h = hashlib.sha256()
    for r in records:
        h.update(r.id.encode())
        h.update(np.ascontiguousarray(r.features, dtype=np.float64).tobytes())
        h.update("|".join(sorted(r.concepts)).encode())
        h.update(repr(sorted(r.labels.items())).encode())
    return h.hexdigest()


def check_load(records, expected_digest: str) -> None:
    """The loaded records are exactly the ones set-up generated and wrote."""
    require(dataset_digest(records) == expected_digest,
            "loaded records differ from the generated cohort")


def check_folds(assignment: dict, records, train_ids: set, held_ids: set,
                graph_obj: dict, k: int) -> None:
    """Train and held-out ids split the cohort; every core node's labeled
    members and every (core node, outcome, label) stratum is within one of
    even across the k folds."""
    all_ids = {r.id for r in records}
    require(not train_ids & held_ids,
            f"{len(train_ids & held_ids)} records both trained on and held out")
    require(train_ids | held_ids == all_ids,
            "train and held-out records do not cover the cohort")
    require(set(assignment) == all_ids, "fold plan does not cover the cohort")
    require(all(0 <= f < k for f in assignment.values()),
            "fold index out of range")
    outcomes = {n["id"]: n["outcomes"] for n in graph_obj["nodes"] if n["core"]}
    counts: dict[tuple, list[int]] = {}
    for r in records:
        if not r.labels:
            continue
        fold = assignment[r.id]
        for nid in r.concepts:
            if nid not in outcomes:
                continue
            keys = [(nid,)] + [(nid, o, r.labels[o]) for o in outcomes[nid]
                               if o in r.labels]
            for key in keys:
                counts.setdefault(key, [0] * k)[fold] += 1
    for key, c in sorted(counts.items()):
        require(max(c) - min(c) <= 1, f"stratum {key} spread over folds {c}")


# ---------------------------------------------------------------------------
# training


def check_training(entries: list[dict], phases: dict[str, int]) -> None:
    """Each phase ran exactly its epoch budget, and some later epoch's
    monitored validation loss fell below the first epoch's."""
    for phase, epochs in phases.items():
        ran = sum(e["phase"] == phase for e in entries)
        require(ran == epochs, f"phase {phase} ran {ran} epochs, expected {epochs}")
    require(len(entries) == sum(phases.values()),
            f"log has {len(entries)} epochs, expected {sum(phases.values())}")
    vals = [e["val_total"] for e in entries]
    require(all(math.isfinite(v) for v in vals), "a validation loss is not finite")
    require(min(vals[1:]) < vals[0],
            f"validation loss never fell below its first epoch's: {vals}")


def check_gradients(analytic: dict, loss_at, h: float = 1e-6) -> None:
    """Tape gradients against finite differences of the eval loss.

    analytic maps (param name, flat index) to the tape's derivative;
    loss_at(name, index, delta) returns the loss with that entry shifted by
    delta. Central differences are tried first. Where a ReLU kink lies
    within the step, the one-sided difference on the kink-free side still
    matches, so either side agreeing is accepted.
    """
    for (name, idx), a in sorted(analytic.items()):
        central = (loss_at(name, idx, h) - loss_at(name, idx, -h)) / (2 * h)
        if abs(a - central) <= 1e-7 + 1e-5 * abs(a):
            continue
        base, hs = loss_at(name, idx, 0.0), h / 10
        right = (loss_at(name, idx, hs) - base) / hs
        left = (base - loss_at(name, idx, -hs)) / hs
        require(min(abs(a - right), abs(a - left)) <= 1e-6 + 1e-4 * abs(a),
                f"gradient of {name}[{idx}]: tape {a:.10g}, central "
                f"difference {central:.10g}")


# ---------------------------------------------------------------------------
# saved models and scores


def params_digest(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name]).tobytes())
    return h.hexdigest()


def check_reload(trained: dict, reloaded: dict, trained_flag: bool,
                 reloaded_flag: bool) -> None:
    """A saved and reloaded model holds bit-identical parameters."""
    require(sorted(trained) == sorted(reloaded),
            "reloaded model has different parameter names")
    for name in sorted(trained):
        require(np.array_equal(trained[name], reloaded[name]),
                f"reloaded parameter {name} differs")
    require(trained_flag == reloaded_flag,
            "reloaded model has a different routing switch")


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class ReferenceModel:
    """Eval-mode outcome probabilities from a saved model file and the
    model's equations, one record at a time and without the tape:

        h_e  = leaky_relu(x W_e + b_e)                     experts
        m_n  = sum_e softmax(x G_n + g_n)_e h_e            mmoe, omtl
             = h_0                                         sb
        m_n += sum_p softmax(x P_n + q_n)_p r_p            omtl, routing on
        r_n  = softplus(m_n R_n + s_n)
        y_no = sigmoid(r_n W_no + c_no)                    labeled core heads
    """

    def __init__(self, model_obj: dict, graph_obj: dict):
        spec = model_obj["spec"]
        self.variant = spec["variant"]
        self.slope = spec["leaky_slope"]
        self.num_experts = spec["num_experts"]
        self.routed = self.variant == "omtl" and model_obj["hierarchy_enabled"]
        self.p = {name: np.array(e["values"], dtype=np.float64).reshape(e["shape"])
                  for name, e in model_obj["params"].items()}
        self.parents: dict[str, list[str]] = {n["id"]: [] for n in graph_obj["nodes"]}
        for edge in graph_obj["edges"]:
            self.parents[edge["child"]].append(edge["parent"])
        self.core = {n["id"]: n["outcomes"] for n in graph_obj["nodes"] if n["core"]}

    def _affine(self, x: np.ndarray, name: str) -> np.ndarray:
        return x @ self.p[name + ".w"] + self.p[name + ".b"][0]

    def scores(self, record) -> dict[tuple[str, str], float]:
        x = np.asarray(record.features, dtype=np.float64)
        experts = []
        for e in range(self.num_experts):
            z = self._affine(x, f"expert.{e:02d}")
            experts.append(np.where(z > 0, z, self.slope * z))
        reprs: dict[str, np.ndarray] = {}

        def representation(nid: str) -> np.ndarray:
            if nid in reprs:
                return reprs[nid]
            if self.variant == "sb":
                m = experts[0]
            else:
                g = _softmax(self._affine(x, f"expert_gate.{nid}"))
                m = sum(g[i] * h for i, h in enumerate(experts))
            ps = sorted(self.parents[nid])
            if self.routed and ps:
                g = _softmax(self._affine(x, f"parent_gate.{nid}"))
                m = m + sum(g[i] * representation(q) for i, q in enumerate(ps))
            reprs[nid] = np.logaddexp(0.0, self._affine(m, f"repr.{nid}"))
            return reprs[nid]

        out = {}
        for nid in record.concepts:
            for o in self.core.get(nid, ()):
                if o in record.labels:
                    z = float(self._affine(representation(nid), f"head.{nid}.{o}")[0])
                    out[(nid, o)] = _sigmoid(z)
        return out


def check_scores(collected: dict, held, sample_ids: list[str],
                 reference: ReferenceModel) -> None:
    """Every labeled (core node, outcome) of every held-out record is scored
    exactly once with its own label, and sampled scores match the
    reference forward pass to SCORE_TOL."""
    expected = {(r.id, nid, o): r.labels[o] for r in held for nid in r.concepts
                for o in reference.core.get(nid, ()) if o in r.labels}
    labels, got = {}, {}
    for (nid, o), triples in collected.items():
        for rid, label, score in triples:
            labels[(rid, nid, o)] = label
            got[(rid, nid, o)] = score
    require(len(got) == sum(len(t) for t in collected.values()),
            "some target of a record is scored twice")
    require(labels == expected,
            f"scored targets or labels differ from the held-out labels: "
            f"{len(set(labels.items()) ^ set(expected.items()))} mismatched")
    scores = np.fromiter(got.values(), dtype=np.float64, count=len(got))
    require(bool(np.all((scores > 0.0) & (scores < 1.0))),
            "a score lies outside (0, 1)")
    by_id = {r.id: r for r in held}
    for rid in sample_ids:
        for (nid, o), ref in reference.scores(by_id[rid]).items():
            score = got[(rid, nid, o)]
            require(abs(score - ref) <= SCORE_TOL,
                    f"score of {rid} at {nid}|{o}: {score!r}, reference {ref!r}")


# ---------------------------------------------------------------------------
# ranking metrics and DeLong


def _psi_sums(pos: np.ndarray, neg: np.ndarray, chunk: int = 256):
    """Row and column sums of psi[i, j] = [pos_i > neg_j] + [pos_i == neg_j]/2,
    counted pair by pair (as 2 * psi, in small integers) in chunks of
    positives."""
    rows = np.empty(len(pos))
    cols = np.zeros(len(neg))
    for lo in range(0, len(pos), chunk):
        block = pos[lo:lo + chunk, None]
        twice = (block > neg).view(np.uint8) * np.uint8(2)
        twice += (block == neg).view(np.uint8)
        rows[lo:lo + chunk] = twice.sum(axis=1, dtype=np.int64) / 2
        cols += twice.sum(axis=0, dtype=np.int64) / 2
    return rows, cols


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos, neg = scores[labels == 1], scores[labels == 0]
    rows, _ = _psi_sums(pos, neg)
    return float(rows.sum() / (len(pos) * len(neg)))


def sweep_ap(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision by a sweep over the distinct thresholds t, from the
    highest down: precision and recall of the rule score >= t, counted by
    binary search in the sorted positive and sorted all scores."""
    pos = np.sort(scores[labels == 1])
    every = np.sort(scores)
    thresholds = np.unique(scores)[::-1]
    tp = len(pos) - np.searchsorted(pos, thresholds, side="left")
    picked = len(every) - np.searchsorted(every, thresholds, side="left")
    recall = tp / len(pos)
    gained = np.diff(recall, prepend=0.0)
    return float(np.sum(gained * tp / picked))


def check_report(scores: np.ndarray, labels: np.ndarray, metrics) -> None:
    """AUC against the pairwise count, AP against the sweep, and the ROC
    curve: from (0, 0) to (1, 1), monotone, its trapezoid area the AUC."""
    require(metrics.n == len(labels) and metrics.n_pos == int(labels.sum()),
            "report counts differ from the scored labels")
    auc = pairwise_auc(scores, labels)
    require(abs(metrics.auc - auc) <= METRIC_TOL,
            f"AUC {metrics.auc!r}, pairwise count {auc!r}")
    ap = sweep_ap(scores, labels)
    require(abs(metrics.aps - ap) <= METRIC_TOL,
            f"AP {metrics.aps!r}, threshold sweep {ap!r}")
    roc = np.asarray(metrics.roc, dtype=np.float64)
    require(roc.ndim == 2 and len(roc) >= 2, "ROC curve has fewer than 2 points")
    require(tuple(roc[0]) == (0.0, 0.0) and tuple(roc[-1]) == (1.0, 1.0),
            "ROC curve does not run from (0, 0) to (1, 1)")
    require(bool(np.all(np.diff(roc, axis=0) >= 0)), "ROC curve is not monotone")
    area = float(np.sum(np.diff(roc[:, 0]) * (roc[1:, 1] + roc[:-1, 1]) / 2))
    require(abs(area - auc) <= METRIC_TOL,
            f"ROC trapezoid area {area!r}, pairwise AUC {auc!r}")


def delong_reference(scores_a: np.ndarray, scores_b: np.ndarray,
                     labels: np.ndarray) -> tuple[float, float, float, float, float]:
    """(auc_a, auc_b, delta, z, p) from the O(mn) structural components
    V10_i = mean_j psi(x_i, y_j) and V01_j = mean_i psi(x_i, y_j)."""
    m, n = int(labels.sum()), int((labels == 0).sum())
    comps = []
    for s in (scores_a, scores_b):
        rows, cols = _psi_sums(s[labels == 1], s[labels == 0])
        comps.append((rows.sum() / (m * n), rows / n, cols / m))
    (auc_a, v10a, v01a), (auc_b, v10b, v01b) = comps
    s10 = np.cov(np.vstack([v10a, v10b])) if m > 1 else np.zeros((2, 2))
    s01 = np.cov(np.vstack([v01a, v01b])) if n > 1 else np.zeros((2, 2))
    var = ((s10[0, 0] + s10[1, 1] - 2 * s10[0, 1]) / m
           + (s01[0, 0] + s01[1, 1] - 2 * s01[0, 1]) / n)
    delta = auc_a - auc_b
    if var <= 0:
        if delta == 0:
            return auc_a, auc_b, 0.0, 0.0, 1.0
        return auc_a, auc_b, delta, math.copysign(math.inf, delta), 0.0
    z = delta / math.sqrt(var)
    return auc_a, auc_b, delta, z, math.erfc(abs(z) / math.sqrt(2))


def check_delong(scores_a, scores_b, labels, comparison: dict) -> None:
    auc_a, auc_b, delta, z, p = delong_reference(scores_a, scores_b, labels)
    for key, ref in (("auc_a", auc_a), ("auc_b", auc_b), ("delta_auc", delta)):
        require(abs(comparison[key] - ref) <= METRIC_TOL,
                f"DeLong {key} {comparison[key]!r}, reference {ref!r}")
    got_z = comparison["z"]
    if math.isfinite(z):
        require(got_z is not None and abs(got_z - z) <= 1e-7 * max(1.0, abs(z)),
                f"DeLong z {got_z!r}, reference {z!r}")
    else:
        require(got_z is None, f"DeLong z {got_z!r}, reference {z!r}")
    require(abs(comparison["p_value"] - p) <= 1e-9 + 1e-6 * p,
            f"DeLong p {comparison['p_value']!r}, reference {p!r}")
    require(comparison["significant_at_0.05"] == (p < 0.05),
            "DeLong significance flag disagrees with p")


# ---------------------------------------------------------------------------
# repeats


def check_repeat(first, again, what: str) -> None:
    """A repeat with the same seed reproduces the first round exactly."""
    require(first == again, f"{what} differs from the first round's")
