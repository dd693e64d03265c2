"""Independent reference implementations the tests check against.

Everything here deliberately avoids the package's own code paths: brute
force, enumeration, finite differences, a hand-coded Adam, and a batch's
routing and loss indices computed from that batch alone. Keep these dumb
and obviously correct. `node_views` is the one exception: it only lays a
forward pass's arrays out per node, for comparison with them.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np


def finite_difference_gradients(loss_fn, params: dict, h: float = 1e-5) -> dict:
    """Central differences d loss / d p for every entry of every parameter.

    params maps name -> object with a `.values` ndarray that loss_fn reads.
    """
    grads = {}
    for name, p in params.items():
        flat = p.values.ravel()
        g = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            g[i] = (up - down) / (2 * h)
        grads[name] = g.reshape(p.values.shape)
    return grads


def max_relative_error(analytic: dict, numeric: dict, floor: float = 1e-3) -> float:
    """The largest |a - n| / max(|a|, |n|, floor * m) over every entry of
    every parameter, m the largest |a| or |n| of that parameter: entries far
    below their parameter's largest are held to an absolute error of the
    parameter's scale, which a central difference's round-off stays within."""
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        scale = np.maximum(np.abs(a), np.abs(n))
        if not scale.size or scale.max() == 0.0:
            continue  # both exactly zero
        denom = np.maximum(scale, floor * scale.max())
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def brute_force_levels(node_ids, edges) -> dict:
    """Longest path from any root, by enumerating all simple paths."""
    parents = {nid: [] for nid in node_ids}
    for parent, child in edges:
        parents[child].append(parent)

    def longest_to(nid):
        if not parents[nid]:
            return 0
        return 1 + max(longest_to(p) for p in parents[nid])

    return {nid: longest_to(nid) for nid in node_ids}


def predecessor_ball(node_ids, edges, cores, hops: int) -> set:
    """All nodes reachable from a core node in <= hops reverse-edge steps."""
    parents = {nid: [] for nid in node_ids}
    for parent, child in edges:
        parents[child].append(parent)
    ball = set(cores)
    frontier = set(cores)
    for _ in range(hops):
        frontier = {p for nid in frontier for p in parents[nid]}
        ball |= frontier
    return ball


def pairwise_auc(scores, labels) -> float:
    """O(P*N) pair counting; ties count one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def threshold_sweep_ap(scores, labels) -> float:
    """AP by explicit sweep over every distinct score threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for th in thresholds:
        picked = scores >= th
        tp = int(labels[picked].sum())
        precision = tp / int(picked.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def midranks_loop(x) -> np.ndarray:
    """1-based ranks, each run of equal sorted values sharing its average
    rank; NaN equals nothing, so every NaN ranks alone."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="mergesort")
    z = x[order]
    n = len(x)
    ranks = np.zeros(n)
    i = 0
    while i < n:
        j = i + 1
        while j < n and z[j] == z[i]:
            j += 1
        ranks[i:j] = 0.5 * (i + j - 1) + 1
        i = j
    out = np.empty(n)
    out[order] = ranks
    return out


def rank_auc_rows(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mann-Whitney AUC per row of a (runs, n) score matrix (with ties)."""
    n = scores.shape[1]
    order = np.argsort(scores, axis=1, kind="mergesort")
    sorted_scores = np.take_along_axis(scores, order, axis=1)
    ranks_sorted = np.tile(np.arange(1, n + 1, dtype=float), (scores.shape[0], 1))
    # average ranks over tied runs, row by row
    for r in range(scores.shape[0]):
        row = sorted_scores[r]
        i = 0
        while i < n:
            j = i
            while j < n and row[j] == row[i]:
                j += 1
            ranks_sorted[r, i:j] = 0.5 * (i + j - 1) + 1
            i = j
    ranks = np.empty_like(ranks_sorted)
    np.put_along_axis(ranks, order, ranks_sorted, axis=1)
    m = labels.sum()
    pos_rank_sum = ranks[:, labels == 1].sum(axis=1)
    return (pos_rank_sum - m * (m + 1) / 2.0) / (m * (n - m))


def permutation_delong_p(scores_a, scores_b, labels, n_resamples: int = 10_000,
                         seed: int = 0) -> float:
    """Paired sign-flip permutation test for delta AUC on shared records."""
    rng = np.random.default_rng(seed)
    scores_a = np.asarray(scores_a, dtype=float)
    scores_b = np.asarray(scores_b, dtype=float)
    labels = np.asarray(labels)
    n = len(labels)
    observed = (rank_auc_rows(scores_a[None, :], labels)[0]
                - rank_auc_rows(scores_b[None, :], labels)[0])
    swap = rng.random((n_resamples, n)) < 0.5
    perm_a = np.where(swap, scores_b[None, :], scores_a[None, :])
    perm_b = np.where(swap, scores_a[None, :], scores_b[None, :])
    deltas = rank_auc_rows(perm_a, labels) - rank_auc_rows(perm_b, labels)
    return float(np.mean(np.abs(deltas) >= abs(observed) - 1e-12))


# The metric formulas that one cached sort per scored set replaced: a sort
# for AUC, another for AP and another for ROC, the DeLong components
# recomputed from three midrank sorts on every call, and np.var(ddof=1).
# Each takes (scores, labels) arrays, labels int 0/1 with both classes.

def midranks_sorted(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="mergesort")
    z = x[order]
    n = len(x)
    new_block = np.empty(n, dtype=bool)
    new_block[:1] = True
    np.not_equal(z[1:], z[:-1], out=new_block[1:])
    starts = np.flatnonzero(new_block)
    sizes = np.diff(np.append(starts, n))
    out = np.empty(n)
    out[order] = np.repeat(0.5 * (2 * starts + sizes - 1) + 1, sizes)
    return out


def auc_by_midranks(scores: np.ndarray, labels: np.ndarray):
    m = int(labels.sum())
    n = labels.size - m
    return (midranks_sorted(scores)[labels == 1].sum() - m * (m + 1) / 2.0) / (m * n)


def descending_thresholds(scores: np.ndarray, labels: np.ndarray):
    order = np.argsort(-scores, kind="mergesort")
    ordered = scores[order]
    last = np.nonzero(np.r_[ordered[1:] != ordered[:-1], True])[0]
    return np.cumsum(labels[order])[last], last + 1


def ap_by_thresholds(scores: np.ndarray, labels: np.ndarray) -> float:
    tp, seen = descending_thresholds(scores, labels)
    precision = tp / seen
    recall = tp / int(labels.sum())
    prev_recall = np.r_[0.0, recall[:-1]]
    return float(((recall - prev_recall) * precision).sum())


def roc_by_thresholds(scores: np.ndarray, labels: np.ndarray) -> list:
    m = int(labels.sum())
    tp, seen = descending_thresholds(scores, labels)
    return [(0.0, 0.0)] + list(zip(((seen - tp) / (labels.size - m)).tolist(),
                                   (tp / m).tolist()))


def delong_components_three_sorts(scores: np.ndarray, labels: np.ndarray):
    m = int(labels.sum())
    n = labels.size - m
    pos, neg = scores[labels == 1], scores[labels == 0]
    tx, ty = midranks_sorted(pos), midranks_sorted(neg)
    tz = midranks_sorted(np.concatenate([pos, neg]))
    auc = (tz[:m].sum() - m * (m + 1) / 2.0) / (m * n)
    return auc, (tz[:m] - tx) / n, 1.0 - (tz[m:] - ty) / m


def delong_by_components(scores_a: np.ndarray, scores_b: np.ndarray,
                         labels: np.ndarray) -> tuple:
    auc_a, va01, va10 = delong_components_three_sorts(scores_a, labels)
    auc_b, vb01, vb10 = delong_components_three_sorts(scores_b, labels)
    m, n = len(va01), len(va10)
    delta = auc_a - auc_b
    var = 0.0
    if m > 1:
        var += (va01 - vb01).var(ddof=1) / m
    if n > 1:
        var += (va10 - vb10).var(ddof=1) / n
    if var <= 0.0:
        if delta == 0.0:
            return auc_a, auc_b, 0.0, 0.0, 1.0
        return auc_a, auc_b, delta, math.copysign(math.inf, delta), 0.0
    z = delta / math.sqrt(var)
    return auc_a, auc_b, delta, z, math.erfc(abs(z) / math.sqrt(2.0))


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def node_block_forward(p: dict, variant: str, num_experts: int, slope: float,
                       parents: dict, order, outcome_map: dict, routed: bool,
                       x, concepts) -> tuple[dict, dict, dict]:
    """One record's eval-mode forward pass, node by node, from the model's
    equations (p maps parameter names to value arrays):

        h_e  = leaky_relu(x W_e + b_e)
        m_n  = sum_e softmax(x G_n + g_n)_e h_e      mmoe, omtl
             = h_0 (sb),  mean_e h_e (moe)
        m_n += sum_k softmax(x P_n + q_n)_k r_k      routed, over n's parents
        r_n  = softplus(m_n R_n + s_n)
        c_n  = relu(r_n C_n + d_n)
        z_no = r_n W_no + b_no

    Returns the representations, reconstructions and logits by node (and
    outcome) over the expressed nodes, visited in `order`.
    """
    x = np.asarray(x, dtype=float)
    experts = []
    for e in range(num_experts):
        z = x @ p[f"expert.{e:02d}.w"] + p[f"expert.{e:02d}.b"][0]
        experts.append(np.where(z > 0, z, slope * z))
    reps, recons, logits = {}, {}, {}
    for nid in order:
        if nid not in concepts:
            continue
        if variant == "sb":
            m = experts[0]
        elif variant == "moe":
            m = sum(experts) / num_experts
        else:
            gate = _softmax(x @ p[f"expert_gate.{nid}.w"] + p[f"expert_gate.{nid}.b"][0])
            m = sum(g * h for g, h in zip(gate, experts))
        if routed and parents[nid]:
            gate = _softmax(x @ p[f"parent_gate.{nid}.w"] + p[f"parent_gate.{nid}.b"][0])
            m = m + sum(g * reps[q] for g, q in zip(gate, parents[nid]))
        reps[nid] = np.logaddexp(0.0, m @ p[f"repr.{nid}.w"] + p[f"repr.{nid}.b"][0])
        recons[nid] = np.maximum(reps[nid] @ p[f"recon.{nid}.w"]
                                 + p[f"recon.{nid}.b"][0], 0.0)
        for o in outcome_map.get(nid, ()):
            logits[(nid, o)] = float(reps[nid] @ p[f"head.{nid}.{o}.w"][:, 0]
                                     + p[f"head.{nid}.{o}.b"][0, 0])
    return reps, recons, logits


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(starts[i], starts[i] + counts[i])."""
    return np.array([i for s, c in zip(starts.tolist(), counts.tolist())
                     for i in range(s, s + c)], dtype=np.intp)


def head_pairs(model, seg) -> tuple[np.ndarray, np.ndarray]:
    """Every (pair, head) combination of seg's pairs with the heads of
    their node, as pair and head index arrays grouped by head."""
    counts = model.head_count[seg.members]
    heads = _ranges(model.head_start[seg.members], counts)
    run_len = np.repeat(seg.ends - seg.starts, counts)
    return _ranges(np.repeat(seg.starts, counts), run_len), np.repeat(heads, run_len)


def route_levels(of: np.ndarray, bounds) -> list:
    """The levels a `tensor.Route` walks: (lo, hi, segments of of[lo:hi],
    routed) for each level bounds[l]:bounds[l+1] that holds pairs, routed
    from level 1 on."""
    from omtl.tensor import Segments

    bounds = list(bounds)
    return [(lo, hi, Segments(of[lo:hi]), depth > 0)
            for depth, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < hi]


def reference_batch(model, cols, rows: np.ndarray, head_weight: np.ndarray):
    """One batch's routing and loss indices computed from that batch alone,
    as a forward pass and its loss once built them every step: the pairs
    from `np.nonzero` over the batch's membership, node-major; their
    `Segments`; with routing on, the route's levels, parents' pairs from a
    (batch, nodes) position matrix, and gated pairs; and the kept head
    terms, every (pair, head) combination whose weight and label are
    present."""
    from omtl.tensor import Segments

    member = cols.member[rows]
    node, pair_rows = np.nonzero(member.T)
    out = SimpleNamespace(pair_rows=pair_rows, node=node, route=None, heads=None)
    if not pair_rows.size:
        return out
    out.seg = seg = Segments(node)
    if model.hierarchy_enabled and model.parents.shape[1]:
        pos = np.full(member.shape, -1, dtype=np.intp)
        pos[pair_rows, node] = np.arange(pair_rows.size)
        par = model.parents[node]
        level_start = np.searchsorted(model.level, np.arange(model.graph.depth + 1))
        gated = np.flatnonzero(model.gate_row[node] >= 0)
        out.route = SimpleNamespace(
            levels=route_levels(node, np.searchsorted(node, level_start)),
            src=np.where(par >= 0, pos[pair_rows[:, None], par], 0),
            gated=gated,
            gseg=Segments(model.gate_row[node[gated]]) if gated.size else None)
    outcomes = list(model.outcomes)
    labels = np.zeros((len(rows), len(outcomes)))
    labeled = np.zeros(labels.shape, dtype=bool)
    for k, o in enumerate(outcomes):
        if o in cols.outcomes:
            labels[:, k] = cols.labels[rows, cols.outcomes.index(o)]
            labeled[:, k] = cols.labeled[rows, cols.outcomes.index(o)]
    pair, head = head_pairs(model, seg)
    prow, outcome = pair_rows[pair], model.head_outcome[head]
    weight = labeled[prow, outcome] * head_weight[head]
    keep = np.flatnonzero(weight)
    if keep.size:
        out.heads = SimpleNamespace(pair=pair[keep], hseg=Segments(head[keep]),
                                    y=labels[prow[keep], outcome[keep]],
                                    weight=weight[keep])
    return out


def node_views(result) -> SimpleNamespace:
    """Per-node views of a forward pass, for comparing it node by node with
    a reference: rows (each expressed node's ascending batch rows), reps
    (their representations) and logits (each head's logit column over its
    node's rows, by (node, outcome)). Not itself a reference: the logits
    come from the head affine that scoring runs, `tensor.rowwise_affine`,
    over `head_pairs`."""
    from omtl import tensor as T

    model, seg = result.model, result.batch.seg
    views = SimpleNamespace(rows={}, reps={}, logits={})
    if seg is None:
        return views
    for m, s, e in seg.runs():
        nid = model.graph.ordered_ids[m]
        views.rows[nid] = result.batch.pair_rows[s:e]
        views.reps[nid] = result.rep.values[s:e]
    pair, head = head_pairs(model, seg)
    if pair.size:
        hseg = T.Segments(head)
        z, _ = T.rowwise_affine(result.rep.values[pair], model.head_w.values,
                                model.head_b.values, hseg)
        for h, s, e in hseg.runs():
            views.logits[model.head_keys[h]] = z[s:e]
    return views


# The pair ops' kernels as first written: each rewrite in `omtl.tensor` must
# do the same products and sums in the same order, so it must match these
# bit for bit. runs lists each member's (member, start, end) rows.


def scatter_rows_add_at(n: int, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """An (n, cols) array holding the sum of rows[i] at row idx[i]."""
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


def gathered_param_grads(hv: np.ndarray, gz: np.ndarray, starts: np.ndarray):
    """Each member's sum of the outer products hv[p] gz[p] over its rows,
    products formed (rows, r, c) with c innermost, and of its rows of gz."""
    return (np.add.reduceat(hv[:, :, None] * gz[:, None, :], starts, axis=0),
            np.add.reduceat(gz, starts, axis=0)[:, None, :])


def rowwise_affine_loop(h: np.ndarray, w: np.ndarray, b: np.ndarray, runs) -> np.ndarray:
    """z[p] = h[p] @ w[m] + b[m], one product per member."""
    z = np.empty((h.shape[0], w.shape[2]))
    for m, s, e in runs:
        z[s:e] = h[s:e] @ w[m] + b[m]
    return z


def input_grad_loop(gz: np.ndarray, w: np.ndarray, runs) -> np.ndarray:
    """The gradient of rowwise_affine_loop w.r.t. h, one loop over members."""
    gh = np.empty((gz.shape[0], w.shape[1]))
    for m, s, e in runs:
        gh[s:e] = gz[s:e] @ w[m].T
    return gh


def param_grads_loop(hv: np.ndarray, gz: np.ndarray, starts: np.ndarray, runs):
    """Its gradients w.r.t. each member's weights and bias, a second loop
    over members."""
    gw = np.empty((len(runs), hv.shape[1], gz.shape[1]))
    for i, (_, s, e) in enumerate(runs):
        np.matmul(hv[s:e].T, gz[s:e], out=gw[i])
    return gw, np.add.reduceat(gz, starts, axis=0)[:, None, :]


def softmax_rows_numpy(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax through numpy's row reductions."""
    z = z - z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    return z / z.sum(axis=1, keepdims=True)


def softmax_grad_numpy(s: np.ndarray, gs: np.ndarray) -> np.ndarray:
    return s * (gs - (gs * s).sum(axis=1, keepdims=True))


class ReferenceAdam:
    """Hand-coded scalar/array Adam, written independently of the package."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, w, g):
        w = np.asarray(w, dtype=float)
        g = np.asarray(g, dtype=float)
        if self.m is None:
            self.m = np.zeros_like(w)
            self.v = np.zeros_like(w)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return w - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def strata(record, graph) -> list[tuple[str, str, int]]:
    """(core node, outcome, label) strata of one record: each core node it
    expresses, in id order, with each of that node's outcomes it labels."""
    return [(nid, o, record.labels[o]) for nid in sorted(record.concepts)
            if graph.nodes[nid].core
            for o in graph.nodes[nid].outcomes if o in record.labels]


def per_record_folds(records, graph, k: int, seed: int) -> dict[str, int]:
    """The fold planner as it was written record by record: the reference
    `make_folds` must reproduce, key order included. Each labeled record's
    sets are its core nodes, as (node,), then its (core node, outcome,
    label) strata; the deal and the levelling swaps are `make_folds`'s."""
    from omtl.rng import substream

    def sets_of(rec):
        nodes = [(nid,) for nid in graph.core_ids if nid in rec.concepts]
        return tuple(nodes + strata(rec, graph))

    labeled = sorted((r for r in records if r.labels), key=lambda r: r.id)
    rng = substream(seed, "folds")
    rng.shuffle(labeled)
    labeled.sort(key=sets_of)
    start = int(rng.integers(k))
    assignment = {rec.id: (start + i) % k for i, rec in enumerate(labeled)}
    folds: dict[tuple, list[list[str]]] = {}
    for rec in labeled:
        folds.setdefault(sets_of(rec), [[] for _ in range(k)])[assignment[rec.id]].append(rec.id)
    counts: dict[tuple, list[int]] = {}
    for sig, per_fold in folds.items():
        for s in sig:
            c = counts.setdefault(s, [0] * k)
            for f, ids in enumerate(per_fold):
                c[f] += len(ids)
    while True:
        best_gain, best = 0, None
        for s in sorted(counts):
            c = counts[s]
            hi, lo = c.index(max(c)), c.index(min(c))
            if c[hi] - c[lo] < 2:
                continue
            d = {t: ct[hi] - ct[lo] - 1 for t, ct in counts.items()}
            for a in folds:
                if s not in a or not folds[a][hi]:
                    continue
                for b in folds:
                    if s in b or not folds[b][lo]:
                        continue
                    gain = (sum(d[t] for t in a) - sum(d[t] + 2 for t in b)
                            + 2 * len(set(a) & set(b)))
                    if gain > best_gain:
                        best_gain, best = gain, (a, b, hi, lo)
            if best is not None:
                break
        if best is None:
            break
        a, b, hi, lo = best
        rid_a, rid_b = folds[a][hi].pop(), folds[b][lo].pop()
        folds[a][lo].append(rid_a)
        folds[b][hi].append(rid_b)
        assignment[rid_a], assignment[rid_b] = lo, hi
        for s in a:
            counts[s][hi] -= 1
            counts[s][lo] += 1
        for s in b:
            counts[s][lo] -= 1
            counts[s][hi] += 1
    for rec in records:
        if rec.id not in assignment:
            assignment[rec.id] = int(rng.integers(k))
    return assignment


def score_holdout_per_head(model, cols, chunk: int) -> dict:
    """The (record id, label, score) triples `trainer.score_holdout` gives
    for cols, chunk rows at a time, each head's selected in a pass of its
    own: for each head run of a chunk's head product whose head the masked
    loss supervises, the run's rows that label the head's outcome. Labels
    are read by outcome name. It shares the package's forward pass and head
    product, whose bits it does not restate, and its chunks are copies."""
    from omtl import tensor as T
    from omtl.model import BatchPlan, forward

    collected: dict = {}
    lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    for start in range(0, len(cols), chunk):
        rows = np.arange(start, min(start + chunk, len(cols)))
        part = cols.take(rows)
        batch = BatchPlan(model, part, heads=False).batch(0)
        if batch.seg is None:
            continue
        pair, head = head_pairs(model, batch.seg)
        if not pair.size:
            continue
        hseg = T.Segments(head)
        z, _ = T.rowwise_affine(forward(model, batch).rep.values[pair],
                                model.head_w.values, model.head_b.values, hseg)
        scores = np.clip(T._sigmoid_values(z[:, 0]), lo, hi)
        for h, s, e in hseg.runs():
            if not model.head_masked[h]:
                continue
            triples = collected.setdefault(model.head_keys[h], [])
            outcome = model.head_keys[h][1]
            if outcome not in cols.outcomes:
                continue
            k = cols.outcomes.index(outcome)
            for p, score in zip(pair[s:e].tolist(), scores[s:e].tolist()):
                row = start + int(batch.pair_rows[p])
                if cols.labeled[row, k]:
                    triples.append((cols.ids[row], int(cols.labels[row, k]), score))
    return collected
