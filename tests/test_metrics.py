import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omtl.errors import ValidationError
from omtl.metrics import (EvalReport, ScoredSet, _block_midranks, _tie_blocks,
                          auc_roc, average_precision, compare_scored_sets,
                          delong_test, roc_points, score_metrics)

from oracles import (ap_by_thresholds, auc_by_midranks, delong_by_components,
                     midranks_loop, pairwise_auc, permutation_delong_p,
                     roc_by_thresholds, threshold_sweep_ap)


def random_scored(rng, n, tie_fraction=0.0, prevalence=0.4):
    labels = (rng.random(n) < prevalence).astype(int)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    scores = rng.random(n)
    if tie_fraction:
        # quantize part of the scores to force ties
        quantized = np.round(scores * 5) / 5
        mask = rng.random(n) < tie_fraction
        scores = np.where(mask, quantized, scores)
    return ScoredSet(scores=scores, labels=labels)


def midranks(x: np.ndarray) -> np.ndarray:
    """Each value's midrank as `_Ranking` reads them: its tie block's
    midrank (`_block_midranks`) from the blocks of one sort (`_tie_blocks`)."""
    starts, sizes, block = _tie_blocks(x)
    return _block_midranks(starts, sizes)[block]


class TestMidranks:
    @pytest.mark.parametrize("values", [
        [], [0.3], [0.3, 0.3], [0.5, 0.1, 0.9, 0.2],
        [1.0, 0.0, 1.0, 1.0, 0.0, 2.0, 1.0],
        [np.nan, 0.2, np.nan, 0.2, 0.1], [np.nan], [np.inf, -np.inf, np.inf],
    ])
    def test_matches_loop_oracle_on_edge_cases(self, values):
        x = np.asarray(values, dtype=float)
        assert np.array_equal(midranks(x), midranks_loop(x))

    def test_matches_loop_oracle_random_tied_and_untied(self, rng):
        for trial in range(300):
            n = int(rng.integers(0, 60))
            x = rng.random(n)
            if trial % 3 == 1:
                x = np.round(x * 4) / 4  # heavy ties
            elif trial % 3 == 2:
                x[rng.random(n) < 0.2] = np.nan
            assert np.array_equal(midranks(x), midranks_loop(x))


class TestAuc:
    def test_perfect_ranking(self):
        s = ScoredSet(scores=[0.9, 0.8, 0.3, 0.2], labels=[1, 1, 0, 0])
        assert auc_roc(s) == 1.0

    def test_all_ties_is_half(self):
        s = ScoredSet(scores=[0.5] * 6, labels=[1, 0, 1, 0, 0, 1])
        assert auc_roc(s) == 0.5

    def test_single_class_error_names_stratum(self):
        s = ScoredSet(scores=[0.1, 0.2], labels=[1, 1], node="liver",
                      outcome="mortality")
        with pytest.raises(ValidationError, match="liver|mortality"):
            auc_roc(s)

    def test_matches_pairwise_oracle_including_ties(self, rng):
        for trial in range(60):
            s = random_scored(rng, int(rng.integers(5, 80)),
                              tie_fraction=0.5 if trial % 2 else 0.0)
            assert abs(auc_roc(s) - pairwise_auc(s.scores, s.labels)) < 1e-12

    def test_invariant_under_monotone_transform(self, rng):
        for _ in range(10):
            s = random_scored(rng, 50)
            base = auc_roc(s)
            cubed = ScoredSet(scores=s.scores ** 3, labels=s.labels)
            logit = ScoredSet(scores=np.log(s.scores / (1 - s.scores)),
                              labels=s.labels)
            assert auc_roc(cubed) == pytest.approx(base, abs=1e-12)
            assert auc_roc(logit) == pytest.approx(base, abs=1e-12)


class TestAveragePrecision:
    def test_perfect_ranking_is_one(self):
        s = ScoredSet(scores=[0.9, 0.8, 0.3, 0.2], labels=[1, 1, 0, 0])
        assert average_precision(s) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = np.linspace(1.0, 0.1, n)
        labels = np.zeros(n, dtype=int)
        labels[-1] = 1
        assert average_precision(ScoredSet(scores=scores, labels=labels)) \
            == pytest.approx(1.0 / n, abs=1e-15)

    def test_constant_scores_give_prevalence(self):
        s = ScoredSet(scores=[0.3] * 10, labels=[1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        assert average_precision(s) == pytest.approx(0.3, abs=1e-15)

    def test_no_positives_rejected(self):
        with pytest.raises(ValidationError, match="positives"):
            average_precision(ScoredSet(scores=[0.1, 0.2], labels=[0, 0]))

    def test_matches_threshold_sweep_oracle(self, rng):
        for trial in range(60):
            s = random_scored(rng, int(rng.integers(4, 70)),
                              tie_fraction=0.4 if trial % 2 else 0.0)
            assert abs(average_precision(s)
                       - threshold_sweep_ap(s.scores, s.labels)) < 1e-12

    def test_order_independence_with_ties(self, rng):
        s = random_scored(rng, 40, tie_fraction=0.8)
        perm = rng.permutation(40)
        shuffled = ScoredSet(scores=s.scores[perm], labels=s.labels[perm])
        assert average_precision(s) == pytest.approx(average_precision(shuffled),
                                                     abs=1e-12)


class TestRocPoints:
    def test_endpoints_and_monotonicity(self, rng):
        s = random_scored(rng, 30, tie_fraction=0.3)
        pts = roc_points(s)
        assert pts.shape == (len(pts), 2) and pts.dtype == np.float64
        assert tuple(pts[0]) == (0.0, 0.0)
        assert tuple(pts[-1]) == (1.0, 1.0)
        fprs, tprs = pts[:, 0].tolist(), pts[:, 1].tolist()
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    @pytest.mark.parametrize("seed", range(20))
    def test_report_json_is_that_of_the_pairs(self, seed):
        # the array's JSON text is the list-of-pairs form's, heavy ties included
        rng = np.random.default_rng(seed)
        s = random_scored(rng, int(rng.integers(2, 300)), tie_fraction=0.9)
        pairs = roc_by_thresholds(s.scores, s.labels)
        tm = score_metrics(s)
        assert json.dumps(tm.to_json_obj()["roc"]) == json.dumps([list(p) for p in pairs])

    def test_without_roc_writes_an_empty_curve(self, rng):
        tm = score_metrics(random_scored(rng, 20), with_roc=False)
        assert tm.roc.shape == (0, 2)
        assert json.dumps(tm.to_json_obj()["roc"]) == "[]"

    def test_comparing_reports_does_not_raise(self, rng):
        # equality is identity: fields are numpy arrays, which == cannot reduce
        s = random_scored(rng, 20)
        a, b = score_metrics(s), score_metrics(s)
        assert a == a and a != b
        ra = EvalReport(per_target={("n", "o"): a})
        rb = EvalReport(per_target={("n", "o"): b})
        assert ra == EvalReport(per_target={("n", "o"): a}) and ra != rb


class TestDeLong:
    def test_self_comparison_p_one(self, rng):
        s = random_scored(rng, 40)
        _, _, delta, z, p = delong_test(s, s)
        assert delta == 0.0
        assert p == 1.0

    def test_opposite_rankings_trivial_case(self):
        labels = [1, 0]
        a = ScoredSet(scores=[0.9, 0.1], labels=labels)
        b = ScoredSet(scores=[0.1, 0.9], labels=labels)
        _, _, delta, z, p = delong_test(a, b)
        assert delta == 1.0  # AUCs are 1 and 0

    def test_label_mismatch_rejected(self, rng):
        a = random_scored(rng, 20)
        b = ScoredSet(scores=a.scores, labels=1 - a.labels)
        with pytest.raises(ValidationError, match="same records"):
            delong_test(a, b)

    def test_symmetry(self, rng):
        labels = (rng.random(60) < 0.4).astype(int)
        labels[0], labels[1] = 0, 1
        a = ScoredSet(scores=rng.random(60), labels=labels)
        b = ScoredSet(scores=rng.random(60), labels=labels)
        _, _, d_ab, z_ab, p_ab = delong_test(a, b)
        _, _, d_ba, z_ba, p_ba = delong_test(b, a)
        assert d_ab == -d_ba
        assert z_ab == pytest.approx(-z_ba, rel=1e-12)
        assert p_ab == pytest.approx(p_ba, rel=1e-12)

    def test_p_value_within_permutation_oracle(self, rng):
        # correlated scores at n = 200: both models see the same latent
        n = 200
        labels = (rng.random(n) < 0.35).astype(int)
        latent = rng.normal(size=n)
        scores_a = latent + 0.9 * labels + rng.normal(scale=0.8, size=n)
        scores_b = latent + 0.7 * labels + rng.normal(scale=0.8, size=n)
        a = ScoredSet(scores=scores_a, labels=labels)
        b = ScoredSet(scores=scores_b, labels=labels)
        *_, p = delong_test(a, b)
        p_perm = permutation_delong_p(scores_a, scores_b, labels,
                                      n_resamples=10_000, seed=42)
        assert abs(p - p_perm) <= 0.05

    def test_comparison_record(self, rng):
        labels = (rng.random(50) < 0.5).astype(int)
        labels[:2] = [0, 1]
        a = ScoredSet(scores=rng.random(50), labels=labels, node="x",
                      outcome="event")
        b = ScoredSet(scores=rng.random(50), labels=labels, node="x",
                      outcome="event")
        row = compare_scored_sets(a, b, "omtl", "mmoe")
        assert row["model_a"] == "omtl"
        assert 0.0 <= row["p_value"] <= 1.0
        assert row["significant_at_0.05"] == (row["p_value"] < 0.05)

    @pytest.mark.parametrize("tie_fraction", [0.0, 0.5])
    def test_comparison_aucs_are_auc_roc_exactly(self, rng, tie_fraction):
        # the DeLong AUCs are the ones auc_roc reports, so the delta the
        # record carries is exactly the difference of its two AUCs
        for _ in range(50):
            a = random_scored(rng, 60, tie_fraction=tie_fraction)
            b = ScoredSet(scores=rng.permutation(a.scores), labels=a.labels)
            row = compare_scored_sets(a, b, "a", "b")
            assert row["auc_a"] == auc_roc(a)
            assert row["auc_b"] == auc_roc(b)
            assert row["delta_auc"] == row["auc_a"] - row["auc_b"]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def tied_scores(rng, n: int, levels: int) -> np.ndarray:
    """n scores over six decades, with exact zeros, -0.0 and infinities;
    at levels > 0 most are rounded onto that many values, so ties are
    common."""
    x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3, size=n)
    if levels:
        x = np.where(rng.random(n) < 0.8, np.round(x * levels) / levels, x)
    for value in (0.0, -0.0, np.inf, -np.inf):
        x[rng.random(n) < 0.05] = value
    return x


def two_class_labels(rng, n: int) -> np.ndarray:
    labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
    labels[rng.choice(n, size=2, replace=False)] = [0, 1]
    return labels


# the cached sort and components against the formulas they replaced, bit
# for bit: small sets, heavy ties, and sets past numpy's 8- and 128-entry
# switches in its pairwise sums
METRIC_SETTINGS = settings(derandomize=True, database=None, max_examples=300,
                           deadline=None)
SIZES = st.one_of(st.integers(2, 10), st.integers(11, 300))


class TestCachedBits:
    @METRIC_SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1), n=SIZES, levels=st.integers(0, 4))
    def test_auc_ap_and_roc_are_the_three_sorts(self, seed, n, levels):
        rng = np.random.default_rng(seed)
        scores, labels = tied_scores(rng, n, levels), two_class_labels(rng, n)
        s = ScoredSet(scores=scores, labels=labels)
        # in either order: the first measure makes the sort, the others reuse it
        first, then = (roc_points, auc_roc) if seed % 2 else (auc_roc, roc_points)
        got = {first: first(s), then: then(s), average_precision: average_precision(s)}
        assert np.array_equal(bits(got[auc_roc]), bits(auc_by_midranks(scores, labels)))
        assert np.array_equal(bits(got[average_precision]),
                              bits(ap_by_thresholds(scores, labels)))
        assert np.array_equal(bits(got[roc_points]), bits(roc_by_thresholds(scores, labels)))
        assert np.array_equal(midranks(scores), midranks_loop(scores))

    @METRIC_SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1), n=SIZES, levels=st.integers(0, 4),
           others=st.integers(1, 4), reported=st.booleans())
    def test_delong_with_cached_components_is_the_per_call_formula(
            self, seed, n, levels, others, reported):
        # one set compared with several others, and they with it, in a
        # shuffled order; itself and an equal copy among them
        rng = np.random.default_rng(seed)
        labels = two_class_labels(rng, n)
        scores = [tied_scores(rng, n, levels) for _ in range(others)]
        a_scores = scores[0].copy() if rng.random() < 0.2 else tied_scores(rng, n, levels)
        a = ScoredSet(scores=a_scores, labels=labels)
        sets = [ScoredSet(scores=x, labels=labels) for x in scores] + [a]
        if reported:
            for s in sets:
                auc_roc(s)
        pairs = [(a, b) for b in sets] + [(b, a) for b in sets]
        for i in rng.permutation(len(pairs)):
            x, y = pairs[i]
            got = delong_test(x, y)
            want = delong_by_components(x.scores, y.scores, labels)
            assert np.array_equal(bits(got), bits(want)), (got, want)


class TestScoredSet:
    def test_equality_is_identity(self):
        # equal fields do not make equal sets, and comparing them raises
        # nothing, though the fields are numpy arrays
        a = ScoredSet([0.1, 0.2], [0, 1])
        b = ScoredSet([0.1, 0.2], [0, 1])
        assert a == a and not a != a
        assert a != b and not a == b
        assert len({a, b}) == 2

    def test_int64_labels_are_kept_without_a_copy(self):
        labels = np.array([0, 1], dtype=np.int64)
        assert ScoredSet([0.1, 0.2], labels).labels is labels
        assert ScoredSet([0.1, 0.2], [0, 1]).labels.dtype == np.int64

    def test_nan_score_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            ScoredSet(scores=[0.2, np.nan], labels=[0, 1])
