import numpy as np
import pytest

from oracles import (
    auprc_thresholds,
    auroc_pairwise,
    f1_by_hand,
    log_loss_naive,
    platt_fit_reference,
)

from soapkit.metrics import (
    MetricError,
    PlattCalibrator,
    _binary_auprc,
    _binary_auroc,
    _fit_platt_binary,
    auprc,
    auroc,
    confusion_and_f1,
    confusion_matrix,
    evaluate,
    fit_platt,
    log_loss,
    mc_macro_f1,
    validation_split,
)


def random_scores(gen, n, n_classes, tie_grid=None):
    """Probability rows; quantizing to a coarse grid forces score ties."""
    z = gen.random((n, n_classes))
    if tie_grid:
        z = np.round(z * tie_grid) / tie_grid
    z = z + 1e-9
    return z / z.sum(axis=1, keepdims=True)


class TestConfusionAndF1:
    def test_matches_hand_loops(self):
        gen = np.random.Generator(np.random.PCG64(3))
        for _ in range(50):
            n = int(gen.integers(5, 60))
            C = int(gen.integers(2, 6))
            preds = gen.integers(0, C, size=n)
            golds = gen.integers(0, C, size=n)
            got = confusion_and_f1(preds, golds, C)
            want = f1_by_hand(preds.tolist(), golds.tolist(), C)
            assert np.allclose(got["per_class_f1"], want, atol=1e-12)
            assert got["macro_f1"] == pytest.approx(float(np.mean(want)), abs=1e-12)
            assert got["accuracy"] == pytest.approx(
                sum(p == g for p, g in zip(preds, golds)) / n, abs=1e-12)

    def test_counts_and_shape_checks(self):
        cm = confusion_matrix([0, 1, 1], [0, 0, 1], 2)
        assert cm.tolist() == [[1, 1], [0, 1]]
        with pytest.raises(MetricError):
            confusion_matrix([], [], 2)
        with pytest.raises(MetricError):
            confusion_matrix([0, 3], [0, 1], 2)

    def test_majority_predictor_matches_closed_form(self):
        # constant predictions at prevalence p: macro F1 = (2p/(1+p)) / C
        for p, n, C in ((0.2, 10, 5), (0.547, 1000, 4), (0.64, 400, 5)):
            k = round(p * n)
            golds = np.array([0] * k + [1 + i % (C - 1) for i in range(n - k)])
            preds = np.zeros(n, dtype=int)
            got = confusion_and_f1(preds, golds, C)["macro_f1"]
            assert got == pytest.approx(mc_macro_f1(p, C), abs=1e-12)


class TestRankingMetrics:
    def test_auroc_matches_pairwise_oracle(self):
        gen = np.random.Generator(np.random.PCG64(11))
        for trial in range(60):
            n = int(gen.integers(8, 50))
            C = int(gen.integers(2, 5))
            scores = random_scores(gen, n, C, tie_grid=5 if trial % 2 else None)
            golds = gen.integers(0, C, size=n)
            if len(set(golds.tolist())) < 2:
                continue
            got = auroc(scores, golds, C)
            for c, value in got["per_class"].items():
                want = auroc_pairwise(scores[:, c], (golds == c).tolist())
                assert value == pytest.approx(want, abs=1e-9)

    def test_auprc_matches_threshold_oracle(self):
        gen = np.random.Generator(np.random.PCG64(13))
        for trial in range(60):
            n = int(gen.integers(8, 50))
            C = int(gen.integers(2, 5))
            scores = random_scores(gen, n, C, tie_grid=4 if trial % 2 else None)
            golds = gen.integers(0, C, size=n)
            if len(set(golds.tolist())) < 2:
                continue
            got = auprc(scores, golds, C)
            for c, value in got["per_class"].items():
                want = auprc_thresholds(scores[:, c], (golds == c).tolist())
                assert value == pytest.approx(want, abs=1e-9)

    def test_heavy_ties_and_distinct_scores_match_oracles_exactly(self):
        gen = np.random.Generator(np.random.PCG64(17))
        for scores in (gen.choice([0.1, 0.35, 0.8], size=500), gen.random(300)):
            pos = gen.random(scores.size) < 0.3
            assert _binary_auroc(scores, pos) == auroc_pairwise(scores, pos)
            assert _binary_auprc(scores, pos) == auprc_thresholds(scores, pos)

    def test_constant_scores(self):
        scores = np.full((10, 2), 0.5)
        golds = np.array([0] * 3 + [1] * 7)
        roc = auroc(scores, golds, 2)
        prc = auprc(scores, golds, 2)
        assert roc["per_class"][0] == pytest.approx(0.5)
        assert prc["per_class"][0] == pytest.approx(0.3)
        assert prc["per_class"][1] == pytest.approx(0.7)

    def test_skip_rule_and_empty_error(self):
        scores = np.full((4, 3), 1.0 / 3.0)
        golds = np.array([0, 0, 1, 1])  # class 2 absent
        roc = auroc(scores, golds, 3)
        assert roc["skipped"] == [2]
        assert set(roc["per_class"]) == {0, 1}
        with pytest.raises(MetricError):
            auroc(scores[:2], np.array([0, 0]), 3)


class TestLogLoss:
    def test_matches_naive(self):
        gen = np.random.Generator(np.random.PCG64(7))
        scores = random_scores(gen, 30, 4)
        golds = gen.integers(0, 4, size=30)
        assert log_loss(scores, golds) == pytest.approx(
            log_loss_naive(scores, golds), abs=1e-12)

    def test_zero_probability_clipped(self):
        scores = np.array([[0.0, 1.0]])
        assert np.isfinite(log_loss(scores, np.array([0])))


class TestEvaluate:
    def test_report_fields_consistent(self):
        gen = np.random.Generator(np.random.PCG64(19))
        scores = random_scores(gen, 40, 5)
        golds = gen.integers(0, 5, size=40)
        rep = evaluate(scores, golds, 5)
        assert rep.n == 40 and rep.n_classes == 5
        assert sum(rep.counts) == 40
        assert rep.macro_f1 == pytest.approx(float(np.mean(rep.per_class_f1)))
        assert rep.auroc == pytest.approx(float(np.mean(list(rep.per_class_auroc.values()))))
        assert rep.log_loss > 0


class TestPlatt:
    def make_overconfident(self, gen, n, C=4):
        z = gen.normal(size=(n, C))
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        golds = np.array([gen.choice(C, p=row) for row in p])
        sharp = p ** 3
        sharp /= sharp.sum(axis=1, keepdims=True)
        return sharp, golds

    def test_binary_fit_matches_reference(self):
        # same arithmetic on the same path, so the coefficients are equal
        gen = np.random.Generator(np.random.PCG64(31))
        for n in (20, 45, 70, 150, 300, 400):
            for _ in range(4):
                z = gen.normal(size=n) * gen.uniform(0.5, 4.0)
                y = (gen.random(n) < 1.0 / (1.0 + np.exp(-0.4 * z - gen.normal()))).astype(float)
                if y.min() == y.max():
                    continue
                assert _fit_platt_binary(z, y) == platt_fit_reference(z, y)

    def test_identity_coefficients_preserve_scores(self):
        gen = np.random.Generator(np.random.PCG64(23))
        scores = random_scores(gen, 20, 3)
        cal = PlattCalibrator(coef=[(1.0, 0.0)] * 3, identity=[False] * 3)
        assert np.allclose(cal.class_scores(scores), scores, atol=1e-9)

    def test_overconfident_scores_improve_held_out_log_loss(self):
        gen = np.random.Generator(np.random.PCG64(42))
        val_s, val_g = self.make_overconfident(gen, 400)
        test_s, test_g = self.make_overconfident(gen, 400)
        cal = fit_platt(val_s, val_g, 4)
        before = log_loss(test_s, test_g)
        after = log_loss(cal.probabilities(test_s), test_g)
        assert after < before
        # cubing probabilities roughly triples the logit scale, so the
        # fitted slopes should sit well below 1
        assert all(a < 0.7 for a, _ in cal.coef)

    def test_per_class_auroc_bit_identical_after_calibration(self):
        gen = np.random.Generator(np.random.PCG64(42))
        val_s, val_g = self.make_overconfident(gen, 300)
        test_s, test_g = self.make_overconfident(gen, 300)
        cal = fit_platt(val_s, val_g, 4)
        before = auroc(test_s, test_g, 4)["per_class"]
        after = auroc(cal.class_scores(test_s), test_g, 4)["per_class"]
        assert before == after

    def test_degenerate_class_left_uncalibrated_with_warning(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        golds = np.array([0, 0, 0])  # class 1 never appears
        with pytest.warns(UserWarning, match="degenerate"):
            cal = fit_platt(scores, golds, 2)
        assert cal.identity == [True, True]
        assert np.array_equal(cal.class_scores(scores), scores)

    def test_probability_rows_sum_to_one(self):
        gen = np.random.Generator(np.random.PCG64(5))
        val_s, val_g = self.make_overconfident(gen, 200)
        cal = fit_platt(val_s, val_g, 4)
        out = cal.probabilities(val_s)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestValidationSplit:
    def test_sizes(self):
        items = list(range(25))
        rest, val = validation_split(items, 0.1)
        assert len(rest) == 23 and len(val) == 2
        assert rest + val == items

    def test_single_item_keeps_training_side(self):
        rest, val = validation_split(["only"], 0.1)
        assert rest == ["only"] and val == []

    def test_two_items_still_yield_validation(self):
        rest, val = validation_split(["a", "b"], 0.1)
        assert len(val) == 1

    def test_empty_is_an_error(self):
        with pytest.raises(MetricError):
            validation_split([], 0.1)
