import json

import numpy as np
import pytest

from oracles import lr_fit_reference

from soapkit.baselines import (
    BaselineError,
    BaselineModel,
    count_matrix,
    fit_vocab,
    inverse_frequency_weights,
    load_baseline,
    train_lr,
    train_mc,
    train_mnb,
)


class TestVocab:
    def test_lexicographic_and_pad_free(self):
        vocab = fit_vocab([["b", "a"], ["c", "a"]])
        assert vocab == {"a": 0, "b": 1, "c": 2}

    def test_empty_vocabulary_is_an_error(self):
        with pytest.raises(BaselineError, match="empty vocabulary"):
            fit_vocab([[], []])

    def test_count_matrix_ignores_oov_and_pads(self):
        vocab = {"a": 0, "b": 1}
        X = count_matrix([["a", "a", "zzz"], ["b"]], vocab)
        assert X.tolist() == [[2.0, 0.0], [0.0, 1.0]]


class TestInverseFrequencyWeights:
    def test_hand_values(self):
        targets = np.zeros((15, 3))
        targets[:10, 0] = 1.0
        targets[10:, 1] = 1.0
        w = inverse_frequency_weights(targets)
        assert np.allclose(w, [2.0 / 3.0, 4.0 / 3.0, 1.0], atol=1e-12)

    def test_present_classes_mean_one(self):
        gen = np.random.Generator(np.random.PCG64(0))
        targets = gen.random((40, 5))
        w = inverse_frequency_weights(targets)
        assert w.mean() == pytest.approx(1.0, abs=1e-12)


class TestMajorityClass:
    def test_fractional_mass_argmax(self):
        targets = np.array([[0.6, 0.4], [0.3, 0.7], [0.55, 0.45]])
        model = train_mc(targets, task="soap")
        assert model.majority == 1
        assert model.predict_scores(["anything"]).tolist() == [0.0, 1.0]

    def test_tie_goes_to_lowest_index(self):
        model = train_mc(np.array([[0.5, 0.5]]), task="soap")
        assert model.majority == 0

    def test_empty_targets_rejected(self):
        with pytest.raises(BaselineError):
            train_mc(np.zeros((0, 3)), task="soap")


class TestNaiveBayes:
    def test_hand_computed_posterior(self):
        docs = [["apple", "apple", "banana"], ["banana", "banana"], ["apple", "banana"]]
        targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        model = train_mnb(docs, targets, task="soap")
        # class-conditional expected counts: M0 = [2.5, 1.5], M1 = [0.5, 2.5];
        # with smoothing 1 and |V| = 2: p(apple|0) = 3.5/6, p(apple|1) = 1.5/5
        p0, p1 = 3.5 / 6.0, 1.5 / 5.0
        want = p0 / (p0 + p1)  # uniform prior cancels
        got = model.predict_scores(["apple"])
        assert got[0] == pytest.approx(want, abs=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_tokens_fall_back_to_prior(self):
        docs = [["apple"], ["banana"]]
        targets = np.eye(2)
        model = train_mnb(docs, targets, task="soap")
        assert model.predict_scores(["cherry"]).tolist() == [0.5, 0.5]

    def test_smoothing_must_be_positive(self):
        with pytest.raises(BaselineError):
            train_mnb([["a"]], np.array([[1.0, 0.0]]), task="soap", smoothing=0.0)


class TestLogisticRegression:
    def test_separable_data_fit(self):
        docs = ([["aaa", "ccc"]] * 6) + ([["bbb", "ccc"]] * 6)
        targets = np.zeros((12, 2))
        targets[:6, 0] = 1.0
        targets[6:, 1] = 1.0
        model = train_lr(docs, targets, task="speaker")
        scores = model.predict_matrix(docs)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-12)
        assert (np.argmax(scores, axis=1) == ([0] * 6 + [1] * 6)).all()

    def test_class_weights_shape_checked(self):
        with pytest.raises(BaselineError, match="class_weights"):
            train_lr([["a"]], np.array([[1.0, 0.0]]), task="soap",
                     class_weights=np.ones(3))

    def test_uniform_targets_give_uniform_predictions(self):
        docs = [["a"], ["b"]]
        targets = np.full((2, 2), 0.5)
        model = train_lr(docs, targets, task="soap")
        scores = model.predict_matrix(docs)
        assert np.allclose(scores, 0.5, atol=1e-6)


def lr_problem(gen, trial):
    """A seeded (token lists, targets, class weights or None) problem:
    odd trials have soft targets, every third trial explicit weights."""
    V = int(gen.integers(2, 201))
    C = int(gen.integers(2, 6))
    n = int(gen.integers(5, 60))
    words = [f"w{j:03d}" for j in range(V)]
    docs = [[words[j] for j in gen.integers(0, V, size=int(gen.integers(1, 12)))]
            for _ in range(n)]
    if trial % 2:
        targets = gen.dirichlet(np.full(C, 0.5), size=n)
    else:
        targets = np.eye(C)[gen.integers(0, C, size=n)]
    weights = gen.uniform(0.2, 3.0, size=C) if trial % 3 == 0 else None
    return docs, targets, weights


class TestLogisticRegressionOracle:
    def test_matches_reference_fit(self):
        gen = np.random.Generator(np.random.PCG64(29))
        for trial in range(50):
            docs, targets, weights = lr_problem(gen, trial)
            model = train_lr(docs, targets, "soap", class_weights=weights)
            X = count_matrix(docs, model.vocab)
            w = inverse_frequency_weights(targets) if weights is None else weights
            W, b = lr_fit_reference(X, targets, w)
            assert np.abs(model.weights - W).max() <= 1e-9, trial
            assert np.abs(model.bias - b).max() <= 1e-9, trial

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_class_weight_diverges(self, bad):
        docs = [["a", "b"], ["b"], ["a"], ["c"]]
        targets = np.eye(2)[[0, 1, 0, 1]]
        with pytest.raises(BaselineError, match="diverged"):
            train_lr(docs, targets, "soap", class_weights=np.array([bad, 1.0]))


class TestPersistence:
    @pytest.mark.parametrize("kind", ["mc", "mnb", "lr"])
    def test_round_trip_scores_bit_equal(self, kind, tmp_path):
        docs = [["apple", "pie"], ["banana", "split"], ["apple", "banana"]]
        targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
        trainer = {"mc": lambda: train_mc(targets, "soap"),
                   "mnb": lambda: train_mnb(docs, targets, "soap"),
                   "lr": lambda: train_lr(docs, targets, "soap")}[kind]
        model = trainer()
        path = tmp_path / f"{kind}.json"
        model.save(path)
        back = load_baseline(path)
        assert back.kind == kind and back.task == "soap"
        for doc in docs:
            assert np.array_equal(model.predict_scores(doc), back.predict_scores(doc))

    def test_non_finite_array_rejected_at_load(self, tmp_path):
        model = train_mnb([["apple"], ["pie"]], np.array([[1.0, 0.0], [0.0, 1.0]]), "soap")
        path = tmp_path / "mnb.json"
        model.save(path)
        rec = json.loads(path.read_text())
        rec["log_likelihood"][0][0] = float("inf")
        with pytest.raises(BaselineError, match="non-finite"):
            BaselineModel.load(rec)

    def test_unknown_kind_rejected_at_predict(self):
        model = BaselineModel(kind="nope", task="soap", n_classes=2, vocab={"a": 0})
        with pytest.raises(BaselineError):
            model.predict_scores(["a"])
