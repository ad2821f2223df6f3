import json

import numpy as np
import pytest

from oracles import lr_fit_dense, lr_objective, lr_train_reference

import soapkit.baselines
from soapkit.corpus import DataError
from soapkit.baselines import (
    LR_GRAD_TOL,
    LR_LAMBDAS,
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
        with pytest.raises(DataError, match="empty vocabulary"):
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

    def test_mass_at_or_below_the_floor_counts_as_absent(self):
        # the inverse of a mass of 1e-320 would overflow to inf
        targets = np.array([[1.0, 0.0], [0.0, 1e-320], [1.0, 0.0]])
        assert inverse_frequency_weights(targets).tolist() == [1.0, 1.0]

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
        assert model.predict_matrix([["anything"]])[0].tolist() == [0.0, 1.0]

    def test_tie_goes_to_lowest_index(self):
        model = train_mc(np.array([[0.5, 0.5]]), task="soap")
        assert model.majority == 0

    def test_empty_targets_rejected(self):
        with pytest.raises(DataError, match=r"^targets must be a non-empty \(n, C\) array$"):
            train_mc(np.zeros((0, 3)), task="soap")


class TestNaiveBayes:
    def test_hand_computed_posterior(self):
        docs = [["apple", "apple", "banana"], ["banana", "banana"], ["apple", "banana"]]
        targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        model = train_mnb(docs, targets, task="soap")
        # class-conditional expected counts: M0 = [2.5, 1.5], M1 = [0.5, 2.5];
        # with add-one counts and |V| = 2: p(apple|0) = 3.5/6, p(apple|1) = 1.5/5
        p0, p1 = 3.5 / 6.0, 1.5 / 5.0
        want = p0 / (p0 + p1)  # uniform prior cancels
        got = model.predict_matrix([["apple"]])[0]
        assert got[0] == pytest.approx(want, abs=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_tokens_fall_back_to_prior(self):
        docs = [["apple"], ["banana"]]
        targets = np.eye(2)
        model = train_mnb(docs, targets, task="soap")
        assert model.predict_matrix([["cherry"]])[0].tolist() == [0.5, 0.5]


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

    def test_uniform_targets_give_uniform_predictions(self):
        docs = [["a"], ["b"]]
        targets = np.full((2, 2), 0.5)
        model = train_lr(docs, targets, task="soap")
        scores = model.predict_matrix(docs)
        assert np.allclose(scores, 0.5, atol=1e-6)


def lr_problem(gen, trial):
    """A seeded (token lists, targets) problem: odd trials have soft
    targets."""
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
    return docs, targets


class TestLogisticRegressionOracle:
    def test_certified_optimum_matches_dense_newton(self):
        # the held-out choice of lam and the solve at it, against dense
        # Newton solves; the oracle recomputes the gradient in the solve's
        # coordinates, counts centred on their mean
        gen = np.random.Generator(np.random.PCG64(29))
        for trial in range(50):
            docs, targets = lr_problem(gen, trial)
            model = train_lr(docs, targets, "soap")
            X = count_matrix(docs, model.vocab)
            w_class = inverse_frequency_weights(targets)
            lam, theta = lr_train_reference(X, targets, w_class, LR_LAMBDAS)
            mean = X.mean(axis=0)
            centred = np.column_stack([model.weights, model.bias + model.weights @ mean])
            _, G, _ = lr_objective(centred, X - mean, targets, w_class, lam)
            assert np.linalg.norm(G) <= LR_GRAD_TOL, trial
            assert np.abs(np.column_stack([model.weights, model.bias]) - theta).max() <= 1e-6, trial

    def test_solver_reports_its_certificate(self):
        gen = np.random.Generator(np.random.PCG64(30))
        for trial in range(10):
            docs, targets = lr_problem(gen, trial)
            X = count_matrix(docs, fit_vocab(docs))
            XA = np.vstack([X.T, np.ones(len(docs))])
            w_class = inverse_frequency_weights(targets)
            for lam in LR_LAMBDAS:
                theta, gnorm = soapkit.baselines._lr_solve(
                    XA, targets, w_class, lam, np.zeros((targets.shape[1], XA.shape[0])))
                assert gnorm <= LR_GRAD_TOL
                assert np.abs(theta - lr_fit_dense(X, targets, w_class, lam)).max() <= 1e-6

    def test_absent_class_converges_with_a_penalised_bias(self):
        docs = [["aaa", "ccc"], ["bbb"], ["aaa"], ["bbb", "ccc"], ["aaa", "bbb"]] * 3
        targets = np.eye(4)[[0, 1, 0, 3, 1] * 3]  # class 2 never appears
        model = train_lr(docs, targets, "soap")
        X = count_matrix(docs, model.vocab)
        lam, theta = lr_train_reference(X, targets, inverse_frequency_weights(targets), LR_LAMBDAS)
        got = np.column_stack([model.weights, model.bias])
        assert np.isfinite(got).all() and model.bias[2] < model.bias[[0, 1, 3]].min()
        assert np.abs(got - theta).max() <= 1e-6

    def test_exhausted_newton_steps_raise(self, monkeypatch):
        monkeypatch.setattr(soapkit.baselines, "LR_MAX_ITERS", 1)
        docs = ([["aaa", "ccc"]] * 6) + ([["bbb", "ccc"]] * 6)
        with pytest.raises(DataError, match="did not converge"):
            train_lr(docs, np.eye(2)[[0] * 6 + [1] * 6], "soap")


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
            assert np.array_equal(model.predict_matrix([doc])[0], back.predict_matrix([doc])[0])

    def test_non_finite_array_rejected_at_load(self, tmp_path):
        model = train_mnb([["apple"], ["pie"]], np.array([[1.0, 0.0], [0.0, 1.0]]), "soap")
        path = tmp_path / "mnb.json"
        model.save(path)
        rec = json.loads(path.read_text())
        rec["log_likelihood"][0][0] = float("inf")
        with pytest.raises(DataError, match="non-finite"):
            BaselineModel.load(rec)

    def test_unknown_kind_rejected_at_predict(self):
        model = BaselineModel(kind="nope", task="soap", n_classes=2, vocab={"a": 0})
        with pytest.raises(DataError, match="^unknown baseline kind 'nope'$"):
            model.predict_matrix([["a"]])
