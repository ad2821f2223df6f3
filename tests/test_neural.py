import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from oracles import (
    dropout_masks_per_mask,
    gradient_check,
    hash_embedding,
    lstm_backward_steps,
    lstm_forward_steps,
    sigmoid_two_branch,
    transcript_loss_and_grads,
    transcript_predict,
)

from soapkit.corpus import TASKS, DataError, Rng, one_hot_targets
from soapkit.neural import model as model_module
from soapkit.neural.embeddings import HashEmbeddings, seed_state_words
from soapkit.neural.model import ModelConfig, SequenceClassifier, load_model
from soapkit.neural.network import (
    attention_backward,
    attention_forward,
    clip_scale,
    dropout_mask,
    global_norm,
    init_lstm,
    lstm_backward,
    lstm_forward,
    sigmoid,
    softmax,
    weighted_ce_loss_and_dlogits,
)
from soapkit.neural.train import Adam, TrainConfig, collect_scores, train_model


class TestHashEmbeddings:
    def test_deterministic_across_instances(self):
        a = HashEmbeddings(dim=8, seed=4).table(["pain"])[0]
        b = HashEmbeddings(dim=8, seed=4).table(["pain"])[0]
        assert np.array_equal(a, b)

    def test_layers_and_seeds_distinguish(self):
        vecs = HashEmbeddings(dim=8, seed=0).table(["pain"])[0]
        assert not np.array_equal(vecs[0], vecs[1])
        other = HashEmbeddings(dim=8, seed=1).table(["pain"])[0]
        assert not np.array_equal(vecs[0], other[0])

    def test_entries_are_standard_normal_scale(self):
        emb = HashEmbeddings(dim=32, seed=0)
        sample = emb.table([f"tok{i}" for i in range(100)]).ravel()
        assert abs(sample.mean()) < 0.05
        assert abs(sample.std() - 1.0) < 0.05

    def test_state_words_match_seed_sequence(self):
        gen = np.random.Generator(np.random.PCG64(17))
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds += gen.integers(0, 2**64, size=1000, dtype=np.uint64).tolist()
        seeds += gen.integers(0, 2**32, size=200, dtype=np.uint64).tolist()
        want = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
        got = seed_state_words(seeds)
        assert got.dtype == np.uint64 and np.array_equal(got, want)

    def test_table_matches_per_token_generators(self):
        emb = HashEmbeddings(dim=16, n_layers=3, seed=5)
        tokens = [f"w{i}" for i in range(2000)] + ["", "é", "naïve", "日本語", "x🙂", "a b"]
        want = np.stack([hash_embedding(5, 3, 16, t) for t in tokens])
        assert emb.table(tokens).tobytes() == want.tobytes()
        assert emb.table(["naïve"])[0].tobytes() == want[2002].tobytes()

    def test_empty_table(self):
        assert HashEmbeddings(dim=8, n_layers=3).table([]).shape == (0, 3, 8)

    def test_lone_surrogate_hashes_its_surrogatepass_bytes(self):
        # JSON may spell "\ud800"; strict UTF-8 refuses it, surrogatepass writes ED A0 80
        row = HashEmbeddings(dim=8, n_layers=2, seed=3).table(["\ud800"])[0]
        for k in range(2):
            digest = hashlib.sha256(b"3|%d|\xed\xa0\x80" % k).digest()
            gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
            assert row[k].tobytes() == gen.standard_normal(8).tobytes()


class TestSigmoid:
    def test_bit_identical_to_two_branch_form(self):
        gen = np.random.Generator(np.random.PCG64(8))
        z = np.concatenate([gen.normal(scale=30.0, size=100_000),
                            [0.0, -0.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf]])
        assert sigmoid(z).tobytes() == sigmoid_two_branch(z).tobytes()

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, 1.0])))[0]


class TestAttention:
    """One utterance at a time: a block of one, E (1, T, K, D)."""

    def test_single_token_returns_its_layer_mix(self):
        gen = np.random.Generator(np.random.PCG64(0))
        E = gen.normal(size=(1, 1, 3, 5))
        w_layer = gen.normal(size=5)
        u, cache = attention_forward(E, w_layer, np.zeros(5))
        A = softmax(E[0, 0] @ w_layer, axis=0)
        assert np.allclose(u[0], A @ E[0, 0], atol=1e-12)

    def test_zero_word_vector_gives_token_mean(self):
        gen = np.random.Generator(np.random.PCG64(1))
        E = gen.normal(size=(1, 4, 3, 5))
        u, cache = attention_forward(E, np.zeros(5), np.zeros(5))
        # zero layer vector also means uniform layer mixing
        assert np.allclose(u[0], E[0].mean(axis=(0, 1)), atol=1e-12)

    def test_backward_matches_finite_differences(self):
        gen = np.random.Generator(np.random.PCG64(2))
        E = gen.normal(size=(1, 3, 3, 4))
        w_layer = gen.normal(size=4)
        w_word = gen.normal(size=4)
        r = gen.normal(size=4)  # random linear functional of the output
        u, cache = attention_forward(E, w_layer, w_word)
        d_wl, d_ww = attention_backward(r[None], cache)
        eps = 1e-6
        for vec, grad in ((w_layer, d_wl), (w_word, d_ww)):
            for idx in range(vec.size):
                old = vec[idx]
                vec[idx] = old + eps
                up = attention_forward(E, w_layer, w_word)[0][0] @ r
                vec[idx] = old - eps
                down = attention_forward(E, w_layer, w_word)[0][0] @ r
                vec[idx] = old
                assert grad[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-6)


class TestLstm:
    """One LSTM over one sequence: a stack of one, X (T, 1, D) and
    W (1, 4H, D)."""

    def test_init_shapes_bounds_and_forget_bias(self):
        gen = np.random.Generator(np.random.PCG64(0))
        p = init_lstm(gen, input_dim=9, hidden=4)
        assert p["W"].shape == (16, 9) and p["U"].shape == (16, 4) and p["b"].shape == (16,)
        assert np.abs(p["W"]).max() <= 2.0 / np.sqrt(9)
        assert np.abs(p["U"]).max() <= 1.0 / np.sqrt(4)
        assert p["b"][4:8].tolist() == [1.0] * 4  # forget gate block
        assert not p["b"][:4].any() and not p["b"][8:].any()

    def test_backward_matches_finite_differences(self):
        gen = np.random.Generator(np.random.PCG64(3))
        n, din, hidden = 5, 3, 4
        X = gen.normal(size=(n, 1, din))
        p = {k: v[None] for k, v in init_lstm(gen, din, hidden).items()}
        r = gen.normal(size=(n, 1, 1, hidden))

        def loss():
            H, _ = lstm_forward(X, p["W"], p["U"], p["b"])
            return float((H * r).sum())

        H, cache = lstm_forward(X, p["W"], p["U"], p["b"])
        dX, grads = lstm_backward(r, cache)
        eps = 1e-6
        for name in ("W", "U", "b"):
            flat = p[name].reshape(-1)
            g = grads[name].reshape(-1)
            for idx in range(flat.size):
                old = flat[idx]
                flat[idx] = old + eps
                up = loss()
                flat[idx] = old - eps
                down = loss()
                flat[idx] = old
                num = (up - down) / (2 * eps)
                assert g[idx] == pytest.approx(num, abs=1e-5), name
        flatX = X.reshape(-1)
        gX = dX.reshape(-1)
        for idx in range(flatX.size):
            old = flatX[idx]
            flatX[idx] = old + eps
            up = loss()
            flatX[idx] = old - eps
            down = loss()
            flatX[idx] = old
            assert gX[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_reverse_direction_sees_future_only(self):
        gen = np.random.Generator(np.random.PCG64(4))
        X = gen.normal(size=(6, 1, 3))
        p = {k: v[None] for k, v in init_lstm(gen, 3, 4).items()}
        H, _ = lstm_forward(X, p["W"], p["U"], p["b"], reverse=True)
        X2 = X.copy()
        X2[0] = 0.0  # perturbing the first step cannot reach later outputs
        H2, _ = lstm_forward(X2, p["W"], p["U"], p["b"], reverse=True)
        assert np.array_equal(H[1:], H2[1:])
        assert not np.array_equal(H[0], H2[0])

    def test_tbptt_cut_blocks_gradient_flow(self):
        gen = np.random.Generator(np.random.PCG64(5))
        X = gen.normal(size=(6, 1, 3))
        p = {k: v[None] for k, v in init_lstm(gen, 3, 4).items()}
        H, cache = lstm_forward(X, p["W"], p["U"], p["b"])
        dH = np.zeros_like(H)
        dH[5] = 1.0  # loss depends only on the last step
        dX_full, _ = lstm_backward(dH, cache)
        dX_cut, _ = lstm_backward(dH, cache, cuts=frozenset({3}))
        # positions before the cut receive no gradient once the carry stops
        assert not dX_cut[:3].any()
        assert dX_full[:3].any()
        assert np.array_equal(dX_cut[3:], dX_full[3:])


class TestStackedLstm:
    """S LSTMs in lockstep over a ragged batch, against the step-by-step
    oracle run one member and one sequence at a time."""

    @pytest.mark.parametrize("reverse", [(False,), (True,), (False, True), (False, False)],
                             ids=["S1-forward", "S1-reverse", "S2-bidirectional", "S2-forward"])
    @pytest.mark.parametrize("dropout", [False, True], ids=["plain", "dropout"])
    def test_members_match_step_oracle(self, reverse, dropout):
        gen = np.random.Generator(np.random.PCG64(21))
        n, din, hidden, lengths = 7, 4, 5, (7, 2, 5, 1)
        n_lstm, batch = len(reverse), len(lengths)
        X = gen.normal(size=(n, batch, din))
        mask = (np.arange(n)[:, None] < np.array(lengths)).astype(float)
        members = [init_lstm(gen, din, hidden) for _ in range(n_lstm)]
        W, U, b = (np.stack([p[k] for p in members]) for k in "WUb")
        b = b + gen.normal(scale=0.3, size=b.shape)
        im = rm = None
        if dropout:
            im = np.stack([dropout_mask(gen, (batch, din), 0.3) for _ in range(n_lstm)])
            rm = np.stack([dropout_mask(gen, (batch, hidden), 0.3) for _ in range(n_lstm)])
        dH = gen.normal(size=(n, n_lstm, batch, hidden)) * mask[:, None, :, None]
        cuts = frozenset(range(2, n, 2))  # tbptt_len 2
        H, cache = lstm_forward(X, W, U, b, im, rm, mask=mask, reverse=reverse)
        H_nocache, none = lstm_forward(X, W, U, b, im, rm, mask=mask, reverse=reverse,
                                       keep_cache=False)
        assert none is None and np.array_equal(H, H_nocache)
        dX, grads = lstm_backward(dH, cache, cuts)
        assert H.shape == (n, n_lstm, batch, hidden) and dX.shape == (n, n_lstm, batch, din)
        for s in range(n_lstm):
            want = {k: 0.0 for k in "WUb"}
            for j, L in enumerate(lengths):
                h, c = lstm_forward_steps(X[:L, j], W[s], U[s], b[s],
                                          None if im is None else im[s, j],
                                          None if rm is None else rm[s, j], reverse=reverse[s])
                dx, g = lstm_backward_steps(dH[:L, s, j], c, cuts)
                assert np.abs(H[:L, s, j] - h).max() <= 1e-12
                assert np.abs(dX[:L, s, j] - dx).max() <= 1e-12
                assert not H[L:, s, j].any() and not dX[L:, s, j].any()
                want = {k: want[k] + g[k] for k in want}
            for k in want:
                assert np.abs(grads[k][s] - want[k]).max() <= 1e-12, (s, k)

    def test_stacked_members_equal_single_calls_bit_for_bit(self):
        gen = np.random.Generator(np.random.PCG64(22))
        n, batch, din, hidden = 6, 3, 4, 3
        X = gen.normal(size=(n, batch, din))
        mask = (np.arange(n)[:, None] < np.array([6, 3, 4])).astype(float)
        members = [init_lstm(gen, din, hidden) for _ in range(2)]
        im = [dropout_mask(gen, (batch, din), 0.25) for _ in range(2)]
        rm = [dropout_mask(gen, (batch, hidden), 0.25) for _ in range(2)]
        dH = gen.normal(size=(n, 2, batch, hidden))
        H, cache = lstm_forward(X, *(np.stack([p[k] for p in members]) for k in "WUb"),
                                np.stack(im), np.stack(rm), mask=mask, reverse=(False, True))
        dX, grads = lstm_backward(dH, cache, frozenset({2, 4}))
        for s, p in enumerate(members):
            h, c = lstm_forward(X, *(p[k][None] for k in "WUb"), im[s][None], rm[s][None],
                                mask=mask, reverse=(s == 1,))
            dx, g = lstm_backward(dH[:, s:s + 1], c, frozenset({2, 4}))
            assert np.array_equal(H[:, s], h[:, 0]) and np.array_equal(dX[:, s], dx[:, 0])
            assert all(np.array_equal(grads[k][s], g[k][0]) for k in "WUb")


class TestDropoutAndClip:
    def test_inverted_scaling(self):
        gen = np.random.Generator(np.random.PCG64(1))
        mask = dropout_mask(gen, 20000, 0.25)
        assert set(np.unique(mask)).issubset({0.0, 1.0 / 0.75})
        assert mask.mean() == pytest.approx(1.0, abs=0.02)

    def test_clip_above_threshold(self):
        grads = [np.array([3.0, 4.0])]  # norm 5
        norm = global_norm(grads)
        scale = clip_scale(norm, 2.5)
        assert norm == pytest.approx(5.0)
        assert scale == pytest.approx(0.5)
        assert (grads[0] * scale).tolist() == [1.5, 2.0]
        assert global_norm([grads[0] * scale]) == pytest.approx(2.5)

    def test_no_clip_below_threshold(self):
        norm = global_norm([np.array([0.3, 0.4])])
        assert clip_scale(norm, 5.0) == 1.0


class TestWeightedLoss:
    def test_dlogits_matches_finite_differences(self):
        gen = np.random.Generator(np.random.PCG64(6))
        z = gen.normal(size=(4, 5))
        targets = gen.random((4, 5))
        targets /= targets.sum(axis=1, keepdims=True)
        weights = gen.random(5) + 0.5

        def loss_of(zz):
            return weighted_ce_loss_and_dlogits(softmax(zz, axis=1), targets, weights)[0]

        _, dlogits = weighted_ce_loss_and_dlogits(softmax(z, axis=1), targets, weights)
        eps = 1e-6
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                old = z[i, j]
                z[i, j] = old + eps
                up = loss_of(z)
                z[i, j] = old - eps
                down = loss_of(z)
                z[i, j] = old
                assert dlogits[i, j] == pytest.approx((up - down) / (2 * eps), abs=1e-7)

    def test_hand_value(self):
        probs = np.array([[0.5, 0.5]])
        targets = np.array([[1.0, 0.0]])
        weights = np.array([2.0, 1.0])
        loss, _ = weighted_ce_loss_and_dlogits(probs, targets, weights)
        assert loss == pytest.approx(-2.0 * np.log(0.5), abs=1e-12)


class TestAdam:
    def test_first_step_hand_value(self):
        params = {"w": np.array([1.0])}
        opt = Adam(params, ["w"], lr=0.001)
        opt.step({"w": np.array([1.0])}, scale=1.0)
        # bias-corrected first step moves by lr * g/(|g| + eps) = lr
        assert params["w"][0] == pytest.approx(1.0 - 0.001, abs=1e-9)

    def test_zero_gradient_is_a_fixed_point(self):
        params = {"w": np.array([0.5, -0.5])}
        opt = Adam(params, ["w"], lr=0.1)
        opt.step({"w": np.zeros(2)}, scale=1.0)
        assert params["w"].tolist() == [0.5, -0.5]

    def test_flat_update_matches_per_array_update(self):
        gen = np.random.Generator(np.random.PCG64(8))
        params = {"a": gen.normal(size=(3, 2)), "frozen": np.ones(2), "b": gen.normal(size=4)}
        frozen = params["frozen"]
        ref = {k: params[k].copy() for k in ("a", "b")}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(x) for k, x in ref.items()}
        opt = Adam(params, ["a", "b"], lr=0.01)
        for t in (1, 2, 3):
            grads = {k: gen.normal(size=ref[k].shape) for k in ref}
            opt.step(grads, scale=0.5)
            for k in ref:
                g = grads[k] * 0.5
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
                ref[k] = ref[k] - 0.01 * (m[k] / (1.0 - 0.9 ** t)) / (
                    np.sqrt(v[k] / (1.0 - 0.999 ** t)) + 1e-8)
                assert np.array_equal(params[k], ref[k]), (t, k)
                assert np.shares_memory(params[k], opt.flat)
        assert params["frozen"] is frozen and frozen.tolist() == [1.0, 1.0]


def tiny_config(variant, seed=0):
    return ModelConfig(variant=variant, embed_dim=8, enc1_hidden=6,
                       enc2_hidden=5, decoder_hidden=6, seed=seed)


def tiny_batch(small_tokenized):
    t = small_tokenized[0]
    tokens = [u.tokens for u in t.utterances][:6]
    spk_t, sect_t = one_hot_targets(t)
    return tokens, spk_t[:6], sect_t[:6]


class TestTaskTable:
    """TASKS lists the tasks in the order targets and predictions come in,
    with each task's class count."""

    def test_one_hot_targets(self, small_tokenized):
        t = small_tokenized[0]
        shapes = [a.shape for a in one_hot_targets(t)]
        assert shapes == [(len(t.utterances), n) for n in TASKS.values()]

    @pytest.mark.parametrize("variant", ["bil", "bild"])  # dense heads, decoders
    def test_predict(self, small_tokenized, variant):
        tokens, _, _ = tiny_batch(small_tokenized)
        probs = SequenceClassifier(tiny_config(variant)).predict([tokens])
        assert [p.shape for p in probs] == [(6, n) for n in TASKS.values()]

    def test_collect_scores(self, small_tokenized):
        corpus = small_tokenized[:5]
        scores = collect_scores(SequenceClassifier(tiny_config("bil")), corpus)
        n = sum(len(t.utterances) for t in corpus)
        assert list(scores) == list(TASKS)
        assert [s.shape for s in scores.values()] == [(n, c) for c in TASKS.values()]


class TestModel:
    def test_variant_validation(self):
        with pytest.raises(DataError, match="^unknown variant 'transformer'"):
            ModelConfig(variant="transformer")

    def test_predict_rows_are_distributions(self, small_tokenized):
        tokens, _, _ = tiny_batch(small_tokenized)
        m = SequenceClassifier(tiny_config("bild"))
        spk, sect = m.predict([tokens])
        assert spk.shape == (6, 4) and sect.shape == (6, 5)
        assert np.allclose(spk.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(sect.sum(axis=1), 1.0, atol=1e-9)

    def test_empty_utterance_rejected(self, small_tokenized):
        tokens, _, _ = tiny_batch(small_tokenized)
        m = SequenceClassifier(tiny_config("wa"))
        with pytest.raises(DataError, match="no tokens"):
            m.predict([tokens[:2] + [()] + tokens[2:]])

    def test_dlb_freezes_word_attention(self, small_tokenized):
        tokens, spk_t, sect_t = tiny_batch(small_tokenized)
        m = SequenceClassifier(tiny_config("dlb"))
        assert "w_word" in m.frozen
        _, grads = m.loss_and_grads([tokens], spk_t, sect_t, np.ones(4), np.ones(5))
        assert not grads["w_word"].any()
        assert not m.params["w_word"].any()

    def test_wa_predictions_ignore_surrounding_utterances(self, small_tokenized):
        tokens, _, _ = tiny_batch(small_tokenized)
        m = SequenceClassifier(tiny_config("wa"))
        full = m.predict([tokens])[0]
        sub = m.predict([tokens[:2]])[0]
        assert np.array_equal(full[:2], sub)

    def test_bil_predictions_use_context(self, small_tokenized):
        tokens, _, _ = tiny_batch(small_tokenized)
        m = SequenceClassifier(tiny_config("bil"))
        full = m.predict([tokens])[0]
        sub = m.predict([tokens[:2]])[0]
        assert not np.array_equal(full[:2], sub)

    def test_tbptt_leaves_forward_loss_unchanged(self, small_tokenized):
        tokens, spk_t, sect_t = tiny_batch(small_tokenized)
        m = SequenceClassifier(tiny_config("bild"))
        a = m.compute_loss([tokens], spk_t, sect_t, np.ones(4), np.ones(5), tbptt_len=2)
        b = m.compute_loss([tokens], spk_t, sect_t, np.ones(4), np.ones(5), tbptt_len=10**6)
        assert a == b

    def test_gradients_match_finite_differences(self, small_tokenized):
        # class weights are scaled down so finite-difference cancellation
        # noise stays below the |g| > 1e-8 inclusion guard
        tokens, spk_t, sect_t = tiny_batch(small_tokenized)
        m = SequenceClassifier(tiny_config("bild"))
        worst = 0.0
        for name, idx, analytic, numeric, rel in gradient_check(
                m, tokens, spk_t, sect_t, np.ones(4) * 1e-3, np.ones(5) * 1e-3):
            worst = max(worst, rel)
            assert rel < 1e-4, f"{name}[{idx}]: {analytic} vs {numeric}"
        assert worst > 0.0  # the check really ran

    def test_checkpoint_with_non_finite_parameter_rejected(self):
        rec = SequenceClassifier(tiny_config("wa")).to_record()
        rec["params"]["w_layer"][0] = float("nan")
        with pytest.raises(DataError, match="non-finite"):
            SequenceClassifier.from_record(rec)

    @pytest.mark.parametrize("variant", ["wa", "bild"])
    def test_saved_checkpoint_is_the_json_of_its_record(self, variant, tmp_path):
        m = trained_looking(variant)
        path = tmp_path / "model.json"
        m.save(path)
        assert path.read_bytes() == json.dumps(m.to_record()).encode("utf-8")

    def test_predict_keeps_no_lstm_caches(self, small_tokenized):
        batch = [[u.tokens for u in t.utterances] for t in small_tokenized[:4]]
        spk, sect = (np.concatenate(x) for x in zip(*map(one_hot_targets, small_tokenized[:4])))
        m = trained_looking("bild")
        cached = m._forward(batch)["probs"]  # also fills the embedding table

        def peak(fn):
            tracemalloc.start()
            try:
                out = fn()
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        predict_peak, rows = peak(lambda: m.predict(batch))
        loss_peak, _ = peak(lambda: m.compute_loss(batch, spk, sect, np.ones(4), np.ones(5)))
        # with every LSTM cache kept, the two peaks are within 1% of each other
        assert predict_peak < 0.8 * loss_peak
        assert np.array_equal(rows[0], cached["spk"]) and np.array_equal(rows[1], cached["sect"])

    def test_checkpoint_round_trip_bit_exact(self, small_tokenized, tmp_path):
        tokens, _, _ = tiny_batch(small_tokenized)
        m = SequenceClassifier(tiny_config("bil", seed=9))
        path = tmp_path / "model.json"
        m.save(path)
        back = load_model(path)
        assert back.config == m.config
        a_spk, a_sect = m.predict([tokens])
        b_spk, b_sect = back.predict([tokens])
        assert np.array_equal(a_spk, b_spk) and np.array_equal(a_sect, b_sect)


def ragged_batch(small_tokenized, lengths=(5, 1, 7, 3)):
    """Transcripts cut to unequal lengths, with per-transcript targets."""
    tokens, spk, sect = [], [], []
    for t, n in zip(small_tokenized, lengths):
        spk_t, sect_t = one_hot_targets(t)
        tokens.append([u.tokens for u in t.utterances][:n])
        spk.append(spk_t[:n])
        sect.append(sect_t[:n])
    return tokens, spk, sect


def trained_looking(variant):
    """A model whose trainable parameters, biases included, are all moved
    off their initial values, as training would move them."""
    m = SequenceClassifier(tiny_config(variant))
    gen = np.random.Generator(np.random.PCG64(11))
    for name in m.trainable():
        m.params[name] = m.params[name] + gen.normal(scale=0.3, size=m.params[name].shape)
    return m


@pytest.mark.parametrize("variant", ["dlb", "wa", "bil", "bild"])
class TestBatchMatchesPerTranscriptOracle:
    """One masked (T, B) pass against the per-transcript reference, on a
    ragged batch with a one-utterance transcript, dropout on, and TBPTT
    chunks shorter than every transcript with more than one utterance."""

    def test_loss_gradients_and_generator_state(self, small_tokenized, variant):
        tokens, spk, sect = ragged_batch(small_tokenized)
        m = trained_looking(variant)
        spk_w, sect_w = np.array([0.5, 1.0, 2.0, 1.5]), np.array([1.0, 0.7, 1.3, 2.0, 0.4])
        gen, oracle_gen = Rng(4), Rng(4)
        loss, grads = m.loss_and_grads(tokens, np.concatenate(spk), np.concatenate(sect),
                                       spk_w, sect_w, dropout=0.3, gen=gen, tbptt_len=2)
        want_loss, want = 0.0, {k: np.zeros_like(v) for k, v in m.params.items()}
        for tl, s, c in zip(tokens, spk, sect):
            l, g = transcript_loss_and_grads(m, tl, s, c, spk_w, sect_w, dropout=0.3,
                                             gen=oracle_gen, tbptt_len=2)
            want_loss += l
            for k in want:
                want[k] += g[k]
        assert loss == pytest.approx(want_loss, rel=1e-10)
        assert set(grads) == set(want)
        for k in want:
            assert np.abs(grads[k] - want[k]).max() <= 1e-10 * np.abs(want[k]).max(), k
        assert gen.bit_generator.state == oracle_gen.bit_generator.state
        assert m.compute_loss(tokens, np.concatenate(spk), np.concatenate(sect), spk_w, sect_w,
                              dropout=0.3, gen=Rng(4), tbptt_len=2) == loss

    def test_predict_rows(self, small_tokenized, variant):
        tokens, _, _ = ragged_batch(small_tokenized)
        m = trained_looking(variant)
        got = m.predict(tokens)
        for task in (0, 1):
            want = np.concatenate([transcript_predict(m, tl)[task] for tl in tokens])
            assert got[task].shape == want.shape
            assert np.abs(got[task] - want).max() <= 1e-12


class TestFixedWorkOncePerBatch:
    @pytest.mark.parametrize("variant", ["bil", "bild"])
    def test_dropout_masks_equal_one_draw_per_mask(self, variant):
        m = SequenceClassifier(tiny_config(variant))
        gen, oracle_gen = Rng(7), Rng(7)
        got = m._dropout_masks(3, 0.3, gen)
        want = dropout_masks_per_mask(m, 3, 0.3, oracle_gen)
        assert got.keys() == want.keys()
        for name in want:
            for g, w in zip(got[name], want[name]):
                assert g.shape == w.shape and np.array_equal(g, w), name
        assert gen.random(5).tolist() == oracle_gen.random(5).tolist()

    @pytest.mark.parametrize("variant", ["wa", "bild"])
    def test_attention_runs_once_per_transcript(self, small_tokenized, variant, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return attention_forward(*args, **kwargs)

        monkeypatch.setattr(model_module, "attention_forward", counting)
        tokens, spk, sect = ragged_batch(small_tokenized)
        m = trained_looking(variant)
        m.loss_and_grads(tokens, np.concatenate(spk), np.concatenate(sect), np.ones(4),
                         np.ones(5), dropout=0.3, gen=Rng(1), tbptt_len=2)
        assert len(calls) == len(tokens)


class TestTraining:
    def test_loss_decreases_epoch_one_to_five(self, small_tokenized):
        m = SequenceClassifier(ModelConfig(variant="bild", seed=0))
        losses = train_model(m, small_tokenized, TrainConfig(seed=1))
        assert len(losses) == 5
        assert losses[-1] < losses[0]

    def test_zero_learning_rate_leaves_params_bit_identical(self, small_tokenized):
        m = SequenceClassifier(ModelConfig(variant="wa", seed=3))
        before = {k: v.copy() for k, v in m.params.items()}
        train_model(m, small_tokenized[:6],
                    TrainConfig(learning_rate=0.0, dropout_schedule=(0.3,), seed=1))
        assert all(np.array_equal(before[k], m.params[k]) for k in before)

    def test_same_seed_reproduces_training_exactly(self, small_tokenized):
        def run():
            m = SequenceClassifier(ModelConfig(variant="wa", seed=2))
            losses = train_model(m, small_tokenized[:8],
                                 TrainConfig(dropout_schedule=(0.3, 0.2), seed=5))
            return losses, m.params
        l1, p1 = run()
        l2, p2 = run()
        assert l1 == l2
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_nan_loss_aborts_with_location(self, small_tokenized):
        m = SequenceClassifier(ModelConfig(variant="wa", seed=0))
        m.params["head_spk_W"][0, 0] = np.nan
        with pytest.raises(DataError, match="epoch 0, batch 0"):
            train_model(m, small_tokenized[:4], TrainConfig(seed=0))

    def test_on_batch_reports_consistent_clip_scale(self, small_tokenized):
        m = SequenceClassifier(ModelConfig(variant="wa", seed=1))
        seen = []
        train_model(m, small_tokenized[:8],
                    TrainConfig(dropout_schedule=(0.3,), seed=2), on_batch=seen.append)
        assert len(seen) == 2  # 8 transcripts / batch size 4
        for rec in seen:
            assert set(rec) == {"epoch", "batch", "loss", "grad_norm", "clip_scale"}
            assert rec["grad_norm"] > 0
            want = min(1.0, 5.0 / rec["grad_norm"])
            assert rec["clip_scale"] == pytest.approx(want, rel=1e-12)

    def test_empty_corpus_rejected(self):
        m = SequenceClassifier(tiny_config("wa"))
        with pytest.raises(DataError, match="no non-empty"):
            train_model(m, [], TrainConfig())
