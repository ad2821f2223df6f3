"""End-to-end acceptance checks.

Each test covers one numbered criterion and registers a single
``[ACCEPTANCE] criterion N: PASS/FAIL`` line that pytest prints in its
terminal summary. Run them alone with::

    pytest tests/test_acceptance.py -m acceptance

Everything here is seeded; the numbers in the detail lines are
reproducible bit for bit.
"""

import statistics
import string
import time

import numpy as np
import pytest

from conftest import record_criterion
from oracles import (
    auprc_thresholds,
    auroc_pairwise,
    edit_distance_textbook,
    gradient_check,
    irr_map_oracle,
    population_mean_var,
)

from soapkit.align import align_transcripts, dp_align, fold_case
from soapkit.baselines import train_mc
from soapkit.corpus import (
    Rng,
    SoapSection,
    SpeakerLabel,
    Transcript,
    TranscriptKind,
    Utterance,
    gold_labels,
    one_hot_targets,
    render_reference,
)
from soapkit.irr import Observation, SoapNote, irr_report, map_notes
from soapkit.metrics import auprc, auroc, evaluate, fit_platt, log_loss, mc_macro_f1
from soapkit.neural.model import ModelConfig, SequenceClassifier
from soapkit.neural.train import TrainConfig, collect_scores, train_model
from soapkit.preprocess import preprocess_corpus
from soapkit.project import project_corpus
from soapkit.synth import CorruptionConfig, SynthConfig, corrupt, corrupt_corpus, generate_corpus

pytestmark = pytest.mark.acceptance


def _constant_predictor_report(class_counts, seed):
    """Evaluate a majority-class baseline on labels drawn with the given
    per-class counts (class 0 is the majority)."""
    golds = np.concatenate([np.full(n, c) for c, n in enumerate(class_counts)])
    np.random.default_rng(seed).shuffle(golds)
    n_classes = len(class_counts)
    targets = np.eye(n_classes)[golds]
    model = train_mc(targets, "soap" if n_classes == 5 else "speaker")
    scores = model.predict_matrix([["filler"]] * len(golds))
    return evaluate(scores, golds, n_classes)


def test_criterion_1_majority_class_anchor():
    t0 = time.time()
    soap = _constant_predictor_report([256, 36, 36, 36, 36], seed=1)  # 0.64 prevalence
    spk = _constant_predictor_report([547, 151, 151, 151], seed=2)  # 0.547 prevalence

    mean_prev_soap = (0.64 + 4 * (36 / 400)) / 5
    ok = (
        soap.accuracy == 0.64
        and abs(soap.macro_f1 - 0.156) <= 1e-3
        and soap.macro_f1 == pytest.approx(mc_macro_f1(0.64, 5), abs=1e-12)
        and soap.auroc == pytest.approx(0.5, abs=1e-12)
        and abs(soap.auprc - mean_prev_soap) <= 5e-3
        and abs(spk.macro_f1 - 0.177) <= 1e-3
        and spk.macro_f1 == pytest.approx(mc_macro_f1(0.547, 4), abs=1e-12)
    )
    record_criterion(
        1, ok and time.time() - t0 < 10.0,
        f"soap acc {soap.accuracy:.4f} F1 {soap.macro_f1:.4f} AUROC {soap.auroc:.2f} "
        f"AUPRC {soap.auprc:.4f}; speaker F1 {spk.macro_f1:.4f} ({time.time() - t0:.1f}s)")


def _random_pair(gen):
    alphabet = gen.choice(["ab", "abc", "abcde", string.ascii_lowercase + " "])
    la, lb = gen.integers(0, 41, size=2)
    a = "".join(gen.choice(list(alphabet), size=la)) if la else ""
    b = "".join(gen.choice(list(alphabet), size=lb)) if lb else ""
    return a, b


def _short_transcript_pairs(n_pairs, max_len=200):
    """Reference/ASR text pairs from single-transcript corpora, capped in
    length, with total character corruption at 20%."""
    noise = CorruptionConfig(char_sub_rate=0.12, char_del_rate=0.04, char_ins_rate=0.04)
    pairs = []
    seed = 0
    while len(pairs) < n_pairs:
        cfg = SynthConfig(n_transcripts=1, min_utterances=2, max_utterances=3,
                          seed=1000 + seed)
        t = generate_corpus(cfg)[0]
        ref_text, _ = render_reference(t.utterances)
        if len(ref_text) <= max_len:
            asr, _ = corrupt(t, noise, Rng(2000 + seed))
            pairs.append((ref_text, asr.text))
        seed += 1
    return pairs


def edit_cost(ops: str) -> int:
    """Unit edit cost of an op string: every op but a match costs one."""
    return len(ops) - ops.count("M")


def test_criterion_2_alignment_matches_oracles():
    t0 = time.time()
    gen = np.random.default_rng(202)
    for _ in range(500):
        a, b = _random_pair(gen)
        assert edit_cost(dp_align(a, b)) == edit_distance_textbook(a, b), (a, b)

    mismatches = []
    pairs = _short_transcript_pairs(100)
    for i, (ref_text, asr_text) in enumerate(pairs):
        hier = edit_cost(align_transcripts(ref_text, asr_text))
        flat = edit_cost(dp_align(fold_case(ref_text), fold_case(asr_text)))
        if hier != flat:
            mismatches.append(f"pair {i}: hierarchical {hier} vs flat {flat}")
    agree = 100 - len(mismatches)
    elapsed = time.time() - t0
    detail = (f"500/500 exact DP matches; transcript agreement {agree}/100 "
              f"({elapsed:.1f}s)")
    if mismatches:
        detail += "; " + "; ".join(mismatches)
    record_criterion(2, agree >= 99 and elapsed < 30.0, detail)


def test_criterion_3_zero_corruption_round_trip():
    t0 = time.time()
    refs = generate_corpus(SynthConfig(n_transcripts=1000, seed=30))
    clean, _ = corrupt_corpus(refs, CorruptionConfig(), Rng(31))
    projected = project_corpus(refs, clean)

    n_utts = 0
    exact = 0
    worst_sum = 0.0
    for ref, proj in zip(refs, projected):
        spk_hot, soap_hot = one_hot_targets(ref)
        assert len(proj.utterances) == len(ref.utterances)
        for i, utt in enumerate(proj.utterances):
            n_utts += 1
            soap_vec = np.asarray(utt.dist.soap)
            spk_vec = np.asarray(utt.dist.speaker)
            worst_sum = max(worst_sum, abs(soap_vec.sum() - 1.0))
            if np.array_equal(soap_vec, soap_hot[i]) and np.array_equal(spk_vec, spk_hot[i]):
                exact += 1
    elapsed = time.time() - t0
    ok = exact == n_utts and worst_sum <= 1e-9 and elapsed < 60.0
    record_criterion(
        3, ok,
        f"{exact}/{n_utts} utterances exactly one-hot, max |soap sum - 1| "
        f"{worst_sum:.1e} ({elapsed:.1f}s)")


def test_criterion_4_smoothing_monotone_in_corruption():
    t0 = time.time()
    refs = generate_corpus(SynthConfig(n_transcripts=8, seed=41))
    rates = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    means = []
    for rate in rates:
        noise = CorruptionConfig(char_sub_rate=0.6 * rate, char_del_rate=0.2 * rate,
                                 char_ins_rate=0.2 * rate)
        per_seed = []
        for s in range(10):
            asr, _ = corrupt_corpus(refs, noise, Rng(5000 + s))
            projected = project_corpus(refs, asr)
            maxes = [max(u.dist.soap) for t in projected for u in t.utterances]
            per_seed.append(float(np.mean(maxes)))
        means.append(float(np.mean(per_seed)))
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    elapsed = time.time() - t0
    record_criterion(
        4, decreasing and elapsed < 300.0,
        "mean max-prob by rate " + " > ".join(f"{m:.4f}" for m in means)
        + f" ({elapsed:.1f}s)")


def test_criterion_5_gradients_match_finite_differences():
    t0 = time.time()
    corpus = preprocess_corpus(generate_corpus(SynthConfig(n_transcripts=2, seed=50)))
    t = corpus[0]
    tokens = [u.tokens for u in t.utterances][:6]
    spk_t, sect_t = one_hot_targets(t)
    spk_t, sect_t = spk_t[:6], sect_t[:6]
    # class weights scaled down so finite-difference cancellation noise
    # stays below the |g| > 1e-8 inclusion guard
    summary = []
    all_ok = True
    for variant in ("dlb", "wa", "bil", "bild"):
        model = SequenceClassifier(ModelConfig(variant=variant, embed_dim=8,
                                               enc1_hidden=6, enc2_hidden=5,
                                               decoder_hidden=6, seed=0))
        worst = 0.0
        checked = 0
        tensors = set()
        for name, idx, analytic, numeric, rel in gradient_check(
                model, tokens, spk_t, sect_t, np.ones(4) * 1e-3, np.ones(5) * 1e-3):
            checked += 1
            tensors.add(name)
            worst = max(worst, rel)
            if rel >= 1e-4:
                all_ok = False
        all_ok = all_ok and checked > 0 and len(tensors) == len(model.trainable())
        summary.append(f"{variant} {checked} elems worst {worst:.1e}")
    elapsed = time.time() - t0
    record_criterion(5, all_ok and elapsed < 120.0,
                     "; ".join(summary) + f" ({elapsed:.1f}s)")


def test_criterion_6_context_advantage():
    t0 = time.time()
    shape = {"min_utterances": 24, "max_utterances": 32,
             "soap_marginals": (0.30, 0.25, 0.20, 0.15, 0.10),
             "speaker_marginals": (0.40, 0.30, 0.20, 0.10),
             "context_rule_strength": 0.5}
    train = preprocess_corpus(generate_corpus(
        SynthConfig(n_transcripts=500, seed=11, **shape)))
    test = preprocess_corpus(generate_corpus(
        SynthConfig(n_transcripts=100, seed=12, **shape)))

    targets = np.concatenate([one_hot_targets(t)[1] for t in train])
    golds = np.concatenate([gold_labels(t, "soap") for t in test])
    toks = [u.tokens for t in test for u in t.utterances]
    mc_f1 = evaluate(train_mc(targets, "soap").predict_matrix(toks), golds, 5).macro_f1

    dims = {"embed_dim": 32, "enc1_hidden": 48, "enc2_hidden": 24}
    f1 = {"wa": [], "bil": []}
    for seed in (0, 1, 2):
        for variant in ("wa", "bil"):
            model = SequenceClassifier(ModelConfig(variant=variant, seed=seed, **dims))
            train_model(model, train, TrainConfig(seed=seed))
            scores = collect_scores(model, test)["soap"]
            f1[variant].append(evaluate(scores, golds, 5).macro_f1)
    med_wa = statistics.median(f1["wa"])
    med_bil = statistics.median(f1["bil"])
    elapsed = time.time() - t0
    ok = (med_bil - med_wa >= 0.10 and med_wa > mc_f1 and med_bil > mc_f1
          and elapsed < 600.0)
    record_criterion(
        6, ok,
        f"median soap macro F1: wa {med_wa:.3f}, wa+bilstm {med_bil:.3f} "
        f"(gap {med_bil - med_wa:+.3f}), mc {mc_f1:.3f} ({elapsed:.0f}s)")


def test_criterion_7_metric_oracles():
    t0 = time.time()
    gen = np.random.default_rng(77)
    worst = 0.0
    for draw in range(200):
        n = int(gen.integers(6, 51))
        n_classes = int(gen.integers(2, 6))
        scores = gen.random((n, n_classes))
        if draw % 2:  # coarse grid forces score ties
            scores = np.round(scores * 5) / 5
        scores = (scores + 1e-9) / (scores + 1e-9).sum(axis=1, keepdims=True)
        golds = gen.integers(0, n_classes, size=n)
        roc = auroc(scores, golds, n_classes)["per_class"]
        prc = auprc(scores, golds, n_classes)["per_class"]
        for c, got in roc.items():
            worst = max(worst, abs(got - auroc_pairwise(scores[:, c], (golds == c).tolist())))
        for c, got in prc.items():
            worst = max(worst, abs(got - auprc_thresholds(scores[:, c], (golds == c).tolist())))

    closed_form_ok = True
    for p, n_classes in ((0.2, 5), (0.547, 4), (0.64, 5)):
        want = (2.0 * p / (1.0 + p)) / n_classes
        closed_form_ok = closed_form_ok and mc_macro_f1(p, n_classes) == pytest.approx(
            want, abs=1e-15)
    elapsed = time.time() - t0
    record_criterion(
        7, worst <= 1e-9 and closed_form_ok and elapsed < 10.0,
        f"200 draws, max |metric - oracle| {worst:.1e}; closed-form F1 verified "
        f"({elapsed:.1f}s)")


def _overconfident_scores(gen, n, n_classes=4):
    z = gen.normal(size=(n, n_classes))
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    golds = np.array([gen.choice(n_classes, p=row) for row in p])
    sharp = p ** 3
    sharp /= sharp.sum(axis=1, keepdims=True)
    return sharp, golds


def test_criterion_8_calibration():
    t0 = time.time()
    gen = np.random.Generator(np.random.PCG64(42))
    val_s, val_g = _overconfident_scores(gen, 400)
    test_s, test_g = _overconfident_scores(gen, 400)
    cal = fit_platt(val_s, val_g, 4)
    before = log_loss(test_s, test_g)
    after = log_loss(cal.probabilities(test_s), test_g)
    roc_before = auroc(test_s, test_g, 4)["per_class"]
    roc_after = auroc(cal.class_scores(test_s), test_g, 4)["per_class"]
    elapsed = time.time() - t0
    ok = after < before and roc_before == roc_after and elapsed < 30.0
    record_criterion(
        8, ok,
        f"held-out log loss {before:.3f} -> {after:.3f}; per-class AUROC "
        f"bit-identical ({elapsed:.1f}s)")


def _obs(subsection, summary, tags, evidence):
    return Observation(subsection=subsection, summary=summary,
                       tags=frozenset(tags), evidence=frozenset(evidence))


def _toy_transcript(encounter_id, n=6):
    return Transcript(encounter_id, TranscriptKind.REFERENCE, tuple(
        Utterance(id=i, text=f"utterance {i}.", speaker=SpeakerLabel.DOCTOR,
                  section=SoapSection.NONE)
        for i in range(n)))


def _note_pair_templates(encounter_id, template):
    """Four pair shapes with hand-computable category fractions."""
    meds = _obs("medications", "refill statin", ("rx",), (0, 1))
    if template == 0:  # both observations identical
        src = SoapNote(encounter_id, (meds, _obs("vitals", "bp 120 over 80", ("bp",), (2,))))
        return src, src
    if template == 1:  # one identical + one substitution (evidence jaccard 0.5)
        src = SoapNote(encounter_id, (
            meds, _obs("chief_complaint", "headache worse", ("hx",), (2,))))
        ref = SoapNote(encounter_id, (
            meds, _obs("chief_complaint", "headache for two days", ("hx",), (2, 3))))
        return src, ref
    if template == 2:  # one identical + one insertion; unmatched reference -> deletion
        src = SoapNote(encounter_id, (
            meds, _obs("follow_up", "return in two weeks", ("fu",), (4,))))
        ref = SoapNote(encounter_id, (
            meds, _obs("lab_results", "cbc normal", ("lab",), (5,))))
        return src, ref
    # template 3: reference has an extra zero-overlap observation -> deletion
    src = SoapNote(encounter_id, (meds,))
    ref = SoapNote(encounter_id, (meds, _obs("medications", "start ibuprofen", ("otc",), (3,))))
    return src, ref


def test_criterion_9_irr_statistics():
    t0 = time.time()
    # category mapping vs the exhaustive oracle on each hand-built shape
    oracle_ok = True
    for template in range(4):
        src, ref = _note_pair_templates("e0", template)
        mapping = map_notes(src, ref)
        want = irr_map_oracle(src, ref)
        got_cats = [e[0].value for e in mapping.entries]
        got_refs = [e[1] for e in mapping.entries]
        oracle_ok = oracle_ok and (got_cats == want["categories"]
                                   and got_refs == want["ref_idx"]
                                   and mapping.deletions == want["deletions"])

    # identical pairs: Identical fraction 1.0, per-section conditionals (1, 0)
    ident_pairs = []
    ident_transcripts = []
    for k in range(5):
        eid = f"i{k}"
        src, ref = _note_pair_templates(eid, 0)
        ident_pairs.append((src, ref))
        ident_transcripts.append(_toy_transcript(eid))
    ident = irr_report(*zip(*ident_pairs), ident_transcripts)  # source notes, reference notes
    plan = ident.sections[SoapSection.PLAN]
    ident_ok = (ident.identical == (1.0, 0.0)
                and plan.p_pos_given_pos == 1.0 and plan.p_pos_given_neg == 0.0
                and ident.all_accuracy == 1.0)

    # 20-pair fixture: aggregate statistics reproduce plain-arithmetic values
    pairs = []
    transcripts = []
    for k in range(20):
        eid = f"p{k:02d}"
        pairs.append(_note_pair_templates(eid, k // 5))
        transcripts.append(_toy_transcript(eid))
    report = irr_report(*zip(*pairs), transcripts)

    per_template = {  # identical, substitution, insertion, deletion per pair
        0: (1.0, 0.0, 0.0, 0.0),
        1: (0.5, 0.5, 0.0, 0.0),
        2: (0.5, 0.0, 0.5, 0.5),
        3: (1.0, 0.0, 0.0, 0.5),
    }
    columns = list(zip(*[per_template[k // 5] for k in range(20)]))
    want_fracs = [population_mean_var(col) for col in columns]
    agg_ok = (
        report.identical == pytest.approx(want_fracs[0], abs=1e-12)
        and report.substitution == pytest.approx(want_fracs[1], abs=1e-12)
        and report.insertion == pytest.approx(want_fracs[2], abs=1e-12)
        and report.deletion == pytest.approx(want_fracs[3], abs=1e-12)
        # substitutions exist only in template-1 pairs: evidence {2} vs {2, 3}
        and report.evidence_overlap == pytest.approx((0.5, 0.0), abs=1e-12)
        and report.tag_overlap == pytest.approx((1.0, 0.0), abs=1e-12)
        # disagreements: 1 utterance in each template-1/3 pair, 2 in template-2
        and report.all_accuracy == pytest.approx(100.0 / 120.0, abs=1e-12)
        and report.n_pairs == 20
    )
    elapsed = time.time() - t0
    record_criterion(
        9, oracle_ok and ident_ok and agg_ok and elapsed < 10.0,
        f"mapping matches oracle on 4 shapes; identical fraction {ident.identical}; "
        f"20-pair aggregates exact ({elapsed:.1f}s)")


def test_criterion_10_projected_asr_helps_speaker_task():
    t0 = time.time()
    shape = {"min_utterances": 16, "max_utterances": 24,
             "speaker_marginals": (0.40, 0.30, 0.20, 0.10)}
    noise = CorruptionConfig(char_sub_rate=0.02, char_del_rate=0.01,
                             char_ins_rate=0.01, turn_merge_rate=0.45)
    train_ref = generate_corpus(SynthConfig(n_transcripts=250, seed=21, **shape))
    test_ref = generate_corpus(SynthConfig(n_transcripts=60, seed=22, **shape))
    train_asr = project_corpus(train_ref, corrupt_corpus(train_ref, noise, Rng(23))[0])
    test_asr = project_corpus(test_ref, corrupt_corpus(test_ref, noise, Rng(24))[0])
    ref_p = preprocess_corpus(train_ref)
    asr_p = preprocess_corpus(train_asr)
    test_p = preprocess_corpus(test_asr)

    golds = np.concatenate([gold_labels(t, "speaker") for t in test_p])

    dims = {"embed_dim": 32, "enc1_hidden": 48, "enc2_hidden": 24}
    wins = 0
    lines = []
    for seed in (0, 1, 2):
        f1 = {}
        for tag, corpus in (("ref", ref_p), ("ref+asr", ref_p + asr_p)):
            model = SequenceClassifier(ModelConfig(variant="bil", seed=seed, **dims))
            train_model(model, corpus, TrainConfig(seed=seed))
            scores = collect_scores(model, test_p)["speaker"]
            f1[tag] = evaluate(scores, golds, 4).macro_f1
        wins += int(f1["ref+asr"] >= f1["ref"])
        lines.append(f"seed {seed}: {f1['ref']:.3f} -> {f1['ref+asr']:.3f}")
    elapsed = time.time() - t0
    record_criterion(
        10, wins >= 2 and elapsed < 900.0,
        f"speaker macro F1 on ASR test, ref-only vs ref+asr: "
        + "; ".join(lines) + f"; wins {wins}/3 ({elapsed:.0f}s)")
