"""The benchmark's three workloads and the checks on their outputs.

Every workload generates its inputs with `soapkit synth` from the seed it is
given, then runs its stages through `soapkit.cli.main(argv)` in this
process, always with `--threads 1`. Sizes keep one pipeline iteration to a
few seconds so a run repeats it and reports medians; the shapes (utterances
per encounter, noise, context strength) are the ones each workload exists
to exercise. Why each workload exists is in WORKLOADS.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import soapkit.cli
from soapkit.align import fold_case
from soapkit.baselines import load_baseline
from soapkit.corpus import gold_labels, read_asr_raw, read_corpus, render_reference
from soapkit.irr import SUBSECTION_SECTIONS, Observation, SoapNote, write_notes
from soapkit.metrics import mc_macro_f1
from soapkit.neural.model import load_model
from soapkit.preprocess import preprocess_corpus
from soapkit.synth import SECTION_WORDS

# README noise settings: character sub/del/ins and missed speaker turns.
NOISE = ["--char-sub", "0.03", "--char-del", "0.01", "--char-ins", "0.01",
         "--turn-merge", "0.3"]
EVAL_METRICS = ("accuracy", "macro_f1", "auroc", "auprc", "log_loss")
N_CLASSES = {"soap": 5, "speaker": 4}


class Runner:
    """Runs CLI calls in this process and keeps the tallies of one run:
    calls, non-zero exits, output checks and their failures, per-stage wall
    times of the current iteration, and captured standard output."""

    def __init__(self, clock=time.perf_counter, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.calls = 0
        self.nonzero_exits = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.stage_s = {}
        self.stdout = {}
        self.below_majority = []

    def cli(self, stage: str, label: str, argv: list) -> None:
        argv = list(argv) + ["--threads", "1"]
        buf = io.StringIO()
        tracer = self.tracer
        start = self.clock()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = soapkit.cli.main(argv)
            else:
                tracer.stage = label
                rc = tracer.call(f"cli.{argv[0]}", soapkit.cli.main, (argv,), {})
        elapsed = self.clock() - start
        self.stage_s[stage] = self.stage_s.get(stage, 0.0) + elapsed
        self.stdout[label] = buf.getvalue()
        self.calls += 1
        self.attempted += 1
        if rc != 0:
            self.nonzero_exits += 1
            self.failed += 1
            self.failures.append(f"{label}: soapkit {argv[0]} exited {rc}")

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def digest_files(root, paths, texts=None) -> dict:
    """sha256 of each file (keyed by its path under root) and of each
    captured text."""
    out = {}
    for path in sorted(paths):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[os.path.relpath(path, root)] = h.hexdigest()
    for label, text in sorted((texts or {}).items()):
        out[f"stdout:{label}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


# --- output checks ---


def _label(path) -> str:
    """The last two components of a path, to name a check."""
    return "/".join(os.path.normpath(path).split(os.sep)[-2:])


def replay_ok(rec: dict, ref: str, asr: str) -> bool:
    """Replay an `align` record over the case-folded texts: the anchors and
    leaf op strings must tile both strings in order, every MATCH must pair
    equal characters, and the replayed output must be the ASR text."""
    pieces = [(a[0], a[1], "M" * a[2]) for a in rec["anchors"]]
    pieces += [(leaf["ref_span"][0], leaf["asr_span"][0], leaf["ops"]) for leaf in rec["leaves"]]
    pieces.sort()
    ri = ai = 0
    out = []
    for r0, a0, ops in pieces:
        if (r0, a0) != (ri, ai):
            return False
        for op in ops:
            if op == "M":
                if ri >= len(ref) or ai >= len(asr) or ref[ri] != asr[ai]:
                    return False
                out.append(ref[ri])
                ri += 1
                ai += 1
            elif op in "SI" and ai < len(asr):
                out.append(asr[ai])
                ri += op == "S"
                ai += 1
            elif op == "D":
                ri += 1
            else:
                return False
    return ri == len(ref) and "".join(out) == asr


def check_alignment(r: Runner, align_path, ref_path, asr_path) -> None:
    refs = read_corpus(ref_path)
    asrs = {a.encounter_id: a for a in read_asr_raw(asr_path)}
    with open(align_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    r.check(f"align.ids:{_label(align_path)}",
            [rec["encounter_id"] for rec in records] == [t.encounter_id for t in refs],
            "alignment encounter ids differ from the reference corpus")
    for rec, ref in zip(records, refs):
        ref_text = fold_case(render_reference(ref.utterances)[0])
        asr_text = fold_case(asrs[ref.encounter_id].text)
        r.check(f"align.replay:{_label(align_path)}:{ref.encounter_id}",
                replay_ok(rec, ref_text, asr_text),
                "ops do not turn the reference text into the ASR text")


def _dist_ok(soap, speaker) -> bool:
    soap = np.asarray(soap, dtype=float)
    speaker = np.asarray(speaker, dtype=float)
    if not (np.isfinite(soap).all() and np.isfinite(speaker).all()):
        return False
    if (soap < 0).any() or (speaker < 0).any() or abs(soap.sum() - 1.0) > 1e-9:
        return False
    # projection stores the speaker vector at unit L2 norm, or uniform when
    # no reference mass reached the utterance
    return (abs(np.linalg.norm(speaker) - 1.0) <= 1e-9
            or np.allclose(speaker, 1.0 / speaker.size, rtol=0, atol=1e-12))


def check_projection(r: Runner, proj_path, ref_path) -> None:
    refs = read_corpus(ref_path)
    with open(proj_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    r.check(f"project.ids:{_label(proj_path)}",
            [rec["encounter_id"] for rec in records] == [t.encounter_id for t in refs],
            "projected encounter ids differ from the reference corpus")
    for rec in records:
        ok = rec["kind"] == "asr" and bool(rec["utterances"]) and all(
            _dist_ok(u["soap_dist"], u["speaker_dist"]) for u in rec["utterances"])
        r.check(f"project.dist:{_label(proj_path)}:{rec['encounter_id']}", ok,
                "a projected distribution is not finite and normalised")


def check_checkpoint(r: Runner, path) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            family = json.load(fh).get("family")
        if family == "neural":
            arrays = list(load_model(path).params.values())
        else:
            model = load_baseline(path)
            arrays = [a for a in (model.log_prior, model.log_likelihood,
                                  model.weights, model.bias) if a is not None]
        ok = all(np.isfinite(a).all() for a in arrays)
        detail = "non-finite parameter"
    except (OSError, ValueError, KeyError, TypeError) as e:
        ok, detail = False, f"{type(e).__name__}: {e}"
    r.check(f"checkpoint:{_label(path)}", ok, detail)


def majority_f1(test_path, task: str) -> float:
    """Macro F1 of always predicting the test split's most common class."""
    golds = np.concatenate([gold_labels(t, task) for t in preprocess_corpus(read_corpus(test_path))])
    prevalence = np.bincount(golds, minlength=N_CLASSES[task]).max() / golds.size
    return mc_macro_f1(float(prevalence), N_CLASSES[task])


def check_eval(r: Runner, label: str, test_path, tasks, calibrated=False) -> dict:
    """Parse an `eval --json` output; every metric must be finite. Returns
    the uncalibrated macro F1 per task. A model that does not beat the
    majority class is recorded in `below_majority`."""
    try:
        report = json.loads(r.stdout.get(label, ""))
    except json.JSONDecodeError:
        report = {}
    f1 = {}
    for task in tasks:
        columns = ["uncalibrated"] + (["calibrated"] if calibrated else [])
        rows = [report.get(task, {}).get(col, {}) for col in columns]
        ok = all(set(row) == set(EVAL_METRICS) for row in rows) and all(
            math.isfinite(v) for row in rows for v in row.values())
        r.check(f"eval:{label}:{task}", ok, "missing or non-finite metric")
        if not ok:
            continue
        f1[task] = rows[0]["macro_f1"]
        if f1[task] <= majority_f1(test_path, task):
            r.below_majority.append(f"{label}:{task}")
    return f1


# --- annotator notes for irr ---


def build_notes(ref_path, path_a, path_b, seed: int) -> None:
    """Two annotators' notes from the reference labels. Annotator A cites
    every content utterance, in runs of three per subsection; annotator B
    starts from A and, with a seeded generator, drops observations, drops
    evidence and tags, and adds observations, so irr sees identical,
    substituted, inserted and deleted observations."""
    gen = np.random.default_rng(seed)
    subsections = {}
    for sub, section in SUBSECTION_SECTIONS.items():
        subsections.setdefault(section, []).append(sub)
    notes_a, notes_b = [], []
    for t in read_corpus(ref_path):
        obs_a = []
        for section, subs in subsections.items():
            ids = [u.id for u in t.utterances if u.section == section]
            vocab = set(SECTION_WORDS[section])
            for k in range(0, len(ids), 3):
                cited = ids[k:k + 3]
                words = {w.strip(".?").lower() for i in cited for w in t.utterances[i].text.split()}
                obs_a.append(Observation(
                    subsection=subs[(k // 3) % len(subs)],
                    summary=t.utterances[cited[0]].text,
                    tags=frozenset(words & vocab),
                    evidence=frozenset(cited)))
        obs_b = []
        for obs in obs_a:
            u = gen.random()
            if u < 0.1:
                continue
            if u < 0.3 and len(obs.evidence) > 1:
                obs = Observation(obs.subsection, obs.summary, frozenset(sorted(obs.tags)[1:]),
                                  frozenset(sorted(obs.evidence)[1:]))
            obs_b.append(obs)
        for _ in range(int(gen.integers(0, 3))):
            sub = sorted(SUBSECTION_SECTIONS)[int(gen.integers(len(SUBSECTION_SECTIONS)))]
            obs_b.append(Observation(sub, "added", frozenset(),
                                     frozenset({int(gen.integers(len(t.utterances)))})))
        notes_a.append(SoapNote(t.encounter_id, tuple(obs_a)))
        notes_b.append(SoapNote(t.encounter_id, tuple(obs_b)))
    write_notes(notes_a, path_a)
    write_notes(notes_b, path_b)


# --- workloads ---


class Workload:
    """Inputs under `<work>/in` (made by set-up), outputs under `<work>/out`.

    An iteration runs the pipeline on input set `k`, for k in
    range(n_inputs); every input set is a complete set of CLI inputs."""

    name = ""
    n_inputs = 1

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.inp = os.path.join(work, "in")
        self.out = os.path.join(work, "out")
        self.quality = {}

    def synth_seed(self, k: int) -> int:
        # synth draws corruption from seed + 1, so seeds step by two
        return 100 * self.seed + 2 * k

    def i(self, *parts):
        return os.path.join(self.inp, *parts)

    def o(self, *parts):
        return os.path.join(self.out, *parts)

    def synth(self, r, out_dir, n, seed, *flags):
        r.cli("setup", f"synth:{os.path.relpath(out_dir, self.inp)}",
              ["synth", "--out-dir", out_dir, "--n", str(n), "--seed", str(seed), *flags])

    def input_files(self):
        return _files(self.inp)

    def output_files(self, k: int):
        return _files(self.out)


def _files(top):
    return [os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs]


class LongAsr(Workload):
    """Six one-encounter corpora; an iteration runs align, project and irr
    on one of them, in rotation, and a run times every encounter at least
    once, so the reported time is a mean over the same six encounters."""

    name = "long_asr"
    n_inputs = 6
    UTTERANCES = "300"

    def setup(self, r):
        for k in range(self.n_inputs):
            d = self.i(f"enc{k}")
            self.synth(r, d, 1, self.synth_seed(k), "--min-utterances", self.UTTERANCES,
                       "--max-utterances", self.UTTERANCES, *NOISE)
            build_notes(os.path.join(d, "reference.jsonl"), os.path.join(d, "notes_a.jsonl"),
                        os.path.join(d, "notes_b.jsonl"), self.synth_seed(k))

    def pipeline(self, r, k):
        d, out = self.i(f"enc{k}"), self.o(f"enc{k}")
        os.makedirs(out, exist_ok=True)
        ref, asr = os.path.join(d, "reference.jsonl"), os.path.join(d, "asr.jsonl")
        r.cli("align", "align", ["align", "--ref", ref, "--asr", asr,
                                 "--out", os.path.join(out, "alignments.jsonl")])
        r.cli("project", "project", ["project", "--ref", ref, "--asr", asr,
                                     "--out", os.path.join(out, "projected.jsonl")])
        r.cli("irr", "irr", ["irr", "--notes-a", os.path.join(d, "notes_a.jsonl"),
                             "--notes-b", os.path.join(d, "notes_b.jsonl"), "--transcripts", ref])

    def output_files(self, k):
        return _files(self.o(f"enc{k}"))

    def check(self, r, k):
        d, out = self.i(f"enc{k}"), self.o(f"enc{k}")
        ref = os.path.join(d, "reference.jsonl")
        check_alignment(r, os.path.join(out, "alignments.jsonl"), ref,
                        os.path.join(d, "asr.jsonl"))
        check_projection(r, os.path.join(out, "projected.jsonl"), ref)
        first = r.stdout.get("irr", "").split("\n", 1)[0]
        r.check(f"irr.pairs:enc{k}", first == "note-level agreement over 1 pairs",
                f"unexpected irr header {first!r}")


class ShortAsr(Workload):
    name = "short_asr"
    TRAIN = 60
    TEST = 20

    def setup(self, r):
        self.synth(r, self.i("train"), self.TRAIN, self.synth_seed(0), *NOISE)
        self.synth(r, self.i("test"), self.TEST, self.synth_seed(1), *NOISE)

    def pipeline(self, r, k):
        os.makedirs(self.out, exist_ok=True)
        for split in ("train", "test"):
            r.cli("align", f"align:{split}", [
                "align", "--ref", self.i(split, "reference.jsonl"),
                "--asr", self.i(split, "asr.jsonl"), "--out", self.o(f"{split}_alignments.jsonl")])
        for split in ("train", "test"):
            r.cli("project", f"project:{split}", [
                "project", "--ref", self.i(split, "reference.jsonl"),
                "--asr", self.i(split, "asr.jsonl"), "--out", self.o(f"{split}_projected.jsonl")])
        r.cli("train_neural", "train:bil", [
            "train", "--corpus", self.i("train", "reference.jsonl"), "--variant", "bil",
            "--with-asr", self.o("train_projected.jsonl"), "--seed", str(self.seed),
            "--out", self.o("bil.json")])
        r.cli("eval", "eval:bil", [
            "eval", "--model", self.o("bil.json"), "--test", self.o("test_projected.jsonl"),
            "--calibrate", "--val-corpus", self.o("train_projected.jsonl"), "--json"])

    def check(self, r, k):
        for split in ("train", "test"):
            ref, asr = self.i(split, "reference.jsonl"), self.i(split, "asr.jsonl")
            check_alignment(r, self.o(f"{split}_alignments.jsonl"), ref, asr)
            check_projection(r, self.o(f"{split}_projected.jsonl"), ref)
        check_checkpoint(r, self.o("bil.json"))
        f1 = check_eval(r, "eval:bil", self.o("test_projected.jsonl"),
                        ("soap", "speaker"), calibrated=True)
        self.quality = {"speaker_macro_f1": f1.get("speaker", 0.0)}


class ContextTrain(Workload):
    name = "context_train"
    TRAIN = 24
    TEST = 12
    BASELINES = ("mnb", "lr")
    NEURAL = ("wa", "bil", "bild")
    SHAPE = ["--min-utterances", "24", "--max-utterances", "32", "--context-strength", "0.5"]

    def setup(self, r):
        self.synth(r, self.i("train"), self.TRAIN, self.synth_seed(0), *self.SHAPE)
        self.synth(r, self.i("test"), self.TEST, self.synth_seed(1), *self.SHAPE)

    def pipeline(self, r, k):
        os.makedirs(self.out, exist_ok=True)
        train = self.i("train", "reference.jsonl")
        for v in self.BASELINES:
            r.cli("train_baseline", f"train:{v}", [
                "train", "--corpus", train, "--variant", v, "--task", "soap",
                "--out", self.o(f"{v}.json")])
        for v in self.NEURAL:
            r.cli("train_neural", f"train:{v}", [
                "train", "--corpus", train, "--variant", v, "--seed", str(self.seed),
                "--out", self.o(f"{v}.json")])
        for v in self.BASELINES + self.NEURAL:
            r.cli("eval", f"eval:{v}", [
                "eval", "--model", self.o(f"{v}.json"),
                "--test", self.i("test", "reference.jsonl"), "--json"])

    def check(self, r, k):
        test = self.i("test", "reference.jsonl")
        soap = []
        for v in self.BASELINES + self.NEURAL:
            check_checkpoint(r, self.o(f"{v}.json"))
            tasks = ("soap",) if v in self.BASELINES else ("soap", "speaker")
            f1 = check_eval(r, f"eval:{v}", test, tasks)
            if v in self.NEURAL:
                soap.append(f1.get("soap", 0.0))
        self.quality = {"soap_macro_f1": float(np.mean(soap))}


WORKLOADS = {w.name: w for w in (LongAsr, ShortAsr, ContextTrain)}
