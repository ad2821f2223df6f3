"""Byte-identity guard for synth -> align -> project -> train -> eval.

Runs the subcommands in-process at a fixed seed with the README noise
settings and compares each output's sha256 with a recorded digest. The
synth, align and project digests were recorded before the alignment
became an op string and word masses became one per-transcript pass; the
train and eval digests were recorded before the projection's speaker
normalization choice, the injectable embedding provider and eval's
separate oracle and baseline scoring paths were removed. The split and
context-rule synth digests and the stdout form of align were recorded
before the JSONL writers became one and `corrupt` became a walk over
reference offsets. The irr digests were recorded before `map_notes`
scored each observation pair once. The lr checkpoint, its evals and the
calibrated evals were recorded when the lr and Platt fits became Newton
solves that end at a certified optimum. The wa calibrated eval was
recorded when a class whose Platt slope fits <= 0 became uncalibrated
(two of wa's classes fit negative slopes here). A digest that moves means
a seeded output moved.
"""

import hashlib

import numpy as np
import pytest

import soapkit.cli
from soapkit.corpus import read_corpus
from soapkit.irr import SUBSECTION_SECTIONS, NoteCategory, Observation, SoapNote, map_notes, write_notes

NOISE = ["--char-sub", "0.03", "--char-del", "0.01", "--char-ins", "0.01",
         "--turn-merge", "0.3"]

GOLDEN = {
    "data/reference.jsonl": "56bc1a70d83cb58af57256027076cd366759b8d869918165976bd558cb031599",
    "data/asr.jsonl": "75bbc8fac90327bdf5dfd453ac08c41a207b1a5e4977763d1aeb4704f233d03a",
    "data/asr_sidecar.jsonl": "7b4c4bc8583c42e256a424842997bea697eaf77fadc64abe8460f34cdf0a4ab0",
    "alignments.jsonl": "5f3580b9c081985ccea485f7ed05ee90d7ee79259334a64388b4764d882d80db",
    "projected.jsonl": "e772a8a7c44759fbdcdcc7ddac3bc9bb1f0e2fa6143c6222681a8fa36fda274a",
}

# a run whose turns split and whose context rule fires, neither of which
# the run above does
SPLIT_FLAGS = ["--turn-split", "0.3", "--context-strength", "0.5"]

GOLDEN_SPLIT = {
    "reference.jsonl": "a318b60329e267f0a54a200622cfbd11301e0ecceeef3e44062f3f35760b6259",
    "asr.jsonl": "81c66a9c0f91346c033db914139c96eb265ddc21a01054a3e40d42478ee9799c",
    "asr_sidecar.jsonl": "40b95555a9e56f174a77b98a761fa398a95ae27f9ecf5ea1c50a1da898f45d13",
}

# checkpoint -> extra train flags: baselines fit the soap task on the
# reference plus projected corpus, neural variants fit both tasks
TRAIN = {
    "mc": ["--task", "soap", "--with-asr", "projected.jsonl"],
    "mnb": ["--task", "soap", "--with-asr", "projected.jsonl"],
    "lr": ["--task", "soap", "--with-asr", "projected.jsonl"],
    "wa": ["--seed", "3"],
    "bild": ["--seed", "3"],
}

GOLDEN_TRAIN = {
    "mc": "9dd87ab9854f66b513633724bd1a9cc900a0eac18bdf70e38d29b9234eb0b53e",
    "mnb": "2cf5d5467ba0598818a029b034d2192e9555f2a8d4096954d8a8fb5709609bdf",
    "lr": "5aabb8175adf13b286a8ca08b3e680f0d3f61600715ab57ff4dbf986224e6247",
    "wa": "fcf0e798657fe075cf9ef2ce7f2dc70723c4726da44ea0a7fb3853dc0415bbc6",
    "bild": "ea4fcd230c28a335672fe70322a233892fca1df85ed672a9d25561f1e8d471d2",
}

# sha256 of eval's standard output on the projected corpus: `--json` for
# the oracle and each checkpoint, and the calibrated table (calibrator fit
# on the reference corpus's tail) for each checkpoint
GOLDEN_EVAL = {
    "oracle --json": "0f3b9bdfbc4d97164d3d8fc8ec48610142143dd15ced63c6ddc0c4e2c0cf55b6",
    "mc --json": "cbbbe0d3c7431e18cb8f2945d90f953bbc00087a494e561f7c1e77fd15ea986a",
    "mc --calibrate": "1145feb30ffaecde156eb10673699bd421e621b2681d288648be8da1935c6cb7",
    "mnb --json": "4e3d1940414bb7967d3ce1f545705d13bb28543b6ae9ee290f475b28745c9dbe",
    "mnb --calibrate": "1a3db8a0d0dd238e9415be7acc23a6eecb5fd158310182dde2b92332787db758",
    "lr --json": "58d7b161c9e317400e2505f59c37597757e0e9a7ae5b326d3ab3347f65b644c2",
    "lr --calibrate": "0a2c2c40c8ac003541ff2500ba2f40afe25cc8be2207471140772040e59e4a56",
    "wa --json": "e93302de0fe81db883ce83e076aecb89a7387485790b7fb1d39784132d9fa5f9",
    "wa --calibrate": "44fbe4e1065fb3e863e56023639ee2ca20adca2d34a880131a7e5e5c58009613",
    "bild --json": "10eda888a9b542469f78538484995f4be802bb0662b39a544355a9ba40886e29",
    "bild --calibrate": "9ff8f6f708d63a8c16bb07b9d125dda2a3746d2b4d886f847b3ac1d52b83d4cc",
}

# sha256 of irr's standard output on two seeded note files built from the
# reference corpus, in both directions (source --notes-a, reference --notes-b)
GOLDEN_IRR = {
    "a b": "93ba2444380fd06cfd72e3c78cbf13d1a79f4b07584d56b90343b3f5c1d7ebe3",
    "b a": "1284f6639c3a1f360e11adb665b62712abe598671b3a7584f67d61b1897536b2",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    data = root / "data"
    ref, asr = str(data / "reference.jsonl"), str(data / "asr.jsonl")
    runs = [
        ["synth", "--out-dir", str(data), "--n", "8", "--seed", "41", *NOISE],
        ["align", "--ref", ref, "--asr", asr, "--out", str(root / "alignments.jsonl")],
        ["project", "--ref", ref, "--asr", asr, "--out", str(root / "projected.jsonl")],
    ]
    for argv in runs:
        assert soapkit.cli.main(argv) == 0, argv
    return root


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_synth_align_project_outputs_match_recorded_digests(workdir):
    got = {name: _sha((workdir / name).read_bytes()) for name in GOLDEN}
    assert got == GOLDEN


def test_align_to_stdout_writes_the_recorded_bytes(workdir, capsys):
    data = workdir / "data"
    capsys.readouterr()
    assert soapkit.cli.main(["align", "--ref", str(data / "reference.jsonl"),
                             "--asr", str(data / "asr.jsonl")]) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == GOLDEN["alignments.jsonl"]


def test_split_and_context_synth_outputs_match_recorded_digests(tmp_path):
    argv = ["synth", "--out-dir", str(tmp_path), "--n", "8", "--seed", "41",
            *NOISE, *SPLIT_FLAGS]
    assert soapkit.cli.main(argv) == 0
    assert {name: _sha((tmp_path / name).read_bytes()) for name in GOLDEN_SPLIT} == GOLDEN_SPLIT


def test_train_and_eval_outputs_match_recorded_digests(workdir, capsys):
    ref, proj = str(workdir / "data" / "reference.jsonl"), str(workdir / "projected.jsonl")
    got_train, got_eval = {}, {}
    for variant, flags in TRAIN.items():
        ckpt = str(workdir / f"{variant}.json")
        flags = [str(workdir / f) if f.endswith(".jsonl") else f for f in flags]
        argv = ["train", "--corpus", ref, "--variant", variant, *flags, "--out", ckpt]
        assert soapkit.cli.main(argv) == 0, argv
        got_train[variant] = _sha((workdir / f"{variant}.json").read_bytes())
    capsys.readouterr()
    for model in ["oracle", *TRAIN]:
        path = model if model == "oracle" else str(workdir / f"{model}.json")
        runs = {f"{model} --json": ["--json"]}
        if model != "oracle":
            runs[f"{model} --calibrate"] = ["--calibrate", "--val-corpus", ref]
        for name, flags in runs.items():
            assert soapkit.cli.main(["eval", "--model", path, "--test", proj, *flags]) == 0
            got_eval[name] = _sha(capsys.readouterr().out.encode("utf-8"))
    assert got_train == GOLDEN_TRAIN
    assert got_eval == GOLDEN_EVAL


def _annotator_notes(ref_path, seed=17):
    """Two annotators' notes on the reference corpus. A cites the
    utterances of each content section in runs of two, cycling through the
    section's subsections. B keeps, reformats (extra spaces, still
    identical), trims (a substitution), moves to another subsection or
    drops each of A's observations, and adds some of its own."""
    gen = np.random.default_rng(seed)
    by_section = {}
    for sub, section in sorted(SUBSECTION_SECTIONS.items()):
        by_section.setdefault(section, []).append(sub)
    notes_a, notes_b = [], []
    for t in read_corpus(ref_path):
        obs_a = []
        for section, subs in by_section.items():
            ids = [u.id for u in t.utterances if u.section == section]
            for k in range(0, len(ids), 2):
                cited = ids[k:k + 2]
                words = [w.strip(".?").lower() for i in cited for w in t.utterances[i].text.split()]
                obs_a.append(Observation(subs[(k // 2) % len(subs)], t.utterances[cited[0]].text,
                                         frozenset(words[:3]), frozenset(cited)))
        obs_b = []
        for o in obs_a:
            u = gen.random()
            if u < 0.15:
                continue
            if u < 0.3:
                o = Observation(o.subsection, "  ".join(o.summary.split()), o.tags, o.evidence)
            elif u < 0.55:
                o = Observation(o.subsection, o.summary, frozenset(sorted(o.tags)[1:]),
                                frozenset(sorted(o.evidence)[:1]))
            elif u < 0.65:
                subs = by_section[o.section]
                o = Observation(subs[(subs.index(o.subsection) + 1) % len(subs)],
                                o.summary, o.tags, o.evidence)
            obs_b.append(o)
        for _ in range(int(gen.integers(0, 3))):
            sub = sorted(SUBSECTION_SECTIONS)[int(gen.integers(len(SUBSECTION_SECTIONS)))]
            obs_b.append(Observation(sub, "added", frozenset({"added"}),
                                     frozenset({int(gen.integers(len(t.utterances)))})))
        notes_a.append(SoapNote(t.encounter_id, tuple(obs_a)))
        notes_b.append(SoapNote(t.encounter_id, tuple(obs_b)))
    return notes_a, notes_b


def test_irr_report_matches_recorded_digests(workdir, capsys):
    ref = workdir / "data" / "reference.jsonl"
    notes = dict(zip("ab", _annotator_notes(ref)))
    # the notes hold every category, so the digests pin each of them
    mappings = [map_notes(s, r) for s, r in zip(notes["a"], notes["b"])]
    for category in NoteCategory:
        assert any(m.count(category) for m in mappings), category
    assert any(m.deletions for m in mappings)
    for name, group in notes.items():
        write_notes(group, workdir / f"notes_{name}.jsonl")
    capsys.readouterr()
    got = {}
    for run in GOLDEN_IRR:
        a, b = run.split()
        assert soapkit.cli.main(["irr", "--notes-a", str(workdir / f"notes_{a}.jsonl"),
                                 "--notes-b", str(workdir / f"notes_{b}.jsonl"),
                                 "--transcripts", str(ref)]) == 0
        got[run] = _sha(capsys.readouterr().out.encode("utf-8"))
    assert got == GOLDEN_IRR
