"""Fixed-seed fuzzing of the three JSON Lines readers and of `--config`.

Each case takes a valid record (or config) and makes one mutation: it
deletes a field, or swaps one value for an int, a string, a list, null or
an object. A reader must then either accept the line or raise its own
error class; the CLI must exit 0, 2 (missing file), 3 or 4, never 1.
"""

import copy
import json
import random

import pytest

from soapkit.cli import main
from soapkit.corpus import CorpusError, Rng, read_asr_raw, read_corpus, write_asr_raw, write_corpus
from soapkit.irr import IrrError, read_notes
from soapkit.project import project_corpus
from soapkit.synth import CorruptionConfig, SynthConfig, corrupt_corpus, generate_corpus

N_CASES = 200

SWAPS = {
    "int": (-1, 0, 1, 2, 7),
    "str": ("", "x", "0", "doctor", "vitals", "reference"),
    "list": ([], [0], ["a"], [[0, 1]], [None]),
    "null": (None,),
    "object": ({}, {"a": 1}),
}


def _swap(rng):
    return copy.deepcopy(rng.choice(SWAPS[rng.choice(sorted(SWAPS))]))


def _slots(node):
    """Every (container, key) pair in a JSON tree, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def mutate(rec, rng):
    """A copy of `rec` with one field deleted or one value swapped; a
    record that is itself replaced comes back as the swapped value."""
    rec = copy.deepcopy(rec)
    slots = list(_slots(rec))
    if not slots or rng.random() < 0.02:
        return _swap(rng)
    parent, key = rng.choice(slots)
    if isinstance(parent, dict) and rng.random() < 0.3:
        del parent[key]
    else:
        parent[key] = _swap(rng)
    return rec


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """A tiny reference corpus, its ASR copy, the projected corpus, two
    note files and a baseline checkpoint, all on disk."""
    root = tmp_path_factory.mktemp("fuzz")
    refs = generate_corpus(SynthConfig(n_transcripts=3, min_utterances=3, max_utterances=4, seed=5))
    asr, _ = corrupt_corpus(refs, CorruptionConfig(char_sub_rate=0.05, turn_merge_rate=0.3), Rng(6))
    write_corpus(refs, root / "reference.jsonl")
    write_asr_raw(asr, root / "asr.jsonl")
    write_corpus(project_corpus(refs, asr), root / "projected.jsonl")
    for name, summary in (("a", "bp stable"), ("b", "bp is stable")):
        notes = [{"encounter_id": t.encounter_id, "observations": [
            {"subsection": "vitals", "summary": summary, "tags": ["bp"], "evidence": [0, 1]},
            {"subsection": "medications", "summary": "refill", "tags": [], "evidence": [2]}]}
            for t in refs]
        (root / f"notes_{name}.jsonl").write_text("".join(json.dumps(n) + "\n" for n in notes))
    assert main(["train", "--corpus", str(root / "reference.jsonl"), "--variant", "mnb",
                 "--out", str(root / "mnb.json")]) == 0
    return root


@pytest.mark.parametrize("reader, files, error", [
    (read_corpus, ("reference.jsonl", "projected.jsonl"), CorpusError),
    (read_asr_raw, ("asr.jsonl",), CorpusError),
    (read_notes, ("notes_a.jsonl",), IrrError),
], ids=["read_corpus", "read_asr_raw", "read_notes"])
def test_mutated_lines_are_read_or_rejected_with_the_reader_error(
        corpora, tmp_path, reader, files, error):
    records = [json.loads(line) for f in files
               for line in (corpora / f).read_text().splitlines()]
    rng = random.Random(11)
    path = tmp_path / "mutated.jsonl"
    rejected = 0
    for _ in range(N_CASES):
        line = json.dumps(mutate(rng.choice(records), rng))
        path.write_text(line + "\n")
        try:
            reader(path)
        except error:
            rejected += 1
        except Exception as e:  # noqa: BLE001 - any other class is the failure under test
            pytest.fail(f"{reader.__name__} raised {type(e).__name__}: {e} on {line}")
    assert 0 < rejected < N_CASES  # the mutations hit both kinds of line


def _flag_configs(root):
    """Per subcommand: the argv for its required flags, and a config
    that sets every flag of the subcommand to a valid value."""
    ref, asr = str(root / "reference.jsonl"), str(root / "asr.jsonl")
    common = {"seed": 1, "threads": 1}
    return {
        "synth": (["--out-dir", "s"], {
            **common, "out_dir": "s2", "n": 2, "min_utterances": 2, "max_utterances": 3,
            "context_strength": 0.5, "char_sub": 0.1, "char_del": 0.0, "char_ins": 0,
            "turn_merge": 0.2, "turn_split": 0.2, "emit_asr": True}),
        "align": (["--ref", ref, "--asr", asr], {
            **common, "ref": ref, "asr": asr, "out": "align.jsonl"}),
        "project": (["--ref", ref, "--asr", asr, "--out", "p.jsonl"], {
            **common, "ref": ref, "asr": asr, "out": "p2.jsonl", "speaker_norm": "l1"}),
        "train": (["--corpus", ref, "--variant", "mnb", "--out", "m.json"], {
            **common, "corpus": ref, "variant": "lr", "task": "speaker",
            "with_asr": str(root / "projected.jsonl"), "out": "m2.json"}),
        "eval": (["--model", str(root / "mnb.json"), "--test", ref], {
            **common, "model": str(root / "mnb.json"), "test": ref, "calibrate": True,
            "val_corpus": str(root / "projected.jsonl"), "json": True}),
        "irr": (["--notes-a", str(root / "notes_a.jsonl"), "--notes-b",
                 str(root / "notes_b.jsonl"), "--transcripts", ref], {
            **common, "notes_a": str(root / "notes_a.jsonl"),
            "notes_b": str(root / "notes_b.jsonl"), "transcripts": ref}),
    }


def test_valid_configs_run(corpora, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, (argv, config) in _flag_configs(corpora).items():
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main([command, *argv, "--config", "cfg.json"]) == 0, capsys.readouterr().err


def test_mutated_configs_never_exit_1(corpora, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    configs = _flag_configs(corpora)
    rng = random.Random(12)
    codes = set()
    for _ in range(N_CASES):
        command = rng.choice(sorted(configs))
        argv, config = configs[command]
        config = dict(config)
        key = rng.choice(sorted(config))
        if rng.random() < 0.2:
            del config[key]
        else:
            config[key] = _swap(rng)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        rc = main([command, *argv, "--config", "cfg.json"])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4) and "kind=internal" not in err, (command, config, err)
        codes.add(rc)
    assert {0, 4} <= codes
