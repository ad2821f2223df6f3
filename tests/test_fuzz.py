"""Fixed-seed fuzzing of the three JSON Lines readers and of model
checkpoints.

Each case takes a valid record (line, checkpoint) and makes one
mutation: it deletes a field, or swaps one value for an int, a string, a
list, null or an object. A reader or checkpoint loader must then either
accept the record or raise a DataError that names the file (and, for a
reader, the line); the CLI must exit 0, 2 (missing file), 3 or 4, never
1. Fixed cases put a string, a float or a bool where int() or float()
would coerce it, or JSON that overflows the parser (an integer past
Python's digit limit, an array nested past the recursion limit); those
must exit 3.
"""

import copy
import json
import random
import re

import pytest

from soapkit.cli import main
from soapkit.corpus import (TASKS, DataError, Rng, read_asr_raw, read_corpus,
                            write_asr_raw, write_corpus)
from soapkit.irr import read_notes
from soapkit.baselines import load_baseline
from soapkit.neural.model import ModelConfig, SequenceClassifier, load_model
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
    for variant in ("mc", "mnb", "lr"):
        assert main(["train", "--corpus", str(root / "reference.jsonl"), "--variant", variant,
                     "--out", str(root / f"{variant}.json")]) == 0
    # neural checkpoints at tiny sizes, so that structural fields are a
    # fair share of the mutation slots
    for variant in ("wa", "bild"):
        SequenceClassifier(ModelConfig(variant=variant, embed_dim=2, enc1_hidden=1,
                                       enc2_hidden=1, decoder_hidden=1)).save(
            root / f"{variant}.json")
    return root


@pytest.mark.parametrize("reader, files", [
    (read_corpus, ("reference.jsonl", "projected.jsonl")),
    (read_asr_raw, ("asr.jsonl",)),
    (read_notes, ("notes_a.jsonl",)),
], ids=["read_corpus", "read_asr_raw", "read_notes"])
def test_mutated_lines_are_read_or_rejected_with_the_reader_error(
        corpora, tmp_path, reader, files):
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
        except DataError as e:
            assert str(e).startswith(f"{path}: line 1: "), (str(e), line)
            rejected += 1
        except Exception as e:  # noqa: BLE001 - any other class is the failure under test
            pytest.fail(f"{reader.__name__} raised {type(e).__name__}: {e} on {line}")
    assert 0 < rejected < N_CASES  # the mutations hit both kinds of line


def _argv(root, name, path):
    """The CLI call that reads `path` in place of the fixture file `name`."""
    ref, notes_b = str(root / "reference.jsonl"), str(root / "notes_b.jsonl")
    return {"reference.jsonl": ["project", "--ref", path, "--asr", str(root / "asr.jsonl"),
                                "--out", str(root / "unused.jsonl")],
            "asr.jsonl": ["project", "--ref", ref, "--asr", path, "--out", str(root / "unused.jsonl")],
            "projected.jsonl": ["eval", "--model", "oracle", "--test", path],
            "notes_a.jsonl": ["irr", "--notes-a", path, "--notes-b", notes_b, "--transcripts", ref],
            "mnb.json": ["eval", "--model", path, "--test", ref],
            }[name]


@pytest.mark.parametrize("name, path, value", [
    ("projected.jsonl", ("utterances", 0, "soap_dist"), "10000"),
    ("projected.jsonl", ("utterances", 0, "soap_dist", 0), str),
    ("projected.jsonl", ("utterances", 0, "speaker_dist", 0), bool),
    ("reference.jsonl", ("utterances", 1, "id"), str),
    ("reference.jsonl", ("utterances", 1, "id"), lambda uid: uid + 0.5),
    ("reference.jsonl", ("utterances", 1, "id"), True),
    ("asr.jsonl", ("turns", 0, 0), 0.2),
    ("asr.jsonl", ("turns", -1, 1), lambda end: end + 0.7),
    ("asr.jsonl", ("turns", 0, 1), lambda end: end + 0.0),
    ("reference.jsonl", ("encounter_id",), 5),
    ("asr.jsonl", ("encounter_id",), 5),
    ("notes_a.jsonl", ("encounter_id",), 5),
], ids=lambda x: getattr(x, "__name__", None) if callable(x) else
       ".".join(map(str, x)) if isinstance(x, tuple) else None)
def test_values_int_or_float_would_coerce_exit_3(corpora, tmp_path, capsys, name, path, value):
    """A string, a float or a bool where the format has an int, or a
    string or bool where it has a number, is a parse failure, not a value
    that int() or float() turns into another one."""
    lines = (corpora / name).read_text().splitlines()
    rec = json.loads(lines[0])
    node = rec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    mutated = tmp_path / name
    mutated.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    rc = main(_argv(corpora, name, str(mutated)))
    err = capsys.readouterr().err
    assert rc == 3 and "kind=parse-failure" in err and "line 1" in err, err


def _every_flag(root):
    """Per subcommand: an argv that sets every flag of the subcommand to a
    valid value."""
    ref, asr = str(root / "reference.jsonl"), str(root / "asr.jsonl")
    projected, notes = str(root / "projected.jsonl"), str(root / "notes_a.jsonl")
    return {
        "synth": ["--out-dir", "s", "--seed", "1", "--n", "2", "--min-utterances", "2",
                  "--max-utterances", "3", "--context-strength", "0.5", "--char-sub", "0.1",
                  "--char-del", "0.0", "--char-ins", "0", "--turn-merge", "0.2",
                  "--turn-split", "0.2", "--emit-asr"],
        "align": ["--ref", ref, "--asr", asr, "--out", "align.jsonl"],
        "project": ["--ref", ref, "--asr", asr, "--out", "p.jsonl"],
        "train": ["--seed", "1", "--corpus", ref, "--variant", "lr", "--task", "speaker",
                  "--with-asr", projected, "--out", "m.json"],
        "eval": ["--model", str(root / "mnb.json"), "--test", ref, "--calibrate",
                 "--val-corpus", projected, "--json"],
        "irr": ["--notes-a", notes, "--notes-b", str(root / "notes_b.jsonl"),
                "--transcripts", ref],
    }


@pytest.mark.parametrize("command", ["synth", "align", "project", "train", "eval", "irr"])
def test_every_flag_at_a_valid_value_runs(corpora, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    argv = [command, *_every_flag(corpora)[command], "--threads", "1"]
    assert main(argv) == 0, capsys.readouterr().err


_OVERFLOW = {"digits": "9" * 5000, "depth": "[" * 200_000 + "]" * 200_000}


@pytest.mark.parametrize("overflow", sorted(_OVERFLOW))
@pytest.mark.parametrize("name, path", [
    ("reference.jsonl", ("utterances", 0, "id")),
    ("asr.jsonl", ("turns", 0, 0)),
    ("notes_a.jsonl", ("observations", 0, "evidence", 0)),
    ("mnb.json", ("n_classes",)),
], ids=["corpus", "asr", "notes", "checkpoint"])
def test_json_past_the_parser_limits_exits_3(corpora, tmp_path, capsys, name, path, overflow):
    """A value json.loads refuses with a ValueError or RecursionError
    rather than a JSONDecodeError is malformed JSON too."""
    lines = (corpora / name).read_text().splitlines()
    rec = json.loads(lines[0])
    node = rec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "OVERFLOW"  # json.dumps cannot write either value itself
    mutated = tmp_path / name
    mutated.write_text("\n".join([json.dumps(rec).replace('"OVERFLOW"', _OVERFLOW[overflow])]
                                 + lines[1:]) + "\n")
    rc = main(_argv(corpora, name, str(mutated)))
    err = capsys.readouterr().err
    assert rc == 3 and "kind=parse-failure" in err and str(mutated) in err, err
    assert name == "mnb.json" or f"{mutated}: line 1: " in err, err


def _eval_exit(root, tmp_path, rec, capsys) -> int:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(rec))
    rc = main(["eval", "--model", str(path), "--test", str(root / "reference.jsonl")])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4) and "kind=internal" not in err, (rec, err)
    return rc


def _load_task_baseline(path):
    """load_baseline, plus the CLI's rule that a checkpoint's class count
    is its task's (the library fits any count)."""
    model = load_baseline(path)
    if model.n_classes != TASKS[model.task]:
        raise DataError(f"{path}: {model.n_classes} classes for task {model.task}")
    return model


LOADERS = {"neural": (("wa", "bild"), load_model),
           "baseline": (("mc", "mnb", "lr"), _load_task_baseline)}


@pytest.mark.parametrize("family", sorted(LOADERS))
def test_mutated_checkpoints_never_exit_1(corpora, tmp_path, capsys, family):
    """The CLI exits 3 on exactly the checkpoints that the family's loader
    rejects with a DataError."""
    variants, load = LOADERS[family]
    records = [json.loads((corpora / f"{v}.json").read_text()) for v in variants]
    for rec in records:
        assert _eval_exit(corpora, tmp_path, rec, capsys) == 0
    rng = random.Random(13)
    codes = set()
    for _ in range(N_CASES):
        rec = mutate(rng.choice(records), rng)
        rc = _eval_exit(corpora, tmp_path, rec, capsys)
        try:
            load(tmp_path / "model.json")
            rejected = False
        except DataError as e:
            assert str(e).startswith(f"{tmp_path / 'model.json'}: "), str(e)
            rejected = True
        assert rejected == (rc == 3), rec
        codes.add(rc)
    assert {0, 3} <= codes


@pytest.mark.parametrize("family", sorted(LOADERS))
def test_loaders_reject_truncated_and_non_object_files(corpora, tmp_path, family):
    variants, load = LOADERS[family]
    text = (corpora / f"{variants[-1]}.json").read_text()
    path = tmp_path / "model.json"
    for bad in (text[:len(text) // 2], f"[{text}]", "7", "", "{}"):
        path.write_text(bad)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            load(path)
    path.write_bytes(b"\xff" + text.encode())
    with pytest.raises(DataError, match="not UTF-8"):
        load(path)


DROP = object()


@pytest.mark.parametrize("variant, path, value", [
    ("bild", ("embeddings", "type"), "glove"),
    ("bild", ("embeddings",), {"type": "file", "path": "vectors.json"}),
    ("bild", ("embeddings", "dim"), DROP),
    ("bild", ("embeddings", "n_layers"), 2),
    ("bild", ("embeddings", "seed"), 9),
    ("bild", ("variant",), "wa"),
    ("bild", ("config",), DROP),
    ("bild", ("config", "extra"), 1),
    ("bild", ("config", "embed_dim"), "2"),
    # sizes numpy refuses at once, never ones it could hand out
    ("bild", ("config", "embed_dim"), 10 ** 13),
    ("bild", ("params", "w_layer"), "abc"),
    ("bild", ("params", "proj_sect_b"), DROP),
    ("mnb", ("kind",), DROP),
    ("mnb", ("task",), DROP),
    ("mnb", ("n_classes",), DROP),
    ("mnb", ("vocab",), DROP),
    ("lr", ("weights",), DROP),
    ("lr", ("bias",), DROP),
    ("lr", ("weights",), "abc"),
    ("lr", ("bias",), [10 ** 400, 0]),
    ("mc", ("majority",), None),
    ("mc", ("n_classes",), 10 ** 13),
    ("mc", ("n_classes",), 3),
], ids=lambda x: "drop" if x is DROP else ".".join(x) if isinstance(x, tuple) else None)
def test_malformed_checkpoint_exits_3(corpora, tmp_path, capsys, variant, path, value):
    rec = json.loads((corpora / f"{variant}.json").read_text())
    node = rec
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    assert _eval_exit(corpora, tmp_path, rec, capsys) == 3


@pytest.mark.parametrize("variant, name, row", [
    ("lr", "weights", lambda row: ["0.5"] + row[1:]),
    ("bild", "w_layer", lambda row: [True] + row[1:]),
    ("bild", "enc1_f_W", lambda row: [1.0, True] + row[2:]),
], ids=["lr-string-weight", "bild-true-parameter", "bild-float-and-true-row"])
def test_checkpoint_numbers_of_another_json_type_exit_3(corpora, tmp_path, capsys,
                                                        variant, name, row):
    """A float conversion would read "0.5" and true as numbers; a
    checkpoint array holds JSON ints and floats only."""
    rec = json.loads((corpora / f"{variant}.json").read_text())
    arrays = rec["params"] if variant == "bild" else rec
    if isinstance(arrays[name][0], list):
        arrays[name][0] = row(arrays[name][0])
    else:
        arrays[name] = row(arrays[name])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(rec))
    rc = main(["eval", "--model", str(path), "--test", str(corpora / "reference.jsonl")])
    err = capsys.readouterr().err
    assert rc == 3 and "kind=parse-failure" in err and "not an array of numbers" in err, err


def test_checkpoint_that_is_a_json_list_exits_3(corpora, tmp_path, capsys):
    rec = json.loads((corpora / "bild.json").read_text())
    assert _eval_exit(corpora, tmp_path, [rec], capsys) == 3
