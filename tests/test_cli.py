import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import soapkit
from soapkit.baselines import load_baseline
from soapkit.cli import CliError, main
from soapkit.corpus import DataError
from soapkit.neural.model import load_model

# the directory soapkit was imported from, so the CLI runs without an install
_IMPORT_ROOT = str(Path(soapkit.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, [_IMPORT_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "soapkit.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized corpus with corruption, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    res = run_cli("synth", "--out-dir", str(data), "--n", "12", "--seed", "3",
                  "--min-utterances", "6", "--max-utterances", "9",
                  "--char-sub", "0.03", "--turn-merge", "0.3")
    assert res.returncode == 0, res.stderr
    return root


class TestSynth:
    def test_outputs_exist(self, workspace):
        data = workspace / "data"
        assert (data / "reference.jsonl").exists()
        assert (data / "asr.jsonl").exists()
        assert (data / "asr_sidecar.jsonl").exists()

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            res = run_cli("synth", "--out-dir", str(tmp_path / sub), "--n", "5",
                          "--seed", "11", "--char-sub", "0.05")
            assert res.returncode == 0, res.stderr
        for name in ("reference.jsonl", "asr.jsonl", "asr_sidecar.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_reference_only_without_noise(self, tmp_path):
        res = run_cli("synth", "--out-dir", str(tmp_path / "clean"), "--n", "3",
                      "--seed", "0")
        assert res.returncode == 0
        assert (tmp_path / "clean" / "reference.jsonl").exists()
        assert not (tmp_path / "clean" / "asr.jsonl").exists()


class TestErrorPaths:
    def test_missing_file_is_exit_2(self, tmp_path):
        res = run_cli("align", "--ref", str(tmp_path / "nope.jsonl"),
                      "--asr", str(tmp_path / "nope2.jsonl"))
        assert res.returncode == 2
        assert "kind=missing-file" in res.stderr

    def test_output_path_of_the_wrong_kind_is_exit_2(self, workspace, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        res = run_cli("synth", "--out-dir", str(taken), "--n", "1")
        assert res.returncode == 2 and "kind=bad-path" in res.stderr, res.stderr
        res = run_cli("train", "--corpus", str(workspace / "data" / "reference.jsonl"),
                      "--variant", "mc", "--out", str(tmp_path))
        assert res.returncode == 2 and "kind=bad-path" in res.stderr, res.stderr
        # the checkpoint's temporary file is gone
        assert list(tmp_path.iterdir()) == [taken]

    def test_malformed_input_is_exit_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{oops\n")
        res = run_cli("align", "--ref", str(bad), "--asr", str(bad))
        assert res.returncode == 3
        assert "kind=parse-failure" in res.stderr
        assert res.stderr.count(str(bad)) == 1, res.stderr

    @pytest.mark.parametrize("argv", [
        ("align", "--ref", "{bad}", "--asr", "{data}/asr.jsonl"),
        ("align", "--ref", "{data}/reference.jsonl", "--asr", "{bad}"),
        ("train", "--corpus", "{bad}", "--variant", "mc", "--out", "{tmp}/m.json"),
        ("irr", "--notes-a", "{bad}", "--notes-b", "{bad}", "--transcripts",
         "{data}/reference.jsonl"),
        ("eval", "--model", "{bad}", "--test", "{data}/reference.jsonl"),
        ("synth", "--out-dir", "{tmp}/x", "--n", "1", "--config", "{bad}"),
    ], ids=["ref", "asr", "corpus", "notes-a", "model", "config"])
    def test_non_utf8_input_is_exit_3(self, workspace, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff{"encounter_id": "e0"}\n')
        argv = [a.format(bad=bad, tmp=tmp_path, data=workspace / "data") for a in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "kind=parse-failure" in err and "not UTF-8" in err, err
        assert err.count(str(bad)) == 1, err
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, repeated", [
        ("align", "reference.jsonl"), ("align", "asr.jsonl"),
        ("project", "reference.jsonl"), ("project", "asr.jsonl")])
    def test_repeated_encounter_id_is_exit_4(self, workspace, tmp_path, command, repeated):
        data = workspace / "data"
        inputs = {name: str(data / name) for name in ("reference.jsonl", "asr.jsonl")}
        lines = (data / repeated).read_text().splitlines()
        eid = json.loads(lines[0])["encounter_id"]
        # the repeat carries another encounter's text under the first one's id
        dup = dict(json.loads(lines[1]), encounter_id=eid)
        inputs[repeated] = str(tmp_path / repeated)
        (tmp_path / repeated).write_text("\n".join(lines + [json.dumps(dup)]) + "\n")
        out = tmp_path / "out.jsonl"
        res = run_cli(command, "--ref", inputs["reference.jsonl"], "--asr", inputs["asr.jsonl"],
                      "--out", str(out))
        assert res.returncode == 4, res.stderr
        assert "kind=invalid-data" in res.stderr and repr(eid) in res.stderr, res.stderr
        assert not out.exists()

    def test_nan_in_projected_corpus_is_exit_3(self, workspace, tmp_path):
        data = workspace / "data"
        proj = tmp_path / "projected.jsonl"
        res = run_cli("project", "--ref", str(data / "reference.jsonl"),
                      "--asr", str(data / "asr.jsonl"), "--out", str(proj))
        assert res.returncode == 0, res.stderr
        lines = proj.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["utterances"][0]["soap_dist"] = [float("nan")] * 5
        lines[0] = json.dumps(rec)  # json writes NaN and reads it back
        proj.write_text("\n".join(lines) + "\n")
        res = run_cli("eval", "--model", "oracle", "--test", str(proj))
        assert res.returncode == 3
        assert "kind=parse-failure" in res.stderr and "finite" in res.stderr

    def test_alignment_over_the_cell_budget_is_exit_4(self, tmp_path):
        # texts with no char in common leave one 8000 x 8000 leaf
        ref, asr = tmp_path / "ref.jsonl", tmp_path / "asr.jsonl"
        ref.write_text(json.dumps({"encounter_id": "e0", "kind": "reference", "utterances": [
            {"id": 0, "speaker": "doctor", "section": "plan", "text": "a" * 8000}]}) + "\n")
        asr.write_text(json.dumps({"encounter_id": "e0", "text": "b" * 8000,
                                   "turns": [[0, 8000]]}) + "\n")
        res = run_cli("align", "--ref", str(ref), "--asr", str(asr))
        assert res.returncode == 4
        assert "kind=invalid-data" in res.stderr and "cell budget" in res.stderr

    def test_failed_align_leaves_no_output_file(self, tmp_path):
        # the second encounter's texts share no char: one 8000 x 8000 leaf
        ref, asr, out = tmp_path / "ref.jsonl", tmp_path / "asr.jsonl", tmp_path / "out.jsonl"
        ref.write_text("".join(json.dumps({
            "encounter_id": eid, "kind": "reference", "utterances": [
                {"id": 0, "speaker": "doctor", "section": "plan", "text": text}]}) + "\n"
            for eid, text in (("e0", "take two daily."), ("e1", "a" * 8000))))
        asr.write_text("".join(json.dumps({"encounter_id": eid, "text": text,
                                           "turns": [[0, len(text)]]}) + "\n"
                               for eid, text in (("e0", "take to daily"), ("e1", "b" * 8000))))
        res = run_cli("align", "--ref", str(ref), "--asr", str(asr), "--out", str(out))
        assert res.returncode == 4 and "cell budget" in res.stderr, res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["asr.jsonl", "ref.jsonl"]
        out.write_text("kept\n")
        res = run_cli("align", "--ref", str(ref), "--asr", str(asr), "--out", str(out))
        assert res.returncode == 4, res.stderr
        assert out.read_text() == "kept\n" and len(list(tmp_path.iterdir())) == 3

    def test_unhashable_label_is_exit_3(self, tmp_path):
        ref, asr = tmp_path / "ref.jsonl", tmp_path / "asr.jsonl"
        ref.write_text(json.dumps({"encounter_id": "e0", "kind": "reference", "utterances": [
            {"id": 0, "speaker": "doctor", "section": ["plan"], "text": "take two."}]}) + "\n")
        asr.write_text(json.dumps({"encounter_id": "e0", "text": "take to.",
                                   "turns": [[0, 8]]}) + "\n")
        res = run_cli("align", "--ref", str(ref), "--asr", str(asr))
        assert res.returncode == 3, res.stderr
        assert "kind=parse-failure" in res.stderr and "unknown section label" in res.stderr

    def test_non_list_utterances_is_exit_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"encounter_id": "e0", "kind": "reference",
                                   "utterances": 5}) + "\n")
        res = run_cli("eval", "--model", "oracle", "--test", str(bad))
        assert res.returncode == 3
        assert "kind=parse-failure" in res.stderr and "utterances" in res.stderr

    def test_non_integer_turn_span_is_exit_3(self, workspace, tmp_path):
        bad = tmp_path / "asr.jsonl"
        bad.write_text(json.dumps({"encounter_id": "e0", "text": "x",
                                   "turns": [[0, "x"]]}) + "\n")
        res = run_cli("align", "--ref", str(workspace / "data" / "reference.jsonl"),
                      "--asr", str(bad))
        assert res.returncode == 3
        assert "kind=parse-failure" in res.stderr and "turn spans" in res.stderr

    def test_empty_turns_with_text_is_exit_3(self, workspace, tmp_path):
        data = workspace / "data"
        lines = (data / "asr.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        rec["turns"] = []
        lines[0] = json.dumps(rec)
        bad = tmp_path / "asr.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        res = run_cli("project", "--ref", str(data / "reference.jsonl"),
                      "--asr", str(bad), "--out", str(tmp_path / "projected.jsonl"))
        assert res.returncode == 3
        assert "kind=parse-failure" in res.stderr and "turn spans cover 0 chars" in res.stderr

    @pytest.mark.parametrize("family", ["neural", "baseline"])
    def test_non_finite_checkpoint_is_exit_3(self, workspace, tmp_path, family):
        data = workspace / "data"
        ckpt = tmp_path / f"{family}.json"
        res = run_cli("train", "--corpus", str(data / "reference.jsonl"),
                      "--variant", "dlb" if family == "neural" else "mnb",
                      "--out", str(ckpt))
        assert res.returncode == 0, res.stderr
        rec = json.loads(ckpt.read_text())
        if family == "neural":
            rec["params"]["w_layer"][0] = float("nan")
        else:
            rec["log_prior"][0] = float("nan")
        ckpt.write_text(json.dumps(rec))
        res = run_cli("eval", "--model", str(ckpt),
                      "--test", str(data / "reference.jsonl"), "--json")
        assert res.returncode == 3
        assert "kind=parse-failure" in res.stderr and "non-finite" in res.stderr

    def test_unknown_config_key_is_exit_4(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"does-not-exist": 1}')
        res = run_cli("synth", "--out-dir", str(tmp_path / "x"), "--n", "2",
                      "--config", str(cfg))
        assert res.returncode == 4
        assert "kind=invalid-config-key" in res.stderr

    @pytest.mark.parametrize("argv, config", [
        (("synth", "--out-dir", "{tmp}/x", "--n", "2"), {"n": "abc"}),
        (("synth", "--out-dir", "{tmp}/x", "--n", "2"), {"char_sub": "0.1"}),
        (("synth", "--out-dir", "{tmp}/x", "--n", "2"), {"char_sub": 10 ** 400}),
        (("project", "--ref", "{data}/reference.jsonl", "--asr", "{data}/asr.jsonl",
          "--out", "{tmp}/p.jsonl"), {"threads": "2"}),
        (("train", "--corpus", "{data}/reference.jsonl", "--variant", "mnb",
          "--out", "{tmp}/m.json"), {"task": "xyz"}),
    ])
    def test_config_value_unlike_its_flag_is_exit_4(self, workspace, tmp_path, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [a.format(tmp=tmp_path, data=workspace / "data") for a in argv]
        res = run_cli(*argv, "--config", str(cfg))
        assert res.returncode == 4, res.stderr
        assert "kind=invalid-config-value" in res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_negative_seed_is_exit_4(self, tmp_path):
        res = run_cli("synth", "--out-dir", str(tmp_path / "x"), "--n", "2", "--seed", "-1")
        assert res.returncode == 4, res.stderr
        assert "kind=invalid-seed" in res.stderr

    # every subcommand's flags, as its --help lists them; only the
    # subcommands that draw random numbers take --seed
    FLAGS = {
        "synth": {"--out-dir", "--n", "--min-utterances", "--max-utterances",
                  "--context-strength", "--char-sub", "--char-del", "--char-ins",
                  "--turn-merge", "--turn-split", "--emit-asr", "--seed"},
        "align": {"--ref", "--asr", "--out"},
        "project": {"--ref", "--asr", "--out"},
        "train": {"--corpus", "--variant", "--task", "--with-asr", "--out", "--seed"},
        "eval": {"--model", "--test", "--calibrate", "--val-corpus", "--json"},
        "irr": {"--notes-a", "--notes-b", "--transcripts"},
    }

    def test_each_subcommand_has_its_flag_set(self, capsys):
        for command, flags in self.FLAGS.items():
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
            assert listed == flags | {"--help", "--config", "--threads"}, command

    def test_seed_is_not_a_flag_of_subcommands_that_draw_nothing(self, workspace, tmp_path):
        data = workspace / "data"
        res = run_cli("align", "--ref", str(data / "reference.jsonl"),
                      "--asr", str(data / "asr.jsonl"), "--seed", "1")
        assert res.returncode == 2 and "--seed" in res.stderr
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        res = run_cli("eval", "--model", "oracle", "--test", str(data / "reference.jsonl"),
                      "--config", str(cfg))
        assert res.returncode == 4 and "kind=invalid-config-key" in res.stderr

    def test_irr_bad_note_line_is_exit_3(self, workspace, tmp_path):
        data = workspace / "data"
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"encounter_id": "e0", "observations": [{"subsection": "vitals", '
                         '"summary": "s", "tags": 5, "evidence": [0]}]}\n')
        res = run_cli("irr", "--notes-a", str(notes), "--notes-b", str(notes),
                      "--transcripts", str(data / "reference.jsonl"))
        assert res.returncode == 3, res.stderr
        assert "kind=parse-failure" in res.stderr and "line 1" in res.stderr

    @pytest.mark.parametrize("repeated", ["a", "b"])
    def test_irr_repeated_note_is_exit_4(self, workspace, tmp_path, repeated):
        data = workspace / "data"
        eid = json.loads((data / "reference.jsonl").read_text().splitlines()[0])["encounter_id"]
        note = json.dumps({"encounter_id": eid, "observations": [
            {"subsection": "vitals", "summary": "bp", "tags": [], "evidence": [0]}]}) + "\n"
        for side in ("a", "b"):
            (tmp_path / f"{side}.jsonl").write_text(note * (2 if side == repeated else 1))
        res = run_cli("irr", "--notes-a", str(tmp_path / "a.jsonl"),
                      "--notes-b", str(tmp_path / "b.jsonl"),
                      "--transcripts", str(data / "reference.jsonl"))
        assert res.returncode == 4, res.stderr
        assert "kind=invalid-data" in res.stderr and repr(eid) in res.stderr, res.stderr

    def test_irr_repeated_transcript_id_is_exit_4(self, workspace, tmp_path):
        data = workspace / "data"
        lines = (data / "reference.jsonl").read_text().splitlines()
        eid = json.loads(lines[0])["encounter_id"]
        second = json.loads(lines[1])
        second["encounter_id"] = eid
        transcripts = tmp_path / "transcripts.jsonl"
        transcripts.write_text("\n".join([lines[0], json.dumps(second)] + lines[2:]) + "\n")
        note = json.dumps({"encounter_id": eid, "observations": [
            {"subsection": "vitals", "summary": "bp", "tags": [], "evidence": [0]}]}) + "\n"
        (tmp_path / "a.jsonl").write_text(note)
        res = run_cli("irr", "--notes-a", str(tmp_path / "a.jsonl"),
                      "--notes-b", str(tmp_path / "a.jsonl"), "--transcripts", str(transcripts))
        assert res.returncode == 4, res.stderr
        assert "kind=invalid-data" in res.stderr and repr(eid) in res.stderr, res.stderr

    @pytest.mark.parametrize("command", ["align", "project"])
    def test_reference_encounter_without_asr_record_is_exit_4(self, workspace, tmp_path, command):
        data = workspace / "data"
        lines = (data / "asr.jsonl").read_text().splitlines()
        eid = json.loads(lines[1])["encounter_id"]
        (tmp_path / "asr.jsonl").write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        out = tmp_path / "out.jsonl"
        res = run_cli(command, "--ref", str(data / "reference.jsonl"),
                      "--asr", str(tmp_path / "asr.jsonl"), "--out", str(out))
        assert res.returncode == 4, res.stderr
        assert "kind=invalid-data" in res.stderr, res.stderr
        assert f"encounter {eid!r} has no match in the ASR records" in res.stderr, res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("unmatched_in", ["notes_a", "notes_b", "transcripts"])
    def test_irr_unmatched_encounter_is_exit_4(self, workspace, tmp_path, capsys, unmatched_in):
        data = workspace / "data"
        ids = [json.loads(l)["encounter_id"]
               for l in (data / "reference.jsonl").read_text().splitlines()][:2]
        # the second encounter is noted on one side only, or has no transcript
        extra = "no-such-encounter" if unmatched_in == "transcripts" else ids[1]
        sides = {"a": [ids[0], extra], "b": [ids[0], extra]}
        if unmatched_in != "transcripts":
            sides["b" if unmatched_in == "notes_a" else "a"].pop()
        for side, eids in sides.items():
            (tmp_path / f"{side}.jsonl").write_text("".join(json.dumps(
                {"encounter_id": eid, "observations": [{"subsection": "vitals", "summary": "bp",
                                                        "tags": [], "evidence": [0]}]}) + "\n"
                for eid in eids))
        assert main(["irr", "--notes-a", str(tmp_path / "a.jsonl"),
                     "--notes-b", str(tmp_path / "b.jsonl"),
                     "--transcripts", str(data / "reference.jsonl")]) == 4
        err = capsys.readouterr().err
        other = {"notes_a": "notes_b", "notes_b": "notes_a", "transcripts": "transcripts"}
        assert "kind=invalid-data" in err, err
        assert f"encounter {extra!r} has no match in {other[unmatched_in]}" in err, err

    def test_calibrate_without_val_corpus_is_usage_error(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        res = run_cli("eval", "--model", "oracle",
                      "--test", str(data / "reference.jsonl"), "--calibrate")
        assert res.returncode == 2
        assert "kind=usage" in res.stderr
        # refused before any input is read: a bad checkpoint does not make it exit 3
        (tmp_path / "model.json").write_text("{not json")
        assert main(["eval", "--model", str(tmp_path / "model.json"),
                     "--test", str(tmp_path / "absent.jsonl"), "--calibrate"]) == 2
        assert "kind=usage" in capsys.readouterr().err

    def test_config_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 4}')
        res = run_cli("synth", "--out-dir", str(tmp_path / "c"), "--n", "2",
                      "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "c" / "reference.jsonl").read_text().splitlines()
        assert len(lines) == 4


class TestPipeline:
    def test_align_writes_one_record_per_encounter(self, workspace):
        data = workspace / "data"
        out = workspace / "alignments.jsonl"
        res = run_cli("align", "--ref", str(data / "reference.jsonl"),
                      "--asr", str(data / "asr.jsonl"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(recs) == 12
        assert all(set(r) == {"encounter_id", "anchors", "leaves"} for r in recs)

    def test_project_then_oracle_eval_is_perfect_on_clean_data(self, tmp_path):
        data = tmp_path / "clean"
        res = run_cli("synth", "--out-dir", str(data), "--n", "6", "--seed", "5",
                      "--emit-asr")
        assert res.returncode == 0, res.stderr
        proj = tmp_path / "projected.jsonl"
        res = run_cli("project", "--ref", str(data / "reference.jsonl"),
                      "--asr", str(data / "asr.jsonl"), "--out", str(proj))
        assert res.returncode == 0, res.stderr
        res = run_cli("eval", "--model", "oracle", "--test", str(proj), "--json")
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        for task in ("soap", "speaker"):
            assert out[task]["uncalibrated"]["accuracy"] == 1.0

    def test_project_has_no_speaker_norm_choice(self, workspace, tmp_path):
        data = workspace / "data"
        argv = ("project", "--ref", str(data / "reference.jsonl"),
                "--asr", str(data / "asr.jsonl"), "--out", str(tmp_path / "p.jsonl"))
        res = run_cli(*argv, "--speaker-norm", "l1")
        assert res.returncode == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speaker_norm": "l1"}))
        res = run_cli(*argv, "--config", str(cfg))
        assert res.returncode == 4 and "kind=invalid-config-key" in res.stderr

    def test_calibration_on_one_validation_transcript_names_the_cause(self, workspace, tmp_path):
        data = workspace / "data"
        one = tmp_path / "one.jsonl"
        one.write_text((data / "reference.jsonl").read_text().splitlines()[0] + "\n")
        res = run_cli("eval", "--model", "oracle", "--test", str(data / "reference.jsonl"),
                      "--calibrate", "--val-corpus", str(one))
        assert res.returncode == 4
        assert "at least two validation transcripts" in res.stderr

    @pytest.mark.parametrize("argv, detail", [
        (["eval", "--model", "oracle", "--test", "{ref}", "--calibrate", "--val-corpus", "{noise}"],
         "{noise}: calibration needs at least two validation transcripts, got 0"),
        (["eval", "--model", "oracle", "--test", "{noise}"], "{noise}: no utterances to score"),
        (["train", "--corpus", "{noise}", "--variant", "mnb", "--out", "{out}"],
         "{noise}: no utterances to train on"),
        (["train", "--corpus", "{noise}", "--variant", "bil", "--out", "{out}"],
         "{noise}: no utterances to train on"),
        (["train", "--corpus", "{noise}", "--with-asr", "{noise}", "--variant", "lr",
          "--out", "{out}"], "{noise} and {noise}: no utterances to train on"),
    ], ids=["val-corpus", "test", "train-mnb", "train-bil", "train-with-asr"])
    def test_corpus_with_no_tokens_names_the_file(self, workspace, tmp_path, capsys, argv, detail):
        """Three transcripts whose every utterance is "[noise]" keep no token."""
        ref = workspace / "data" / "reference.jsonl"
        noise = tmp_path / "noise.jsonl"
        recs = [json.loads(line) for line in ref.read_text().splitlines()[:3]]
        for rec in recs:
            for utt in rec["utterances"]:
                utt["text"] = "[noise]"
        noise.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        paths = dict(ref=ref, noise=noise, out=tmp_path / "model.json")
        assert main([a.format(**paths) for a in argv]) == 4
        assert f"detail={detail.format(**paths)}" in capsys.readouterr().err
        assert not paths["out"].exists()

    def test_train_eval_baseline(self, workspace):
        data = workspace / "data"
        ckpt = workspace / "mnb.json"
        res = run_cli("train", "--corpus", str(data / "reference.jsonl"),
                      "--variant", "mnb", "--task", "soap", "--out", str(ckpt))
        assert res.returncode == 0, res.stderr
        res = run_cli("eval", "--model", str(ckpt),
                      "--test", str(data / "reference.jsonl"), "--json")
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert set(out) == {"soap"}
        assert 0.0 <= out["soap"]["uncalibrated"]["accuracy"] <= 1.0

    def test_train_eval_neural_with_calibration_table(self, workspace):
        data = workspace / "data"
        ckpt = workspace / "wa.json"
        res = run_cli("train", "--corpus", str(data / "reference.jsonl"),
                      "--variant", "wa", "--out", str(ckpt), "--seed", "1")
        assert res.returncode == 0, res.stderr
        assert "epoch" in res.stderr.lower() or "epoch" in res.stdout.lower()
        res = run_cli("eval", "--model", str(ckpt),
                      "--test", str(data / "reference.jsonl"),
                      "--calibrate", "--val-corpus", str(data / "reference.jsonl"))
        assert res.returncode == 0, res.stderr
        # table mode: both tasks, a calibrated column, and a winner mark
        assert "speaker" in res.stdout and "soap" in res.stdout
        assert "calibrated" in res.stdout
        assert "*" in res.stdout

    @pytest.mark.parametrize("variant", ["lr", "bil"])
    def test_class_mass_below_the_floor_trains(self, workspace, tmp_path, variant):
        # a valid distribution whose class mass, 1e-320, would overflow an
        # inverse-frequency weight to inf
        data = workspace / "data"
        proj = tmp_path / "projected.jsonl"
        assert main(["project", "--ref", str(data / "reference.jsonl"),
                     "--asr", str(data / "asr.jsonl"), "--out", str(proj)]) == 0
        recs = [json.loads(line) for line in proj.read_text().splitlines()]
        for rec in recs:
            for utt in rec["utterances"]:
                utt["soap_dist"] = [1.0, 0.0, 0.0, 0.0, 0.0]
        recs[0]["utterances"][0]["soap_dist"] = [1.0, 1e-320, 0.0, 0.0, 0.0]
        proj.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        ckpt = tmp_path / f"{variant}.json"
        res = run_cli("train", "--corpus", str(proj), "--variant", variant, "--task", "soap",
                      "--out", str(ckpt))
        assert res.returncode == 0 and "Warning" not in res.stderr, res.stderr
        # the loaders refuse a non-finite array
        (load_baseline if variant == "lr" else load_model)(ckpt)

    def test_irr_report_runs(self, workspace, tmp_path):
        data = workspace / "data"
        notes_a = tmp_path / "a.jsonl"
        notes_b = tmp_path / "b.jsonl"
        ref_ids = [json.loads(l)["encounter_id"]
                   for l in (data / "reference.jsonl").read_text().splitlines()][:2]
        def note(eid, summary):
            return {"encounter_id": eid, "observations": [
                {"subsection": "medications", "summary": summary,
                 "tags": ["rx"], "evidence": [0, 1]}]}
        notes_a.write_text("\n".join(json.dumps(note(e, "refill statin")) for e in ref_ids) + "\n")
        notes_b.write_text("\n".join(json.dumps(note(e, "refill statin now")) for e in ref_ids) + "\n")
        res = run_cli("irr", "--notes-a", str(notes_a), "--notes-b", str(notes_b),
                      "--transcripts", str(data / "reference.jsonl"))
        assert res.returncode == 0, res.stderr
        assert "substitution" in res.stdout
        assert "plan" in res.stdout


def test_importing_the_cli_loads_neither_numpy_random_nor_hashlib():
    # align, project and irr never draw; only the embedding table needs them
    path = os.pathsep.join(filter(None, [_IMPORT_ROOT, os.environ.get("PYTHONPATH")]))
    code = "import sys, soapkit.cli; print([m for m in ('numpy.random', 'hashlib') if m in sys.modules])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0 and res.stdout.strip() == "[]", res.stdout + res.stderr


def test_every_error_class_is_a_data_error():
    """soapkit defines exactly two exception classes: DataError, which the
    CLI maps to exit 3 or 4, and the CLI's own CliError."""
    classes = set()
    for info in pkgutil.walk_packages(soapkit.__path__, "soapkit."):
        module = importlib.import_module(info.name)
        classes |= {obj for obj in vars(module).values() if isinstance(obj, type)
                    and issubclass(obj, BaseException) and obj.__module__ == info.name}
    assert classes == {DataError, CliError}
