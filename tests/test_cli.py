import json
import subprocess
import sys

import pytest


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "soapkit.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


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

    def test_malformed_input_is_exit_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{oops\n")
        res = run_cli("align", "--ref", str(bad), "--asr", str(bad))
        assert res.returncode == 3
        assert "kind=parse-failure" in res.stderr

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

    def test_calibrate_without_val_corpus_is_usage_error(self, workspace):
        data = workspace / "data"
        res = run_cli("eval", "--model", "oracle",
                      "--test", str(data / "reference.jsonl"), "--calibrate")
        assert res.returncode == 2
        assert "kind=usage" in res.stderr

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

    def test_project_applies_speaker_norm_choice(self, workspace):
        data = workspace / "data"
        out_l1 = workspace / "proj_l1.jsonl"
        res = run_cli("project", "--ref", str(data / "reference.jsonl"),
                      "--asr", str(data / "asr.jsonl"), "--out", str(out_l1),
                      "--speaker-norm", "l1")
        assert res.returncode == 0, res.stderr
        rec = json.loads(out_l1.read_text().splitlines()[0])
        spk = rec["utterances"][0]["speaker_dist"]
        assert sum(spk) == pytest.approx(1.0, abs=1e-9)

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
