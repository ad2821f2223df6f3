"""Byte-identity guard for synth -> align -> project.

Runs the three subcommands in-process at a fixed seed with the README
noise settings and compares each output file's sha256 with a digest
recorded before the alignment became an op string and word masses became
one per-transcript pass. A digest that moves means a seeded output moved.
"""

import hashlib

import soapkit.cli

NOISE = ["--char-sub", "0.03", "--char-del", "0.01", "--char-ins", "0.01",
         "--turn-merge", "0.3"]

GOLDEN = {
    "data/reference.jsonl": "56bc1a70d83cb58af57256027076cd366759b8d869918165976bd558cb031599",
    "data/asr.jsonl": "75bbc8fac90327bdf5dfd453ac08c41a207b1a5e4977763d1aeb4704f233d03a",
    "data/asr_sidecar.jsonl": "7b4c4bc8583c42e256a424842997bea697eaf77fadc64abe8460f34cdf0a4ab0",
    "alignments.jsonl": "5f3580b9c081985ccea485f7ed05ee90d7ee79259334a64388b4764d882d80db",
    "projected.jsonl": "e772a8a7c44759fbdcdcc7ddac3bc9bb1f0e2fa6143c6222681a8fa36fda274a",
    "projected_l1.jsonl": "c6910be3687dbe08eb09777f50bd7e491d5f27e8927ced5e2ccedf1e5a2e0c63",
}


def test_synth_align_project_outputs_match_recorded_digests(tmp_path):
    data = tmp_path / "data"
    ref, asr = str(data / "reference.jsonl"), str(data / "asr.jsonl")
    runs = [
        ["synth", "--out-dir", str(data), "--n", "8", "--seed", "41", *NOISE],
        ["align", "--ref", ref, "--asr", asr, "--out", str(tmp_path / "alignments.jsonl")],
        ["project", "--ref", ref, "--asr", asr, "--out", str(tmp_path / "projected.jsonl")],
        ["project", "--ref", ref, "--asr", asr, "--speaker-norm", "l1",
         "--out", str(tmp_path / "projected_l1.jsonl")],
    ]
    for argv in runs:
        assert soapkit.cli.main(argv) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
