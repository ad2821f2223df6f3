"""The names the benchmark harness under bench/ imports, patches and
calls still exist with the signatures it uses. Its modules are loaded
as they are; a name removed from soapkit fails here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from soapkit.corpus import Rng, render_reference, write_corpus
from soapkit.irr import read_notes
from soapkit.preprocess import preprocess_corpus
from soapkit.synth import SynthConfig, corrupt_corpus, generate_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return {name: _load(name) for name in ("tracing", "workloads", "probes")}


def test_every_traced_call_site_resolves(bench):
    table = bench["tracing"].Tracer("contract").patch_table()
    assert len(table) > 20
    for owner, attr, factory in table:
        assert callable(owner.__dict__.get(attr)), (owner, attr)
        assert callable(factory(owner.__dict__[attr]))


def test_kernel_probes_run(bench):
    probes = bench["probes"]
    small = preprocess_corpus(generate_corpus(SynthConfig(n_transcripts=3, seed=1)))
    got = probes.neural_kernels(small, seed=1)
    assert all(v > 0 for v in got.values()), got
    refs = generate_corpus(SynthConfig(n_transcripts=1, min_utterances=60,
                                       max_utterances=60, seed=2))
    asr, _ = corrupt_corpus(refs, probes.NOISE, Rng(3))
    got = probes.align_kernels(render_reference(refs[0].utterances)[0], asr[0].text)
    assert all(v > 0 for v in got.values()), got


def test_irr_notes_build(bench, tmp_path):
    ref = tmp_path / "reference.jsonl"
    write_corpus(generate_corpus(SynthConfig(n_transcripts=3, seed=4)), ref)
    bench["workloads"].build_notes(ref, tmp_path / "a.jsonl", tmp_path / "b.jsonl", seed=5)
    assert len(read_notes(tmp_path / "a.jsonl")) == len(read_notes(tmp_path / "b.jsonl")) == 3
