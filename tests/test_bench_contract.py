"""The names the benchmark harness under bench/ imports, patches and
calls still exist with the signatures it uses. Its modules are loaded
as they are; a name removed from soapkit fails here, not only in a traced
benchmark run."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import soapkit.align
from soapkit.align import fold_case, partition_tree
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


@pytest.fixture(scope="module")
def probe_pair(bench):
    """The kernel probe's 60-utterance reference text and its ASR copy."""
    refs = generate_corpus(SynthConfig(n_transcripts=1, min_utterances=60,
                                       max_utterances=60, seed=2))
    asr, _ = corrupt_corpus(refs, bench["probes"].NOISE, Rng(3))
    return render_reference(refs[0].utterances)[0], asr[0].text


def test_kernel_probes_run(bench, probe_pair):
    probes = bench["probes"]
    small = preprocess_corpus(generate_corpus(SynthConfig(n_transcripts=3, seed=1)))
    got = probes.neural_kernels(small, seed=1)
    assert all(v > 0 for v in got.values()), got
    got = probes.align_kernels(*probe_pair)
    assert all(v > 0 for v in got.values()), got


def test_traced_alignment_sees_every_call(bench, probe_pair):
    # one lcs span per partition node with both sides non-empty, one dp
    # span per leaf that covers any chars
    tracer = bench["tracing"].Tracer("contract")
    with tracer.session("probe"):
        soapkit.align.align_transcripts(*probe_pair)
    spans = Counter(span[1] for span in tracer.spans)
    searched = leaves = 0
    todo = [partition_tree(*(fold_case(t) for t in probe_pair))]
    while todo:
        node = todo.pop()
        todo.extend(node.children)
        n_ref, n_asr = (hi - lo for lo, hi in (node.ref_span, node.asr_span))
        searched += n_ref > 0 and n_asr > 0
        leaves += node.anchor is None and n_ref + n_asr > 0
    assert spans["align.partition"] == 1
    assert spans["align.lcs"] == searched and spans["align.dp"] == leaves
    assert 0 < leaves < searched, (leaves, searched)


def test_irr_notes_build(bench, tmp_path):
    ref = tmp_path / "reference.jsonl"
    write_corpus(generate_corpus(SynthConfig(n_transcripts=3, seed=4)), ref)
    bench["workloads"].build_notes(ref, tmp_path / "a.jsonl", tmp_path / "b.jsonl", seed=5)
    assert len(read_notes(tmp_path / "a.jsonl")) == len(read_notes(tmp_path / "b.jsonl")) == 3
