"""Span tracing for the benchmark's traced run.

The traced run replaces soapkit's public functions, in the module namespaces
the CLI and the library resolve them from at call time, with wrappers that
record one span per call. The CLI therefore composes the layers exactly as
it does untraced; nothing under src/ knows about tracing. Patches hold
only inside a `Tracer.session` block: one traced set-up repeat, iteration
or probe.

A span is (id, name, start, end, parent span id, CLI stage, request id).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import statistics
import time

import soapkit.align
import soapkit.baselines
import soapkit.cli
import soapkit.irr
import soapkit.project
from soapkit.neural.model import SequenceClassifier
from soapkit.neural.train import TrainConfig

NEURAL_VARIANTS = ("wa", "bil", "bild")


def _median(values):
    return statistics.median(values) if values else 0.0


class Tracer:
    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.stage = "setup"
        self.request = workload
        self.counts = {}
        self.maxima = {}
        self.forward_mismatches = 0

    # --- recording ---

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def call(self, name, fn, args, kwargs, request=None):
        """Run fn(*args, **kwargs) inside a span."""
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        outer_request = self.request
        if request is not None:
            self.request = f"{self.workload}/{request}"
        self.stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent, self.stage, self.request))
            self.request = outer_request

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "stage", "request")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))))
                fh.write("\n")

    # --- patching ---

    @contextlib.contextmanager
    def session(self, stage: str, runner=None):
        """Route soapkit's layer functions, and `runner`'s CLI calls, through
        this tracer for the duration of the block; counters restart."""
        self.counts, self.maxima, self.stage = {}, {}, stage
        saved = []
        try:
            for owner, attr, factory in self.patch_table():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            if runner is not None:
                runner.tracer = self
            yield self
        finally:
            if runner is not None:
                runner.tracer = None
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name, fn, observe=None, request=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rid = request(*args) if request is not None else None
            result = tracer.call(name, fn, args, kwargs, request=rid)
            if observe is not None:
                observe(tracer, result, *args, **kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _train_model(self, fn):
        """train_model with an on_batch hook that timestamps every update."""
        tracer = self

        def wrapper(model, transcripts, cfg=TrainConfig(), on_batch=None):
            if on_batch is not None:
                raise ValueError("the traced train_model owns the on_batch hook")
            v = model.config.variant
            stamps = [tracer.clock()]
            clipped = []
            probe_before = tracer.counts.get(f"neural.{v}.forward_probe_s", 0.0)

            def hook(info):
                stamps.append(tracer.clock())
                clipped.append(info["clip_scale"] < 1.0)

            result = tracer.call(f"neural.{v}.train", fn, (model, transcripts, cfg),
                                 {"on_batch": hook})
            batch_s = stamps[-1] - stamps[0]
            # forward probes run inside batches; they are not training work
            batch_s -= tracer.counts.get(f"neural.{v}.forward_probe_s", 0.0) - probe_before
            utts = sum(len(t.utterances) for t in transcripts) * cfg.epochs
            tracer.add(f"neural.{v}.batch_s", batch_s)
            tracer.add(f"neural.{v}.utts", utts)
            tracer.add(f"neural.{v}.batches", len(clipped))
            tracer.add(f"neural.{v}.clipped", sum(clipped))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _loss_and_grads(self, fn):
        """loss_and_grads preceded by a compute_loss probe on the same
        batch, with a copy of the dropout generator so the probe draws the
        same masks and leaves training's random stream untouched."""
        tracer = self

        def wrapper(model, *args, **kwargs):
            v = model.config.variant
            probe = dict(kwargs)
            if probe.get("gen") is not None:
                probe["gen"] = copy.deepcopy(probe["gen"])
            t0 = tracer.clock()
            fwd = tracer.call(f"neural.{v}.forward", model.compute_loss, args, probe)
            tracer.add(f"neural.{v}.forward_probe_s", tracer.clock() - t0)
            loss, grads = tracer.call(f"neural.{v}.loss_and_grads", fn,
                                      (model,) + args, kwargs)
            if fwd != loss:
                tracer.forward_mismatches += 1
            return loss, grads
        wrapper.__wrapped__ = fn
        return wrapper

    def patch_table(self):
        """(owner, attribute, wrapper factory) for every traced call site."""
        cli, align, project = soapkit.cli, soapkit.align, soapkit.project
        w = self._wrap
        return [
            (cli, "generate_corpus", lambda f: w("synth.generate", f, _observe_generate)),
            (cli, "corrupt_corpus", lambda f: w("synth.corrupt", f, _observe_corrupt)),
            (cli, "read_corpus", lambda f: w("corpus.read", f, _observe_read)),
            (cli, "read_asr_raw", lambda f: w("corpus.read", f, _observe_read)),
            (cli, "write_corpus", lambda f: w("corpus.write", f, _observe_write)),
            (cli, "write_asr_raw", lambda f: w("corpus.write", f, _observe_write)),
            (cli, "alignment_record", lambda f: w("align.record", f, request=lambda eid, *a: eid)),
            (align, "partition_tree", lambda f: w("align.partition", f, _observe_partition)),
            (align, "longest_common_substring", lambda f: w("align.lcs", f, _observe_lcs)),
            (align, "dp_align", lambda f: w("align.dp", f, _observe_dp)),
            (project, "project_transcript",
             lambda f: w("project.transcript", f, request=lambda ref, *a: ref.encounter_id)),
            (project, "align_transcripts", lambda f: w("project.align", f)),
            (project, "char_label_table", lambda f: w("project.labels", f)),
            (project, "reconstruct_utterances", lambda f: w("project.reconstruct", f)),
            (project, "word_label_probs", lambda f: w("project.word_probs", f)),
            (project, "asr_to_ref_map", lambda f: w("project.map", f)),
            (project, "utterance_distributions", lambda f: w("project.dist", f)),
            (cli, "preprocess_corpus", lambda f: w("preprocess", f, _observe_preprocess)),
            (cli, "train_mnb", lambda f: w("baselines.mnb_fit", f)),
            (cli, "train_lr", lambda f: w("baselines.lr_fit", f)),
            (soapkit.baselines.BaselineModel, "predict_matrix",
             lambda f: w("baselines.predict", f)),
            (cli, "train_model", self._train_model),
            (SequenceClassifier, "loss_and_grads", self._loss_and_grads),
            (SequenceClassifier, "predict", lambda f: w("neural.predict", f)),
            (cli, "evaluate", lambda f: w("metrics.evaluate", f)),
            (cli, "fit_platt", lambda f: w("metrics.platt_fit", f)),
            (soapkit.irr, "map_notes", lambda f: w("irr.map_notes", f)),
            (cli, "irr_report", lambda f: w("irr.report", f)),
        ]


# --- observers: counts taken outside the timed region ---


def _observe_generate(tracer, refs, cfg):
    tracer.add("synth.chars", sum(len(u.text) + 1 for t in refs for u in t.utterances))


def _observe_corrupt(tracer, result, *args):
    records, _ = result
    tracer.add("synth.chars", sum(len(r.text) for r in records))


def _observe_read(tracer, result, path):
    tracer.add("corpus.bytes", os.path.getsize(path))


def _observe_write(tracer, result, records, path):
    tracer.add("corpus.bytes", os.path.getsize(path))


def _observe_partition(tracer, tree, ref, asr):
    tracer.add("align.ref_chars", len(ref))
    todo = [tree]
    while todo:
        node = todo.pop()
        if node.anchor is not None:
            tracer.add("align.anchors", 1)
            tracer.add("align.anchored_chars", node.anchor[2])
        todo.extend(node.children)


def _observe_lcs(tracer, result, a, b):
    tracer.add("align.lcs_cells", len(a) * len(b))


def _observe_dp(tracer, result, a, b):
    cells = len(a) * len(b)
    tracer.add("align.dp_cells", cells)
    tracer.high("align.max_leaf_cells", cells)


def _observe_preprocess(tracer, result, *args):
    tracer.add("preprocess.utts", sum(len(t.utterances) for t in result))


# --- per-layer metrics of one traced iteration ---


def layer_metrics(spans, counts, maxima) -> tuple:
    """Per-layer metrics from the spans and counters of one traced
    iteration, plus the per-transcript projection times in ms. Times are
    summed over every call of the layer function (nested calls of another
    function are included in the outer sum)."""
    total = {}
    calls = {}
    transcript_ms = []
    for _, name, start, end, _, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name == "project.transcript":
            transcript_ms.append((end - start) * 1e3)

    def s(name):
        return total.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    out = {
        "corpus.read_s": s("corpus.read"),
        "corpus.write_s": s("corpus.write"),
        "corpus.bytes": c("corpus.bytes"),
        "align.partition_s": s("align.partition"),
        "align.lcs_calls": calls.get("align.lcs", 0),
        "align.lcs_cells": c("align.lcs_cells"),
        "align.anchors": c("align.anchors"),
        "align.anchored_frac": (c("align.anchored_chars") / c("align.ref_chars")
                                if c("align.ref_chars") else 0.0),
        "align.dp_s": s("align.dp"),
        "align.dp_calls": calls.get("align.dp", 0),
        "align.dp_cells": c("align.dp_cells"),
        "align.max_leaf_cells": maxima.get("align.max_leaf_cells", 0),
        "align.record_s": s("align.record"),
        "project.align_s": s("project.align"),
        "project.labels_s": s("project.labels"),
        "project.reconstruct_s": s("project.reconstruct"),
        "project.word_probs_s": s("project.word_probs"),
        "project.map_calls": calls.get("project.map", 0),
        "project.dist_s": s("project.dist"),
        "preprocess.s": s("preprocess"),
        "preprocess.utts": c("preprocess.utts"),
        "baselines.mnb_fit_s": s("baselines.mnb_fit"),
        "baselines.lr_fit_s": s("baselines.lr_fit"),
        "baselines.predict_s": s("baselines.predict"),
        "neural.predict_s": s("neural.predict"),
        "metrics.evaluate_s": s("metrics.evaluate"),
        "metrics.platt_fit_s": s("metrics.platt_fit"),
        "irr.map_notes_s": s("irr.map_notes"),
        "irr.report_s": s("irr.report"),
        "irr.pairs": calls.get("irr.map_notes", 0),
    }
    for v in NEURAL_VARIANTS:
        fwd = s(f"neural.{v}.forward")
        batch_s = c(f"neural.{v}.batch_s")
        batches = c(f"neural.{v}.batches")
        out[f"neural.{v}.forward_s"] = fwd
        out[f"neural.{v}.backward_s"] = s(f"neural.{v}.loss_and_grads") - fwd if fwd else 0.0
        out[f"neural.{v}.utt_per_s"] = c(f"neural.{v}.utts") / batch_s if batch_s > 0 else 0.0
        out[f"neural.{v}.clip_rate"] = c(f"neural.{v}.clipped") / batches if batches else 0.0
    return out, transcript_ms


def percentile(values, q):
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]


def synth_metrics(spans, counts) -> dict:
    gen = sum(e - s for _, n, s, e, *_ in spans if n == "synth.generate")
    cor = sum(e - s for _, n, s, e, *_ in spans if n == "synth.corrupt")
    return {"synth.generate_s": gen, "synth.corrupt_s": cor,
            "synth.chars": counts.get("synth.chars", 0)}


def median_metrics(rows) -> dict:
    """Per-key median over a list of metric dicts with the same keys."""
    if not rows:
        return {}
    return {k: _median([r[k] for r in rows]) for k in rows[0]}
