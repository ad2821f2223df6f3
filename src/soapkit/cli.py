"""Command-line surface for the pipeline.

Subcommands cover the batch flow end to end: synth (generate a labeled
corpus, optionally with a corrupted ASR-style copy), align (character
alignment dump), project (labels onto ASR text), train (baselines or
neural variants), eval (metric tables, optionally calibrated), and irr
(note agreement). Logs go to standard error, data to files or standard
output. Given the same flags and seed, outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .align import alignment_record
from .baselines import BaselineModel, train_lr, train_mc, train_mnb
from .corpus import (
    N_SOAP,
    N_SPEAKER,
    DataError,
    Rng,
    gold_labels,
    one_hot_targets,
    pair_by_encounter,
    read_asr_raw,
    read_corpus,
    read_json,
    render_reference,
    write_asr_raw,
    write_corpus,
    write_jsonl,
)
from .irr import format_report, irr_report, read_notes
from .metrics import MetricReport, evaluate, fit_platt, validation_split
from .neural.model import MODEL_VARIANTS, ModelConfig, SequenceClassifier
from .neural.train import TrainConfig, collect_scores, train_model
from .preprocess import preprocess_corpus
from .project import project_corpus
from .synth import (
    CorruptionConfig,
    SynthConfig,
    corrupt_corpus,
    generate_corpus,
    write_sidecar,
)

log = logging.getLogger("soapkit")

BASELINE_VARIANTS = ("mc", "mnb", "lr")

# 0 ok; 2 missing input file (argparse usage errors also exit 2);
# 3 unparsable input; 4 data fails an invariant; 1 anything unexpected.
EXIT_MISSING = 2
EXIT_PARSE = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 1


class CliError(Exception):
    def __init__(self, code: int, kind: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.kind = kind


def _read_input(reader, path, *args):
    """reader(path, *args), whose errors (which name the path) exit as parse
    failures: a file that fails its own invariants is still a bad input."""
    try:
        return reader(path, *args)
    except DataError as e:
        raise CliError(EXIT_PARSE, "parse-failure", str(e)) from None


def _checkpoint(rec):
    """A model of either family from its checkpoint record. A baseline must
    score its task's classes, though the library fits any class count."""
    if rec.get("family") != "baseline":
        return SequenceClassifier.from_record(rec)
    model = BaselineModel.load(rec)
    if model.n_classes != (N_SOAP if model.task == "soap" else N_SPEAKER):
        raise DataError(f"a {model.task} checkpoint cannot have {model.n_classes} classes")
    return model


# --- subcommands ---


def cmd_synth(args) -> int:
    corruption = CorruptionConfig(
        char_sub_rate=args.char_sub, char_del_rate=args.char_del,
        char_ins_rate=args.char_ins, turn_merge_rate=args.turn_merge,
        turn_split_rate=args.turn_split)
    cfg = SynthConfig(
        n_transcripts=args.n, min_utterances=args.min_utterances,
        max_utterances=args.max_utterances,
        context_rule_strength=args.context_strength, seed=args.seed)
    refs = generate_corpus(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    ref_path = os.path.join(args.out_dir, "reference.jsonl")
    write_corpus(refs, ref_path)
    log.info("wrote %d transcripts to %s", len(refs), ref_path)
    # rates are checked to lie in [0, 1], so any change from the default is a rate above 0
    if args.emit_asr or corruption != CorruptionConfig():
        # offset keeps the corruption stream disjoint from the seed
        # sequence children the generator already consumed
        asr_records, stats = corrupt_corpus(refs, corruption, Rng(args.seed + 1))
        asr_path = os.path.join(args.out_dir, "asr.jsonl")
        sidecar_path = os.path.join(args.out_dir, "asr_sidecar.jsonl")
        write_asr_raw(asr_records, asr_path)
        write_sidecar(stats, sidecar_path)
        log.info("wrote ASR copies to %s (sidecar %s)", asr_path, sidecar_path)
    return 0


def cmd_align(args) -> int:
    refs = _read_input(read_corpus, args.ref)
    asr_records = _read_input(read_asr_raw, args.asr)
    records = (alignment_record(ref.encounter_id, render_reference(ref.utterances)[0], asr.text)
               for ref, asr in pair_by_encounter(refs, asr_records, "the ASR records"))
    if args.out:
        write_jsonl(records, args.out)
    else:
        for rec in records:
            print(json.dumps(rec))
    return 0


def cmd_project(args) -> int:
    refs = _read_input(read_corpus, args.ref)
    asr_records = _read_input(read_asr_raw, args.asr)
    projected = project_corpus(refs, asr_records)
    write_corpus(projected, args.out)
    log.info("projected %d transcripts to %s", len(projected), args.out)
    return 0


def _baseline_data(transcripts, task: str):
    token_lists = [utt.tokens for t in transcripts for utt in t.utterances]
    k = ("speaker", "soap").index(task)  # one_hot_targets' order
    return token_lists, np.concatenate([one_hot_targets(t)[k] for t in transcripts])


def cmd_train(args) -> int:
    transcripts = preprocess_corpus(_read_input(read_corpus, args.corpus))
    if args.with_asr:
        transcripts = transcripts + preprocess_corpus(
            _read_input(read_corpus, args.with_asr))
    if not transcripts:
        files = f"{args.corpus} and {args.with_asr}" if args.with_asr else args.corpus
        raise DataError(f"{files}: no utterances to train on")
    if args.variant in BASELINE_VARIANTS:
        token_lists, targets = _baseline_data(transcripts, args.task)
        if args.variant == "mc":
            model = train_mc(targets, args.task)
        elif args.variant == "mnb":
            model = train_mnb(token_lists, targets, args.task)
        else:
            model = train_lr(token_lists, targets, args.task)
    else:
        model = SequenceClassifier(ModelConfig(variant=args.variant, seed=args.seed))
        losses = train_model(model, transcripts, TrainConfig(seed=args.seed))
        for i, loss in enumerate(losses, start=1):
            log.info("epoch %d/%d mean loss %.6f", i, len(losses), loss)
    model.save(args.out)
    log.info("saved %s checkpoint to %s", args.variant, args.out)
    return 0


def _score_tasks(model, transcripts) -> dict:
    """Per-task (scores, golds) arrays for whichever tasks the model
    covers, over non-empty `preprocess_corpus` output. `model` may be the
    literal string "oracle", which reads the stored targets back as
    predictions."""
    if isinstance(model, SequenceClassifier):
        return collect_scores(model, transcripts)
    if model == "oracle":
        spk, soap = zip(*map(one_hot_targets, transcripts))
        scores = {"speaker": np.concatenate(spk), "soap": np.concatenate(soap)}
    else:
        scores = {model.task: model.predict_matrix(
            [utt.tokens for t in transcripts for utt in t.utterances])}
    return {task: (s, np.concatenate([gold_labels(t, task) for t in transcripts]))
            for task, s in scores.items()}


_EVAL_ROWS = (("accuracy", True), ("macro_f1", True), ("auroc", True),
              ("auprc", True), ("log_loss", False))


def _format_eval_table(task: str, uncal: MetricReport, cal: MetricReport | None) -> str:
    lines = [f"task {task} (n={uncal.n}, classes={uncal.n_classes})"]
    if cal is None:
        lines.append(f"{'metric':10s} {'value':>12s}")
        lines += [f"{name:10s} {getattr(uncal, name):12.4f}" for name, _ in _EVAL_ROWS]
    else:
        # two columns, asterisk on the better cell (ties unmarked)
        lines.append(f"{'metric':10s} {'uncalibrated':>14s} {'calibrated':>14s}")
        for name, higher_better in _EVAL_ROWS:
            u = getattr(uncal, name)
            c = getattr(cal, name)
            mark_u = mark_c = " "
            if u != c:
                if (u > c) == higher_better:
                    mark_u = "*"
                else:
                    mark_c = "*"
            lines.append(f"{name:10s} {u:13.4f}{mark_u} {c:13.4f}{mark_c}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    if args.calibrate != bool(args.val_corpus):
        raise CliError(EXIT_MISSING, "usage", "--calibrate and --val-corpus need each other")
    model = ("oracle" if args.model == "oracle"
             else _read_input(read_json, args.model, _checkpoint))
    test = preprocess_corpus(_read_input(read_corpus, args.test))
    if not test:
        raise DataError(f"{args.test}: no utterances to score")
    task_scores = _score_tasks(model, test)
    calibrators = {}
    if args.calibrate:
        val = preprocess_corpus(_read_input(read_corpus, args.val_corpus))
        if len(val) < 2:
            raise DataError(f"{args.val_corpus}: calibration needs at least two "
                            f"validation transcripts, got {len(val)}")
        _, val_tail = validation_split(val)
        calibrators = {task: fit_platt(scores, golds, scores.shape[1])
                       for task, (scores, golds) in _score_tasks(model, val_tail).items()}
    results = {}
    for task, (scores, golds) in task_scores.items():
        uncal = evaluate(scores, golds, scores.shape[1])
        cal = (evaluate(calibrators[task].probabilities(scores), golds, scores.shape[1])
               if task in calibrators else None)
        results[task] = (uncal, cal)
        if uncal.auroc_skipped:
            log.warning("task %s: classes %s lack both positives and negatives; "
                        "skipped in ranking metrics", task, uncal.auroc_skipped)
    if args.json:
        print(json.dumps({task: {label: {n: getattr(report, n) for n, _ in _EVAL_ROWS}
                                 for label, report in zip(("uncalibrated", "calibrated"), pair)
                                 if report is not None}
                          for task, pair in results.items()}, sort_keys=True))
    else:
        print("\n\n".join(_format_eval_table(task, *pair) for task, pair in results.items()))
    return 0


def cmd_irr(args) -> int:
    notes_a = _read_input(read_notes, args.notes_a)
    notes_b = _read_input(read_notes, args.notes_b)
    transcripts = _read_input(read_corpus, args.transcripts)
    print(format_report(irr_report(notes_a, notes_b, transcripts)))
    return 0


# --- parser plumbing ---


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="random seed")

    parser = argparse.ArgumentParser(
        prog="soapkit",
        description="Align, label, and classify clinical conversation transcripts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[seeded],
                       help="generate a synthetic labeled corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=100, help="number of transcripts")
    p.add_argument("--min-utterances", type=int, default=8)
    p.add_argument("--max-utterances", type=int, default=14)
    p.add_argument("--context-strength", type=float, default=0.0,
                   help="probability an utterance's section is only recoverable from context")
    p.add_argument("--char-sub", type=float, default=0.0)
    p.add_argument("--char-del", type=float, default=0.0)
    p.add_argument("--char-ins", type=float, default=0.0)
    p.add_argument("--turn-merge", type=float, default=0.0)
    p.add_argument("--turn-split", type=float, default=0.0)
    p.add_argument("--emit-asr", action="store_true",
                   help="write the ASR-style copy even when all corruption rates are zero")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("align", parents=[common],
                       help="dump character alignments between reference and ASR text")
    p.add_argument("--ref", required=True, help="reference corpus (jsonl)")
    p.add_argument("--asr", required=True, help="raw ASR records (jsonl)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("project", parents=[common],
                       help="project reference labels onto ASR utterances")
    p.add_argument("--ref", required=True)
    p.add_argument("--asr", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("train", parents=[seeded], help="fit a classifier")
    p.add_argument("--corpus", required=True, help="training corpus (jsonl)")
    p.add_argument("--variant", required=True,
                   choices=BASELINE_VARIANTS + MODEL_VARIANTS)
    p.add_argument("--task", choices=("soap", "speaker"), default="soap",
                   help="target task for baseline variants (neural variants fit both)")
    p.add_argument("--with-asr", default=None,
                   help="projected ASR corpus appended to the training data")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p.add_argument("--model", required=True,
                   help='checkpoint path, or "oracle" to read targets back as predictions')
    p.add_argument("--test", required=True, help="evaluation corpus (jsonl)")
    p.add_argument("--calibrate", action="store_true",
                   help="also report Platt-calibrated metrics")
    p.add_argument("--val-corpus", default=None,
                   help="corpus whose tail fits the calibrator (with --calibrate, and only then)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("irr", parents=[common],
                       help="agreement statistics between two note files")
    p.add_argument("--notes-a", required=True, help="source annotator notes (jsonl)")
    p.add_argument("--notes-b", required=True, help="reference annotator notes (jsonl)")
    p.add_argument("--transcripts", required=True,
                   help="corpus supplying the utterance universe")
    p.set_defaults(func=cmd_irr)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        if getattr(args, "seed", 0) < 0:
            raise CliError(EXIT_INVALID, "invalid-seed",
                           f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except CliError as e:
        detail = " ".join(str(e).split())
        print(f"soapkit: error kind={e.kind} detail={detail}", file=sys.stderr)
        return e.code
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError) as e:
        # a named path does not exist, or is a file where a directory belongs or the reverse
        kind = "missing-file" if isinstance(e, FileNotFoundError) else "bad-path"
        print(f"soapkit: error kind={kind} detail={e.filename or e}", file=sys.stderr)
        return EXIT_MISSING
    except DataError as e:
        detail = " ".join(str(e).split())
        print(f"soapkit: error kind=invalid-data detail={detail}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # pragma: no cover - last resort
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"soapkit: error kind=internal detail={detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
