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

from .align import AlignmentError, alignment_record
from .baselines import BaselineError, BaselineModel, train_lr, train_mc, train_mnb
from .corpus import (
    CorpusError,
    Rng,
    gold_labels,
    one_hot_targets,
    pair_by_encounter,
    read_asr_raw,
    read_corpus,
    render_reference,
    write_asr_raw,
    write_corpus,
)
from .irr import IrrError, format_report, irr_report, read_notes
from .metrics import MetricError, MetricReport, evaluate, fit_platt, validation_split
from .neural.model import ModelConfig, ModelError, SequenceClassifier
from .neural.train import TrainConfig, TrainingError, collect_scores, train_model
from .preprocess import EmptyUtteranceError, preprocess_corpus
from .project import ProjectionError, project_corpus
from .synth import (
    CorruptionConfig,
    SynthConfig,
    SynthError,
    corrupt_corpus,
    generate_corpus,
    write_sidecar,
)

log = logging.getLogger("soapkit")

BASELINE_VARIANTS = ("mc", "mnb", "lr")
NEURAL_VARIANTS = ("dlb", "wa", "bil", "bild")

# 0 ok; 2 missing input file (argparse usage errors also exit 2);
# 3 unparsable input; 4 data fails an invariant; 1 anything unexpected.
EXIT_MISSING = 2
EXIT_PARSE = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 1

_DATA_ERRORS = (CorpusError, AlignmentError, ProjectionError, SynthError,
                BaselineError, MetricError, ModelError, TrainingError,
                IrrError, EmptyUtteranceError)


class CliError(Exception):
    def __init__(self, code: int, kind: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.kind = kind
        self.detail = detail


def _require_file(path) -> str:
    if not os.path.isfile(path):
        raise CliError(EXIT_MISSING, "missing-file", str(path))
    return path


def _read_input(reader, path):
    """Read an input file, folding reader errors into the parse-failure
    exit class (a file that fails its own invariants is still a bad input
    file from the operator's side)."""
    _require_file(path)
    try:
        return reader(path)
    except _DATA_ERRORS as e:
        raise CliError(EXIT_PARSE, "parse-failure", f"{path}: {e}") from None


def _load_checkpoint(path):
    _require_file(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
    except json.JSONDecodeError as e:
        raise CliError(EXIT_PARSE, "parse-failure", f"{path}: {e.msg}") from None
    family = rec.get("family")
    try:
        if family == "baseline":
            return BaselineModel.load(rec)
        if family == "neural":
            return SequenceClassifier.from_record(rec)
    except _DATA_ERRORS as e:
        raise CliError(EXIT_PARSE, "parse-failure", f"{path}: {e}") from None
    raise CliError(EXIT_PARSE, "parse-failure",
                   f"{path}: unknown checkpoint family {family!r}")


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
    any_rate = any(v > 0 for v in (args.char_sub, args.char_del, args.char_ins,
                                   args.turn_merge, args.turn_split))
    if args.emit_asr or any_rate:
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
    pairs, missing = pair_by_encounter(refs, asr_records)
    if missing:
        raise CorpusError(f"no ASR record for encounter {missing[0]!r}")
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for ref, asr in pairs:
            ref_text, _ = render_reference(ref.utterances)
            rec = alignment_record(ref.encounter_id, ref_text, asr.text)
            out.write(json.dumps(rec))
            out.write("\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_project(args) -> int:
    refs = _read_input(read_corpus, args.ref)
    asr_records = _read_input(read_asr_raw, args.asr)
    projected = project_corpus(refs, asr_records, speaker_mode=args.speaker_norm,
                               threads=args.threads)
    write_corpus(projected, args.out)
    log.info("projected %d transcripts to %s", len(projected), args.out)
    return 0


def _baseline_data(transcripts, task: str):
    token_lists = []
    rows = []
    for t in transcripts:
        spk, soap = one_hot_targets(t)
        tgt = spk if task == "speaker" else soap
        for utt, row in zip(t.utterances, tgt):
            token_lists.append(utt.tokens)
            rows.append(row)
    if not rows:
        raise BaselineError("no utterances to train on")
    return token_lists, np.asarray(rows)


def cmd_train(args) -> int:
    transcripts = preprocess_corpus(_read_input(read_corpus, args.corpus))
    if args.with_asr:
        transcripts = transcripts + preprocess_corpus(
            _read_input(read_corpus, args.with_asr))
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


def _oracle_scores(transcripts) -> dict:
    spk_s, soap_s, spk_g, soap_g = [], [], [], []
    for t in transcripts:
        if not t.utterances:
            continue
        spk, soap = one_hot_targets(t)
        spk_s.append(spk)
        soap_s.append(soap)
        spk_g.append(gold_labels(t, "speaker"))
        soap_g.append(gold_labels(t, "soap"))
    if not spk_s:
        raise MetricError("no utterances to score")
    return {"speaker": (np.concatenate(spk_s), np.concatenate(spk_g)),
            "soap": (np.concatenate(soap_s), np.concatenate(soap_g))}


def _baseline_scores(model: BaselineModel, transcripts) -> dict:
    token_lists = []
    golds = []
    for t in transcripts:
        for utt in t.utterances:
            token_lists.append(utt.tokens)
        golds.append(gold_labels(t, model.task))
    if not token_lists:
        raise MetricError("no utterances to score")
    return {model.task: (model.predict_matrix(token_lists), np.concatenate(golds))}


def _score_tasks(model, transcripts) -> dict:
    """Per-task (scores, golds) arrays for whichever tasks the model
    covers. `model` may be the literal string "oracle", which reads the
    stored targets back as predictions."""
    if model == "oracle":
        return _oracle_scores(transcripts)
    if isinstance(model, BaselineModel):
        return _baseline_scores(model, transcripts)
    return collect_scores(model, transcripts)


_EVAL_ROWS = (("accuracy", True), ("macro_f1", True), ("auroc", True),
              ("auprc", True), ("log_loss", False))


def _metric_value(report: MetricReport, name: str) -> float:
    value = getattr(report, name)
    return float("nan") if value is None else float(value)


def _format_eval_table(task: str, uncal: MetricReport, cal: MetricReport | None) -> str:
    lines = [f"task {task} (n={uncal.n}, classes={uncal.n_classes})"]
    if cal is None:
        lines.append(f"{'metric':10s} {'value':>12s}")
        for name, _ in _EVAL_ROWS:
            lines.append(f"{name:10s} {_metric_value(uncal, name):12.4f}")
    else:
        # two columns, asterisk on the better cell (ties unmarked)
        lines.append(f"{'metric':10s} {'uncalibrated':>14s} {'calibrated':>14s}")
        for name, higher_better in _EVAL_ROWS:
            u = _metric_value(uncal, name)
            c = _metric_value(cal, name)
            mark_u = mark_c = " "
            if not (np.isnan(u) or np.isnan(c)) and u != c:
                if (u > c) == higher_better:
                    mark_u = "*"
                else:
                    mark_c = "*"
            lines.append(f"{name:10s} {u:13.4f}{mark_u} {c:13.4f}{mark_c}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    model = "oracle" if args.model == "oracle" else _load_checkpoint(args.model)
    test = preprocess_corpus(_read_input(read_corpus, args.test))
    if args.calibrate and not args.val_corpus:
        raise CliError(EXIT_MISSING, "usage",
                       "--calibrate requires --val-corpus")
    task_scores = _score_tasks(model, test)
    calibrators = {}
    if args.calibrate:
        val = preprocess_corpus(_read_input(read_corpus, args.val_corpus))
        _, val_tail = validation_split(val)
        for task, (scores, golds) in _score_tasks(model, val_tail).items():
            if task in task_scores:
                calibrators[task] = fit_platt(scores, golds, scores.shape[1])
    blocks = []
    results = {}
    for task, (scores, golds) in task_scores.items():
        uncal = evaluate(scores, golds, scores.shape[1])
        cal = None
        if task in calibrators:
            cal = evaluate(calibrators[task].probabilities(scores), golds,
                           scores.shape[1])
        blocks.append(_format_eval_table(task, uncal, cal))
        results[task] = (uncal, cal)
        if uncal.auroc_skipped:
            log.warning("task %s: classes %s lack both positives and negatives; "
                        "skipped in ranking metrics", task, uncal.auroc_skipped)
    if args.json:
        out = {}
        for task, (uncal, cal) in results.items():
            out[task] = {"uncalibrated": {n: _metric_value(uncal, n) for n, _ in _EVAL_ROWS}}
            if cal is not None:
                out[task]["calibrated"] = {n: _metric_value(cal, n) for n, _ in _EVAL_ROWS}
        print(json.dumps(out, sort_keys=True))
    else:
        print("\n\n".join(blocks))
    return 0


def cmd_irr(args) -> int:
    notes_a = _read_input(read_notes, args.notes_a)
    notes_b = _read_input(read_notes, args.notes_b)
    transcripts = _read_input(read_corpus, args.transcripts)
    pairs, missing = pair_by_encounter(notes_a, notes_b)
    if missing:
        raise IrrError(f"encounter {missing[0]!r} missing from {args.notes_b}")
    if len(notes_b) != len(pairs):
        _, extra = pair_by_encounter(notes_b, notes_a)
        raise IrrError(f"encounters {sorted(set(extra))} missing from {args.notes_a}")
    print(format_report(irr_report(pairs, transcripts)))
    return 0


# --- parser plumbing ---


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--config", default=None,
                        help="JSON file whose keys override flags")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads for project's per-transcript fan-out "
                             "(other subcommands ignore it)")

    parser = argparse.ArgumentParser(
        prog="soapkit",
        description="Align, label, and classify clinical conversation transcripts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
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
    p.add_argument("--speaker-norm", choices=("l2", "l1"), default="l2")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("train", parents=[common], help="fit a classifier")
    p.add_argument("--corpus", required=True, help="training corpus (jsonl)")
    p.add_argument("--variant", required=True,
                   choices=BASELINE_VARIANTS + NEURAL_VARIANTS)
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
                   help="corpus whose tail fits the calibrator (required with --calibrate)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("irr", parents=[common],
                       help="agreement statistics between two note files")
    p.add_argument("--notes-a", required=True, help="source annotator notes (jsonl)")
    p.add_argument("--notes-b", required=True, help="reference annotator notes (jsonl)")
    p.add_argument("--transcripts", required=True,
                   help="corpus supplying the utterance universe")
    p.set_defaults(func=cmd_irr)

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # for _apply_config's checks
    return parser


def _apply_config(args) -> None:
    if not getattr(args, "config", None):
        return
    path = _require_file(args.config)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except json.JSONDecodeError as e:
        raise CliError(EXIT_PARSE, "parse-failure", f"{path}: {e.msg}") from None
    if not isinstance(overrides, dict):
        raise CliError(EXIT_PARSE, "parse-failure",
                       f"{path}: config must be a JSON object")
    flags = {a.dest: a for a in args.parser._actions
             if a.option_strings and a.dest not in ("help", "config")}
    for key, value in overrides.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise CliError(EXIT_INVALID, "invalid-config-key",
                           f"{path}: {key!r} is not a flag of this subcommand")
        if action.type is float and type(value) is int:
            value = float(value)
        # a value must be what the flag would parse to: true/false for a
        # switch, else a JSON value of the flag's type within its choices
        expected = bool if action.nargs == 0 else action.type or str
        if type(value) is not expected or (action.choices is not None
                                           and value not in action.choices):
            raise CliError(EXIT_INVALID, "invalid-config-value",
                           f"{path}: {value!r} is not a valid value for "
                           f"{action.option_strings[0]}")
        setattr(args, action.dest, value)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        _apply_config(args)
        if args.seed < 0:
            raise CliError(EXIT_INVALID, "invalid-seed",
                           f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except CliError as e:
        detail = " ".join(str(e.detail).split())
        print(f"soapkit: error kind={e.kind} detail={detail}", file=sys.stderr)
        return e.code
    except FileNotFoundError as e:
        print(f"soapkit: error kind=missing-file detail={e.filename or e}", file=sys.stderr)
        return EXIT_MISSING
    except _DATA_ERRORS as e:
        detail = " ".join(str(e).split())
        print(f"soapkit: error kind=invalid-data detail={detail}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # pragma: no cover - last resort
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"soapkit: error kind=internal detail={detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
