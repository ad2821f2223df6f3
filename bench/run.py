"""soapkit benchmark: one workload per process, driven through the CLI.

    python3 bench/run.py --workload {long_asr,short_asr,context_train} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; soapkit is imported from ./src. The workload
generates its inputs from the seed (set-up, repeated and reported as a
median), then repeats its pipeline of CLI calls, cycling through its input
sets, until the next iteration would end more than --seconds after the
run began; set-up counts toward --seconds. The outputs of each input set's
first iteration are checked, and every later iteration on that input set
must reproduce them byte for byte.

Every timed interval (an import, a set-up repeat, an iteration) is
rescaled to a reference host speed by calibration bursts run before,
during and after it (see hostspeed.py); the raw wall times go to the
results file too. A stage time is, per input set, the median over its
iterations, then the mean over the input sets.

--trace 0 prints the end-to-end metrics. --trace 1 runs each input set
twice in a row, untraced then traced, and prints the per-layer metrics,
the kernel timings and the tracing overhead. The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; results,
output digests and spans go to bench/results/. The exit code is 1 when a
CLI call or an output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
SETUP_REPS = 7
IMPORT_REPS = 5
WORKLOAD_NAMES = ("long_asr", "short_asr", "context_train")  # workloads.WORKLOADS

# printed stage metric -> the Runner stage whose wall time it is
STAGES = {"align_s": "align", "project_s": "project", "irr_s": "irr",
          "train_neural_s": "train_neural", "train_baseline_s": "train_baseline",
          "eval_s": "eval"}

# per-layer metrics measured on one workload only; 0 on the others
PROBE_METRICS = (
    "align.kernel.lcs_us", "align.kernel.lcs_cells", "align.kernel.dp_us",
    "align.kernel.dp_cells", "align.growth_exp", "project.growth_exp",
    "neural.kernel.lstm_fwd_us", "neural.kernel.lstm_bwd_us",
    "neural.kernel.lstm_fwd_flop", "neural.kernel.lstm_bwd_flop",
    "neural.kernel.attn_fwd_us", "neural.kernel.attn_bwd_us",
    "neural.kernel.attn_fwd_flop", "neural.kernel.attn_bwd_flop")


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ms_p50", "_ms_p95")):
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name == "preprocess.s":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_flop"):
        return "flop"
    if name.endswith(("_frac", "_rate", "_exp", "_f1")):
        return "ratio"
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def per_input(iterations, value) -> float:
    """Mean over input sets of the median `value` of each set's iterations."""
    by_set = {}
    for it in iterations:
        by_set.setdefault(it["input"], []).append(value(it))
    return statistics.fmean(statistics.median(v) for v in by_set.values()) if by_set else 0.0


def rescaled(it, key="pipeline_s") -> float:
    """An iteration's time of `key` ("pipeline_s" or a stage), rescaled."""
    value = it["pipeline_s"] if key == "pipeline_s" else it["stages"].get(key, 0.0)
    return value * it["scale"]


def measure_import(speed) -> tuple:
    """Median time to import soapkit.cli in a fresh interpreter, measured
    inside each child so interpreter start-up is left out. Returns
    (rescaled, wall) medians."""
    code = ("import time; t = time.perf_counter(); import soapkit.cli; "
            "print(time.perf_counter() - t); print(soapkit.cli.__file__)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    times, scaled = [], []
    for _ in range(IMPORT_REPS):
        with speed.measure(tick=False) as m:
            out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=120,
                                 check=True).stdout.split("\n")
        if Path(out[1]).resolve().parent != SRC / "soapkit":
            raise RuntimeError(f"child imported soapkit from {out[1]}, not {SRC}")
        times.append(float(out[0]))
        scaled.append(times[-1] * m["scale"])
    return statistics.median(scaled), statistics.median(times)


def describe(seed: int) -> dict:
    """Machine, interpreter and code identity of this run."""
    import numpy
    sha = "unknown"
    if (ROOT / ".git").exists():  # a bare checkout must not report an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "code_digest": code_digest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed}


def code_digest() -> str:
    """sha256 over soapkit's and the benchmark's sources: runs whose digests
    agree ran the same code, so their outputs must agree byte for byte."""
    h = hashlib.sha256()
    for base in (SRC / "soapkit", BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run(args) -> int:
    began = time.perf_counter()
    import soapkit.cli
    if Path(soapkit.cli.__file__).resolve().parent != SRC / "soapkit":
        print(f"bench: imported soapkit from {soapkit.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import logging
    logging.getLogger("soapkit").setLevel(logging.WARNING)
    from hostspeed import HostSpeed
    from tracing import Tracer
    from workloads import WORKLOADS, Runner

    speed = HostSpeed()
    tracer = Tracer(args.workload, speed.clock) if args.trace else None
    runner = Runner(speed.clock)
    work = WORK / f"{args.workload}_seed{args.seed}_{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, str(work))
    RESULTS.mkdir(exist_ok=True)
    try:
        import_s, import_wall_s = measure_import(speed)
        setup_times, synth_rows, inputs = measure_setup(wl, runner, tracer, speed)
        iterations, outputs = measure_loop(wl, runner, tracer, speed, began + args.seconds)
        untraced = [it for it in iterations if not it["traced"]]
        traced = [it for it in iterations if it["traced"]]
        e2e = {
            "setup_s": import_s + _median([t * k for t, k in setup_times]),
            "pipeline_s": per_input(untraced, rescaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wall = {
            "setup_wall_s": import_wall_s + _median([t for t, _ in setup_times]),
            "pipeline_wall_s": per_input(untraced, lambda it: it["pipeline_s"]),
        }
        stages = {name: per_input(untraced, lambda it, st=stage: rescaled(it, st))
                  for name, stage in STAGES.items()}
        stages = {k: v for k, v in stages.items() if v > 0}
        layers = per_layer(wl, tracer, synth_rows, traced, e2e["pipeline_s"]) if tracer else {}
        if tracer:
            runner.check("trace.forward_probe", tracer.forward_mismatches == 0,
                         "compute_loss and loss_and_grads disagree on a batch loss")
        desc = describe(args.seed)
        check_history(runner, args, desc["code_digest"], inputs, outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    quality = wl.quality
    if tracer:
        tracer.write(RESULTS / f"spans_{args.workload}_seed{args.seed}.jsonl")
        layers["metrics.soap_macro_f1"] = quality.get("soap_macro_f1", 0.0)
        layers["metrics.speaker_macro_f1"] = quality.get("speaker_macro_f1", 0.0)
        layers["metrics.below_majority"] = len(runner.below_majority)
    metrics = layers if tracer else e2e
    failed_frac = runner.failed / runner.attempted
    result = {
        "correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())},
    }
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  description=desc, end_to_end=e2e, wall=wall, import_s=import_s,
                  setup_times=setup_times, burst_s=speed.samples, stages=stages, quality=quality,
                  failed_frac=failed_frac, failures=runner.failures,
                  below_majority=runner.below_majority, inputs=inputs, outputs=outputs,
                  iterations=[{k: v for k, v in it.items() if k != "transcript_ms"}
                              for it in iterations])
    with open(RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced iterations")
    shown = dict(metrics) if tracer else {**e2e, **wall, **stages}
    shown.update(quality)
    shown["failed_frac"] = failed_frac
    for name, value in sorted(shown.items()):
        print(f"  {name:32s} {value:16.6f} {_unit(name)}")
    for line in runner.failures:
        print(f"  FAILED {line}")
    for line in runner.below_majority:
        print(f"  below majority-class macro F1: {line}")
    print(json.dumps(result, sort_keys=True))
    return 0 if runner.failed == 0 else 1


def measure_setup(wl, runner, tracer, speed):
    """Run set-up SETUP_REPS times; every repeat must write identical
    inputs. Returns ((wall time, rescale factor) per repeat, traced synth
    metrics per repeat, digests)."""
    from tracing import synth_metrics
    from workloads import digest_files
    times, synth_rows, first = [], [], None
    for _ in range(SETUP_REPS):
        first_span = len(tracer.spans) if tracer else 0
        with tracer.session("setup", runner) if tracer else contextlib.nullcontext():
            with speed.measure() as m:
                wl.setup(runner)
        times.append((m["wall"], m["scale"]))
        if tracer:
            synth_rows.append(synth_metrics(tracer.spans[first_span:], tracer.counts))
        digest = digest_files(wl.inp, wl.input_files())
        first = first or digest
        runner.check("determinism.inputs", digest == first,
                     "set-up wrote different inputs on a repeat")
    return times, synth_rows, first


def measure_loop(wl, runner, tracer, speed, deadline: float):
    """Repeat the pipeline, cycling through the workload's input sets,
    until the next iteration would end after `deadline` (a perf_counter
    time). An untraced run runs every input set at least once; a traced
    run runs at least one untraced/traced pair and finishes the pair it
    began. Returns (iterations, output digests per input set)."""
    from tracing import layer_metrics
    from workloads import digest_files
    iterations, outputs = [], {}
    min_iterations = 2 if tracer else wl.n_inputs
    began = time.perf_counter()
    while True:
        n = len(iterations)
        k = (n // 2 if tracer else n) % wl.n_inputs
        is_traced = bool(tracer) and n % 2 == 1
        runner.stage_s, runner.stdout = {}, {}
        calls, exits = runner.calls, runner.nonzero_exits
        first_span = len(tracer.spans) if tracer else 0
        with tracer.session("pipeline", runner) if is_traced else contextlib.nullcontext():
            with speed.measure() as m:
                wl.pipeline(runner, k)
        it = {"input": k, "traced": is_traced, "pipeline_s": m["wall"], "scale": m["scale"],
              "stages": dict(runner.stage_s), "calls": runner.calls - calls,
              "nonzero_exits": runner.nonzero_exits - exits}
        if is_traced:
            it["layers"], it["transcript_ms"] = layer_metrics(
                tracer.spans[first_span:], tracer.counts, tracer.maxima)
            it["spans"] = (first_span, len(tracer.spans))
        digest = digest_files(wl.out, wl.output_files(k), {
            label: text for label, text in runner.stdout.items()
            if label.startswith(("eval", "irr"))})
        if str(k) not in outputs:
            outputs[str(k)] = digest
            try:
                wl.check(runner, k)
            except (OSError, ValueError, KeyError, TypeError) as e:  # e.g. an output never written
                runner.check(f"outputs:{k}", False, f"{type(e).__name__}: {e}")
        else:
            runner.check("determinism.outputs", digest == outputs[str(k)],
                         f"a repeat on input set {k} wrote different outputs")
        iterations.append(it)
        now = time.perf_counter()
        pair_open = bool(tracer) and len(iterations) % 2 == 1
        if (not pair_open and len(iterations) >= min_iterations
                and now + (now - began) / len(iterations) > deadline):
            return iterations, outputs


def per_layer(wl, tracer, synth_rows, traced, untraced_pipeline_s) -> dict:
    """Per-layer metrics: medians over traced set-up repeats and traced
    iterations, the stage times of the traced iterations, the tracing
    overhead, and the probes."""
    from tracing import median_metrics, percentile
    layers = median_metrics(synth_rows)
    layers.update(median_metrics([it["layers"] for it in traced]))
    samples = [ms for it in traced for ms in it["transcript_ms"]]
    layers["project.transcript_ms_p50"] = percentile(samples, 50)
    layers["project.transcript_ms_p95"] = percentile(samples, 95)
    layers["project.transcript_samples"] = len(samples)
    layers["cli.calls"] = _median([it["calls"] for it in traced])
    layers["cli.nonzero_exits"] = _median([it["nonzero_exits"] for it in traced])
    for name, stage in STAGES.items():
        # wall time and a median over traced iterations, like the span
        # metrics it is compared with
        layers[f"cli.{name}"] = _median([it["stages"].get(stage, 0.0) for it in traced])
    traced_s = per_input(traced, rescaled)
    layers["trace.overhead_s"] = traced_s - untraced_pipeline_s
    layers["trace.overhead_frac"] = traced_s / untraced_pipeline_s - 1.0
    layers.update(probe_metrics(wl, tracer, traced))
    return layers


def probe_metrics(wl, tracer, traced) -> dict:
    """Kernel timings and the growth probe, each on the workload its
    inputs come from."""
    import probes
    from soapkit.corpus import read_asr_raw, read_corpus, render_reference
    from soapkit.preprocess import preprocess_corpus
    out = dict.fromkeys(PROBE_METRICS, 0)
    if wl.name == "long_asr":
        ref = read_corpus(wl.i("enc0", "reference.jsonl"))[0]
        asr = read_asr_raw(wl.i("enc0", "asr.jsonl"))[0]
        out.update(probes.align_kernels(render_reference(ref.utterances)[0], asr.text))
        # whole-encounter times of the traced iterations, against prefixes
        # of the same encounters
        refs = [read_corpus(wl.i(f"enc{it['input']}", "reference.jsonl"))[0] for it in traced]

        def total(name):
            return sum(e - s for it in traced for _, n, s, e, *_ in
                       tracer.spans[it["spans"][0]:it["spans"][1]] if n == name)
        with tracer.session("probe"):
            out.update(probes.growth(refs, total("project.align"), total("project.transcript"),
                                     wl.synth_seed(wl.n_inputs)))
    elif wl.name == "context_train":
        out.update(probes.neural_kernels(
            preprocess_corpus(read_corpus(wl.i("train", "reference.jsonl"))), wl.seed))
    return out


def check_history(runner, args, code: str, inputs: dict, outputs: dict) -> None:
    """Runs of the same code at the same seed must produce identical inputs
    and, on every input set both ran, identical outputs, traced or not.
    The record keeps the union of the input sets seen."""
    path = RESULTS / f"digests_{args.workload}_seed{args.seed}.json"
    try:
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    except (OSError, json.JSONDecodeError):
        earlier = {}
    if earlier.get("code_digest") == code:
        same = earlier["inputs"] == inputs and all(
            earlier["outputs"][k] == v for k, v in outputs.items() if k in earlier["outputs"])
        runner.check("determinism.history", same,
                     f"outputs differ from an earlier run at seed {args.seed}")
        outputs = {**earlier["outputs"], **outputs}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"code_digest": code, "inputs": inputs, "outputs": outputs}, fh,
                  indent=1, sort_keys=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "soapkit" / "cli.py").is_file():
        print(f"bench: no soapkit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one BLAS thread, as --threads 1 is one worker: on two vCPUs a second
    # BLAS thread stalls whenever the other vCPU is busy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
