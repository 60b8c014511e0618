"""Benchmark entry point: one workload in one process, one result line.

    python3 perfbench/run.py --workload {train,eval,align} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the layer
spans are installed first and it carries the per-layer metrics instead.
Results and traces are also written under ``perfbench/out/``.  Exits 1
without a result when the program's sources or a fixed input are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import bootstrap

BENCHMARK_JSON = bootstrap.ROOT / "BENCHMARK.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "eval", "align"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(outcome) -> dict[str, float]:
    return {"setup_s": outcome.setup_s, "items_per_s": outcome.items_per_s,
            "peak_rss_mb": outcome.peak_rss_mb}


def _quantile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(tracer, outcome) -> dict[str, float]:
    call = tracer.per_call
    forward = tracer.stat("model.DenoiserModel.forward")
    steps = tracer.stat("model.DenoiserModel.predict_script").calls
    rollouts_ms = [s * 1e3 for s in tracer.rollout_s]
    rounds = max(1, len(outcome.round_times))
    out = {
        "world.make_corpus_ms": call("world.make_corpus", 1e3),
        "world.load_corpus_ms": call("world.load_corpus", 1e3),
        "model.load_checkpoint_ms": call("model.load_checkpoint", 1e3),
        "diffusion.sample_us": call("diffusion.sample_denoising_example", 1e6),
        "align.align_us": call("align.align", 1e6),
        "model.forward_ms": call("model.DenoiserModel.forward", 1e3),
        "model.loss_us": call("model.model_loss", 1e6),
        "autodiff.backward_ms": call("autodiff.backward", 1e3),
        "autodiff.adam_step_ms": call("autodiff.Adam.step", 1e3),
        "model.holdout_s": call("model.holdout_exact_match", 1.0),
        "model.predict_script_ms": call("model.DenoiserModel.predict_script", 1e3),
        "edit_ops.apply_script_us": call("edit_ops.apply_script", 1e6),
        "diffusion.rollout_ms_p50": _quantile(rollouts_ms, 50),
        "diffusion.rollout_ms_p95": _quantile(rollouts_ms, 95),
        "world.corrupt_to_ratio_us": call("world.corrupt_to_ratio", 1e6),
        "metrics.bleu_us": call("metrics.bleu", 1e6),
        "align.lev_ratio_us": call("align.lev_ratio", 1e6),
        "align.weighted_ldist_us": call("align.weighted_ldist", 1e6),
        "model.forward_calls": forward.calls / rounds,
        "autodiff.tensors_per_forward": forward.tensors / forward.calls if forward.calls else 0.0,
        "diffusion.caption_len_mean": tracer.step_len_sum / steps if steps else 0.0,
    }
    layers = tracer.self_by_layer()
    out.update({f"{layer}.self_s": s for layer, s in layers.items()})
    out["trace.other_s"] = tracer.wall - sum(layers.values())
    out["trace.wall_s"] = tracer.wall
    out["trace.items_per_s"] = outcome.items_per_s
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    except (bootstrap.MissingProgram, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    import workloads
    from layout import OUT
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    except workloads.InputError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if tracer is None:
        values, declared = end_to_end(outcome), spec["end_to_end"]
    else:
        values, declared = per_layer(tracer, outcome), spec["per_layer"]
    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for err in outcome.errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    import numpy

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "machine": {"cpu": platform.processor() or platform.machine(),
                          "cores": os.cpu_count(), "python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "blas_threads": bootstrap.blas_threads()},
              "rounds": len(outcome.round_times), "round_s": outcome.round_times,
              "setup_samples_s": outcome.setup_times, "pace_samples_s": outcome.pace.times,
              "pace_speed": {kind: outcome.pace.speed(kind) for kind in outcome.pace.times},
              "raw_setup_s": outcome.raw_setup_s,
              "raw_items_per_s": outcome.raw_items_per_s, "result": result}
    if tracer is not None:
        record["spans"] = tracer.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
