"""Evaluation metrics and the mode-driven evaluation harness.

Quality is measured against the scene's single canonical caption: exact
match, token F1, BLEU-N, and the weighted-Levenshtein similarity ratio.
Input quality is always reported next to edited quality so improvement
deltas are auditable.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from math import exp, log
from pathlib import Path

import numpy as np

from .align import lev_ratio
from .diffusion import denoise_loop, make_random_sequence, place_pins
from .edit_ops import CaptionState, NoiseSchedule
from .world import Corpus, corrupt_to_ratio

BLEU_EPS = 1e-9


class MetricError(ValueError):
    pass


def exact_match(hyp, ref) -> int:
    if not list(ref):
        raise MetricError("reference must be non-empty")
    return int(list(hyp) == list(ref))


def token_f1(hyp, ref) -> float:
    """F1 over token multisets."""
    hyp, ref = list(hyp), list(ref)
    if not ref:
        raise MetricError("reference must be non-empty")
    if not hyp:
        return 0.0
    overlap = sum((Counter(hyp) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(hyp)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


def _ngrams(seq, n):
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def _log_precisions(hyp, refs, max_n: int) -> list[float]:
    """The log of each order's clipped n-gram precision, orders 1..max_n;
    a zero count is smoothed to BLEU_EPS."""
    out = []
    for n in range(1, max_n + 1):
        hyp_counts = _ngrams(hyp, n)
        ref_counts = [_ngrams(r, n) for r in refs]
        total = sum(hyp_counts.values())
        clipped = 0
        for gram, count in hyp_counts.items():
            clipped += min(count, max(rc.get(gram, 0) for rc in ref_counts))
        out.append(log(clipped / total if clipped > 0 else BLEU_EPS))
    return out


def _combine(log_ps: list[float], c: int, refs) -> float:
    """BLEU over the orders of ``log_ps`` for a hypothesis of ``c`` > 0 words."""
    log_sum = 0.0
    for lp in log_ps:
        log_sum += lp / len(log_ps)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    bp = 1.0 if c > r else exp(1 - r / c)
    return bp * exp(log_sum)


def bleu(hyp, refs, max_n: int = 4) -> float:
    """BLEU with brevity penalty; zero-count precisions get epsilon smoothing.

    The n-gram order is capped at len(hyp) so an exact match of a short
    caption still scores 1.0.
    """
    if max_n < 1:
        raise MetricError("max_n must be >= 1")
    hyp = list(hyp)
    refs = [list(r) for r in refs]
    if not hyp:
        return 0.0
    return _combine(_log_precisions(hyp, refs, min(max_n, len(hyp))), len(hyp), refs)


def contains_in_order(output, pin_words) -> bool:
    it = iter(output)
    return all(any(tok == w for tok in it) for w in pin_words)


def retention_rate(outputs, pins) -> float:
    """Fraction of outputs containing all their pinned words as an ordered
    subsequence (pin order = pin position order)."""
    outputs = list(outputs)
    pins = list(pins)
    if not outputs:
        return 0.0
    hits = 0
    for out, pin_map in zip(outputs, pins):
        words = [w for _, w in sorted(pin_map.items())]
        hits += int(contains_in_order(list(out), words))
    return hits / len(outputs)


def parse_mode(mode: str) -> tuple[str, float | int | None]:
    """The kind of an evaluation mode and its argument; a mode that does not
    parse raises ``MetricError`` naming it."""
    if mode == "indomain":
        return "ood", 0.5
    if mode == "control":
        return "control", None
    kind, _, arg = mode.partition(":")
    try:
        if kind == "ood" and 0.0 <= float(arg) <= 1.0:  # also rejects nan
            return "ood", float(arg)
        if kind == "random" and int(arg) >= 1:
            return "random", int(arg)
    except ValueError:
        pass
    raise MetricError(f"unknown evaluation mode {mode!r}: want random:<n> with n >= 1, "
                      f"ood:<ratio> with ratio in [0, 1], indomain or control")


def _quality(hyp, ref) -> dict:
    out = {
        "em": exact_match(hyp, ref),
        "f1": token_f1(hyp, ref),
        "ratio": lev_ratio(hyp, ref),
    }
    # bleu(hyp, [ref], n) for n = 1..4, with each order's n-grams counted once
    hyp, refs = list(hyp), [list(ref)]
    log_ps = _log_precisions(hyp, refs, min(4, len(hyp)))
    for n in range(1, 5):
        out[f"bleu{n}"] = _combine(log_ps[:n], len(hyp), refs) if hyp else 0.0
    return out


def default_pins(x0, ref_len: int) -> dict[int, int]:
    """The clean caption's second and last words, pinned at their own
    positions as far as a start of ``ref_len`` words holds them: the last
    word goes to the start's last slot when the caption is longer."""
    return {1: x0[1], min(len(x0), ref_len) - 1: x0[-1]}


def check_limit(limit: int | None) -> None:
    """A scene limit below 1 would keep no scene, or slice scenes off the end."""
    if limit is not None and limit < 1:
        raise MetricError(f"limit must be >= 1, got {limit}")


def evaluate(model, corpus: Corpus, mode: str, steps: int, seed: int,
             split: str = "test", limit: int | None = None) -> dict:
    """Run the denoiser over a split in the given mode and aggregate metrics.
    The integer ``seed`` alone decides the starts.

    Control mode places two caption words (``default_pins``) in each start
    and rolls it out twice in one batch: with the words hard-pinned, and
    soft, placed in the start only.  The model does not see the pins, so
    the two twins share one forward row while their words agree."""
    kind, arg = parse_mode(mode)
    if type(seed) is not int:  # the report holds the seed, so it must be JSON
        raise MetricError(f"seed must be an int, got {type(seed).__name__}")
    vocab = corpus.vocab
    rng = np.random.default_rng(seed)
    check_limit(limit)
    examples = corpus.split(split)[:limit]
    if not examples:
        raise MetricError(f"split {split!r} is empty")

    # every start is drawn before any rollout, in scene order; rollouts draw
    # no random numbers, so the rng stream is that of one scene at a time
    starts, pin_maps = [], []
    for ex in examples:
        if kind == "ood":
            state = CaptionState.from_ids(corrupt_to_ratio(list(ex.caption), arg, vocab, rng),
                                          step=steps)
        elif kind == "random":
            state = make_random_sequence(arg, vocab, rng, step=steps)
        else:  # control
            state = make_random_sequence(NoiseSchedule.target_len, vocab, rng, step=steps)
            pin_maps.append(default_pins(list(ex.caption), len(state)))
        starts.append(state)

    conditions = [ex.condition for ex in examples]
    if kind == "control":  # a hard-pinned and a free rollout per scene, one start
        starts = ([place_pins(s, p, hold=True) for s, p in zip(starts, pin_maps)]
                  + [place_pins(s, p, hold=False) for s, p in zip(starts, pin_maps)])
        conditions = conditions * 2
    results = denoise_loop(model, conditions, starts, steps)
    outputs = [final.ids() for final, _ in results]

    rows = []
    for i, (ex, start) in enumerate(zip(examples, starts)):
        x0 = list(ex.caption)
        ref = start.ids()
        row = {"scene_id": ex.scene_id, "input": ref, "input_ratio": lev_ratio(ref, x0)}
        if kind == "control":
            hard, soft = outputs[i], outputs[len(examples) + i]
            row.update({"output_hard": hard, "output_soft": soft})
            row.update({f"hard_{k}": v for k, v in _quality(hard, x0).items()})
        else:
            row["output"] = outputs[i]
            row.update(_quality(outputs[i], x0))
        rows.append(row)

    aggregates: dict[str, float] = {
        "input_mean_ratio": float(np.mean([r["input_ratio"] for r in rows])),
        "n_examples": len(rows),
        # rollouts stopped early because the caption outgrew max_seq_len
        "n_overflow": sum(len(trace) < steps for _, trace in results),
    }
    if kind == "control":
        aggregates["retention_hard"] = retention_rate(outputs[:len(rows)], pin_maps)
        aggregates["retention_soft"] = retention_rate(outputs[len(rows):], pin_maps)
        for key in ("em", "f1", "ratio"):
            aggregates[f"hard_{key}"] = float(np.mean([r[f"hard_{key}"] for r in rows]))
    else:
        for key in ("em", "f1", "ratio", "bleu1", "bleu2", "bleu3", "bleu4"):
            aggregates[key] = float(np.mean([r[key] for r in rows]))
    return {
        "mode": mode,
        "steps": steps,
        "seed": seed,
        "split": split,
        "aggregates": aggregates,
        "rows": rows,
    }


def write_report(report: dict, json_path: str | Path) -> None:
    """Report JSON plus a sidecar CSV holding the flat aggregates."""
    json_path = Path(json_path)
    json_path.write_text(json.dumps(report, indent=2), encoding="utf-8")
    csv_path = json_path.with_suffix(".csv")
    agg = report["aggregates"]
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["mode", "steps", "split", *agg.keys()])
        writer.writerow([report["mode"], report["steps"], report["split"], *agg.values()])
