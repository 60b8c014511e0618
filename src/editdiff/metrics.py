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
from .edit_ops import CaptionState
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


def mean_ratio(pairs) -> float:
    pairs = list(pairs)
    if not pairs:
        raise MetricError("mean_ratio needs at least one pair")
    return float(np.mean([lev_ratio(a, b) for a, b in pairs]))


def _ngrams(seq, n):
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


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
    max_n = min(max_n, len(hyp))
    log_sum = 0.0
    for n in range(1, max_n + 1):
        hyp_counts = _ngrams(hyp, n)
        ref_counts = [_ngrams(r, n) for r in refs]
        total = sum(hyp_counts.values())
        clipped = 0
        for gram, count in hyp_counts.items():
            clipped += min(count, max(rc.get(gram, 0) for rc in ref_counts))
        p = clipped / total if clipped > 0 else BLEU_EPS
        log_sum += log(p) / max_n
    c = len(hyp)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    bp = 1.0 if c > r else exp(1 - r / c)
    return bp * exp(log_sum)


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
    if mode == "indomain":
        return "ood", 0.5
    if mode == "control":
        return "control", None
    if ":" in mode:
        kind, arg = mode.split(":", 1)
        if kind == "ood":
            ratio = float(arg)
            if not 0.0 <= ratio <= 1.0:  # also rejects nan
                raise MetricError(f"ood target ratio must be in [0, 1], got {arg}")
            return "ood", ratio
        if kind == "random":
            return "random", int(arg)
    raise MetricError(f"unknown evaluation mode: {mode}")


def _quality(hyp, ref) -> dict:
    out = {
        "em": exact_match(hyp, ref),
        "f1": token_f1(hyp, ref),
        "ratio": lev_ratio(hyp, ref),
    }
    for n in range(1, 5):
        out[f"bleu{n}"] = bleu(hyp, [ref], n)
    return out


def default_pins(x0, ref_len: int) -> dict[int, int]:
    """Two control words from the clean caption at fixed reference positions."""
    positions = (2, min(6, ref_len - 1))
    words = (x0[1], x0[-1])
    return {positions[0]: words[0], positions[1]: words[1]}


def evaluate(model, corpus: Corpus, mode: str, steps: int, seed: int,
             split: str = "test", limit: int | None = None) -> dict:
    """Run the denoiser over a split in the given mode and aggregate metrics."""
    kind, arg = parse_mode(mode)
    vocab = corpus.vocab
    rng = np.random.default_rng(seed)
    examples = corpus.split(split)
    if limit is not None:
        if limit < 0:
            raise MetricError(f"limit must be >= 0, got {limit}")
        examples = examples[:limit]
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
            state = make_random_sequence(10, vocab, rng, step=steps)
            pins = default_pins(list(ex.caption), len(state))
            state = place_pins(state, pins)
            pin_maps.append(pins)
        starts.append(state)

    conditions = [ex.condition for ex in examples]
    if kind == "control":  # a hard-pinned and a free rollout per scene
        results = denoise_loop(model, conditions * 2, starts * 2, steps,
                               pins=pin_maps + [None] * len(starts))
    else:
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
