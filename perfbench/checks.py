"""Correctness checks computed apart from the program.

Each checker returns a list of error strings; an empty list means the
outputs passed.  Nothing here calls into ``editdiff``: distances come from
a plain LCS table, scripts are applied by a local applier, and evaluation
rows are rescored from their ids.  The one exception is the gradient
check, which by its nature compares the program's analytic gradient with
central differences of the program's own loss.
"""

from __future__ import annotations

import math
from collections import Counter

RATIO_TOL = 1e-12


def lcs_length(a, b) -> int:
    """Longest common subsequence by the textbook O(mn) table."""
    a, b = list(a), list(b)
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def distance(a, b) -> int:
    """Weighted edit distance with REPLACE = INSERT + DELETE: m + n - 2 LCS."""
    return len(a) + len(b) - 2 * lcs_length(a, b)


def ratio(a, b) -> float:
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return (total - distance(a, b)) / total


def token_f1(hyp, ref) -> float:
    overlap = sum((Counter(hyp) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    return 2 * overlap / (len(hyp) + len(ref))


def in_order(output, words) -> bool:
    """True when ``words`` occur in ``output`` as an ordered subsequence."""
    pos = 0
    for w in words:
        while pos < len(output) and output[pos] != w:
            pos += 1
        if pos == len(output):
            return False
        pos += 1
    return True


# -- align workload ----------------------------------------------------------

def check_distances(pairs, values) -> list[str]:
    errors = []
    for (a, b), got in zip(pairs, values, strict=True):
        want = distance(a, b)
        if got != want:
            errors.append(f"weighted_ldist{(list(a), list(b))} = {got}, want {want}")
    return errors


def check_ratios(pairs, values) -> list[str]:
    errors = []
    for (a, b), got in zip(pairs, values, strict=True):
        want = ratio(a, b)
        if abs(got - want) > RATIO_TOL:
            errors.append(f"lev_ratio{(list(a), list(b))} = {got}, want {want}")
    return errors


def apply_slots(tokens, slots):
    """Apply (op, word) slots to (id, original) tokens, slot 0 first.

    Words a script writes are real words, so they come out flagged
    original; KEEP and the host of an INSERT carry their flag over.
    """
    (op0, word0), body = slots[0], slots[1:]
    out = [(word0, True)] if op0.name == "INSERT" else []
    for tok, (op, word) in zip(tokens, body, strict=True):
        if op.name in ("KEEP", "INSERT"):
            out.append(tok)
        if op.name in ("REPLACE", "INSERT"):
            out.append((word, True))
    return out


def check_descent(tokens, x0, slots, realign) -> list[str]:
    """A script fits its caption, and align-then-apply reaches ``x0`` in at
    most ``len(x0)`` applications with the distance falling at each one.

    ``realign(tokens)`` returns the program's next script for a caption.
    """
    x0 = list(x0)
    dist = distance([i for i, _ in tokens], x0)
    for step in range(1, len(x0) + 1):
        if len(slots) != len(tokens) + 1:
            return [f"script of {len(slots)} slots for a caption of {len(tokens)}"]
        tokens = apply_slots(tokens, slots)
        ids = [i for i, _ in tokens]
        nxt = distance(ids, x0)
        if dist == 0:  # a caption already at x0 must be left alone
            return [] if ids == x0 else [f"script moves {x0} away from itself"]
        if nxt >= dist:
            return [f"distance {dist} -> {nxt} at application {step} toward {x0}"]
        if ids == x0:
            return []
        dist = nxt
        slots = realign(tokens)
    return [f"{x0} not reached within {len(x0)} applications"]


# -- eval workload -----------------------------------------------------------

def _rescore(out, x0) -> dict:
    return {"em": int(list(out) == list(x0)), "f1": token_f1(out, x0),
            "ratio": ratio(out, x0)}


def _mean(values) -> float:
    return sum(values) / len(values)


def check_report(report, captions, valid_ids) -> list[str]:
    """Rescore an evaluation report's rows and compare with its aggregates.

    ``captions`` maps scene id to the clean caption; ``valid_ids`` is the
    set of non-special vocabulary ids an output may use.
    """
    errors = []
    control = report["mode"] == "control"
    prefix = "hard_" if control else ""
    outputs = ("output_hard", "output_soft") if control else ("output",)
    scores, retained = [], []
    for row in report["rows"]:
        x0 = captions[row["scene_id"]]
        for key in outputs:
            bad = [i for i in row[key] if i not in valid_ids]
            if bad:
                errors.append(f"scene {row['scene_id']}: {key} holds ids {bad}")
        if abs(row["input_ratio"] - ratio(row["input"], x0)) > RATIO_TOL:
            errors.append(f"scene {row['scene_id']}: input_ratio {row['input_ratio']}")
        score = _rescore(row[outputs[0]], x0)
        for key, want in score.items():
            if abs(row[prefix + key] - want) > RATIO_TOL:
                errors.append(f"scene {row['scene_id']}: {prefix}{key} "
                              f"{row[prefix + key]}, rescored {want}")
        scores.append(score)
        if control:
            pins = [x0[1], x0[-1]]  # the control mode pins these two words
            retained.append((in_order(row["output_hard"], pins),
                             in_order(row["output_soft"], pins)))
    agg = report["aggregates"]
    want = {f"{prefix}{k}": _mean([s[k] for s in scores]) for k in scores[0]}
    want["input_mean_ratio"] = _mean([ratio(r["input"], captions[r["scene_id"]])
                                      for r in report["rows"]])
    if control:
        want["retention_hard"] = _mean([h for h, _ in retained])
        want["retention_soft"] = _mean([s for _, s in retained])
    for key, value in want.items():
        if abs(agg[key] - value) > RATIO_TOL:
            errors.append(f"{report['mode']}: aggregate {key} {agg[key]}, rescored {value}")
    return errors


def check_properties(aggregates: dict) -> list[str]:
    """Properties the method must have on the fixed trained checkpoint."""
    errors = []
    gen = aggregates["random:10"]
    if not (gen["em"] >= 0.90 and gen["ratio"] >= 0.95):
        errors.append(f"random:10 EM {gen['em']:.3f}, ratio {gen['ratio']:.3f}; "
                      "want >= 0.90 and >= 0.95")
    ood = aggregates["ood:0.5"]
    if not ood["ratio"] > ood["input_mean_ratio"]:
        errors.append(f"ood:0.5 ratio {ood['ratio']:.3f} not above input "
                      f"{ood['input_mean_ratio']:.3f}")
    if aggregates["control"]["retention_hard"] != 1.0:
        errors.append(f"control hard retention {aggregates['control']['retention_hard']}")
    return errors


# -- train workload ----------------------------------------------------------

def check_losses(log) -> list[str]:
    errors = [f"epoch {row['epoch']}: non-finite loss" for row in log
              if not (math.isfinite(row["loss_edit"]) and math.isfinite(row["loss_language"]))]
    first, last = (row["loss_edit"] + row["loss_language"] for row in (log[0], log[-1]))
    if not last < first:
        errors.append(f"mean loss {first:.4f} in the first epoch, {last:.4f} in the last")
    return errors


def check_gradient(loss_at, arrays, grads, coords, eps: float = 1e-6) -> list[str]:
    """Central differences of ``loss_at()`` against analytic gradients.

    ``coords`` lists (array index, flat index) pairs; each coordinate of
    ``arrays`` is nudged in place and restored.
    """
    errors = []
    for k, idx in coords:
        flat = arrays[k].reshape(-1)
        keep = flat[idx]
        flat[idx] = keep + eps
        up = loss_at()
        flat[idx] = keep - eps
        down = loss_at()
        flat[idx] = keep
        numeric = (up - down) / (2 * eps)
        analytic = float(grads[k].reshape(-1)[idx])
        if abs(analytic - numeric) > 1e-7 + 1e-5 * abs(numeric):
            errors.append(f"parameter {k}[{idx}]: gradient {analytic:.9g}, "
                          f"central difference {numeric:.9g}")
    return errors
