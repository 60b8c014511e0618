import json

import numpy as np
import pytest

from editdiff.edit_ops import EditOp
from editdiff.metrics import (
    MetricError,
    bleu,
    contains_in_order,
    default_pins,
    evaluate,
    exact_match,
    mean_ratio,
    parse_mode,
    retention_rate,
    token_f1,
    write_report,
)
from editdiff.model import DenoiserModel, ModelConfig
from editdiff.world import WorldSpec, make_corpus

K, R = EditOp.KEEP, EditOp.REPLACE


def test_exact_match():
    assert exact_match([1, 2], [1, 2]) == 1
    assert exact_match([1, 2], [2, 1]) == 0
    with pytest.raises(MetricError):
        exact_match([1], [])


def test_token_f1_multiset_semantics():
    assert token_f1([1, 2, 3], [1, 2, 3]) == 1.0
    assert token_f1([9, 9], [1, 2]) == 0.0
    assert token_f1([], [1]) == 0.0
    # one of two tokens correct in both directions
    assert token_f1([1, 9], [1, 2]) == pytest.approx(0.5)
    # duplicates are clipped to reference counts
    assert token_f1([1, 1, 1], [1, 2, 3]) == pytest.approx(1 / 3)


def test_mean_ratio():
    assert mean_ratio([([1, 2], [1, 2]), ([1], [2])]) == pytest.approx(0.5)
    with pytest.raises(MetricError):
        mean_ratio([])


def test_bleu_perfect_and_disjoint():
    assert bleu([1, 2, 3, 4, 5], [[1, 2, 3, 4, 5]]) == pytest.approx(1.0)
    assert bleu([9, 9, 9, 9], [[1, 2, 3, 4]]) < 1e-6
    assert bleu([], [[1, 2]]) == 0.0


def test_bleu_order_cap_for_short_hyps():
    # exact 2-word caption: order capped at 2, still a perfect score
    assert bleu([5, 6], [[5, 6]]) == pytest.approx(1.0)
    assert bleu([5], [[5]]) == pytest.approx(1.0)


def test_bleu_brevity_penalty():
    full = bleu([1, 2, 3, 4], [[1, 2, 3, 4, 5, 6]])
    assert full < bleu([1, 2, 3, 4, 5, 6], [[1, 2, 3, 4, 5, 6]])
    # hypothesis longer than reference takes no penalty
    assert bleu([1, 2, 3], [[1, 2, 3]]) == pytest.approx(1.0)


def test_bleu_monotone_in_overlap():
    ref = [[1, 2, 3, 4, 5]]
    worse = bleu([1, 2, 9, 9, 9], ref)
    better = bleu([1, 2, 3, 9, 9], ref)
    assert better > worse


def test_bleu_clips_by_the_best_reference_and_matches_recounting():
    # the bigram (1, 1) occurs twice in the second reference only
    assert bleu([1, 1, 1], [[1, 2, 3], [1, 1, 1]]) == pytest.approx(1.0)

    def recounting(hyp, refs, max_n=4):
        # counts every reference's n-grams again for every hypothesis n-gram
        from collections import Counter
        from math import exp, log

        def grams(seq, n):
            return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))

        max_n = min(max_n, len(hyp))
        log_sum = 0.0
        for n in range(1, max_n + 1):
            counts = grams(hyp, n)
            clipped = sum(min(c, max(grams(r, n).get(g, 0) for r in refs))
                          for g, c in counts.items())
            p = clipped / sum(counts.values()) if clipped > 0 else 1e-9
            log_sum += log(p) / max_n
        c = len(hyp)
        r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
        return (1.0 if c > r else exp(1 - r / c)) * exp(log_sum)

    rng = np.random.default_rng(2)
    for _ in range(300):
        hyp = rng.integers(0, 4, rng.integers(1, 9)).tolist()
        refs = [rng.integers(0, 4, rng.integers(1, 9)).tolist()
                for _ in range(rng.integers(1, 3))]
        for n in range(1, 5):
            assert bleu(hyp, refs, n) == recounting(hyp, refs, n)


def test_contains_in_order():
    assert contains_in_order([1, 5, 2, 7], [5, 7])
    assert not contains_in_order([7, 5], [5, 7])
    assert contains_in_order([1, 2], [])


def test_retention_rate():
    outputs = [[4, 5, 6], [6, 5, 4]]
    pins = [{0: 4, 2: 6}, {0: 4, 2: 6}]
    assert retention_rate(outputs, pins) == pytest.approx(0.5)
    assert retention_rate([], []) == 0.0


def test_parse_mode():
    assert parse_mode("indomain") == ("ood", 0.5)
    assert parse_mode("ood:0.3") == ("ood", 0.3)
    assert parse_mode("random:8") == ("random", 8)
    assert parse_mode("control") == ("control", None)
    assert parse_mode("ood:0") == ("ood", 0.0)
    assert parse_mode("ood:1") == ("ood", 1.0)
    for mode in ("weird", "ood_ratio:0.9", "random_ref:12", "ood:1.5", "ood:-0.1",
                 "ood:nan", "ood:inf"):
        with pytest.raises(MetricError):
            parse_mode(mode)


def test_default_pins_positions_and_words():
    x0 = [10, 11, 12, 13, 14, 15, 16]
    pins = default_pins(x0, 10)
    assert pins == {2: 11, 6: 16}
    short = default_pins(x0, 5)
    assert short == {2: 11, 4: 16}


class OracleModel:
    """Predicts the alignment oracle script; converges like a perfect model."""

    def __init__(self, corpus):
        self.by_cond = {tuple(ex.condition): list(ex.caption)
                        for split in ("train", "val", "test")
                        for ex in corpus.split(split)}

    def predict_script(self, conditions, captions, t):
        from editdiff.align import align
        return [align(c, self.by_cond[tuple(cond)]) for cond, c in zip(conditions, captions)]


@pytest.fixture(scope="module")
def small_corpus():
    return make_corpus(WorldSpec(), 30, seed=11)


def test_evaluate_random_mode_with_oracle(small_corpus):
    model = OracleModel(small_corpus)
    report = evaluate(model, small_corpus, "random:10", steps=10, seed=0)
    agg = report["aggregates"]
    assert agg["em"] == 1.0
    assert agg["ratio"] == 1.0
    assert agg["n_examples"] == len(small_corpus.test)
    assert agg["n_overflow"] == 0
    assert report["mode"] == "random:10"


def test_evaluate_ood_mode_reports_input_ratio(small_corpus):
    model = OracleModel(small_corpus)
    report = evaluate(model, small_corpus, "ood:0.5", steps=10, seed=0)
    agg = report["aggregates"]
    assert 0.3 < agg["input_mean_ratio"] < 0.7
    assert agg["em"] == 1.0


def test_evaluate_control_mode_retention(small_corpus):
    model = OracleModel(small_corpus)
    report = evaluate(model, small_corpus, "control", steps=10, seed=0)
    agg = report["aggregates"]
    assert 0.0 <= agg["retention_hard"] <= 1.0
    assert "retention_soft" in agg
    for row in report["rows"]:
        assert "output_hard" in row and "output_soft" in row


@pytest.mark.parametrize("mode", ["random:10", "ood:0.5", "control"])
def test_evaluate_scores_overlong_rollouts(small_corpus, mode):
    # an untrained model inserts freely; with room for few caption words its
    # rollouts outgrow max_seq_len, stop there, and are scored as they stand
    cfg = ModelConfig(vocab_size=small_corpus.vocab.size,
                      cond_vocab_size=small_corpus.spec.cond_vocab_size, embed_dim=16,
                      num_layers=1, num_heads=2, ffn_dim=32, max_seq_len=22, seed=3)
    report = evaluate(DenoiserModel(cfg), small_corpus, mode, steps=10, seed=0)
    agg = report["aggregates"]
    assert agg["n_examples"] == len(small_corpus.test)
    key = "output_hard" if mode == "control" else "output"
    conditions = {ex.scene_id: ex.condition for ex in small_corpus.test}
    too_long = [r for r in report["rows"]
                if len(conditions[r["scene_id"]]) + 1 + len(r[key]) > cfg.max_seq_len]
    assert too_long
    assert 1 <= agg["n_overflow"] <= (2 if mode == "control" else 1) * len(report["rows"])
    for row in too_long:
        assert row[("hard_" if mode == "control" else "") + "em"] == 0


def test_evaluate_determinism(small_corpus):
    model = OracleModel(small_corpus)
    a = evaluate(model, small_corpus, "ood:0.3", steps=5, seed=4)
    b = evaluate(model, small_corpus, "ood:0.3", steps=5, seed=4)
    assert a == b


def test_evaluate_limit_and_empty_split(small_corpus):
    model = OracleModel(small_corpus)
    report = evaluate(model, small_corpus, "random:10", steps=3, seed=0, limit=2)
    assert report["aggregates"]["n_examples"] == 2
    with pytest.raises(MetricError):
        evaluate(model, small_corpus, "random:10", steps=3, seed=0, limit=0)


def test_evaluate_rejects_negative_limit(small_corpus):
    # a negative limit would slice off scenes from the end instead
    with pytest.raises(MetricError, match="limit"):
        evaluate(OracleModel(small_corpus), small_corpus, "random:10", steps=3, seed=0,
                 limit=-1)


def test_write_report_json_and_csv(tmp_path, small_corpus):
    model = OracleModel(small_corpus)
    report = evaluate(model, small_corpus, "random:10", steps=2, seed=0, limit=3)
    out = tmp_path / "report.json"
    write_report(report, out)
    loaded = json.loads(out.read_text())
    assert loaded["aggregates"] == report["aggregates"]
    csv_text = (tmp_path / "report.csv").read_text().splitlines()
    assert len(csv_text) == 2
    assert csv_text[0].startswith("mode,steps,split,")
