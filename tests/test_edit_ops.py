import numpy as np
import pytest

from editdiff.edit_ops import (
    CaptionState,
    EditError,
    EditOp,
    EditScript,
    NoiseSchedule,
    Origin,
    Token,
    apply_script,
    sample_noising_step,
    step_rates,
)
from editdiff.vocab import build_vocab
from helpers import all_keep_script

K, R, I, D = EditOp.KEEP, EditOp.REPLACE, EditOp.INSERT, EditOp.DELETE


def cap(ids, step=0, origin=Origin.ORIGINAL):
    return CaptionState(tuple(Token(i, origin) for i in ids), step)


def script(*slots):
    return EditScript(tuple(slots))


def test_token_rejects_special_ids():
    with pytest.raises(EditError):
        Token(0)
    with pytest.raises(EditError):
        Token(1)
    Token(2)


def test_script_sentinel_restrictions():
    with pytest.raises(EditError):
        script((R, 5))
    with pytest.raises(EditError):
        script((D, None))
    script((K, None))
    script((I, 5))


def test_script_content_presence_rules():
    with pytest.raises(EditError):
        script((K, None), (R, None))
    with pytest.raises(EditError):
        script((K, None), (I, None))
    with pytest.raises(EditError):
        script((K, None), (K, 4))
    with pytest.raises(EditError):
        script((K, None), (D, 9))
    with pytest.raises(EditError):
        EditScript(())


def _message(slots) -> str:
    with pytest.raises(EditError) as err:
        EditScript(tuple(slots))
    return str(err.value)


def test_script_errors_name_the_first_bad_slot():
    assert _message(()) == "script needs at least the sentinel slot"
    assert _message([(R, 4)]) == "sentinel slot admits only KEEP or INSERT"
    assert _message([(D, None), (R, None)]) == "sentinel slot admits only KEEP or INSERT"
    assert _message([(I, None)]) == "slot 0: INSERT requires a content word"
    assert _message([(K, 4)]) == "slot 0: KEEP must not carry content"
    good = [(K, None)] + [(R, 5), (K, None), (I, 6), (D, None)] * 10
    EditScript(tuple(good))
    for op, content, message in [(R, None, "REPLACE requires a content word"),
                                 (I, None, "INSERT requires a content word"),
                                 (K, 7, "KEEP must not carry content"),
                                 (D, 8, "DELETE must not carry content")]:
        for pos in (1, 37, len(good) - 1):
            bad = list(good)
            bad[pos] = (op, content)
            assert _message(bad) == f"slot {pos}: {message}"
            if pos + 2 < len(bad):  # a later bad slot does not change which is named
                bad[pos + 2] = (K, 9)
                assert _message(bad) == f"slot {pos}: {message}"


def test_apply_all_keep_is_identity():
    c = cap([5, 6, 7])
    out = apply_script(c, all_keep_script(3), decrement_step=False)
    assert out.ids() == [5, 6, 7]


def test_apply_replace_and_delete():
    c = cap([5, 6, 7])
    s = script((K, None), (R, 9), (D, None), (K, None))
    out = apply_script(c, s, decrement_step=False)
    assert out.ids() == [9, 7]


def test_apply_insert_keeps_host_word():
    c = cap([5, 6])
    s = script((K, None), (I, 8), (K, None))
    out = apply_script(c, s, decrement_step=False)
    assert out.ids() == [5, 8, 6]


def test_apply_sentinel_insert_prepends():
    c = cap([5])
    s = script((I, 3), (K, None))
    out = apply_script(c, s, decrement_step=False)
    assert out.ids() == [3, 5]


def test_apply_length_mismatch_raises():
    with pytest.raises(EditError):
        apply_script(cap([5, 6]), all_keep_script(3), decrement_step=False)


def test_apply_step_bookkeeping():
    c = cap([5], step=4)
    down = apply_script(c, all_keep_script(1), decrement_step=True)
    up = apply_script(c, all_keep_script(1), decrement_step=False)
    assert down.step == 3 and up.step == 5
    floor = apply_script(cap([5], step=0), all_keep_script(1), decrement_step=True)
    assert floor.step == 0


def test_apply_content_origin_tagging():
    # the words a script writes are original; a kept or host word keeps its own
    c = CaptionState((Token(5, Origin.RANDOM_WORD), Token(6, Origin.RANDOM_WORD),
                      Token(4, Origin.RANDOM_WORD)), step=3)
    s = script((I, 9), (R, 7), (I, 8), (K, None))
    out = apply_script(c, s, decrement_step=True)
    assert out.ids() == [9, 7, 6, 8, 4]
    assert [t.origin for t in out.tokens] == [
        Origin.ORIGINAL, Origin.ORIGINAL, Origin.RANDOM_WORD, Origin.ORIGINAL,
        Origin.RANDOM_WORD]


def test_schedule_validation():
    NoiseSchedule()
    with pytest.raises(EditError):
        NoiseSchedule(T=0)
    with pytest.raises(EditError):
        NoiseSchedule(w_replace=-0.1)
    with pytest.raises(EditError):
        NoiseSchedule(w_replace=float("nan"))
    with pytest.raises(EditError):
        NoiseSchedule(w_delete=float("nan"))
    with pytest.raises(EditError):
        NoiseSchedule(w_replace=0.0, w_delete=0.0, w_insert=0.0)
    with pytest.raises(EditError):
        NoiseSchedule(w_replace=0.9, w_delete=0.2, w_insert=0.2)
    with pytest.raises(EditError):
        NoiseSchedule(target_len=0)


def test_step_rates_sum_to_one_and_terminal_step_absorbs():
    sch = NoiseSchedule()
    for t in range(1, sch.T + 1):
        a, b, g, d = step_rates(sch, t, 10)
        assert a + b + g + d == pytest.approx(1.0)
        assert a + b + g == pytest.approx(1.0 / (sch.T - t + 1))
    a, b, g, d = step_rates(sch, sch.T, 10)
    assert d == pytest.approx(0.0)


def test_step_rates_length_steering():
    sch = NoiseSchedule(w_replace=0.5, w_delete=0.25, w_insert=0.25)
    _, b_short, g_short, _ = step_rates(sch, 5, 5)
    _, b_long, g_long, _ = step_rates(sch, 5, 20)
    assert g_short > b_short  # short captions favor insertion
    assert b_long > g_long  # long captions favor deletion


def test_step_rates_range_check():
    sch = NoiseSchedule()
    with pytest.raises(EditError):
        step_rates(sch, 0, 10)
    with pytest.raises(EditError):
        step_rates(sch, 11, 10)


def test_sample_noising_step_random_words_are_absorbing():
    vocab = build_vocab([f"w{i}" for i in range(30)])
    sch = NoiseSchedule()
    rng = np.random.default_rng(3)
    c = cap([5, 6, 7], step=4, origin=Origin.RANDOM_WORD)
    s, out = sample_noising_step(c, sch, 5, vocab, rng)
    assert all(op is K for op, _ in s.slots)
    assert out.ids() == [5, 6, 7]
    assert out.step == 5


def test_sample_noising_step_noises_only_original_words():
    vocab = build_vocab([f"w{i}" for i in range(30)])
    sch = NoiseSchedule(w_replace=0.4, w_delete=0.3, w_insert=0.3)
    rng = np.random.default_rng(3)
    c = CaptionState((Token(5, Origin.PINNED), Token(6), Token(7, Origin.RANDOM_WORD)), step=9)
    s, out = sample_noising_step(c, sch, 10, vocab, rng)  # the terminal step absorbs
    assert s.slots[1] == (K, None) and s.slots[3] == (K, None)
    assert s.slots[2][0] is not K
    assert out.tokens[0] == Token(5, Origin.PINNED)
    assert out.tokens[-1] == Token(7, Origin.RANDOM_WORD)


def test_sample_noising_step_requires_matching_step():
    vocab = build_vocab([f"w{i}" for i in range(30)])
    with pytest.raises(EditError):
        sample_noising_step(cap([5], step=3), NoiseSchedule(), 3, vocab,
                            np.random.default_rng(0))


def test_sample_noising_step_marks_every_touched_word_random():
    vocab = build_vocab([f"w{i}" for i in range(30)])
    sch = NoiseSchedule()
    rng = np.random.default_rng(11)
    c = cap(list(range(2, 12)), step=9)
    s, out = sample_noising_step(c, sch, 10, vocab, rng)
    # terminal step absorbs every remaining original word
    assert all(t.origin is Origin.RANDOM_WORD for t in out.tokens)


def test_sample_noising_step_script_round_trip():
    vocab = build_vocab([f"w{i}" for i in range(30)])
    sch = NoiseSchedule()
    rng = np.random.default_rng(5)
    c = cap(list(range(2, 12)), step=0)
    for t in range(1, sch.T + 1):
        s, nxt = sample_noising_step(c, sch, t, vocab, rng)
        redo = apply_script(c, s, decrement_step=False)
        assert redo.ids() == nxt.ids()
        c = nxt
