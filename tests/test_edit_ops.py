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
    all_keep_script,
    apply_script,
    sample_noising_step,
    step_rates,
    survivor_map,
)
from editdiff.vocab import build_vocab

K, R, I, D = EditOp.KEEP, EditOp.REPLACE, EditOp.INSERT, EditOp.DELETE


def cap(ids, step=0, origin=Origin.ORIGINAL):
    return CaptionState.from_ids(ids, step=step, origin=origin)


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
    c = cap([5, 6])
    s = script((I, 9), (R, 7), (K, None))
    noised = apply_script(c, s, decrement_step=False, content_origin=Origin.RANDOM_WORD)
    assert [t.origin for t in noised.tokens] == [
        Origin.RANDOM_WORD, Origin.RANDOM_WORD, Origin.ORIGINAL]


def test_survivor_map_tracks_positions():
    s = script((I, 9), (K, None), (D, None), (R, 4), (I, 8), (K, None))
    # output: [9, c0, 4, c3, 8, c4]; survivors are c0, c3 (insert host), c4
    assert survivor_map(s) == {0: 1, 3: 3, 4: 5}


def test_survivor_map_empty_for_replace_all():
    s = script((K, None), (R, 4), (R, 5))
    assert survivor_map(s) == {}


def test_schedule_validation():
    NoiseSchedule()
    with pytest.raises(EditError):
        NoiseSchedule(T=0)
    with pytest.raises(EditError):
        NoiseSchedule(w_replace=-0.1)
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
        redo = apply_script(c, s, decrement_step=False,
                            content_origin=Origin.RANDOM_WORD)
        assert redo.ids() == nxt.ids()
        c = nxt
