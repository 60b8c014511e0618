import numpy as np
import pytest

from editdiff.diffusion import (
    ROLLOUTS_PER_FORWARD,
    denoise_loop,
    make_random_sequence,
    noise_trajectory,
    place_pins,
    sample_denoising_example,
    trace_to_jsonl_rows,
)
from editdiff.edit_ops import (
    CaptionState,
    EditError,
    EditOp,
    EditScript,
    NoiseSchedule,
    Origin,
    Token,
)
from editdiff.vocab import build_vocab
from helpers import all_keep_script

VOCAB = build_vocab([f"w{i}" for i in range(40)])
SCH = NoiseSchedule()


def test_trajectory_shape_and_bookkeeping():
    rng = np.random.default_rng(0)
    x0 = list(range(2, 12))
    traj = noise_trajectory(x0, SCH, VOCAB, rng)
    assert len(traj) == SCH.T + 1
    assert traj[0].ids() == x0
    for t, state in enumerate(traj):
        assert state.step == t


def test_trajectory_terminal_state_fully_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        traj = noise_trajectory(list(range(2, 10)), SCH, VOCAB, rng)
        assert all(tok.origin is Origin.RANDOM_WORD for tok in traj[-1].tokens)


def test_trajectory_original_monotone_decrease():
    rng = np.random.default_rng(2)
    traj = noise_trajectory(list(range(2, 12)), SCH, VOCAB, rng)
    counts = [sum(tok.origin is Origin.ORIGINAL for tok in s.tokens) for s in traj]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_trajectory_rejects_empty():
    with pytest.raises(EditError):
        noise_trajectory([], SCH, VOCAB, np.random.default_rng(0))


def test_single_step_schedule_absorbs_immediately():
    rng = np.random.default_rng(3)
    sch = NoiseSchedule(T=1)
    traj = noise_trajectory(list(range(2, 8)), sch, VOCAB, rng)
    assert all(tok.origin is Origin.RANDOM_WORD for tok in traj[1].tokens)


def test_sample_denoising_example_branches():
    rng = np.random.default_rng(6)
    x0 = list(range(2, 11))  # length 9
    n_terminal = n_truncated = n_other = 0
    for _ in range(2000):
        x_t, t = sample_denoising_example(x0, SCH, VOCAB, rng,
                                          p_terminal=0.5, p_truncate=0.15)
        assert 1 <= t <= SCH.T
        assert x_t.step == t
        if t == SCH.T:
            # terminal branch: canonical generation start
            n_terminal += 1
            assert len(x_t) == SCH.target_len
            assert all(tok.origin is Origin.RANDOM_WORD for tok in x_t.tokens)
        elif (len(x_t) < len(x0)
              and x_t.ids() == x0[:len(x_t)]
              and all(tok.origin is Origin.ORIGINAL for tok in x_t.tokens)):
            n_truncated += 1
            assert len(x0) - len(x_t) in (1, 2)
        else:
            n_other += 1
    assert abs(n_terminal / 2000 - 0.5) < 0.05
    # replace-only trajectories can never shorten the caption, so every
    # shorter all-original prefix comes from the truncation branch
    assert abs(n_truncated / 2000 - 0.15) < 0.05
    assert n_other > 0


def test_sample_denoising_example_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(EditError):
        sample_denoising_example([], SCH, VOCAB, rng)
    with pytest.raises(EditError):
        sample_denoising_example([2, 3], SCH, VOCAB, rng, p_terminal=0.9,
                                 p_truncate=0.2)
    with pytest.raises(EditError):
        sample_denoising_example([2, 3], SCH, VOCAB, rng, p_terminal=-0.1)
    with pytest.raises(EditError):
        sample_denoising_example([2, 3], SCH, VOCAB, rng, p_terminal=float("nan"))
    with pytest.raises(EditError):
        sample_denoising_example([2, 3], SCH, VOCAB, rng, p_truncate=float("nan"))


def test_sample_denoising_example_single_word_caption():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x_t, t = sample_denoising_example([5], SCH, VOCAB, rng,
                                          p_terminal=0.2, p_truncate=0.6)
        assert len(x_t) >= 1
        assert 1 <= t <= SCH.T


def test_make_random_sequence():
    rng = np.random.default_rng(5)
    c = make_random_sequence(10, VOCAB, rng)
    assert len(c) == 10
    assert c.step == 10
    assert all(tok.origin is Origin.RANDOM_WORD for tok in c.tokens)
    single = make_random_sequence(1, VOCAB, rng)
    assert len(single) == 1
    with pytest.raises(EditError):
        make_random_sequence(0, VOCAB, rng)


class AllKeepModel:
    def for_rollouts(self):
        return self

    def predict_script(self, conditions, captions, t):
        return [all_keep_script(len(c)) for c in captions]


class ScriptedModel:
    """Replays a fixed script at the first step, then keeps everything."""

    def __init__(self, first):
        self.first = first
        self.calls = 0

    def for_rollouts(self):
        return self

    def predict_script(self, conditions, captions, t):
        self.calls += 1
        return [self.first if self.calls == 1 else all_keep_script(len(c)) for c in captions]


class GrowingModel:
    """Inserts a word per step and, like a model whose input holds at most
    four caption words, returns None for a longer caption.  Records the size
    of every batch it is handed."""

    def __init__(self):
        self.batches = []

    def for_rollouts(self):
        return self

    def predict_script(self, conditions, captions, t):
        self.batches.append(len(captions))
        return [None if len(c) > 4 else
                EditScript(((EditOp.INSERT, 9),) + ((EditOp.KEEP, None),) * len(c))
                for c in captions]


def test_denoise_identity_model():
    c = CaptionState.from_ids([5, 6, 7], step=10)
    [(out, trace)] = denoise_loop(AllKeepModel(), [[]], [c], 10)
    assert out.ids() == [5, 6, 7]
    assert len(trace) == 10
    assert [s.t for s in trace] == list(range(10, 0, -1))
    assert out.step == 0


def test_denoise_stops_when_model_cannot_read_caption():
    c = CaptionState.from_ids([5, 6, 7], step=10)
    [(out, trace)] = denoise_loop(GrowingModel(), [[]], [c], 10)
    assert [s.t for s in trace] == [10, 9]
    assert out == trace[-1].after
    assert out.ids() == [9, 9, 5, 6, 7]


def test_denoise_batches_rollouts_and_drops_overflowed_ones():
    # a full batch and 3 more rollouts, of lengths 0..4 words; each grows a
    # word per step and stops once longer than 4, so rows drop out at
    # different steps
    n = ROLLOUTS_PER_FORWARD + 3
    starts = [CaptionState.from_ids([5] * (i % 5), step=6) for i in range(n)]
    model = GrowingModel()
    batch = denoise_loop(model, [[i] for i in range(n)], starts, 6)
    alone = [denoise_loop(GrowingModel(), [[i]], [c], 6)[0] for i, c in enumerate(starts)]
    assert batch == alone
    lengths = [5 - i % 5 for i in range(n)]
    assert [len(trace) for _, trace in batch] == lengths
    # a step hands over only the rollouts still live, one full batch at a
    # time: all n at the first two steps, then those whose trace is longer
    live = [sum(length >= done for length in lengths) for done in range(6)]
    assert live[:2] == [n, n] and live[2] < n
    assert model.batches[:2] == [ROLLOUTS_PER_FORWARD, 3]
    assert model.batches == [min(ROLLOUTS_PER_FORWARD, m - lo) for m in live
                             for lo in range(0, m, ROLLOUTS_PER_FORWARD)]
    assert max(model.batches) == ROLLOUTS_PER_FORWARD


class InputModel:
    """Replaces the first word below 20 by a word from 20..29 that depends
    on the condition, the words and t, so its scripts are a function of the
    model's input alone; records the (condition, words, t) rows of every
    batch it is handed."""

    def __init__(self):
        self.batches = []

    def for_rollouts(self):
        return self

    def predict_script(self, conditions, captions, t):
        rows = [(tuple(cond), tuple(c.ids()), t) for cond, c in zip(conditions, captions)]
        self.batches.append(rows)
        return [self.script(*row) for row in rows]

    @staticmethod
    def script(cond, ids, t):
        slots = [(EditOp.KEEP, None)] * (len(ids) + 1)
        low = [j for j, w in enumerate(ids) if w < 20]
        if low:
            slots[low[0] + 1] = (EditOp.REPLACE, 20 + (sum(cond) + sum(ids) + t) % 10)
        return EditScript(tuple(slots))

    def rows_per_step(self, steps):
        return [sum(len(b) for b in self.batches if b[0][2] == t)
                for t in range(steps, 0, -1)]


def twin_starts(n, pin_word):
    """A hard-pinned and a soft twin of each of n distinct starts, which
    place ``pin_word`` at position 1: hard twins first, as ``evaluate``
    orders them in control mode."""
    starts = [CaptionState.from_ids([5 + i, 6, 7 + i, 8], step=4) for i in range(n)]
    return ([place_pins(s, {1: pin_word}, hold=True) for s in starts]
            + [place_pins(s, {1: pin_word}, hold=False) for s in starts])


def one_at_a_time(conditions, starts, steps):
    return [denoise_loop(InputModel(), [cond], [start], steps)[0]
            for cond, start in zip(conditions, starts)]


def test_twins_with_equal_words_share_one_row_per_step():
    # the pinned word is one the model keeps, so each pair of twins agrees
    # at every step and is decoded once
    n = 5
    starts = twin_starts(n, pin_word=25)
    conditions = [[i, 1] for i in range(n)] * 2
    model = InputModel()
    results = denoise_loop(model, conditions, starts, 4)
    assert results == one_at_a_time(conditions, starts, 4)
    assert [final.ids() for final, _ in results[:n]] == [final.ids() for final, _ in results[n:]]
    assert model.rows_per_step(4) == [n] * 4
    for batch in model.batches:
        assert len(set(batch)) == len(batch)
    # twins of one start under different conditions are different inputs
    model = InputModel()
    denoise_loop(model, [[i, 1] for i in range(2 * n)], starts, 4)
    assert model.rows_per_step(4) == [2 * n] * 4


def test_a_soft_twin_that_edits_a_pinned_word_gets_its_own_row_from_the_next_step():
    # the pinned word 6 is the first the model replaces: the soft twin
    # takes the edit, the hard twin keeps the word, and from then on the
    # two are different inputs
    starts = twin_starts(1, pin_word=6)
    starts = [place_pins(s, {0: 25}, hold=False) for s in starts]
    model = InputModel()
    (hard, hard_trace), (soft, soft_trace) = denoise_loop(model, [[3], [3]], starts, 4)
    assert [(hard, hard_trace), (soft, soft_trace)] == one_at_a_time([[3], [3]], starts, 4)
    assert hard_trace[0].after.ids() != soft_trace[0].after.ids()
    assert hard.ids()[1] == 6 and soft.ids()[1] != 6
    assert model.rows_per_step(4) == [1, 2, 2, 2]


def test_rollouts_with_distinct_inputs_batch_as_before_and_repeats_add_no_row():
    n = 2 * ROLLOUTS_PER_FORWARD + 5
    starts = [CaptionState.from_ids([5, 6 + i % 7, 7], step=3) for i in range(n)]
    conditions = [[i] for i in range(n)]
    model = InputModel()
    assert denoise_loop(model, conditions, starts, 3) == one_at_a_time(conditions, starts, 3)
    # every step hands over every rollout, in order, one full batch at a time
    for step in range(3):
        batches = model.batches[3 * step:3 * step + 3]
        assert [len(b) for b in batches] == [ROLLOUTS_PER_FORWARD, ROLLOUTS_PER_FORWARD, 5]
        assert [row[0] for b in batches for row in b] == [(i,) for i in range(n)]
    # a repeat of each of the first three rollouts rides on its row
    model = InputModel()
    repeated = denoise_loop(model, conditions + conditions[:3], starts + starts[:3], 3)
    assert repeated[n:] == repeated[:3]
    assert [len(b) for b in model.batches] == [ROLLOUTS_PER_FORWARD, ROLLOUTS_PER_FORWARD, 5] * 3


def test_denoise_validates_arguments():
    c = CaptionState.from_ids([5], step=1)
    with pytest.raises(EditError):
        denoise_loop(AllKeepModel(), [[]], [c], 0)
    with pytest.raises(EditError):
        denoise_loop(AllKeepModel(), [[], []], [c], 1)
    assert denoise_loop(AllKeepModel(), [], [], 3) == []


@pytest.mark.parametrize("hold", [True, False])
def test_place_pins_tags_words_and_checks_positions(hold):
    c = CaptionState.from_ids([5, 6, 7], step=3)
    pinned = place_pins(c, {0: 9, 2: 8}, hold=hold)
    assert pinned.ids() == [9, 6, 8] and pinned.step == 3
    origin = Origin.PINNED if hold else Origin.RANDOM_WORD
    assert [t.origin for t in pinned.tokens] == [origin, Origin.ORIGINAL, origin]
    for pos in (3, -1):
        with pytest.raises(EditError, match="out of range"):
            place_pins(c, {pos: 5}, hold=hold)


def test_denoise_hard_mode_overrides_to_keep():
    # model wants to replace every word; pin position 1
    first = EditScript(((EditOp.KEEP, None), (EditOp.REPLACE, 20),
                        (EditOp.REPLACE, 21), (EditOp.REPLACE, 22)))
    model = ScriptedModel(first)
    c = place_pins(CaptionState.from_ids([5, 6, 7], step=3), {1: 6}, hold=True)
    [(out, trace)] = denoise_loop(model, [[]], [c], 3)
    assert out.ids()[1] == 6
    applied = trace[0].script
    assert applied.slots[2] == (EditOp.KEEP, None)


def test_denoise_hard_mode_remaps_pins_across_inserts():
    # sentinel insert shifts every position right by one
    first = EditScript(((EditOp.INSERT, 30), (EditOp.KEEP, None), (EditOp.KEEP, None)))
    model = ScriptedModel(first)
    c = place_pins(CaptionState.from_ids([5, 6], step=2), {0: 5, 1: 6}, hold=True)
    [(out, _)] = denoise_loop(model, [[]], [c], 2)
    assert out.ids() == [30, 5, 6]


def test_soft_mode_ignores_pins():
    # a free rollout next to a pinned one in the same batch, from one start:
    # the pins hold only in the pinned row
    first = EditScript(((EditOp.KEEP, None), (EditOp.REPLACE, 20), (EditOp.KEEP, None)))
    model = ScriptedModel(first)
    c = CaptionState.from_ids([5, 6], step=2)
    starts = [place_pins(c, {0: 5}, hold=True), place_pins(c, {0: 5}, hold=False)]
    (hard, _), (soft, _) = denoise_loop(model, [[], []], starts, 2)
    assert hard.ids() == [5, 6]
    assert soft.ids() == [20, 6]


class TwoStepModel:
    """Plays ``first`` at the first step and ``then(caption length)`` after."""

    def __init__(self, first, then):
        self.first, self.then = first, then
        self.calls = 0

    def for_rollouts(self):
        return self

    def predict_script(self, conditions, captions, t):
        self.calls += 1
        return [self.first if self.calls == 1 else self.then(len(c)) for c in captions]


K, R, I, D = EditOp.KEEP, EditOp.REPLACE, EditOp.INSERT, EditOp.DELETE
# the start [5, 8, 7] with 8 pinned, moved by a first step that does not
# touch it: (first script, ids after it, position of the pinned word)
MOVES = {
    "sentinel-insert": (((I, 30), (K, None), (K, None), (K, None)), [30, 5, 8, 7], 2),
    "insert-before": (((K, None), (I, 30), (K, None), (K, None)), [5, 30, 8, 7], 2),
    "delete-before": (((K, None), (D, None), (K, None), (K, None)), [8, 7], 0),
}
# a second step that tries to edit every word away
ATTACKS = {
    "replace": lambda n: ((K, None),) + tuple((R, 20 + j) for j in range(n)),
    "delete": lambda n: ((K, None),) + ((D, None),) * n,
    "insert": lambda n: ((K, None),) + tuple((I, 20 + j) for j in range(n)),
}


@pytest.mark.parametrize("attack", sorted(ATTACKS))
@pytest.mark.parametrize("move", sorted(MOVES))
def test_a_pinned_word_travels_and_is_held(move, attack):
    first, moved, pos = MOVES[move]
    model = TwoStepModel(EditScript(first), lambda n: EditScript(ATTACKS[attack](n)))
    c = place_pins(CaptionState.from_ids([5, 6, 7], step=2), {1: 8}, hold=True)
    [(out, trace)] = denoise_loop(model, [[]], [c], 2)
    assert trace[0].after.ids() == moved
    assert trace[0].after.tokens[pos] == Token(8, Origin.PINNED)
    # every other word went its way; the pinned slot was turned into KEEP
    assert trace[1].script.slots[pos + 1] == (K, None)
    expected = EditScript(ATTACKS[attack](len(moved))).slots
    assert [slot for j, slot in enumerate(trace[1].script.slots) if j != pos + 1] == \
        [slot for j, slot in enumerate(expected) if j != pos + 1]
    pinned_at = [j for j, tok in enumerate(out.tokens) if tok.origin is Origin.PINNED]
    kept_before = {"replace": pos, "delete": 0, "insert": 2 * pos}[attack]
    assert pinned_at == [kept_before]
    assert out.tokens[kept_before] == Token(8, Origin.PINNED)


def test_trace_serialization_rows():
    c = CaptionState.from_ids([5, 6], step=1)
    first = EditScript(((EditOp.KEEP, None), (EditOp.REPLACE, 7), (EditOp.KEEP, None)))
    [(out, trace)] = denoise_loop(ScriptedModel(first), [[]], [c], 1)
    rows = trace_to_jsonl_rows(trace, VOCAB)
    assert len(rows) == 1
    row = rows[0]
    assert row["t"] == 1
    assert row["ops"] == ["KEEP", "REPLACE", "KEEP"]
    assert row["words"][1] == VOCAB.decode(7)
    assert row["caption_before"] == VOCAB.decode_all([5, 6])
    assert row["caption_after"] == VOCAB.decode_all([7, 6])
