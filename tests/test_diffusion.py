import numpy as np
import pytest

from editdiff.diffusion import (
    ROLLOUTS_PER_FORWARD,
    denoise_loop,
    make_random_sequence,
    noise_trajectory,
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
    all_keep_script,
)
from editdiff.vocab import build_vocab

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
    def predict_script(self, conditions, captions, t):
        return [all_keep_script(len(c)) for c in captions]


class ScriptedModel:
    """Replays a fixed script at the first step, then keeps everything."""

    def __init__(self, first):
        self.first = first
        self.calls = 0

    def predict_script(self, conditions, captions, t):
        self.calls += 1
        return [self.first if self.calls == 1 else all_keep_script(len(c)) for c in captions]


class GrowingModel:
    """Inserts a word per step and, like a model whose input holds at most
    four caption words, returns None for a longer caption.  Records the size
    of every batch it is handed."""

    def __init__(self):
        self.batches = []

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
    # 11 rollouts of lengths 0..4 words; each grows a word per step and stops
    # once longer than 4, so rows drop out at different steps
    starts = [CaptionState.from_ids([5] * (i % 5), step=6) for i in range(11)]
    model = GrowingModel()
    batch = denoise_loop(model, [[i] for i in range(11)], starts, 6)
    alone = [denoise_loop(GrowingModel(), [[i]], [c], 6)[0] for i, c in enumerate(starts)]
    assert batch == alone
    assert [len(trace) for _, trace in batch] == [5 - i % 5 for i in range(11)]
    assert max(model.batches) == ROLLOUTS_PER_FORWARD
    # a step hands over only the rollouts still live: 11, 11, 9, 7, 5, 3 of them
    assert model.batches == [8, 3, 8, 3, 8, 1, 7, 5, 3]


def test_denoise_validates_arguments():
    c = CaptionState.from_ids([5], step=1)
    with pytest.raises(EditError):
        denoise_loop(AllKeepModel(), [[]], [c], 0)
    with pytest.raises(EditError):
        denoise_loop(AllKeepModel(), [[], []], [c], 1)
    with pytest.raises(EditError):
        denoise_loop(AllKeepModel(), [[]], [c], 1, pins=[{0: 5}, None])
    with pytest.raises(EditError):
        denoise_loop(AllKeepModel(), [[]], [c], 1, pins=[{3: 5}])
    assert denoise_loop(AllKeepModel(), [], [], 3) == []


def test_denoise_hard_mode_overrides_to_keep():
    # model wants to replace every word; pin position 1
    first = EditScript(((EditOp.KEEP, None), (EditOp.REPLACE, 20),
                        (EditOp.REPLACE, 21), (EditOp.REPLACE, 22)))
    model = ScriptedModel(first)
    c = CaptionState.from_ids([5, 6, 7], step=3)
    [(out, trace)] = denoise_loop(model, [[]], [c], 3, pins=[{1: 6}])
    assert out.ids()[1] == 6
    applied = trace[0].script
    assert applied.slots[2] == (EditOp.KEEP, None)


def test_denoise_hard_mode_remaps_pins_across_inserts():
    # sentinel insert shifts every position right by one
    first = EditScript(((EditOp.INSERT, 30), (EditOp.KEEP, None), (EditOp.KEEP, None)))
    model = ScriptedModel(first)
    c = CaptionState.from_ids([5, 6], step=2)
    [(out, _)] = denoise_loop(model, [[]], [c], 2, pins=[{0: 5, 1: 6}])
    assert out.ids() == [30, 5, 6]


def test_soft_mode_ignores_pins():
    # a free rollout next to a pinned one in the same batch: the pins hold
    # only in the pinned row
    first = EditScript(((EditOp.KEEP, None), (EditOp.REPLACE, 20), (EditOp.KEEP, None)))
    model = ScriptedModel(first)
    c = CaptionState.from_ids([5, 6], step=2)
    (hard, _), (soft, _) = denoise_loop(model, [[], []], [c, c], 2, pins=[{0: 5}, None])
    assert hard.ids() == [5, 6]
    assert soft.ids() == [20, 6]


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
