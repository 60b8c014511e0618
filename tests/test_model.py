import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from editdiff import autodiff as ad
from editdiff import diffusion
from editdiff.autodiff import backward, grad_check
from editdiff.diffusion import ROLLOUTS_PER_FORWARD, denoise_loop, make_random_sequence
from editdiff.edit_ops import CaptionState, EditOp, EditScript, NoiseSchedule
from editdiff.model import (
    CheckpointError,
    DenoiserModel,
    ModelConfig,
    ModelError,
    TrainConfig,
    load_checkpoint,
    lr_at,
    model_loss,
    save_checkpoint,
    script_targets,
    train,
)
from editdiff.world import WorldSpec, make_corpus

K, R, I, D = EditOp.KEEP, EditOp.REPLACE, EditOp.INSERT, EditOp.DELETE

TINY = ModelConfig(vocab_size=12, cond_vocab_size=9, embed_dim=8, num_layers=1,
                   num_heads=1, ffn_dim=16, max_seq_len=16, seed=1)


def tiny_model():
    return DenoiserModel(TINY)


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(vocab_size=10, cond_vocab_size=5, embed_dim=10, num_heads=4)
    with pytest.raises(ModelError):
        ModelConfig(vocab_size=0, cond_vocab_size=5)


def test_forward_output_shapes():
    m = tiny_model()
    op_logits, word_logits = m.forward([0, 1, 2], [3, 4], t=5)
    assert op_logits.shape == (3, 4)
    assert word_logits.shape == (3, 12)


def test_forward_validates_t_and_length():
    m = tiny_model()
    with pytest.raises(ModelError):
        m.forward([0], [3, 4], t=0)
    with pytest.raises(ModelError):
        m.forward([0], [3, 4], t=11)
    with pytest.raises(ModelError):
        m.forward(list(range(9)), [2] * 10, t=1)


def test_sentinel_row_never_replace_or_delete():
    m = tiny_model()
    for t in (1, 4, 10):
        op_logits, _ = m.forward([0, 1], [5, 6, 7], t=t)
        row0 = op_logits.data[0]
        assert row0[int(R)] < -1e8 and row0[int(D)] < -1e8


def test_word_head_never_emits_specials():
    m = tiny_model()
    _, word_logits = m.forward([0], [5, 6], t=3)
    assert np.all(word_logits.data[:, :2] < -1e8)


def test_forward_depends_on_t_and_caption_order():
    m = tiny_model()
    a, _ = m.forward([0, 1], [5, 6], t=1)
    b, _ = m.forward([0, 1], [5, 6], t=9)
    assert not np.allclose(a.data, b.data)
    c, _ = m.forward([0, 1], [6, 5], t=1)
    assert not np.allclose(a.data, c.data)


def test_predict_script_well_formed_random_models():
    for seed in range(5):
        cfg = ModelConfig(vocab_size=12, cond_vocab_size=9, embed_dim=8,
                          num_layers=1, num_heads=1, ffn_dim=16,
                          max_seq_len=16, seed=seed)
        m = DenoiserModel(cfg)
        [s] = m.predict_script([[0, 1]], [CaptionState.from_ids([5, 6, 7])], t=5)
        assert len(s) == 4
        assert s.slots[0][0] in (K, I)
        for op, w in s.slots:
            assert (w is not None) == (op in (I, R))


def test_script_targets():
    gt = EditScript(((K, None), (R, 7), (D, None), (I, 9)))
    ops, words, mask = script_targets(gt)
    assert ops.tolist() == [int(K), int(R), int(D), int(I)]
    assert words.tolist() == [0, 7, 0, 9]
    assert mask.tolist() == [False, True, False, True]


def test_loss_all_keep_gt_has_zero_language_term():
    m = tiny_model()
    op_logits, word_logits = m.forward([0], [5, 6], t=2)
    gt = EditScript(((K, None), (K, None), (K, None)))
    _, _, l_lang = model_loss(op_logits, word_logits, gt)
    assert l_lang == 0.0


def test_loss_perfect_one_hot_is_tiny():
    gt = EditScript(((K, None), (R, 7), (K, None)))
    big = 1e4
    op_data = np.full((3, 4), -big)
    for row, op in enumerate([K, R, K]):
        op_data[row, int(op)] = big
    word_data = np.full((3, 12), -big)
    word_data[1, 7] = big
    loss, _, _ = model_loss(ad.Tensor(op_data), ad.Tensor(word_data), gt)
    assert float(loss.data) < 1e-10


def test_loss_length_mismatch():
    m = tiny_model()
    op_logits, word_logits = m.forward([0], [5, 6], t=2)
    with pytest.raises(ModelError):
        model_loss(op_logits, word_logits, EditScript(((K, None),)))


def test_masked_rows_zero_language_gradient():
    m = tiny_model()
    op_logits, word_logits = m.forward([0], [5, 6], t=2)
    gt = EditScript(((K, None), (R, 7), (K, None)))
    loss, _, _ = model_loss(op_logits, word_logits, gt)
    backward(loss)
    g = word_logits.grad
    assert np.array_equal(g[0], np.zeros(12))
    assert np.array_equal(g[2], np.zeros(12))
    assert not np.allclose(g[1], 0.0)


def test_whole_model_gradient_check():
    m = tiny_model()
    gt = EditScript(((K, None), (R, 7), (I, 4), (D, None)))

    def f():
        op_logits, word_logits = m.forward([0, 1, 2], [5, 6, 7], t=3)
        loss, _, _ = model_loss(op_logits, word_logits, gt)
        return loss

    err = grad_check(f, m.param_list(), eps=1e-3, order=4)
    assert err < 1e-4


def test_lr_schedule_warmup_and_decay():
    hyper = TrainConfig(lr=1e-3, warmup_frac=0.1)
    total = 100
    lrs = [lr_at(s, total, hyper) for s in range(total)]
    peak = max(lrs)
    assert peak == pytest.approx(1e-3)
    assert lrs.index(peak) == 9  # end of warmup
    assert all(a <= b for a, b in zip(lrs[:9], lrs[1:10]))
    assert all(a >= b for a, b in zip(lrs[10:], lrs[11:]))
    assert lrs[-1] < 0.05 * peak


def test_train_single_epoch_logs_and_determinism():
    corpus = make_corpus(WorldSpec(), 12, seed=2)
    sch = NoiseSchedule()
    cfg = ModelConfig(vocab_size=corpus.vocab.size,
                      cond_vocab_size=corpus.spec.cond_vocab_size,
                      embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32, seed=3)
    hyper = TrainConfig(epochs=1, batch=4, seed=5, holdout_cap=2)
    m1, log1 = train(corpus, sch, cfg, hyper)
    m2, log2 = train(corpus, sch, cfg, hyper)
    assert len(log1) == 1
    assert {"epoch", "loss_edit", "loss_language", "holdout_em"} <= set(log1[0])
    assert log1[0]["loss_edit"] == log2[0]["loss_edit"]
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


def test_train_rejects_empty_corpus():
    corpus = make_corpus(WorldSpec(), 12, seed=2)
    corpus.train.clear()
    with pytest.raises(ModelError):
        train(corpus, NoiseSchedule(),
              ModelConfig(vocab_size=corpus.vocab.size,
                          cond_vocab_size=corpus.spec.cond_vocab_size),
              TrainConfig(epochs=1))


def test_checkpoint_round_trip_bitwise(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path, metadata={"note": "test"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"note": "test"}
    assert loaded.cfg == m.cfg
    for name in m.params:
        assert np.array_equal(loaded.params[name].data, m.params[name].data)
    a, _ = m.forward([0], [5, 6], t=2)
    b, _ = loaded.forward([0], [5, 6], t=2)
    assert np.array_equal(a.data, b.data)


PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "model.ckpt"


def test_pinned_legacy_checkpoint_round_trips(tmp_path):
    # the benchmark's fixed checkpoint predates the removal of the dropout
    # option, so its config still holds "dropout": 0.0
    data = PINNED.read_bytes()
    sha = PINNED.with_name("model.ckpt.sha256").read_text(encoding="utf-8").split()[0]
    assert hashlib.sha256(data).hexdigest() == sha
    assert b'"dropout": 0.0' in data[:512]
    model, meta = load_checkpoint(PINNED)
    for p in model.params.values():
        assert p.data.astype("<f8").tobytes() in data
    path = tmp_path / "again.ckpt"
    save_checkpoint(model, path, metadata=meta)
    again, meta_again = load_checkpoint(path)
    assert meta_again == meta
    assert again.cfg == model.cfg
    assert list(again.params) == list(model.params)
    for name, p in model.params.items():
        assert again.params[name].data.tobytes() == p.data.tobytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTCK" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    data = bytearray(path.read_bytes())
    data[5:9] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_packed_forward_matches_single_forward():
    # a ragged batch on the trained checkpoint: condition lengths 0, 3 and 9,
    # caption lengths 1..12, mixed time steps
    model, _ = load_checkpoint(PINNED)
    rng = np.random.default_rng(4)
    conditions, captions, ts = [], [], []
    for b in range(12):
        conditions.append(rng.integers(0, model.cfg.cond_vocab_size, (0, 3, 9)[b % 3]).tolist())
        captions.append(rng.integers(4, model.cfg.vocab_size, b + 1).tolist())
        ts.append(int(rng.integers(1, model.cfg.max_T + 1)))
    op_logits, word_logits = model.forward_packed(conditions, captions, ts)
    assert op_logits.shape == (sum(len(c) + 1 for c in captions), 4)
    start = 0
    for cond, cap, t in zip(conditions, captions, ts):
        rows = slice(start, start + len(cap) + 1)
        start = rows.stop
        for packed, single in zip((op_logits, word_logits), model.forward(cond, cap, t)):
            assert np.abs(packed.data[rows] - single.data).max() < 1e-12
            assert np.array_equal(packed.data[rows].argmax(axis=1), single.data.argmax(axis=1))


def test_packed_forward_gradient_check():
    m = DenoiserModel(ModelConfig(vocab_size=12, cond_vocab_size=9, embed_dim=8,
                                  num_layers=1, num_heads=2, ffn_dim=16, max_seq_len=16,
                                  seed=2))
    conditions = [[0, 1, 2], [], [3]]
    captions = [[5, 6, 7], [8], [4, 9]]
    gts = [EditScript(((K, None), (R, 7), (I, 4), (D, None))),
           EditScript(((I, 5), (R, 6))),
           EditScript(((K, None), (K, None), (D, None)))]

    def f():
        op_logits, word_logits = m.forward_packed(conditions, captions, [3, 1, 7])
        total, start = None, 0
        for gt in gts:
            rows = slice(start, start + len(gt))
            start = rows.stop
            loss, _, _ = model_loss(op_logits[rows], word_logits[rows], gt)
            total = loss if total is None else ad.add(total, loss)
        return total

    err = grad_check(f, m.param_list(), eps=1e-3, order=4)
    assert err < 1e-4


RAGGED_CONDITIONS = [[0, 1, 2], [], [3]]
RAGGED_CAPTIONS = [[5, 6, 7], [8], [4, 9]]
RAGGED_SCRIPTS = [EditScript(((K, None), (R, 7), (I, 4), (D, None))),
                  EditScript(((I, 5), (R, 6))),
                  EditScript(((K, None), (K, None), (D, None)))]
RAGGED_TS = [3, 1, 7]


def ragged_model():
    return DenoiserModel(ModelConfig(vocab_size=12, cond_vocab_size=9, embed_dim=8,
                                     num_layers=2, num_heads=2, ffn_dim=16, max_seq_len=16,
                                     seed=2))


def test_batched_loss_is_the_mean_of_per_example_losses():
    m = ragged_model()
    op_logits, word_logits = m.forward_packed(RAGGED_CONDITIONS, RAGGED_CAPTIONS, RAGGED_TS)
    loss, l_edit, l_lang = model_loss(op_logits, word_logits, RAGGED_SCRIPTS)
    singles, start = [], 0
    for gt in RAGGED_SCRIPTS:
        rows = slice(start, start + len(gt))
        start = rows.stop
        singles.append(model_loss(ad.Tensor(op_logits.data[rows]),
                                  ad.Tensor(word_logits.data[rows]), gt))
    assert abs(float(loss.data) - np.mean([float(x.data) for x, _, _ in singles])) < 1e-12
    assert abs(l_edit - sum(e for _, e, _ in singles)) < 1e-12
    assert abs(l_lang - sum(g for _, _, g in singles)) < 1e-12
    with pytest.raises(ModelError):
        model_loss(op_logits, word_logits, RAGGED_SCRIPTS[:2])

    def f():
        return model_loss(*m.forward_packed(RAGGED_CONDITIONS, RAGGED_CAPTIONS, RAGGED_TS),
                          RAGGED_SCRIPTS)[0]

    assert grad_check(f, m.param_list(), eps=1e-3, order=4) < 1e-4


def test_one_script_loss_is_the_plain_masked_mean():
    rng = np.random.default_rng(12)
    op_data, word_data = rng.normal(size=(9, 4)), rng.normal(size=(9, 12)) * 3
    gt = EditScript(((I, 4),) + ((K, None), (R, 7), (D, None), (I, 5)) * 2)
    ops, words, mask = script_targets(gt)

    def nll(x, targets):
        return np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)) \
            + x.max(axis=1) - x[np.arange(len(x)), targets]

    edit = (nll(op_data, ops) * np.ones(9, dtype=bool)).sum() / 9
    lang = (nll(word_data, words) * mask).sum() / int(mask.sum())
    for scripts in (gt, [gt]):
        loss, l_edit, l_lang = model_loss(ad.Tensor(op_data), ad.Tensor(word_data), scripts)
        assert (float(loss.data), l_edit, l_lang) == (edit + lang, edit, lang)


def test_padded_attention_gradients_match_the_gather_layout(monkeypatch):
    # padded rows get exactly zero gradient, so writing rows into zero
    # padding and taking them back gives the bits of gathering them with
    # add.at in the backward
    def run():
        m = ragged_model()
        op_logits, word_logits = m.forward_packed(RAGGED_CONDITIONS, RAGGED_CAPTIONS,
                                                  RAGGED_TS)
        backward(model_loss(op_logits, word_logits, RAGGED_SCRIPTS)[0])
        return {name: p.grad for name, p in m.params.items()}

    padded = run()

    def gathered_rows(a, ids, n):
        seq = np.zeros(n, dtype=np.int64)  # padding repeats row 0
        seq[ids] = np.arange(len(ids))
        return ad.gather(a, seq)

    monkeypatch.setattr(ad, "scatter_rows", gathered_rows)
    monkeypatch.setattr(ad, "take_rows", ad.gather)
    gathered = run()
    assert all(np.array_equal(padded[name], gathered[name]) for name in padded)


def test_train_config_validation():
    for bad in ({"batch": 0}, {"batch": -1}, {"epochs": 0}, {"epochs": -1}, {"lr": 0.0},
                {"lr": -1e-3}, {"lr": float("nan")}, {"lr": float("inf")},
                {"warmup_frac": 2.0}, {"warmup_frac": -0.1}, {"warmup_frac": float("nan")},
                {"holdout_cap": -1}):
        with pytest.raises(ModelError):
            TrainConfig(**bad)
    TrainConfig(batch=1, epochs=1, warmup_frac=0.0, holdout_cap=0)
    TrainConfig(warmup_frac=1.0)


def test_packed_forward_validates_batch():
    m = tiny_model()
    with pytest.raises(ModelError):
        m.forward_packed([[0]], [[5], [6]], [1, 1])
    with pytest.raises(ModelError):
        m.forward_packed([], [], [])
    with pytest.raises(ModelError):
        m.forward_packed([[0], [0]], [[5], [6] * 15], [1, 1])


def test_predict_script_is_tape_free_and_skips_overlong_captions():
    m = tiny_model()
    fits = CaptionState.from_ids([5] * 5)
    too_long = CaptionState.from_ids([5] * 15)  # 1 + 1 + 15 > max_seq_len 16
    a, b, c = m.predict_script([[0], [0], []], [fits, too_long, fits], t=2)
    assert b is None
    assert a is not None and len(a) == 6 and c is not None
    ad_tensors = []
    real = ad.Tensor.__init__

    def spy(self, *args, **kwargs):
        real(self, *args, **kwargs)
        ad_tensors.append(self)

    ad.Tensor.__init__ = spy
    try:
        m.predict_script([[0]], [fits], t=2)
    finally:
        ad.Tensor.__init__ = real
    assert ad_tensors and all(not t._parents and t._backward is None for t in ad_tensors)
    assert all(p.requires_grad for p in m.param_list())


def test_batched_rollouts_match_single_rollouts():
    # an untrained model with room for few caption words: some rollouts
    # outgrow max_seq_len mid-batch; hard-pinned rows sit next to free ones
    corpus = make_corpus(WorldSpec(), 30, seed=11)
    cfg = ModelConfig(vocab_size=corpus.vocab.size, cond_vocab_size=corpus.spec.cond_vocab_size,
                      embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32, max_seq_len=22,
                      seed=3)
    model = DenoiserModel(cfg)
    rng = np.random.default_rng(0)
    examples = (corpus.train * 2)[:2 * ROLLOUTS_PER_FORWARD + 3]
    conditions = [ex.condition for ex in examples]
    starts = [make_random_sequence(10, corpus.vocab, rng, step=10) for _ in examples]
    pins = [{2: starts[i].ids()[2], 6: starts[i].ids()[6]} if i % 3 == 0 else None
            for i in range(len(examples))]
    for steps in (10, 1):
        batch = denoise_loop(model, conditions, starts, steps, pins=pins)
        alone = [denoise_loop(model, [cond], [start], steps, pins=[p])[0]
                 for cond, start, p in zip(conditions, starts, pins)]
        assert batch == alone
    overflowed = [len(trace) < 10 for _, trace in denoise_loop(model, conditions, starts, 10)]
    assert any(overflowed) and not all(overflowed)


def test_tracer_can_find_the_rollout_entry_points():
    # the benchmark wraps these by name, looked up in the class dict
    assert "forward" in vars(DenoiserModel)
    assert "predict_script" in vars(DenoiserModel)
    assert inspect.isfunction(diffusion.denoise_loop)
