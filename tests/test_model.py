import gc
import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from editdiff import autodiff as ad
from editdiff import diffusion
from editdiff.align import align
from editdiff.autodiff import backward, grad_check
from editdiff.diffusion import (ROLLOUTS_PER_FORWARD, denoise_loop, make_random_sequence,
                                place_pins)
from editdiff.edit_ops import CaptionState, EditOp, EditScript, NoiseSchedule
from editdiff.metrics import evaluate
from editdiff.model import (
    CheckpointError,
    DenoiserModel,
    ModelConfig,
    ModelError,
    TrainConfig,
    holdout_exact_match,
    load_checkpoint,
    lr_at,
    model_loss,
    save_checkpoint,
    script_targets,
    train,
)
from editdiff.vocab import NUM_SPECIALS
from editdiff.world import WorldSpec, make_corpus
from helpers import (all_keep_script, all_rows_forward, unfused_attention, unfused_layer_norm,
                     unfused_linear)

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
    hyper = TrainConfig(epochs=1, batch=4, seed=5)
    m1, log1 = train(corpus, sch, cfg, hyper)
    m2, log2 = train(corpus, sch, cfg, hyper)
    assert len(log1) == 1
    assert {"epoch", "loss_edit", "loss_language", "holdout_em"} <= set(log1[0])
    assert log1[0]["loss_edit"] == log2[0]["loss_edit"]
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


class _HalfOracle:
    """A rollout model that aligns the caption of every scene with an even
    id to the scene's own caption, so that it is right after one step, and
    keeps every other caption as it is."""

    def __init__(self, examples):
        self.targets = {tuple(ex.condition): list(ex.caption)
                        for ex in examples if ex.scene_id % 2 == 0}

    def for_rollouts(self):
        return self

    def predict_script(self, conditions, captions, t):
        return [align(c, self.targets[tuple(cond)]) if tuple(cond) in self.targets
                else all_keep_script(len(c)) for cond, c in zip(conditions, captions)]


def _reference_holdout(net, corpus, sch, cap):
    subset = corpus.val[:cap]
    rng = np.random.default_rng(0)
    starts = [make_random_sequence(sch.target_len, corpus.vocab, rng, step=sch.T)
              for _ in subset]
    results = denoise_loop(net, [ex.condition for ex in subset], starts, sch.T)
    hits = sum(final.ids() == list(ex.caption) for ex, (final, _) in zip(subset, results))
    return hits / len(subset)


def _tiny_training(corpus):
    cfg = ModelConfig(vocab_size=corpus.vocab.size, cond_vocab_size=corpus.spec.cond_vocab_size,
                      embed_dim=8, num_layers=1, num_heads=1, ffn_dim=16, seed=4)
    return train(corpus, NoiseSchedule(), cfg, TrainConfig(epochs=2, seed=7))


@pytest.mark.parametrize("cap", [2, 50])
@pytest.mark.parametrize("kind", ["tiny", "oracle"])
def test_holdout_is_the_rollout_exact_match_on_the_first_val_scenes(monkeypatch, kind, cap):
    corpus = make_corpus(WorldSpec(), 60, seed=6)
    assert len(corpus.val) == 6
    monkeypatch.setattr("editdiff.model.HOLDOUT_CAP", cap)
    sch = NoiseSchedule()
    net = (_HalfOracle(corpus.val) if kind == "oracle" else DenoiserModel(ModelConfig(
        vocab_size=corpus.vocab.size, cond_vocab_size=corpus.spec.cond_vocab_size,
        embed_dim=8, num_layers=1, num_heads=1, ffn_dim=16, seed=4)))
    em = holdout_exact_match(net, corpus, sch)
    assert em == _reference_holdout(net, corpus, sch, cap)
    if kind == "oracle":
        assert em == 0.5
    corpus.val.clear()
    assert holdout_exact_match(net, corpus, sch) == 0.0


def test_train_logs_evaluates_exact_match_at_eval_seed_0(monkeypatch):
    corpus = make_corpus(WorldSpec(), 60, seed=6)
    monkeypatch.setattr("editdiff.model.HOLDOUT_CAP", 2)
    net, log = _tiny_training(corpus)
    sch = NoiseSchedule()
    report = evaluate(net, corpus, f"random:{sch.target_len}", sch.T, 0, split="val", limit=2)
    assert log[-1]["holdout_em"] == report["aggregates"]["em"]
    corpus.val.clear()
    assert [row["holdout_em"] for row in _tiny_training(corpus)[1]] == [0.0, 0.0]


def test_the_holdout_does_not_change_the_checkpoint(monkeypatch, tmp_path):
    corpus = make_corpus(WorldSpec(), 60, seed=6)
    runs = []
    for cap in (1, 50):
        monkeypatch.setattr("editdiff.model.HOLDOUT_CAP", cap)
        net, log = _tiny_training(corpus)
        save_checkpoint(net, tmp_path / f"cap{cap}.ckpt")
        runs.append(((tmp_path / f"cap{cap}.ckpt").read_bytes(),
                     [(row["loss_edit"], row["loss_language"]) for row in log]))
    assert runs[0] == runs[1]


def test_training_holds_no_float64_copy_of_the_weights():
    # the float64 init is cast to the float32 working copy and let go; the
    # float64 model that train returns is built from the trained values
    corpus = make_corpus(WorldSpec(), 60, seed=6)
    cfg = ModelConfig(vocab_size=corpus.vocab.size, cond_vocab_size=corpus.spec.cond_vocab_size,
                      embed_dim=8, num_layers=1, num_heads=1, ffn_dim=16, seed=4)
    dtypes = []

    def log_fn(row):
        gc.collect()
        dtypes.append({p.data.dtype for obj in gc.get_objects()
                       if isinstance(obj, DenoiserModel) and obj.cfg is cfg
                       for p in obj.params.values()})

    net, _ = train(corpus, NoiseSchedule(), cfg, TrainConfig(epochs=2, seed=7), log_fn=log_fn)
    assert dtypes == [{np.dtype(np.float32)}] * 2
    assert {p.data.dtype for p in net.param_list()} == {np.dtype(np.float64)}


def test_train_returns_float64_blocks_of_its_float32_values_and_passes_central_differences():
    # mirrors the benchmark's train check: central differences at eps 1e-6,
    # which a float32 model would fail, on the model that train returns
    corpus = make_corpus(WorldSpec(), 60, seed=6)
    net, _ = _tiny_training(corpus)
    params = net.param_list()
    assert all(p.data.dtype == np.float64 and p.requires_grad and p.grad is None
               for p in params)
    # float64 blocks holding exactly the trained float32 values: float32
    # holds every value, and they are not the init's
    assert all(np.array_equal(p.data, p.data.astype(np.float32)) for p in params)
    init = DenoiserModel(net.cfg)
    assert any(not np.array_equal(p.data, init.params[name].data.astype(np.float32))
               for name, p in net.params.items())
    # the tables are recomputed in float64, not cast back from the float32 copy's
    for table in ("pos_table", "time_table"):
        got, want = getattr(net, table), getattr(init, table)
        assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()
    rng = np.random.default_rng(3)
    ex = corpus.train[0]
    x_t, t = diffusion.sample_denoising_example(ex.caption, NoiseSchedule(), corpus.vocab, rng)
    gt = align(x_t, ex.caption)

    def loss():
        return model_loss(*net.forward(ex.condition, x_t.ids(), t), gt)[0]

    backward(loss())
    grads = [p.grad.copy() for p in params]
    ad.zero_grads(params)
    live = [(k, idx) for k, g in enumerate(grads) for idx in np.flatnonzero(g)]
    eps = 1e-6
    for pick in rng.choice(len(live), size=8, replace=False):
        k, idx = live[pick]
        flat, g = params[k].data.reshape(-1), grads[k].reshape(-1)
        keep = flat[idx]
        flat[idx] = keep + eps
        up = float(loss().data)
        flat[idx] = keep - eps
        down = float(loss().data)
        flat[idx] = keep
        numeric = (up - down) / (2 * eps)
        assert abs(g[idx] - numeric) <= 1e-7 + 1e-5 * abs(numeric), (k, idx)


def test_the_sampler_mixture_is_declared_once():
    sampler = inspect.signature(diffusion.sample_denoising_example).parameters
    mixture = (diffusion.P_TERMINAL, diffusion.P_TRUNCATE)
    assert (sampler["p_terminal"].default, sampler["p_truncate"].default) == mixture
    assert (TrainConfig().p_terminal, TrainConfig().p_truncate) == mixture


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
    conditions = [[0, 1, 2], [], [3]]
    captions = [[5, 6, 7], [8], [4, 9]]
    gts = [EditScript(((K, None), (R, 7), (I, 4), (D, None))),
           EditScript(((I, 5), (R, 6))),
           EditScript(((K, None), (K, None), (D, None)))]
    # one layer is the last layer alone; with two, the first runs every row
    for num_layers in (1, 2):
        m = DenoiserModel(ModelConfig(vocab_size=12, cond_vocab_size=9, embed_dim=8,
                                      num_layers=num_layers, num_heads=2, ffn_dim=16,
                                      max_seq_len=16, seed=2))

        def f():
            op_logits, word_logits = m.forward_packed(conditions, captions, [3, 1, 7])
            total, start = None, 0
            for gt in gts:
                rows = np.arange(start, start + len(gt))
                start += len(gt)
                loss, _, _ = model_loss(ad.gather(op_logits, rows),
                                        ad.gather(word_logits, rows), gt)
                total = loss if total is None else ad.add(total, loss)
            return total

        err = grad_check(f, m.param_list(), eps=1e-3, order=4)
        assert err < 1e-4, num_layers


@pytest.mark.parametrize("num_layers", [1, 2])
def test_a_last_layer_on_the_caption_rows_gives_the_all_rows_logits(num_layers):
    # the reference runs the condition rows through the last layer too, from
    # the unfused nodes, and takes the caption rows only before ln_f
    m = DenoiserModel(ModelConfig(vocab_size=30, cond_vocab_size=20, embed_dim=16,
                                  num_layers=num_layers, num_heads=4, ffn_dim=24,
                                  max_seq_len=24, seed=7))
    rng = np.random.default_rng(8)
    conditions = [rng.integers(0, 20, n).tolist() for n in (0, 3, 9, 3, 0, 9)]
    captions = [rng.integers(4, 30, n).tolist() for n in (5, 0, 7, 12, 2, 1)]
    ts = [int(t) for t in rng.integers(1, m.cfg.max_T + 1, 6)]
    got = m.forward_packed(conditions, captions, ts)
    want = all_rows_forward(m, conditions, captions, ts)
    for g, w in zip(got, want):
        assert g.data.dtype == np.float64 and g.shape == w.shape
        assert np.abs(g.data - w.data).max() < 1e-12


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


def _ragged_gradients():
    m = ragged_model()
    op_logits, word_logits = m.forward_packed(RAGGED_CONDITIONS, RAGGED_CAPTIONS, RAGGED_TS)
    backward(model_loss(op_logits, word_logits, RAGGED_SCRIPTS)[0])
    return [op_logits.data, word_logits.data] + [p.grad for p in m.param_list()]


def test_padded_attention_gradients_match_the_gather_layout(monkeypatch):
    # padded rows get exactly zero gradient, so the attention node, which
    # writes rows into zero padding and takes them back, gives the bits of
    # gathering them with add.at in the backward
    padded = _ragged_gradients()

    def gathered_rows(a, ids, n):
        seq = np.zeros(n, dtype=np.int64)  # padding repeats row 0
        seq[ids] = np.arange(len(ids))
        return ad.gather(a, seq)

    calls = []

    def gathered_attention(*args):
        calls.append(args)
        return unfused_attention(*args, scatter=gathered_rows, take=ad.gather)

    monkeypatch.setattr(ad, "attention", gathered_attention)
    gathered = _ragged_gradients()
    assert len(calls) == ragged_model().cfg.num_layers
    assert all(np.array_equal(p, g) for p, g in zip(padded, gathered))


def test_fused_nodes_give_the_unfused_gradients_bit_for_bit(monkeypatch):
    fused = _ragged_gradients()
    monkeypatch.setattr(ad, "linear", unfused_linear)
    monkeypatch.setattr(ad, "layer_norm", unfused_layer_norm)
    monkeypatch.setattr(ad, "attention", unfused_attention)
    unfused = _ragged_gradients()
    assert len(fused) == len(unfused) == 2 + len(ragged_model().params)
    assert all(np.array_equal(f, u) for f, u in zip(fused, unfused))


def test_training_forward_builds_a_fixed_number_of_tensors(monkeypatch):
    # two layers of a ragged 3-example batch, with one node per linear, per
    # layer norm and per attention, and the last layer's two gathers of the
    # caption rows: splitting any of them up changes the count
    m = ragged_model()
    built = []
    real = ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting)
    m.forward_packed(RAGGED_CONDITIONS, RAGGED_CAPTIONS, RAGGED_TS)
    assert len(built) == 46


def test_train_config_validation():
    for bad in ({"batch": 0}, {"batch": -1}, {"epochs": 0}, {"epochs": -1}, {"lr": 0.0},
                {"lr": -1e-3}, {"lr": float("nan")}, {"lr": float("inf")},
                {"warmup_frac": 2.0}, {"warmup_frac": -0.1}, {"warmup_frac": float("nan")},
                {"p_terminal": 2.0}, {"p_terminal": -0.1}, {"p_terminal": float("nan")},
                {"p_truncate": -0.1}, {"p_truncate": float("nan")},
                {"p_truncate": float("inf")}, {"p_terminal": 0.9, "p_truncate": 0.2}):
        with pytest.raises(ModelError):
            TrainConfig(**bad)
    TrainConfig(batch=1, epochs=1, warmup_frac=0.0)
    TrainConfig(warmup_frac=1.0, p_terminal=0.0, p_truncate=1.0)


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
    twin = m.for_rollouts()  # the float32 twin that rollouts run on
    for model in (m, twin):
        a, b, c = model.predict_script([[0], [0], []], [fits, too_long, fits], t=2)
        assert b is None
        assert a is not None and len(a) == 6 and c is not None
    ad_tensors = []
    real = ad.Tensor.__init__

    def spy(self, *args, **kwargs):
        real(self, *args, **kwargs)
        ad_tensors.append(self)

    ad.Tensor.__init__ = spy
    try:
        twin.predict_script([[0]], [fits], t=2)
    finally:
        ad.Tensor.__init__ = real
    assert ad_tensors and all(not t.requires_grad and not t._parents and t._backward is None
                              for t in ad_tensors)
    assert all(t.data.dtype == np.float32 for t in ad_tensors if t.data.ndim == 2)
    assert all(p.requires_grad for p in m.param_list())


def full_head_scripts(model, conditions, captions, t):
    """The scripts of ``predict_script``, decoded from the argmaxes of both
    of ``forward_packed``'s heads on every row."""
    fits = [i for i, (cond, c) in enumerate(zip(conditions, captions))
            if len(cond) + 1 + len(c) <= model.cfg.max_seq_len]
    op_logits, word_logits = model.forward_packed([conditions[i] for i in fits],
                                                  [captions[i] for i in fits], [t] * len(fits))
    ops = np.argmax(op_logits.data, axis=1).tolist()
    words = np.argmax(word_logits.data, axis=1).tolist()
    scripts, start = [None] * len(captions), 0
    for i in fits:
        end = start + len(captions[i]) + 1
        scripts[i] = EditScript(tuple((EditOp(op), word if op in (I, R) else None)
                                      for op, word in zip(ops[start:end], words[start:end])))
        start = end
    return scripts


def ragged_rollout_batch(cfg, rng, n=8):
    """Conditions and captions of mixed lengths, two of them too long for
    ``max_seq_len`` with their condition."""
    conditions = [rng.integers(0, cfg.cond_vocab_size, size=rng.integers(0, 5)).tolist()
                  for _ in range(n)]
    lengths = rng.integers(0, 9, size=n)
    lengths[[2, 5]] = cfg.max_seq_len
    captions = [rng.integers(NUM_SPECIALS, cfg.vocab_size, size=k).tolist() for k in lengths]
    return conditions, captions


@pytest.mark.parametrize("num_layers", [1, 2])
def test_predict_script_is_the_argmax_decode_of_both_full_heads(num_layers):
    for seed in range(3):
        cfg = ModelConfig(vocab_size=20, cond_vocab_size=9, embed_dim=16, num_layers=num_layers,
                          num_heads=2, ffn_dim=32, max_seq_len=16, seed=seed)
        m = DenoiserModel(cfg)
        rng = np.random.default_rng(seed)
        for model in (m, m.for_rollouts()):  # float64, then float32
            for t in (1, 4, cfg.max_T):
                conditions, captions = ragged_rollout_batch(cfg, rng)
                got = model.predict_script(conditions, [CaptionState.from_ids(c)
                                                        for c in captions], t)
                assert got == full_head_scripts(model, conditions, captions, t)
                assert got[2] is None and got[5] is None


def test_the_language_head_sees_only_the_rows_that_take_a_word(monkeypatch):
    cfg = ModelConfig(vocab_size=20, cond_vocab_size=9, embed_dim=16, num_layers=2,
                      num_heads=2, ffn_dim=32, max_seq_len=16, seed=10)
    conditions, captions = ragged_rollout_batch(cfg, np.random.default_rng(10))
    states = [CaptionState.from_ids(c) for c in captions]
    fits = [i for i in range(len(captions)) if i not in (2, 5)]
    seen = []
    real = DenoiserModel._lang_head

    def spy(self, rows):
        seen.append(rows.data.copy())
        return real(self, rows)

    monkeypatch.setattr(DenoiserModel, "_lang_head", spy)
    model = DenoiserModel(cfg).for_rollouts()
    # a KEEP/DELETE edit head bias leaves no row that takes a word, then a
    # REPLACE/INSERT one leaves every row, and this untrained head predicts
    # all four ops
    for bias, counted in (([3.0, 0.0, 0.0, 3.0], "none"), ([0.0, 3.0, 3.0, 0.0], "all"),
                          ([0.0] * 4, "some")):
        model.params["edit_head.b"].data[:] = bias
        seen.clear()
        scripts = model.predict_script(conditions, states, 3)
        trunk, _ = model._trunk([conditions[i] for i in fits], [captions[i] for i in fits],
                                [3] * len(fits))
        takes_word = [slot[0] in (I, R) for i in fits for slot in scripts[i].slots]
        n_rows = sum(len(captions[i]) + 1 for i in fits)
        if counted == "none":
            assert seen == [] and not any(takes_word)
            continue
        [rows] = seen
        assert np.array_equal(rows, trunk.data[takes_word])
        assert (len(rows) == n_rows) == (counted == "all") and len(rows) > 0
        assert scripts == full_head_scripts(model, conditions, captions, 3)


def _random_batch(cfg, rng, n=6):
    conditions = [rng.integers(0, cfg.cond_vocab_size, size=rng.integers(1, 5)).tolist()
                  for _ in range(n)]
    captions = [rng.integers(NUM_SPECIALS, cfg.vocab_size, size=rng.integers(0, 9)).tolist()
                for _ in range(n)]
    return conditions, captions, rng.integers(1, cfg.max_T + 1, size=n).tolist()


# float32 logits of the rollout twin lie within this fraction of the
# largest float64 logit of their batch (about 84 float32 ulps)
F32_TOLERANCE = 1e-5


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rollout_twin_is_float32_and_matches_the_float64_forward(seed):
    cfg = ModelConfig(vocab_size=20, cond_vocab_size=9, embed_dim=16, num_layers=2,
                      num_heads=2, ffn_dim=32, max_seq_len=16, seed=seed)
    m = DenoiserModel(cfg)
    twin = m.for_rollouts()
    assert twin.cfg is m.cfg and twin.params.keys() == m.params.keys()
    assert all(t.data.dtype == np.float32 and not t.requires_grad for t in twin.param_list())
    assert twin.pos_table.dtype == twin.time_table.dtype == np.float32
    assert all(p.data.dtype == np.float64 and p.requires_grad for p in m.param_list())
    batch = _random_batch(cfg, np.random.default_rng(seed))
    wide = m.forward_packed(*batch)
    narrow = twin.forward_packed(*batch)
    assert all(w.requires_grad and not n.requires_grad for w, n in zip(wide, narrow))
    compared = 0
    for w, n in zip(wide, narrow):
        assert w.data.dtype == np.float64 and n.data.dtype == np.float32
        masked = w.data < -1e8
        assert np.array_equal(masked, n.data < -1e8)
        tol = F32_TOLERANCE * np.abs(w.data[~masked]).max()
        assert np.abs(n.data - w.data)[~masked].max() <= tol
        top2 = np.sort(w.data, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 2 * tol
        assert np.array_equal(np.argmax(n.data, axis=1)[clear], np.argmax(w.data, axis=1)[clear])
        compared += clear.sum()
    # nearly every row has a clear margin, so the argmax check is not vacuous
    assert compared > 0.9 * 2 * wide[0].shape[0]


def test_a_batch_without_content_rows_gives_every_parameter_a_gradient():
    # no INSERT/REPLACE row anywhere in the batch: the language loss is 0.0,
    # and the language head gets an all-zero gradient rather than none
    m = tiny_model()
    op_logits, word_logits = m.forward_packed([[0], [1, 2]], [[5, 6], [7]], [2, 3])
    scripts = [EditScript(((K, None), (K, None), (D, None))),
               EditScript(((K, None), (D, None)))]
    loss, _, l_lang = model_loss(op_logits, word_logits, scripts)
    assert l_lang == 0.0
    backward(loss)
    assert all(p.grad is not None for p in m.param_list())
    for name in ("lang_head.w", "lang_head.b"):
        assert np.array_equal(m.params[name].grad, np.zeros_like(m.params[name].data))
    assert np.any(m.params["edit_head.w"].grad != 0.0)
    ad.Adam(m.param_list()).step(lr=1e-3)


# a float32-tape gradient block lies within this fraction of the largest
# entry of the float64 block (measured: up to 1.4e-6 over 40 models)
F32_GRAD_TOLERANCE = 1e-5


@pytest.mark.parametrize("num_layers", [1, 2])
def test_float32_tape_gradient_of_the_packed_forward_agrees_with_float64(num_layers):
    # the attention key biases attn.bk get an exactly zero gradient in exact
    # arithmetic, since the softmax of each query is shift-invariant; both
    # tapes leave rounding residue there, which is held to 1e-9 of the
    # largest gradient of the model instead
    for seed in range(4):
        m = DenoiserModel(ModelConfig(vocab_size=12, cond_vocab_size=9, embed_dim=16,
                                      num_layers=num_layers, num_heads=2, ffn_dim=32,
                                      max_seq_len=16, seed=seed))
        working = m.astype(np.float32, requires_grad=True)
        losses = []
        for net in (m, working):
            loss = model_loss(*net.forward_packed(RAGGED_CONDITIONS, RAGGED_CAPTIONS, RAGGED_TS),
                              RAGGED_SCRIPTS)[0]
            losses.append(float(loss.data))
            backward(loss)
        assert losses[1] == pytest.approx(losses[0], rel=1e-6)
        top = max(np.abs(p.grad).max() for p in m.param_list())
        for name, p in m.params.items():
            g64, g32 = p.grad, working.params[name].grad
            assert g64.dtype == np.float64 and g32.dtype == np.float32
            scale = 1e-4 * top if name.endswith("attn.bk") else np.abs(g64).max()
            assert np.abs(g32 - g64).max() <= F32_GRAD_TOLERANCE * scale, (seed, name)


def test_rollout_after_an_adam_step_sees_the_new_parameters(monkeypatch, tmp_path):
    corpus = make_corpus(WorldSpec(), 30, seed=11)
    cfg = ModelConfig(vocab_size=corpus.vocab.size, cond_vocab_size=corpus.spec.cond_vocab_size,
                      embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32, seed=5)
    m = DenoiserModel(cfg)
    rng = np.random.default_rng(1)
    examples = corpus.train[:4]
    conditions = [ex.condition for ex in examples]
    starts = [make_random_sequence(6, corpus.vocab, rng, step=4) for _ in examples]
    seen = []
    real = DenoiserModel.predict_script

    def spy(self, *args):
        seen.append(self.params["lang_head.w"].data)
        return real(self, *args)

    monkeypatch.setattr(DenoiserModel, "predict_script", spy)
    before = denoise_loop(m, conditions, starts, 4)
    stale = seen[-1]
    op_logits, word_logits = m.forward_packed(conditions, [s.ids() for s in starts], [4] * 4)
    scripts = [EditScript(((K, None),) + tuple((R, w) for w in ex.caption[:6]))
               for ex in examples]
    backward(model_loss(op_logits, word_logits, scripts)[0])
    ad.Adam(m.param_list()).step(lr=0.05)
    after = denoise_loop(m, conditions, starts, 4)
    assert np.array_equal(seen[-1], m.params["lang_head.w"].data.astype(np.float32))
    assert not np.array_equal(seen[-1], stale)
    assert after != before
    save_checkpoint(m, tmp_path / "m.ckpt")
    assert after == denoise_loop(load_checkpoint(tmp_path / "m.ckpt")[0], conditions, starts, 4)


def test_batched_rollouts_match_single_rollouts():
    # an untrained model with room for few caption words: some rollouts
    # outgrow max_seq_len mid-batch; hard-pinned rows sit next to free ones
    corpus = make_corpus(WorldSpec(), 30, seed=11)
    cfg = ModelConfig(vocab_size=corpus.vocab.size, cond_vocab_size=corpus.spec.cond_vocab_size,
                      embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32, max_seq_len=22,
                      seed=3)
    model = DenoiserModel(cfg)
    rng = np.random.default_rng(0)
    examples = (corpus.train * 3)[:2 * ROLLOUTS_PER_FORWARD + 3]
    conditions = [ex.condition for ex in examples]
    starts = [make_random_sequence(10, corpus.vocab, rng, step=10) for _ in examples]
    starts = [place_pins(s, {2: s.ids()[2], 6: s.ids()[6]}, hold=True) if i % 3 == 0 else s
              for i, s in enumerate(starts)]
    for steps in (10, 1):
        batch = denoise_loop(model, conditions, starts, steps)
        alone = [denoise_loop(model, [cond], [start], steps)[0]
                 for cond, start in zip(conditions, starts)]
        assert batch == alone
    overflowed = [len(trace) < 10 for _, trace in denoise_loop(model, conditions, starts, 10)]
    assert any(overflowed) and not all(overflowed)


@pytest.mark.parametrize("mode", ["random:10", "ood:0.5", "control"])
def test_pinned_checkpoint_reports_do_not_depend_on_the_rollout_batch(monkeypatch, mode):
    # the trained weights put real captions through every batch size
    model, _ = load_checkpoint(PINNED)
    corpus = make_corpus(WorldSpec(), 2000, 0)
    reports = []
    for size in (1, 8, 32):
        monkeypatch.setattr(diffusion, "ROLLOUTS_PER_FORWARD", size)
        reports.append(evaluate(model, corpus, mode, model.cfg.max_T, 0, limit=20))
    assert reports[0] == reports[1] == reports[2]


def test_tracer_can_find_the_rollout_entry_points():
    # the benchmark wraps these by name, looked up in the class dict
    assert "forward" in vars(DenoiserModel)
    assert "predict_script" in vars(DenoiserModel)
    assert inspect.isfunction(diffusion.denoise_loop)
