"""Dual-head conditional transformer encoder: architecture, loss, training,
and binary checkpoint serialization.

The input sequence is [condition tokens] ++ [START] ++ [caption tokens].
The hidden states of START and each caption token feed two linear heads: a
4-way edit-operation head and a vocabulary-wide content-word head.  The
START row doubles as the script's sentinel slot and its op logits are
masked to KEEP/INSERT.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .align import align
from .autodiff import Adam, Tensor, backward
from .diffusion import denoise_loop, make_random_sequence, sample_denoising_example
from .edit_ops import CaptionState, EditOp, EditScript, NoiseSchedule
from .vocab import NUM_SPECIALS, START_ID, Vocabulary

CHECKPOINT_MAGIC = b"EDIF1"
CHECKPOINT_VERSION = 1

NEG_INF = -1e9

# KEEP and DELETE slots carry no word; decoded scripts share one tuple each,
# which keeps the traces of many rollouts small
_BARE_SLOTS = {int(op): (op, None) for op in (EditOp.KEEP, EditOp.DELETE)}


class ModelError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    cond_vocab_size: int
    embed_dim: int = 128
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 256
    max_T: int = 10
    max_seq_len: int = 48
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim % self.num_heads != 0:
            raise ModelError("embed_dim must be divisible by num_heads")
        for name in ("vocab_size", "cond_vocab_size", "embed_dim", "num_layers",
                     "num_heads", "ffn_dim", "max_T", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be positive")


POSITION_CODE_SEED = 12345


def position_codes(n_positions: int, dim: int) -> np.ndarray:
    """Fixed random position codes, standard normal per entry.

    Random codes are near-orthogonal between positions, so attention can
    address an individual position sharply.  Smooth sinusoids leave
    neighboring positions highly correlated, which measurably prevents the
    denoiser from routing condition tokens to their caption slots.
    """
    rng = np.random.default_rng(POSITION_CODE_SEED)
    return rng.normal(0.0, 1.0, size=(n_positions, dim))


def sinusoid_table(n_positions: int, dim: int) -> np.ndarray:
    pos = np.arange(n_positions)[:, None].astype(np.float64)
    i = np.arange(dim // 2)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, 2 * i / dim)
    table = np.zeros((n_positions, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def _param_table(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Every parameter block as (name, shape, init kind), in the order the
    initialiser draws them and the checkpoint stores them."""
    d, f, k = cfg.embed_dim, cfg.ffn_dim, cfg.vocab_size
    table = [("word_emb", (k, d), "normal"),
             ("cond_emb", (cfg.cond_vocab_size, d), "normal"),
             ("seg_emb", (2, d), "normal")]
    for i in range(cfg.num_layers):
        layer = f"layers.{i}"
        table += [(f"{layer}.attn.{w}", (d, d), "normal") for w in ("wq", "wk", "wv", "wo")]
        table += [(f"{layer}.attn.{b}", (d,), "zeros") for b in ("bq", "bk", "bv", "bo")]
        table += [(f"{layer}.ln1.g", (d,), "ones"), (f"{layer}.ln1.b", (d,), "zeros"),
                  (f"{layer}.ln2.g", (d,), "ones"), (f"{layer}.ln2.b", (d,), "zeros"),
                  (f"{layer}.ffn.w1", (d, f), "normal"), (f"{layer}.ffn.b1", (f,), "zeros"),
                  (f"{layer}.ffn.w2", (f, d), "normal"), (f"{layer}.ffn.b2", (d,), "zeros")]
    table += [("ln_f.g", (d,), "ones"), ("ln_f.b", (d,), "zeros"),
              ("edit_head.w", (d, 4), "normal"), ("edit_head.b", (4,), "zeros"),
              ("lang_head.w", (d, k), "normal"), ("lang_head.b", (k,), "zeros")]
    return table


class DenoiserModel:
    def __init__(self, cfg: ModelConfig):
        rng = np.random.default_rng(cfg.seed)
        arrays = {}
        for name, shape, kind in _param_table(cfg):
            if kind == "normal":
                arrays[name] = rng.normal(0.0, 0.02, size=shape)
            else:
                arrays[name] = np.ones(shape) if kind == "ones" else np.zeros(shape)
        self._hold(cfg, arrays)

    def _hold(self, cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
        self.cfg = cfg
        self.params: dict[str, Tensor] = {name: Tensor(data, requires_grad=True)
                                          for name, data in arrays.items()}
        self.pos_table = position_codes(cfg.max_seq_len, cfg.embed_dim)
        self.time_table = sinusoid_table(cfg.max_T + 1, cfg.embed_dim)

    def param_list(self) -> list[Tensor]:
        return list(self.params.values())

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return ad.add(ad.mul(ad.layer_norm(x), self.params[f"{prefix}.g"]),
                      self.params[f"{prefix}.b"])

    def _attention(self, x: Tensor, layer: int, layout: _Layout | None) -> Tensor:
        p = self.params
        pre = f"layers.{layer}.attn"
        cfg = self.cfg
        heads, dh = cfg.num_heads, cfg.embed_dim // cfg.num_heads
        if layout is None:  # one sequence: its rows are already in order
            batch, length = 1, x.shape[0]
        else:
            batch, length = layout.shape

        def project(w: str, axes) -> Tensor:  # x W + b as [B, L, H, dh], then permuted
            a = ad.add(ad.matmul(x, p[f"{pre}.w{w}"]), p[f"{pre}.b{w}"])
            if layout is not None:
                a = ad.scatter_rows(a, layout.back, batch * length)
            return ad.transpose(ad.reshape(a, (batch, length, heads, dh)), axes)

        # each intermediate is consumed as soon as it is made, so that with
        # no tape the rollout batch holds few [N, d]-sized buffers at once
        attn = ad.scale(ad.matmul(project("q", (0, 2, 1, 3)), project("k", (0, 2, 3, 1))),
                        1.0 / math.sqrt(dh))
        if layout is not None:
            attn = ad.add(attn, Tensor(layout.key_bias))
        attn = ad.matmul(ad.softmax(attn), project("v", (0, 2, 1, 3)))
        attn = ad.reshape(ad.transpose(attn, (0, 2, 1, 3)), (batch * length, cfg.embed_dim))
        if layout is not None:
            attn = ad.take_rows(attn, layout.back)
        attn = ad.matmul(attn, p[f"{pre}.wo"])
        return ad.add(attn, p[f"{pre}.bo"])

    def _ffn(self, x: Tensor, layer: int) -> Tensor:
        p = self.params
        h = ad.silu(ad.add(ad.matmul(x, p[f"layers.{layer}.ffn.w1"]),
                           p[f"layers.{layer}.ffn.b1"]))
        return ad.add(ad.matmul(h, p[f"layers.{layer}.ffn.w2"]),
                      p[f"layers.{layer}.ffn.b2"])

    def _embed(self, conditions, captions, ts, cond_lens, word_lens) -> Tensor:
        """Input rows in the packed order: all condition rows, then all
        START + caption rows, each example's rows in sequence order."""
        # embeddings are initialized small; scaling by sqrt(d) keeps token
        # identity comparable in magnitude to the O(1) position/time tables
        emb_gain = math.sqrt(self.cfg.embed_dim)
        seg = self.params["seg_emb"]
        word_ids = np.array([i for cap in captions for i in [START_ID] + cap], dtype=np.int64)
        time_rows = self.time_table[np.repeat(np.asarray(ts, dtype=np.int64), word_lens)]
        # caption positions index from 0 so the layout does not shift with
        # the condition length; the segment embedding separates the streams
        word_x = ad.add(ad.add(ad.scale(ad.gather(self.params["word_emb"], word_ids), emb_gain),
                               Tensor(self.pos_table[_ranges(word_lens)] + time_rows)),
                        seg[1:2, :])
        if not cond_lens.sum():
            return word_x
        cond_ids = np.array([i for cond in conditions for i in cond], dtype=np.int64)
        cond_x = ad.add(ad.add(ad.scale(ad.gather(self.params["cond_emb"], cond_ids), emb_gain),
                               Tensor(self.pos_table[_ranges(cond_lens)])),
                        seg[0:1, :])
        return ad.concat([cond_x, word_x], axis=0)

    def forward(self, condition, caption_ids, t: int) -> tuple[Tensor, Tensor]:
        """Return (op_logits, word_logits), each with l+1 rows (START first)."""
        return self.forward_packed([condition], [caption_ids], [t])

    def forward_packed(self, conditions, captions, ts) -> tuple[Tensor, Tensor]:
        """Run B examples through the model at once.

        The rows of all examples are packed, without padding, into one
        [N, d] matrix: every condition row, example by example, then every
        START + caption row, example by example.  Embeddings, layer norms,
        the feed-forward blocks and the heads run on all N rows together;
        only attention gathers the rows into padded [B, H, L, dh] sequences
        behind a key-padding mask.  Returns (op_logits, word_logits) of the
        START + caption rows, l_b + 1 per example, in example order.
        """
        cfg = self.cfg
        conditions = [list(c) for c in conditions]
        captions = [list(c) for c in captions]
        if not len(conditions) == len(captions) == len(ts) >= 1:
            raise ModelError(f"{len(conditions)} conditions, {len(captions)} captions and "
                             f"{len(ts)} time steps; need the same positive number of each")
        for cond, cap, t in zip(conditions, captions, ts):
            if not 1 <= t <= cfg.max_T:
                raise ModelError(f"time step {t} outside 1..{cfg.max_T}")
            total = len(cond) + 1 + len(cap)
            if total > cfg.max_seq_len:
                raise ModelError(f"input length {total} exceeds max_seq_len {cfg.max_seq_len}")
        cond_lens = np.array([len(c) for c in conditions], dtype=np.int64)
        word_lens = np.array([len(c) + 1 for c in captions], dtype=np.int64)

        x = self._embed(conditions, captions, ts, cond_lens, word_lens)
        layout = None if len(captions) == 1 else _Layout(cond_lens, word_lens)
        for i in range(cfg.num_layers):
            x = ad.add(x, self._attention(self._ln(x, f"layers.{i}.ln1"), i, layout))
            x = ad.add(x, self._ffn(self._ln(x, f"layers.{i}.ln2"), i))
        x = self._ln(x, "ln_f")

        rows = x[int(cond_lens.sum()):, :]
        op_logits = ad.add(ad.matmul(rows, self.params["edit_head.w"]),
                           self.params["edit_head.b"])
        sentinel_mask = np.zeros((rows.shape[0], 4))
        starts = np.cumsum(word_lens) - word_lens
        sentinel_mask[starts, int(EditOp.REPLACE)] = NEG_INF
        sentinel_mask[starts, int(EditOp.DELETE)] = NEG_INF
        op_logits = ad.add(op_logits, Tensor(sentinel_mask))
        word_logits = ad.add(ad.matmul(rows, self.params["lang_head.w"]),
                             self.params["lang_head.b"])
        # special ids never appear inside captions, so the content head
        # must not be able to emit them
        special_mask = np.zeros((1, cfg.vocab_size))
        special_mask[0, :NUM_SPECIALS] = NEG_INF
        word_logits = ad.add(word_logits, Tensor(special_mask))
        return op_logits, word_logits

    def predict_script(self, conditions, captions, t: int) -> list[EditScript | None]:
        """Greedy argmax decoding of both heads into one well-formed script
        per caption, all captions at step ``t`` in one tape-free forward.

        A caption that has outgrown ``max_seq_len`` with its condition gets
        None, which ends its rollout (see ``denoise_loop``).
        """
        scripts: list[EditScript | None] = [None] * len(captions)
        rows = [i for i, (cond, c) in enumerate(zip(conditions, captions))
                if len(cond) + 1 + len(c) <= self.cfg.max_seq_len]
        if not rows:
            return scripts
        with ad.no_grad():
            op_logits, word_logits = self.forward_packed(
                [conditions[i] for i in rows], [captions[i].ids() for i in rows], [t] * len(rows))
        ops = np.argmax(op_logits.data, axis=1).tolist()
        words = np.argmax(word_logits.data, axis=1).tolist()
        start = 0
        for i in rows:
            end = start + len(captions[i]) + 1
            scripts[i] = EditScript(tuple(
                (EditOp(op), word) if op in (EditOp.INSERT, EditOp.REPLACE) else _BARE_SLOTS[op]
                for op, word in zip(ops[start:end], words[start:end])))
            start = end
        return scripts


def _ranges(lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(n)`` for each n in ``lengths``."""
    return np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)


class _Layout:
    """Where each example's rows sit in the packed [N, d] matrix.

    The padded sequences have ``shape`` [B, L]; ``back[n]`` is the flat
    [B * L] position of packed row n (condition, then START + caption, per
    example) and ``key_bias`` masks the padded keys.  Padded positions hold
    zeros and get exactly zero gradient: masked keys have softmax weight
    0.0 and padded queries are never taken back.
    """

    def __init__(self, cond_lens: np.ndarray, word_lens: np.ndarray):
        seq_lens = cond_lens + word_lens
        self.shape = (len(seq_lens), int(seq_lens.max()))
        pos = np.arange(self.shape[1])[None, :]
        cond_start = (np.cumsum(cond_lens) - cond_lens)[:, None]
        word_start = (int(cond_lens.sum()) + np.cumsum(word_lens) - word_lens)[:, None]
        in_cond = pos < cond_lens[:, None]
        valid = pos < seq_lens[:, None]
        seq = np.where(in_cond, cond_start + pos, word_start + pos - cond_lens[:, None])
        self.key_bias = np.where(valid, 0.0, NEG_INF)[:, None, None, :]
        self.back = np.empty(int(seq_lens.sum()), dtype=np.int64)
        self.back[seq[valid]] = np.flatnonzero(valid)


def script_targets(gt: EditScript) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ops = np.array([int(op) for op, _ in gt.slots], dtype=np.int64)
    words = np.array([0 if w is None else w for _, w in gt.slots], dtype=np.int64)
    content_mask = np.array([op in (EditOp.INSERT, EditOp.REPLACE) for op, _ in gt.slots])
    return ops, words, content_mask


def model_loss(op_logits: Tensor, word_logits: Tensor, scripts
               ) -> tuple[Tensor, float, float]:
    """Edit-op cross-entropy over all rows plus content cross-entropy over
    INSERT/REPLACE rows only, each averaged per example.

    ``scripts`` holds the target script of each example of a packed batch,
    in the order of ``forward_packed``'s rows, or is the one script of a
    one-example forward.  Returns (the mean over the B examples of their
    summed losses as a tensor, the sum of their edit losses, the sum of
    their language losses).
    """
    if isinstance(scripts, EditScript):
        scripts = [scripts]
    lengths = [len(gt) for gt in scripts]
    if op_logits.shape[0] != sum(lengths):
        raise ModelError(f"{op_logits.shape[0]} logit rows vs script lengths {lengths}")
    ops, words, content_mask = (np.concatenate(parts)
                                for parts in zip(*map(script_targets, scripts)))
    example = np.repeat(np.arange(len(scripts)), lengths)
    l_edit = ad.cross_entropy(op_logits, ops, example=example)
    l_lang = ad.cross_entropy(word_logits, words, content_mask, example=example)
    return (ad.scale(ad.add(l_edit, l_lang), 1.0 / len(scripts)),
            float(l_edit.data), float(l_lang.data))


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 30
    batch: int = 2
    warmup_frac: float = 0.05
    p_terminal: float = 0.5
    p_truncate: float = 0.15
    seed: int = 0
    holdout_cap: int = 50

    def __post_init__(self):
        for name in ("batch", "epochs"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ModelError(f"lr must be finite and positive, got {self.lr}")
        if not 0 <= self.warmup_frac <= 1:
            raise ModelError(f"warmup_frac must be in [0, 1], got {self.warmup_frac}")
        if self.holdout_cap < 0:
            raise ModelError(f"holdout_cap must be non-negative, got {self.holdout_cap}")


def lr_at(step: int, total_steps: int, hyper: TrainConfig) -> float:
    """Linear warmup to peak, then linear decay to zero."""
    warmup = max(1, int(hyper.warmup_frac * total_steps))
    if step < warmup:
        return hyper.lr * (step + 1) / warmup
    frac = (step - warmup) / max(1, total_steps - warmup)
    return hyper.lr * max(0.0, 1.0 - frac)


def holdout_exact_match(model: DenoiserModel, examples, sch: NoiseSchedule,
                        vocab: Vocabulary, rng: np.random.Generator,
                        cap: int | None = None) -> float:
    """Fraction of held-out scenes regenerated exactly from random words."""
    subset = examples if cap is None else examples[:cap]
    if not subset:
        return 0.0
    starts = [make_random_sequence(sch.target_len, vocab, rng, step=sch.T) for _ in subset]
    results = denoise_loop(model, [ex.condition for ex in subset], starts, sch.T)
    hits = sum(final.ids() == list(ex.caption) for ex, (final, _) in zip(subset, results))
    return hits / len(subset)


def train(corpus, sch: NoiseSchedule, cfg: ModelConfig, hyper: TrainConfig,
          log_fn=None) -> tuple[DenoiserModel, list[dict]]:
    """Train on a corpus; deterministic single-threaded under a fixed seed."""
    if not corpus.train:
        raise ModelError("empty training corpus")
    vocab = corpus.vocab
    model = DenoiserModel(cfg)
    params = model.param_list()
    adam = Adam(params, lr=hyper.lr)
    rng = np.random.default_rng(hyper.seed)
    n = len(corpus.train)
    steps_per_epoch = math.ceil(n / hyper.batch)
    total_steps = hyper.epochs * steps_per_epoch
    log: list[dict] = []
    opt_step = 0
    t_start = time.time()
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        edit_sum = lang_sum = 0.0
        for first in range(0, n, hyper.batch):
            ids = order[first:first + hyper.batch]
            batch = [corpus.train[idx] for idx in ids]
            states = [sample_denoising_example(ex.caption, sch, vocab, rng,
                                               hyper.p_terminal, hyper.p_truncate)
                      for ex in batch]
            op_logits, word_logits = model.forward_packed(
                [ex.condition for ex in batch], [x_t.ids() for x_t, _ in states],
                [t for _, t in states])
            loss, l_edit, l_lang = model_loss(
                op_logits, word_logits,
                [align(x_t, ex.caption) for (x_t, _), ex in zip(states, batch)])
            if not np.isfinite(loss.data):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} in the batch of examples {ids.tolist()} "
                    f"(edit={l_edit}, language={l_lang})")
            backward(loss)
            edit_sum += l_edit
            lang_sum += l_lang
            for p in params:
                # a batch with no INSERT/REPLACE targets leaves the
                # language head untouched; treat that as a zero gradient
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
            adam.step(lr=lr_at(opt_step, total_steps, hyper))
            opt_step += 1
        em = holdout_exact_match(model, corpus.val, sch, vocab, rng,
                                 cap=hyper.holdout_cap)
        row = {
            "epoch": epoch,
            "loss_edit": edit_sum / n,
            "loss_language": lang_sum / n,
            "holdout_em": em,
            "elapsed_s": round(time.time() - t_start, 2),
        }
        log.append(row)
        if log_fn is not None:
            log_fn(row)
    return model, log


def save_checkpoint(model: DenoiserModel, path, metadata: dict | None = None) -> None:
    """Little-endian binary: magic, version, config JSON, metadata JSON,
    then named float64 parameter blocks."""
    meta = dict(metadata or {})
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        for blob in (json.dumps(asdict(model.cfg)).encode("utf-8"),
                     json.dumps(meta, sort_keys=True).encode("utf-8")):
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
        f.write(struct.pack("<I", len(model.params)))
        for name, tensor in model.params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", tensor.data.ndim))
            for dim in tensor.data.shape:
                f.write(struct.pack("<I", dim))
            f.write(tensor.data.astype("<f8").tobytes())


def _json_object(blob: bytes, what: str) -> dict:
    try:
        value = json.loads(blob.decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"bad checkpoint {what} JSON: {e}") from None
    if not isinstance(value, dict):
        raise CheckpointError(f"checkpoint {what} must be a JSON object")
    return value


def _config_from(raw: dict) -> ModelConfig:
    # checkpoints written while ModelConfig had a dropout field store
    # "dropout": 0.0, the only value any command set
    dropout = raw.pop("dropout", 0.0)
    if dropout != 0.0:
        raise CheckpointError(f"checkpoint config has dropout {dropout!r}; only 0.0 is supported")
    keys = {f.name for f in fields(ModelConfig)}
    if raw.keys() != keys:
        raise CheckpointError(f"checkpoint config keys: unknown {sorted(raw.keys() - keys)}, "
                              f"missing {sorted(keys - raw.keys())}")
    if any(type(v) is not int for v in raw.values()):
        raise CheckpointError(f"checkpoint config values must be integers: {raw}")
    try:
        return ModelConfig(**raw)
    except ModelError as e:
        raise CheckpointError(f"bad checkpoint config: {e}") from None


def load_checkpoint(path) -> tuple[DenoiserModel, dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    The parameter blocks must be exactly those of the config's parameter
    table, in its order and with its shapes.  A short read, trailing bytes
    or any other mismatch raises ``CheckpointError``.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        pos = 0

        def take(n: int) -> bytes:
            # a corrupt length must not size a read past the end of the file
            nonlocal pos
            data = f.read(n) if n <= size - pos else b""
            if len(data) != n:
                raise CheckpointError(f"checkpoint truncated: {n} bytes wanted at offset {pos}, "
                                      f"{size - pos} left")
            pos += n
            return data

        def u32() -> int:
            return struct.unpack("<I", take(4))[0]

        magic = take(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic: {magic!r}")
        version = u32()
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        cfg = _config_from(_json_object(take(u32()), "config"))
        metadata = _json_object(take(u32()), "metadata")
        table = _param_table(cfg)
        n_blocks = u32()
        if n_blocks != len(table):
            raise CheckpointError(f"{n_blocks} parameter blocks, want {len(table)}")
        arrays = {}
        for name, shape, _ in table:
            got = take(u32())
            ndim = u32()
            if got != name.encode("utf-8") or ndim != len(shape):
                raise CheckpointError(f"parameter block {got!r} of {ndim} dims, "
                                      f"want {name!r} {shape}")
            dims = tuple(u32() for _ in range(ndim))
            if dims != shape:
                raise CheckpointError(f"parameter block {name!r} has shape {dims}, want {shape}")
            arrays[name] = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8"
                                         ).reshape(shape).astype(np.float64)
        if pos != size:
            raise CheckpointError(f"{size - pos} trailing bytes after the parameter blocks")
    model = DenoiserModel.__new__(DenoiserModel)  # skips the random init
    model._hold(cfg, arrays)
    return model, metadata
