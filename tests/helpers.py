"""Tape nodes and scripts that only the tests use.

``mul``, ``sum_all``, ``plain_layer_norm``, ``matmul``, ``transpose``,
``reshape``, ``softmax``, ``scatter_rows`` and ``take_rows`` are primitive
nodes that the model no longer needs.  ``unfused_linear``,
``unfused_layer_norm`` and ``unfused_attention`` compose them into the
reference against which the fused ``autodiff.linear``,
``autodiff.layer_norm`` and ``autodiff.attention`` must agree bit for bit,
and ``all_rows_forward`` into the model's forward with a last layer that
runs every row.

``reference_weighted_ldist`` and ``reference_align`` are the O(mn) dynamic
programs that ``align.weighted_ldist`` and ``align.align`` replaced; the
bit-parallel versions must give equal distances and equal scripts.
"""

import math

import numpy as np

from editdiff import autodiff as ad
from editdiff.autodiff import ShapeError, Tensor, as_tensor
from editdiff.edit_ops import EditOp, EditScript, Origin
from editdiff.model import _Layout as model_layout
from editdiff.vocab import NUM_SPECIALS


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None

    def bwd(g, a=a, b=b):
        a._accum(ad._unbroadcast(g * b.data, a.data.shape))
        b._accum(ad._unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g, a=a):
        a._accum(np.full(a.data.shape, float(g)))

    return Tensor(a.data.sum(), parents=(a,), backward=bwd)


def plain_layer_norm(a) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    a = as_tensor(a)
    mean = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = (a.data - mean) * inv

    def bwd(g, a=a, inv=inv, xhat=xhat):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        a._accum(inv * (g - gm - xhat * gx))

    return Tensor(xhat, parents=(a,), backward=bwd)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    try:
        out_data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from None

    def bwd(g, a=a, b=b):
        a._accum(ad._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        b._accum(ad._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def transpose(a, axes=None) -> Tensor:
    """Permute axes (reverse them by default, as ``np.transpose``)."""
    a = as_tensor(a)
    inverse = None if axes is None else tuple(np.argsort(axes))

    def bwd(g, a=a, inverse=inverse):
        a._accum(np.transpose(g, inverse))

    return Tensor(np.transpose(a.data, axes), parents=(a,), backward=bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def bwd(g, a=a):
        a._accum(g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward=bwd)


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    y = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    y /= y.sum(axis=-1, keepdims=True)

    def bwd(g, a=a, y=y):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a._accum(y * (g - dot))

    return Tensor(y, parents=(a,), backward=bwd)


def scatter_rows(a, ids, n: int) -> Tensor:
    """An ``[n, ...]`` tensor whose row ``ids[i]`` is row i of ``a`` and whose
    other rows are zero.  ``ids`` must be distinct.  ``take_rows`` with the
    same ids undoes it, and each one's backward is the other's forward."""
    a = as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    out = np.zeros((n,) + a.data.shape[1:])
    out[ids] = a.data

    def bwd(g, a=a, ids=ids):
        a._accum(g[ids])

    return Tensor(out, parents=(a,), backward=bwd)


def take_rows(a, ids) -> Tensor:
    """Rows ``ids`` of ``a``, which must be distinct: a gather whose backward
    writes each row's gradient back once instead of adding it."""
    a = as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)

    def bwd(g, a=a, ids=ids):
        buf = np.zeros_like(a.data)
        buf[ids] = g
        a._accum(buf)

    return Tensor(a.data[ids], parents=(a,), backward=bwd)


def unfused_linear(x, w, b) -> Tensor:
    return ad.add(matmul(x, w), b)


def unfused_layer_norm(x, gain, bias) -> Tensor:
    return ad.add(mul(plain_layer_norm(x), gain), bias)


def unfused_attention(q, k, v, q_back, q_len, back, key_bias, heads, scatter=scatter_rows,
                      take=take_rows) -> Tensor:
    """``autodiff.attention`` as a chain of primitive nodes.  ``scatter`` and
    ``take`` place the packed rows into the padded sequences and take them
    back."""
    batch, length = key_bias.shape[0], key_bias.shape[-1]
    d = q.shape[1]
    dh = d // heads

    def heads_of(a, axes, at, n):
        padded = scatter(a, at, batch * n)
        return transpose(reshape(padded, (batch, n, heads, dh)), axes)

    attn = ad.scale(matmul(heads_of(q, (0, 2, 1, 3), q_back, q_len),
                           heads_of(k, (0, 2, 3, 1), back, length)),
                    1.0 / math.sqrt(dh))
    attn = ad.add(attn, Tensor(key_bias))
    attn = matmul(softmax(attn), heads_of(v, (0, 2, 1, 3), back, length))
    return take(reshape(transpose(attn, (0, 2, 1, 3)), (batch * q_len, d)), q_back)


def all_rows_forward(model, conditions, captions, ts) -> tuple[Tensor, Tensor]:
    """``DenoiserModel.forward_packed`` from the unfused nodes, with every
    row, condition rows included, run through every layer, the last one
    too; the START + caption rows are taken only before the final layer
    norm."""
    p = model.params
    cond_lens = np.array([len(c) for c in conditions], dtype=np.int64)
    word_lens = np.array([len(c) + 1 for c in captions], dtype=np.int64)
    x = model._embed(conditions, captions, ts, cond_lens, word_lens)
    layout = model_layout(cond_lens, word_lens)

    def ln(a, pre):
        return unfused_layer_norm(a, p[f"{pre}.g"], p[f"{pre}.b"])

    def lin(a, pre, w="w", b="b"):
        return unfused_linear(a, p[f"{pre}.{w}"], p[f"{pre}.{b}"])

    for i in range(model.cfg.num_layers):
        h = ln(x, f"layers.{i}.ln1")
        pre = f"layers.{i}.attn"
        q, k, v = (lin(h, pre, f"w{w}", f"b{w}") for w in "qkv")
        attn = unfused_attention(q, k, v, *layout.all_queries, layout.back, layout.key_bias,
                                 model.cfg.num_heads)
        x = ad.add(x, lin(attn, pre, "wo", "bo"))
        pre = f"layers.{i}.ffn"
        x = ad.add(x, lin(ad.silu(lin(ln(x, f"layers.{i}.ln2"), pre, "w1", "b1")),
                          pre, "w2", "b2"))
    rows = ln(take_rows(x, layout.word_rows), "ln_f")
    op_mask = np.zeros((rows.shape[0], 4))
    starts = np.cumsum(word_lens) - word_lens
    op_mask[starts, int(EditOp.REPLACE)] = op_mask[starts, int(EditOp.DELETE)] = -1e9
    word_mask = np.zeros((1, model.cfg.vocab_size))
    word_mask[0, :NUM_SPECIALS] = -1e9
    return (ad.add(lin(rows, "edit_head"), Tensor(op_mask)),
            ad.add(lin(rows, "lang_head"), Tensor(word_mask)))


def all_keep_script(caption_len: int) -> EditScript:
    return EditScript(tuple((EditOp.KEEP, None) for _ in range(caption_len + 1)))


def reference_weighted_ldist(a, b) -> int:
    """Row-by-row DP: INSERT and DELETE cost 1, REPLACE 2, KEEP 0."""
    a = list(a)
    b = list(b)
    m, n = len(a), len(b)
    prev = list(range(0, n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        ai = a[i - 1]
        for j in range(1, n + 1):
            diag = prev[j - 1] + (0 if ai == b[j - 1] else 2)
            cur[j] = min(diag, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[n]


def reference_backtrace(a, b, eligible=None):
    """Full suffix-cost table, then one walk from the front that prefers
    KEEP, REPLACE, INSERT, DELETE; returns per-position ops and the words
    inserted into each gap."""
    m, n = len(a), len(b)
    if eligible is None:
        eligible = [True] * m

    def match(i: int, j: int) -> bool:
        return eligible[i - 1] and a[i - 1] == b[j - 1]

    cost = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        cost[i][n] = m - i
    for j in range(n + 1):
        cost[m][j] = n - j
    for i in range(m - 1, -1, -1):
        for j in range(n - 1, -1, -1):
            diag = cost[i + 1][j + 1] + (0 if match(i + 1, j + 1) else 2)
            cost[i][j] = min(diag, cost[i + 1][j] + 1, cost[i][j + 1] + 1)

    ops: dict[int, tuple[EditOp, object]] = {}
    gaps: dict[int, list] = {i: [] for i in range(m + 1)}
    i = j = 0
    while i < m or j < n:
        here = cost[i][j]
        if i < m and j < n and match(i + 1, j + 1) and here == cost[i + 1][j + 1]:
            ops[i + 1] = (EditOp.KEEP, None)
            i, j = i + 1, j + 1
        elif i < m and j < n and here == cost[i + 1][j + 1] + 2:
            ops[i + 1] = (EditOp.REPLACE, b[j])
            i, j = i + 1, j + 1
        elif j < n and here == cost[i][j + 1] + 1:
            gaps[i].append(b[j])
            j += 1
        else:
            ops[i + 1] = (EditOp.DELETE, None)
            i += 1
    return ops, gaps


def reference_align(x_t, x_0) -> EditScript:
    """Slots from ``reference_backtrace``: a gap after a KEEP becomes an
    INSERT of its first word, and a REPLACE by the word already there is a
    KEEP."""
    a = x_t.ids()
    b = list(x_0)
    eligible = [tok.origin is Origin.ORIGINAL for tok in x_t.tokens]
    ops, gaps = reference_backtrace(a, b, eligible)
    slots = [(EditOp.INSERT, gaps[0][0]) if gaps[0] else (EditOp.KEEP, None)]
    for pos in range(1, len(a) + 1):
        op, content = ops[pos]
        if op is EditOp.REPLACE and content == a[pos - 1]:
            op, content = EditOp.KEEP, None
        if op is EditOp.KEEP and gaps[pos]:
            slots.append((EditOp.INSERT, gaps[pos][0]))
        else:
            slots.append((op, content))
    return EditScript(tuple(slots))
