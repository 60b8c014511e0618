"""Tape nodes and scripts that only the tests use.

``mul``, ``sum_all`` and ``plain_layer_norm`` are the elementwise product,
the full sum and the no-affine layer norm that the model no longer needs.
``unfused_linear`` and ``unfused_layer_norm`` compose them into the
reference against which the fused ``autodiff.linear`` and
``autodiff.layer_norm`` must agree bit for bit.
"""

import numpy as np

from editdiff import autodiff as ad
from editdiff.autodiff import ShapeError, Tensor, as_tensor
from editdiff.edit_ops import EditOp, EditScript


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


def plain_layer_norm(a, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    a = as_tensor(a)
    mean = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mean) * inv

    def bwd(g, a=a, inv=inv, xhat=xhat):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        a._accum(inv * (g - gm - xhat * gx))

    return Tensor(xhat, parents=(a,), backward=bwd)


def unfused_linear(x, w, b) -> Tensor:
    return ad.add(ad.matmul(x, w), b)


def unfused_layer_norm(x, gain, bias) -> Tensor:
    return ad.add(mul(plain_layer_norm(x), gain), bias)


def all_keep_script(caption_len: int) -> EditScript:
    return EditScript(tuple((EditOp.KEEP, None) for _ in range(caption_len + 1)))
