"""Small reverse-mode autodiff over float64 numpy buffers, plus Adam.

A dynamic tape is rebuilt on every forward pass.  Backward consumes it in a
fixed topological order, so single-threaded runs are bit-reproducible: each
node drops its parents and its backward closure as soon as it has passed its
gradient on, so the graph is freed while backward runs and a graph can be
differentiated only once.  Tensors the caller still holds keep their
``.grad``.  Inside ``no_grad()`` no tape is built at all.  Only the
primitives the denoiser needs are implemented; shapes are checked eagerly
and errors name the offending op.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    pass


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no tape inside the block: results keep no parents and no backward
    closure and do not require grad.  The previous mode is restored on exit,
    also when the block raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if not _grad_enabled:
            parents, backward = (), None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.grad is not None else 'no'})"

    def _accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __getitem__(self, key):
        out_data = self.data[key]

        def bwd(g, x=self, k=key, shape=self.data.shape):
            buf = np.zeros(shape)
            buf[k] += g
            x._accum(buf)

        return Tensor(out_data, parents=(self,), backward=bwd)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def bwd(g, a=a, b=b):
        a._accum(_unbroadcast(g, a.data.shape))
        b._accum(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None

    def bwd(g, a=a, b=b):
        a._accum(_unbroadcast(g * b.data, a.data.shape))
        b._accum(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def scale(a, factor: float) -> Tensor:
    a = as_tensor(a)

    def bwd(g, a=a, f=factor):
        a._accum(g * f)

    return Tensor(a.data * factor, parents=(a,), backward=bwd)


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
        a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

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


def silu(a) -> Tensor:
    """x * sigmoid(x); smooth, so finite-difference checks stay clean."""
    a = as_tensor(a)
    # computed in one buffer; with no tape, sig is not kept for backward
    # and the buffer takes the output too
    sig = np.negative(a.data)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    out_data = np.multiply(a.data, sig, out=None if _grad_enabled else sig)

    def bwd(g, a=a, sig=sig):
        a._accum(g * sig * (1.0 + a.data * (1.0 - sig)))

    return Tensor(out_data, parents=(a,), backward=bwd)


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    y = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    y /= y.sum(axis=-1, keepdims=True)

    def bwd(g, a=a, y=y):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a._accum(y * (g - dot))

    return Tensor(y, parents=(a,), backward=bwd)


def layer_norm(a, eps: float = 1e-5) -> Tensor:
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


def gather(table, ids) -> Tensor:
    """Rows of ``table`` (along its first axis) selected by an integer array of
    any shape; the result has shape ``ids.shape + table.shape[1:]``."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim < 1:
        raise ShapeError("gather: cannot select rows of a scalar")

    def bwd(g, t=table, ids=ids):
        buf = np.zeros_like(t.data)
        np.add.at(buf, ids, g)
        t._accum(buf)

    return Tensor(table.data[ids], parents=(table,), backward=bwd)


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


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g, ts=tensors, sizes=sizes, axis=axis):
        offset = 0
        for t, size in zip(ts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + size)
            t._accum(g[tuple(idx)])
            offset += size

    return Tensor(out_data, parents=tuple(tensors), backward=bwd)


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g, a=a):
        a._accum(np.full(a.data.shape, float(g)))

    return Tensor(a.data.sum(), parents=(a,), backward=bwd)


def cross_entropy(logits, targets, mask=None, example=None) -> Tensor:
    """Mean cross-entropy over rows, optionally restricted by a boolean mask.

    ``example`` gives each row's example index in a packed batch; the result
    is then the sum over examples of each example's masked mean, and an
    example with no unmasked rows contributes nothing.  Without it all rows
    form one example.  Masked-out rows contribute nothing to the value and
    receive exactly zero gradient.  An all-false mask yields a constant 0.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-D, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    rows = logits.data.shape[0]
    if targets.shape != (rows,):
        raise ShapeError(f"cross_entropy: {rows} logit rows vs targets {targets.shape}")
    mask = np.ones(rows, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    example = np.zeros(rows, dtype=np.int64) if example is None else np.asarray(example, np.int64)
    if example.shape != (rows,):
        raise ShapeError(f"cross_entropy: {rows} logit rows vs example ids {example.shape}")
    counts = np.bincount(example, weights=mask)
    if not counts.any():
        return Tensor(0.0)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.data.max(axis=-1)
    picked = logits.data[np.arange(rows), targets]
    losses = (lse - picked) * mask
    # each example's rows are summed on their own, so one example gives
    # exactly the plain masked mean
    value = sum(losses[example == b].sum() / count for b, count in enumerate(counts) if count)
    weights = mask / np.maximum(counts, 1.0)[example]

    def bwd(g, logits=logits, targets=targets, weights=weights):
        p = np.exp(logits.data - logits.data.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(len(targets)), targets] -= 1.0
        p *= weights[:, None]
        logits._accum(p * float(g))

    return Tensor(value, parents=(logits,), backward=bwd)


# stands in for the backward closure of a node that backward has consumed
_CONSUMED = object()


def backward(loss: Tensor) -> None:
    """Populate .grad on every parameter reachable from a scalar loss.

    The graph is consumed on the way: after a node has passed its gradient
    to its parents it lets go of them and of its backward closure, so each
    intermediate buffer is freed once nothing else holds it.  A second
    backward through the same graph raises ``ValueError``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        if node._backward is _CONSUMED:
            raise ValueError("backward: the graph was already consumed by an earlier backward")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    loss._accum(np.ones_like(loss.data))
    while order:
        node = order.pop()
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node._parents, node._backward = (), _CONSUMED


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def grad_check(f, params, eps: float = 1e-5, order: int = 2) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a zero-argument callable running a fresh forward pass that
    returns a scalar Tensor depending on ``params``.  ``order=4`` selects a
    five-point central stencil, which tolerates a larger ``eps`` and keeps
    the difference quotient above the float64 noise floor when some
    gradients are very small (as in whole-model checks).
    """
    if order not in (2, 4):
        raise ValueError("grad_check supports order 2 or 4 only")
    zero_grads(params)
    backward(f())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        ga_flat = ga.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]

            def at(delta):
                flat[idx] = keep + delta
                return float(f().data)

            if order == 2:
                gn = (at(eps) - at(-eps)) / (2 * eps)
            else:
                gn = (-at(2 * eps) + 8 * at(eps) - 8 * at(-eps) + at(-2 * eps)) / (12 * eps)
            flat[idx] = keep
            err = abs(ga_flat[idx] - gn) / max(1e-8, abs(ga_flat[idx]) + abs(gn))
            worst = max(worst, err)
    zero_grads(params)
    return worst


class Adam:
    """Standard Adam with bias correction; grads are cleared after a step.

    The update runs in place, through one scratch pair sized to the largest
    parameter block.
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = np.empty((2, max((p.data.size for p in self.params), default=0)))

    def step(self, lr: float | None = None) -> None:
        if any(p.grad is None for p in self.params):
            raise ValueError("adam_step: gradients missing on some parameters")
        lr = self.lr if lr is None else lr
        self.step_count += 1
        bc1 = 1 - self.beta1 ** self.step_count
        bc2 = 1 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            # the operations and their order are those of
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            s, r = (buf[:p.data.size].reshape(p.data.shape) for buf in self._scratch)
            m *= self.beta1
            m += np.multiply(p.grad, 1 - self.beta1, out=s)
            v *= self.beta2
            np.square(p.grad, out=s)
            v += np.multiply(s, 1 - self.beta2, out=s)
            np.divide(m, bc1, out=s)
            s *= lr
            np.divide(v, bc2, out=r)
            np.sqrt(r, out=r)
            r += self.eps
            s /= r
            p.data -= s
        zero_grads(self.params)
