import math

import numpy as np
import pytest

from editdiff import autodiff as ad
from editdiff.autodiff import Adam, ShapeError, Tensor, backward, grad_check, zero_grads
from helpers import (matmul, mul, reshape, scatter_rows, softmax, sum_all, take_rows,
                     transpose, unfused_attention, unfused_layer_norm, unfused_linear)


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_add_broadcast_gradients():
    a = leaf(np.ones((3, 4)))
    b = leaf(np.ones(4))
    loss = sum_all(ad.add(a, b))
    backward(loss)
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_mul_gradients():
    a = leaf([2.0, 3.0])
    b = leaf([5.0, 7.0])
    backward(sum_all(mul(a, b)))
    assert np.array_equal(a.grad, [5.0, 7.0])
    assert np.array_equal(b.grad, [2.0, 3.0])


def test_matmul_gradients_and_shape_check():
    a = leaf(np.arange(6, dtype=float).reshape(2, 3))
    b = leaf(np.arange(12, dtype=float).reshape(3, 4))
    backward(sum_all(matmul(a, b)))
    g = np.ones((2, 4))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)
    with pytest.raises(ShapeError):
        matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 3))))


def test_shared_node_accumulates_grad():
    a = leaf([1.0, 2.0])
    y = ad.add(mul(a, a), a)  # a^2 + a -> dy/da = 2a + 1
    backward(sum_all(y))
    assert np.allclose(a.grad, 2 * a.data + 1)


def test_softmax_rows_sum_to_one_and_grad_is_zero_mean():
    x = leaf(np.random.default_rng(0).normal(size=(3, 5)))
    y = softmax(x)
    assert np.allclose(y.data.sum(axis=-1), 1.0)
    backward(sum_all(mul(y, Tensor(np.eye(3, 5)))))
    assert np.allclose(x.grad.sum(axis=-1), 0.0, atol=1e-12)


def test_layer_norm_output_moments():
    x = leaf(np.random.default_rng(1).normal(2.0, 3.0, size=(4, 16)))
    y = ad.layer_norm(x, leaf(np.ones(16)), leaf(np.zeros(16)))
    assert np.allclose(y.data.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(y.data.var(axis=-1), 1.0, atol=1e-3)


def test_gather_routes_gradients_to_rows():
    table = leaf(np.zeros((5, 3)))
    out = ad.gather(table, np.array([1, 1, 4]))
    backward(sum_all(out))
    expect = np.zeros((5, 3))
    expect[1] = 2.0
    expect[4] = 1.0
    assert np.array_equal(table.grad, expect)


def test_silu_values():
    x = leaf([-2.0, 0.0, 3.0])
    s = ad.silu(x).data
    assert s[1] == 0.0 and s[2] > 0.0 and -0.5 < s[0] < 0.0


def test_concat_and_slice_round_trip():
    a = leaf(np.ones((2, 3)))
    b = leaf(np.full((1, 3), 2.0))
    y = ad.concat([a, b])
    assert np.array_equal(y.data, [[1.0] * 3, [1.0] * 3, [2.0] * 3])
    backward(sum_all(ad.gather(y, [2])))
    assert np.array_equal(a.grad, np.zeros((2, 3)))
    assert np.array_equal(b.grad, np.ones((1, 3)))


def test_cross_entropy_perfect_prediction_is_zero():
    logits = leaf(np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]]))
    loss = ad.cross_entropy(logits, np.array([0, 1]))
    assert float(loss.data) < 1e-10


def test_cross_entropy_masked_rows_get_zero_gradient():
    logits = leaf(np.random.default_rng(2).normal(size=(4, 6)))
    mask = np.array([True, False, True, False])
    loss = ad.cross_entropy(logits, np.array([1, 2, 3, 4]), mask)
    backward(loss)
    assert np.array_equal(logits.grad[1], np.zeros(6))
    assert np.array_equal(logits.grad[3], np.zeros(6))
    assert not np.allclose(logits.grad[0], 0.0)


def test_cross_entropy_all_false_mask_is_constant_zero():
    logits = leaf(np.ones((2, 3)))
    loss = ad.cross_entropy(logits, np.array([0, 1]), np.zeros(2, dtype=bool))
    assert float(loss.data) == 0.0
    # constant in the logits, yet a node: the logits, and whatever lies
    # behind them, get an all-zero gradient
    assert loss._parents == (logits,)
    backward(loss)
    assert np.array_equal(logits.grad, np.zeros((2, 3)))


def test_cross_entropy_matches_manual_value():
    logits = leaf(np.array([[1.0, 2.0, 3.0]]))
    loss = ad.cross_entropy(logits, np.array([2]))
    z = np.exp([1.0, 2.0, 3.0])
    assert float(loss.data) == pytest.approx(-np.log(z[2] / z.sum()))


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        backward(leaf(np.ones(3)))


def test_grad_check_small_mlp():
    rng = np.random.default_rng(3)
    w1 = leaf(rng.normal(size=(4, 8)))
    w2 = leaf(rng.normal(size=(8, 2)))
    x = Tensor(rng.normal(size=(3, 4)))

    def f():
        h = ad.silu(matmul(x, w1))
        return ad.cross_entropy(matmul(h, w2), np.array([0, 1, 0]))

    assert grad_check(f, [w1, w2], eps=1e-5) < 1e-6


def test_grad_check_rejects_bad_order():
    with pytest.raises(ValueError):
        grad_check(lambda: sum_all(leaf([1.0])), [], order=3)


def test_adam_converges_on_quadratic():
    target = np.array([3.0, -2.0, 0.5])
    p = leaf(np.zeros(3))
    adam = Adam([p])
    for _ in range(300):
        diff = ad.add(p, Tensor(-target))
        backward(sum_all(mul(diff, diff)))
        adam.step(0.1)
    assert np.allclose(p.data, target, atol=1e-3)


def test_adam_requires_grads():
    p = leaf(np.zeros(3))
    with pytest.raises(ValueError):
        Adam([p]).step(1e-3)


def test_adam_clears_grads_after_step():
    p = leaf(np.zeros(3))
    backward(sum_all(mul(p, p)))
    Adam([p]).step(1e-3)
    assert p.grad is None


def test_zero_grads():
    p = leaf(np.ones(2))
    backward(sum_all(p))
    assert p.grad is not None
    zero_grads([p])
    assert p.grad is None


def test_batched_matmul_transpose_reshape_gather_gradients():
    # the attention path of the packed forward: gather rows into padded
    # sequences, split heads, batched products, merge and gather back
    rng = np.random.default_rng(6)
    x = leaf(rng.normal(size=(5, 4)))
    w = leaf(rng.normal(size=(4, 4)))
    seq = np.array([[0, 1, 2], [3, 4, 0]])
    back = np.array([0, 1, 2, 3, 4])
    weights = Tensor(rng.normal(size=(5, 4)))

    def f():
        h = ad.gather(matmul(x, w), seq)  # [2, 3, 4]
        heads = transpose(reshape(h, (2, 3, 2, 2)), (0, 2, 1, 3))  # [2, 2, 3, 2]
        scores = softmax(matmul(heads, transpose(heads, (0, 1, 3, 2))))
        mixed = matmul(scores, heads)
        merged = reshape(transpose(mixed, (0, 2, 1, 3)), (6, 4))
        out = ad.gather(merged, back)
        return sum_all(mul(out, weights))

    assert grad_check(f, [x, w], eps=1e-5) < 1e-6


def test_batched_matmul_broadcasts_and_checks_shapes():
    a = leaf(np.ones((2, 3, 4)))
    b = leaf(np.arange(20, dtype=float).reshape(4, 5))
    out = matmul(a, b)
    assert out.shape == (2, 3, 5)
    backward(sum_all(out))
    assert b.grad.shape == (4, 5)
    assert np.array_equal(b.grad, np.full((4, 5), 6.0))
    with pytest.raises(ShapeError):
        matmul(leaf(np.ones((2, 3, 4))), leaf(np.ones((3, 4, 5))))
    with pytest.raises(ShapeError):
        matmul(leaf(np.ones(3)), leaf(np.ones((3, 2))))


def test_gather_nd_ids_route_gradients():
    table = leaf(np.arange(6, dtype=float).reshape(3, 2))
    ids = np.array([[2, 0], [2, 2]])
    out = ad.gather(table, ids)
    assert out.shape == (2, 2, 2)
    assert np.array_equal(out.data[1, 0], [4.0, 5.0])
    backward(sum_all(out))
    assert np.array_equal(table.grad[:, 0], [1.0, 0.0, 3.0])


@pytest.mark.parametrize("ids", [[3, 0, 5], [4, 1, 4, 4, 0, 1], [[2, 2], [0, 6]], [6]])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gather_backward_is_the_scatter_add_of_np_add_at(ids, dtype):
    # distinct ids are scattered, repeated ones summed by a one-hot product;
    # both give np.add.at's sums, for tables of one, two and three axes
    rng = np.random.default_rng(len(ids))
    for shape in ((7,), (7, 3), (7, 2, 3)):
        table = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
        weights = rng.normal(size=np.shape(ids) + shape[1:]).astype(dtype)
        backward(sum_all(mul(ad.gather(table, ids), Tensor(weights))))
        expect = np.zeros(shape, dtype=dtype)
        np.add.at(expect, np.asarray(ids), weights)
        assert table.grad.dtype == dtype
        np.testing.assert_allclose(table.grad, expect, rtol=1e-6 if dtype == np.float32 else 1e-15)


def test_no_grad_builds_no_tape():
    # a node is recorded exactly when one of its inputs requires grad
    const = Tensor([1.0, 2.0])
    y = sum_all(mul(ad.add(const, const), const))
    assert not y.requires_grad
    assert y._parents == () and y._backward is None
    assert float(y.data) == 10.0
    a = leaf([1.0, 2.0])
    z = mul(a, const)
    assert z.requires_grad and z._parents == (a, const) and z._backward is not None
    backward(sum_all(z))
    assert np.array_equal(a.grad, const.data) and const.grad is None


def test_a_node_takes_its_operands_dtype():
    rng = np.random.default_rng(21)
    narrow = rng.normal(size=(5, 6)).astype(np.float32)
    assert Tensor(narrow).data.dtype == np.float32
    assert Tensor(narrow, requires_grad=True).data.dtype == np.float32
    assert Tensor(narrow.astype(np.float64)).data.dtype == np.float64
    assert Tensor(3).data.dtype == np.float64
    (q, k, v), back, key_bias = _ragged_attention_inputs(rng)
    wide = ad.attention(q, k, v, back, 3, back, key_bias, 2)

    def chain(requires_grad):
        """The nodes of the model's forward in one chain, on float32 leaves."""
        q32, k32, v32, gain, bias, w, b = (Tensor(a, requires_grad=requires_grad) for a in (
            *(t.data.astype(np.float32) for t in (q, k, v)),
            narrow[0], narrow[1], narrow.T[:, :4].copy(), narrow[2, :4]))
        out = ad.attention(q32, k32, v32, back, 3, back, key_bias, 2)
        h = ad.layer_norm(ad.silu(ad.add(out, ad.scale(q32, 0.5))), gain, bias)
        rows = ad.concat([ad.gather(h, [0, 2]), ad.gather(h, [1, 3, 1])])
        y = ad.linear(rows, w, b)
        return out, y, (q32, k32, v32, gain, bias, w, b)

    out, y, _ = chain(requires_grad=False)
    assert out.data.dtype == y.data.dtype == np.float32
    assert not y.requires_grad and y._parents == ()
    np.testing.assert_allclose(out.data, wide.data, rtol=1e-5, atol=1e-6)
    # float32 leaves that require grad build a float32 tape, down to the
    # gradients of the leaves; only the loss, a mean over float64 counts,
    # is float64
    out, y, leaves = chain(requires_grad=True)
    assert out.data.dtype == y.data.dtype == np.float32 and y.requires_grad
    loss = ad.cross_entropy(y, [0, 1, 2, 3, 0])
    assert loss.data.dtype == np.float64
    backward(loss)
    assert all(t.grad.dtype == np.float32 for t in leaves)
    # numpy promotion: any float64 operand makes the node float64
    mixed = ad.add(Tensor(narrow), leaf(np.zeros(6)))
    assert mixed.requires_grad and mixed.data.dtype == np.float64
    assert ad.silu(Tensor(narrow, requires_grad=True)).data.dtype == np.float32


def test_scatter_rows_and_take_rows_undo_each_other():
    rng = np.random.default_rng(8)
    x = leaf(rng.normal(size=(4, 3)))
    ids = np.array([5, 0, 2, 3])
    padded = scatter_rows(x, ids, 6)
    assert np.array_equal(padded.data[ids], x.data)
    assert np.array_equal(padded.data[[1, 4]], np.zeros((2, 3)))
    assert np.array_equal(take_rows(padded, ids).data, x.data)
    mix = Tensor(rng.normal(size=(6, 6)))
    weights = Tensor(rng.normal(size=(6, 3)))

    def f():
        mixed = matmul(mix, scatter_rows(x, ids, 6))
        return sum_all(mul(take_rows(mul(mixed, weights), ids[::-1]), x))

    assert grad_check(f, [x], eps=1e-5) < 1e-6


def test_cross_entropy_sums_the_mean_of_each_example():
    rng = np.random.default_rng(9)
    logits = leaf(rng.normal(size=(7, 5)))
    targets = np.array([0, 1, 2, 3, 4, 0, 1])
    mask = np.array([True, False, True, False, False, True, True])
    example = np.array([0, 0, 0, 1, 1, 2, 2])  # example 1 has no unmasked rows
    loss = ad.cross_entropy(logits, targets, mask, example)
    parts = [ad.cross_entropy(Tensor(logits.data[rows]), targets[rows], mask[rows])
             for rows in (slice(0, 3), slice(5, 7))]
    assert float(loss.data) == pytest.approx(sum(float(p.data) for p in parts), abs=1e-12)
    backward(loss)
    assert np.array_equal(logits.grad[[1, 3, 4]], np.zeros((3, 5)))
    assert np.allclose(logits.grad[[0, 2]].sum(axis=1), 0.0, atol=1e-12)
    assert grad_check(lambda: ad.cross_entropy(logits, targets, mask, example), [logits]) < 1e-6
    with pytest.raises(ShapeError):
        ad.cross_entropy(logits, targets, mask, example[:-1])


def test_backward_consumes_the_tape():
    w = leaf([1.0, -2.0, 0.5])
    h = ad.silu(mul(w, w))
    loss = sum_all(mul(h, h))
    backward(loss)
    # tensors the caller holds keep their gradients; the graph is gone
    assert w.grad is not None and h.grad is not None and loss.grad is not None
    assert h._parents == () and loss._parents == ()
    with pytest.raises(ValueError):
        backward(loss)
    with pytest.raises(ValueError):
        backward(sum_all(h))  # a new loss on top of a consumed node
    # a fresh graph over the same leaves differentiates as before
    grad = w.grad.copy()
    zero_grads([w])
    backward(sum_all(mul(ad.silu(mul(w, w)), ad.silu(mul(w, w)))))
    assert np.array_equal(w.grad, grad)


def test_adam_in_place_matches_the_textbook_update():
    # in the params' own dtype: python-float coefficients keep float32
    # arithmetic float32, and the moments keep the params' dtype
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(10)
        shapes = [(7, 5), (5,), (300,)]
        params = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
        ref = [p.data.copy() for p in params]
        m = [np.zeros(s, dtype) for s in shapes]
        v = [np.zeros(s, dtype) for s in shapes]
        adam = Adam(params)
        b1, b2, eps = Adam.BETA1, Adam.BETA2, Adam.EPS
        for step in range(1, 6):
            lr = 1e-2 * step
            for k, p in enumerate(params):
                g = rng.normal(size=shapes[k]).astype(dtype)
                p.grad = g.copy()
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g ** 2
                step_size = lr * math.sqrt(1 - b2 ** step) / (1 - b1 ** step)
                eps_hat = eps * math.sqrt(1 - b2 ** step)
                ref[k] = ref[k] - step_size * (m[k] / (np.sqrt(v[k]) + eps_hat))
            adam.step(lr=lr)
        for p, r in zip(params, ref):
            assert p.data.dtype == r.dtype == dtype
            assert np.array_equal(p.data, r)
        assert all(mv.dtype == dtype for mv in adam.m + adam.v)


def test_adam_efficient_form_stays_within_1e12_of_the_standard_form():
    # Kingma & Ba's two forms of the bias-corrected update are equal in exact
    # arithmetic; over 20 steps on the same gradients they part by rounding
    rng = np.random.default_rng(15)
    shapes = [(40, 30), (30,), (500,)]
    params = [leaf(rng.normal(size=s)) for s in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    adam = Adam(params)
    b1, b2, eps = Adam.BETA1, Adam.BETA2, Adam.EPS
    for step in range(1, 21):
        lr = 1e-3 * min(step, 10)
        for k, p in enumerate(params):
            g = rng.normal(size=shapes[k]) * 10.0 ** rng.integers(-4, 2)
            p.grad = g.copy()
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g ** 2
            ref[k] = ref[k] - lr * (m[k] / (1 - b1 ** step)) / (
                np.sqrt(v[k] / (1 - b2 ** step)) + eps)
        adam.step(lr=lr)
    worst = max(np.abs(p.data - r).max() for p, r in zip(params, ref))
    assert 0 < worst <= 1e-12


def test_first_gradient_is_kept_and_a_shared_one_is_not_written_into():
    a, b = leaf([1.0, 2.0]), leaf([3.0, 4.0])
    backward(sum_all(ad.add(a, b)))
    assert a.grad is b.grad  # the one g that add hands to both parents
    zero_grads([a, b])
    c, d = Tensor([5.0, 7.0]), Tensor([11.0, 13.0])
    # add(a, b) runs its backward first and hands a and b one buffer; b's
    # second gradient, from mul(b, d), must not reach a
    backward(sum_all(ad.add(mul(ad.add(a, b), c), mul(b, d))))
    assert np.array_equal(a.grad, [5.0, 7.0])
    assert np.array_equal(b.grad, [16.0, 20.0])
    w = leaf([1.0, 2.0])
    backward(sum_all(ad.add(ad.add(mul(w, w), w), w)))  # three gradients into w
    assert np.array_equal(w.grad, [4.0, 6.0])


def test_gradient_of_the_wrong_shape_is_rejected():
    a = leaf(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        a._accum(np.ones(3))
    bad = Tensor(a.data.sum(), parents=(a,), backward=lambda g: a._accum(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        backward(bad)


def _fused_against_unfused(fused, unfused, inputs, weights):
    """Values and every gradient of ``sum(weights * op(*inputs))``."""
    results = []
    for op in (fused, unfused):
        zero_grads(inputs)
        out = op(*inputs)
        backward(sum_all(mul(out, weights)))
        results.append([out.data] + [p.grad for p in inputs])
    zero_grads(inputs)
    return results


def test_linear_is_matmul_plus_bias_bit_for_bit():
    rng = np.random.default_rng(11)
    inputs = [leaf(rng.normal(size=(7, 5))), leaf(rng.normal(size=(5, 3))),
              leaf(rng.normal(size=3))]
    weights = Tensor(rng.normal(size=(7, 3)))
    fused, unfused = _fused_against_unfused(ad.linear, unfused_linear, inputs, weights)
    assert all(np.array_equal(f, u) for f, u in zip(fused, unfused))
    assert grad_check(lambda: sum_all(mul(ad.linear(*inputs), weights)), inputs) < 1e-6
    with pytest.raises(ShapeError):
        ad.linear(inputs[0], inputs[1], leaf(np.zeros(5)))
    with pytest.raises(ShapeError):
        ad.linear(leaf(np.zeros((2, 7, 5))), inputs[1], inputs[2])


def test_affine_layer_norm_is_norm_times_gain_plus_bias_bit_for_bit():
    rng = np.random.default_rng(12)
    inputs = [leaf(rng.normal(1.0, 2.0, size=(6, 8))), leaf(rng.normal(1.0, 0.5, size=8)),
              leaf(rng.normal(size=8))]
    weights = Tensor(rng.normal(size=(6, 8)))
    fused, unfused = _fused_against_unfused(ad.layer_norm, unfused_layer_norm, inputs, weights)
    assert all(np.array_equal(f, u) for f, u in zip(fused, unfused))
    assert grad_check(lambda: sum_all(mul(ad.layer_norm(*inputs), weights)), inputs) < 1e-6
    with pytest.raises(ShapeError):
        ad.layer_norm(inputs[0], leaf(np.ones(6)), inputs[2])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_gives_the_bits_of_the_np_var_formula(dtype):
    # rows far from zero mean and wide enough for pairwise summation; the
    # node centres once and must still round exactly as np.var does
    rng = np.random.default_rng(17)
    for shape in ((5, 8), (40, 128), (3, 700)):
        x = rng.normal(rng.normal(0.0, 30.0, size=(shape[0], 1)), 2.0, size=shape).astype(dtype)
        gain, bias = (rng.normal(size=shape[1]).astype(dtype) for _ in range(2))
        mean = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
        want = (x - mean) * inv * gain + bias
        for requires_grad in (False, True):
            got = ad.layer_norm(Tensor(x, requires_grad=requires_grad), gain, bias)
            assert got.data.dtype == dtype and np.array_equal(got.data, want)


def out_of_place_attention(q, k, v, q_back, q_len, back, key_bias, heads):
    """The attention forward with every softmax step out of place."""
    batch, length, d = key_bias.shape[0], key_bias.shape[3], q.shape[1]
    dh = d // heads

    def heads_of(rows, axes, at, n):
        padded = np.zeros((batch * n, d), dtype=q.dtype)
        padded[at] = rows
        return np.transpose(padded.reshape((batch, n, heads, dh)), axes)

    scores = ((heads_of(q, (0, 2, 1, 3), q_back, q_len) @ heads_of(k, (0, 2, 3, 1), back, length))
              * (1.0 / math.sqrt(dh)) + key_bias.astype(q.dtype))
    y = np.exp(scores - scores.max(axis=-1, keepdims=True))
    y = y / y.sum(axis=-1, keepdims=True)
    out = y @ heads_of(v, (0, 2, 1, 3), back, length)
    return np.transpose(out, (0, 2, 1, 3)).reshape((batch * q_len, d))[q_back]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_gives_the_bits_of_an_out_of_place_softmax(dtype):
    rng = np.random.default_rng(18)
    for batch, heads in ((1, 1), (3, 2), (9, 4)):
        lens = rng.integers(1, 12, size=batch)
        length = int(lens.max())
        back = np.concatenate([b * length + np.arange(n) for b, n in enumerate(lens)])
        key_bias = np.where(np.arange(length) < lens[:, None], 0.0, -1e9)[:, None, None, :]
        q, k, v = (rng.normal(0.0, 3.0, size=(len(back), 16)).astype(dtype) for _ in range(3))
        want = out_of_place_attention(q, k, v, back, length, back, key_bias, heads)
        for requires_grad in (False, True):
            got = ad.attention(Tensor(q, requires_grad=requires_grad), k, v, back, length, back,
                               key_bias, heads)
            assert got.data.dtype == dtype and np.array_equal(got.data, want)


def _ragged_attention_inputs(rng, d=6):
    # two sequences of 3 and 2 rows padded to length 3; the packed rows are
    # out of sequence order and flat position 5 is padding
    inputs = [leaf(rng.normal(size=(5, d))) for _ in range(3)]
    back = np.array([3, 0, 4, 1, 2])
    key_bias = np.zeros((2, 1, 1, 3))
    key_bias[1, ..., 2] = -1e9
    return inputs, back, key_bias


# three query rows of their own, out of order in a [2, 2] grid: two for the
# first sequence, one for the second, and flat position 3 is padding
QUERY_BACK = np.array([2, 0, 1])


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_attention_is_the_padded_composition_bit_for_bit(heads):
    rng = np.random.default_rng(13)
    keys, back, key_bias = _ragged_attention_inputs(rng)
    # the queries are the keys' own rows, then three rows of their own
    for inputs, queries in ((keys, (back, 3)),
                            ([leaf(rng.normal(size=(3, 6)))] + keys[1:], (QUERY_BACK, 2))):
        weights = Tensor(rng.normal(size=inputs[0].shape))

        def fused(q, k, v):
            return ad.attention(q, k, v, *queries, back, key_bias, heads)

        def unfused(q, k, v):
            return unfused_attention(q, k, v, *queries, back, key_bias, heads)

        got, want = _fused_against_unfused(fused, unfused, inputs, weights)
        assert len(got) == 4 and all(np.array_equal(f, u) for f, u in zip(got, want))
        assert all(np.abs(g).sum() > 0 for g in got[1:])
        assert grad_check(lambda: sum_all(mul(fused(*inputs), weights)), inputs) < 1e-6


def test_attention_of_a_subset_of_queries_is_those_rows_of_the_full_attention():
    rng = np.random.default_rng(16)
    (q, k, v), back, key_bias = _ragged_attention_inputs(rng)
    full = ad.attention(q, k, v, back, 3, back, key_bias, 2)
    # packed rows 1, 3 and 0 sit at (sequence, slot) (0, 0), (0, 1) and (1, 0),
    # which a [2, 2] grid holds at flat positions 0, 1 and 2
    rows = [1, 3, 0]
    part = ad.attention(ad.gather(q, rows), k, v, np.array([0, 1, 2]), 2, back, key_bias, 2)
    assert np.abs(part.data - full.data[rows]).max() < 1e-15


def test_attention_rejects_bad_shapes():
    rng = np.random.default_rng(14)
    (q, k, v), back, key_bias = _ragged_attention_inputs(rng)
    q3 = leaf(rng.normal(size=(3, 6)))
    ad.attention(q, k, v, back, 3, back, key_bias, 2)
    ad.attention(q3, k, v, QUERY_BACK, 2, back, key_bias, 2)
    bad = [(q, k, leaf(np.ones((4, 6))), back, 3, back, key_bias, 2),  # v rows
           (q, leaf(np.ones((4, 6))), v, back, 3, back, key_bias, 2),  # k rows
           (leaf(np.ones((5, 6, 1))), k, v, back, 3, back, key_bias, 2),  # 3-D q
           (q, k, v, back, 3, back, key_bias, 4),  # 6 columns into 4 heads
           (q, k, v, back, 3, back, key_bias, 0),
           (q, k, v, back, 3, back[:4], key_bias, 2),  # one key position short
           (q, k, v, back, 3, np.array([3, 0, 4, 1, 6]), key_bias, 2),  # past the padding
           (q, k, v, back, 3, np.array([3, 0, 4, 1, -1]), key_bias, 2),
           (q, k, v, back, 3, back, key_bias[:, 0], 2),  # 3-D key bias
           (q, k, v, back, 3, back, np.zeros((2, 2, 1, 3)), 2),
           # query rows that do not match their positions
           (q, k, v, QUERY_BACK, 2, back, key_bias, 2),  # 5 rows, 3 positions
           (q3, k, v, back, 3, back, key_bias, 2),  # 3 rows, 5 positions
           (q3, k, v, QUERY_BACK, 1, back, key_bias, 2),  # past a [2, 1] grid
           (q3, k, v, np.array([2, 0, -1]), 2, back, key_bias, 2),
           (leaf(np.ones((3, 4))), k, v, QUERY_BACK, 2, back, key_bias, 2)]  # q columns
    for args in bad:
        with pytest.raises(ShapeError):
            ad.attention(*args)
