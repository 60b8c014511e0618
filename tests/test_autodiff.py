import numpy as np
import pytest

from editdiff import autodiff as ad
from editdiff.autodiff import Adam, ShapeError, Tensor, backward, grad_check, zero_grads


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_add_broadcast_gradients():
    a = leaf(np.ones((3, 4)))
    b = leaf(np.ones(4))
    loss = ad.sum_all(ad.add(a, b))
    backward(loss)
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_mul_gradients():
    a = leaf([2.0, 3.0])
    b = leaf([5.0, 7.0])
    backward(ad.sum_all(ad.mul(a, b)))
    assert np.array_equal(a.grad, [5.0, 7.0])
    assert np.array_equal(b.grad, [2.0, 3.0])


def test_matmul_gradients_and_shape_check():
    a = leaf(np.arange(6, dtype=float).reshape(2, 3))
    b = leaf(np.arange(12, dtype=float).reshape(3, 4))
    backward(ad.sum_all(ad.matmul(a, b)))
    g = np.ones((2, 4))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)
    with pytest.raises(ShapeError):
        ad.matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 3))))


def test_shared_node_accumulates_grad():
    a = leaf([1.0, 2.0])
    y = ad.add(ad.mul(a, a), a)  # a^2 + a -> dy/da = 2a + 1
    backward(ad.sum_all(y))
    assert np.allclose(a.grad, 2 * a.data + 1)


def test_softmax_rows_sum_to_one_and_grad_is_zero_mean():
    x = leaf(np.random.default_rng(0).normal(size=(3, 5)))
    y = ad.softmax(x)
    assert np.allclose(y.data.sum(axis=-1), 1.0)
    backward(ad.sum_all(ad.mul(y, Tensor(np.eye(3, 5)))))
    assert np.allclose(x.grad.sum(axis=-1), 0.0, atol=1e-12)


def test_layer_norm_output_moments():
    x = leaf(np.random.default_rng(1).normal(2.0, 3.0, size=(4, 16)))
    y = ad.layer_norm(x)
    assert np.allclose(y.data.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(y.data.var(axis=-1), 1.0, atol=1e-3)


def test_gather_routes_gradients_to_rows():
    table = leaf(np.zeros((5, 3)))
    out = ad.gather(table, np.array([1, 1, 4]))
    backward(ad.sum_all(out))
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
    y = ad.concat([a, b], axis=0)
    backward(ad.sum_all(y[2:, :]))
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
    # constant: no path back to the logits
    assert loss._parents == ()


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
        h = ad.silu(ad.matmul(x, w1))
        return ad.cross_entropy(ad.matmul(h, w2), np.array([0, 1, 0]))

    assert grad_check(f, [w1, w2], eps=1e-5) < 1e-6


def test_grad_check_rejects_bad_order():
    with pytest.raises(ValueError):
        grad_check(lambda: ad.sum_all(leaf([1.0])), [], order=3)


def test_adam_converges_on_quadratic():
    target = np.array([3.0, -2.0, 0.5])
    p = leaf(np.zeros(3))
    adam = Adam([p], lr=0.1)
    for _ in range(300):
        diff = ad.add(p, Tensor(-target))
        backward(ad.sum_all(ad.mul(diff, diff)))
        adam.step()
    assert np.allclose(p.data, target, atol=1e-3)


def test_adam_requires_grads():
    p = leaf(np.zeros(3))
    with pytest.raises(ValueError):
        Adam([p]).step()


def test_adam_clears_grads_after_step():
    p = leaf(np.zeros(3))
    backward(ad.sum_all(ad.mul(p, p)))
    adam = Adam([p])
    adam.step()
    assert p.grad is None


def test_zero_grads():
    p = leaf(np.ones(2))
    backward(ad.sum_all(p))
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
        h = ad.gather(ad.matmul(x, w), seq)  # [2, 3, 4]
        heads = ad.transpose(ad.reshape(h, (2, 3, 2, 2)), (0, 2, 1, 3))  # [2, 2, 3, 2]
        scores = ad.softmax(ad.matmul(heads, ad.transpose(heads, (0, 1, 3, 2))))
        mixed = ad.matmul(scores, heads)
        merged = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (6, 4))
        out = ad.gather(merged, back)
        return ad.sum_all(ad.mul(out, weights))

    assert grad_check(f, [x, w], eps=1e-5) < 1e-6


def test_batched_matmul_broadcasts_and_checks_shapes():
    a = leaf(np.ones((2, 3, 4)))
    b = leaf(np.arange(20, dtype=float).reshape(4, 5))
    out = ad.matmul(a, b)
    assert out.shape == (2, 3, 5)
    backward(ad.sum_all(out))
    assert b.grad.shape == (4, 5)
    assert np.array_equal(b.grad, np.full((4, 5), 6.0))
    with pytest.raises(ShapeError):
        ad.matmul(leaf(np.ones((2, 3, 4))), leaf(np.ones((3, 4, 5))))
    with pytest.raises(ShapeError):
        ad.matmul(leaf(np.ones(3)), leaf(np.ones((3, 2))))


def test_gather_nd_ids_route_gradients():
    table = leaf(np.arange(6, dtype=float).reshape(3, 2))
    ids = np.array([[2, 0], [2, 2]])
    out = ad.gather(table, ids)
    assert out.shape == (2, 2, 2)
    assert np.array_equal(out.data[1, 0], [4.0, 5.0])
    backward(ad.sum_all(out))
    assert np.array_equal(table.grad[:, 0], [1.0, 0.0, 3.0])


def test_no_grad_builds_no_tape():
    a = leaf([1.0, 2.0])
    with ad.no_grad():
        y = ad.sum_all(ad.mul(ad.add(a, a), a))
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        assert float(y.data) == 10.0
    z = ad.mul(a, a)
    assert z.requires_grad and z._parents == (a, a)


def test_no_grad_is_restored_after_an_exception():
    a = leaf([1.0])
    with pytest.raises(ShapeError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.add(a, a).requires_grad
            ad.matmul(a, a)
    assert ad.add(a, a).requires_grad


def test_scatter_rows_and_take_rows_undo_each_other():
    rng = np.random.default_rng(8)
    x = leaf(rng.normal(size=(4, 3)))
    ids = np.array([5, 0, 2, 3])
    padded = ad.scatter_rows(x, ids, 6)
    assert np.array_equal(padded.data[ids], x.data)
    assert np.array_equal(padded.data[[1, 4]], np.zeros((2, 3)))
    assert np.array_equal(ad.take_rows(padded, ids).data, x.data)
    mix = Tensor(rng.normal(size=(6, 6)))
    weights = Tensor(rng.normal(size=(6, 3)))

    def f():
        mixed = ad.matmul(mix, ad.scatter_rows(x, ids, 6))
        return ad.sum_all(ad.mul(ad.take_rows(ad.mul(mixed, weights), ids[::-1]), x))

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
    h = ad.silu(ad.mul(w, w))
    loss = ad.sum_all(ad.mul(h, h))
    backward(loss)
    # tensors the caller holds keep their gradients; the graph is gone
    assert w.grad is not None and h.grad is not None and loss.grad is not None
    assert h._parents == () and loss._parents == ()
    with pytest.raises(ValueError):
        backward(loss)
    with pytest.raises(ValueError):
        backward(ad.sum_all(h))  # a new loss on top of a consumed node
    # a fresh graph over the same leaves differentiates as before
    grad = w.grad.copy()
    zero_grads([w])
    backward(ad.sum_all(ad.mul(ad.silu(ad.mul(w, w)), ad.silu(ad.mul(w, w)))))
    assert np.array_equal(w.grad, grad)


def test_adam_in_place_matches_the_textbook_update():
    rng = np.random.default_rng(10)
    shapes = [(7, 5), (5,), (300,)]
    params = [leaf(rng.normal(size=s)) for s in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    adam = Adam(params, lr=1e-2)
    for step in range(1, 6):
        lr = 1e-2 * step
        for k, p in enumerate(params):
            g = rng.normal(size=shapes[k])
            p.grad = g.copy()
            m[k] = 0.9 * m[k] + (1 - 0.9) * g
            v[k] = 0.999 * v[k] + (1 - 0.999) * g ** 2
            ref[k] = ref[k] - lr * (m[k] / (1 - 0.9 ** step)) / (
                np.sqrt(v[k] / (1 - 0.999 ** step)) + 1e-8)
        adam.step(lr=lr)
    for p, r in zip(params, ref):
        assert np.array_equal(p.data, r)
