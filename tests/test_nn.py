import numpy as np
import pytest

from ibpdgm import nn

from oracles import central_diff, rel_err


def test_glorot_bound_forced_to_one():
    # fan_in=4, fan_out=2 makes the bound sqrt(6/6) = 1 exactly
    rng = np.random.default_rng(0)
    net = nn.glorot_init(4, [], 2, rng)
    w = net.weights(0)
    assert np.all(np.abs(w) <= 1.0)
    assert np.all(net.biases(0) == 0.0)


def test_glorot_bound_general():
    rng = np.random.default_rng(1)
    net = nn.glorot_init(7, [11], 3, rng)
    for layer, (fan_in, fan_out) in enumerate(zip(net.dims[:-1], net.dims[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(net.weights(layer)) <= bound)


def test_glorot_rejects_bad_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        nn.glorot_init(0, [4], 2, rng)
    with pytest.raises(ValueError):
        nn.glorot_init(4, [-1], 2, rng)


def test_glorot_deterministic_under_seed():
    a = nn.glorot_init(5, [8], 3, np.random.default_rng(42))
    b = nn.glorot_init(5, [8], 3, np.random.default_rng(42))
    assert np.array_equal(a.params, b.params)


def test_forward_identity_layer():
    net = nn.DenseNet([2, 2], ["identity"])
    net.weights(0)[:] = np.eye(2)
    y, _ = nn.forward(net, np.array([1.0, 2.0]))
    assert np.array_equal(y, [1.0, 2.0])


def test_forward_relu_clamps():
    net = nn.DenseNet([2, 2], ["relu"])
    net.weights(0)[:] = np.eye(2)
    y, _ = nn.forward(net, np.array([-1.0, 3.0]))
    assert np.array_equal(y, [0.0, 3.0])


def test_forward_pure():
    rng = np.random.default_rng(3)
    net = nn.glorot_init(4, [6], 2, rng)
    x = rng.normal(size=4)
    y1, _ = nn.forward(net, x)
    y2, _ = nn.forward(net, x)
    assert np.array_equal(y1, y2)


def test_forward_rejects_bad_input():
    net = nn.DenseNet([2, 2], ["identity"])
    with pytest.raises(ValueError):
        nn.forward(net, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        nn.forward(net, np.array([1.0, np.nan]))


def test_backward_linear_weight_grad_is_input():
    net = nn.DenseNet([3, 2], ["identity"])
    net.weights(0)[:] = np.random.default_rng(0).normal(size=(2, 3))
    x = np.array([1.5, -2.0, 0.5])
    _, tape = nn.forward(net, x)
    grads, _ = nn.backward(net, tape, np.array([1.0, 0.0]))
    w_grad = grads[:6].reshape(2, 3)
    assert np.allclose(w_grad[0], x)
    assert np.allclose(w_grad[1], 0.0)


def test_backward_dead_relu_blocks_gradient():
    net = nn.DenseNet([2, 2, 1], ["relu", "identity"])
    net.weights(0)[:] = -np.eye(2)   # all pre-activations negative for x > 0
    net.weights(1)[:] = 1.0
    x = np.array([1.0, 2.0])
    _, tape = nn.forward(net, x)
    grads, grad_in = nn.backward(net, tape, np.array([1.0]))
    assert np.all(grads[:6] == 0.0)   # layer-0 weights and biases
    assert np.all(grad_in == 0.0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = nn.glorot_init(4, [6, 5], 3, rng)
    x = rng.normal(size=4)
    direction = rng.normal(size=3)
    _, tape = nn.forward(net, x)
    grads, grad_in = nn.backward(net, tape, direction)

    def scalar_of_params(i):
        def fun(p):
            old = net.params[i]
            net.params[i] = p[0]
            y, _ = nn.forward(net, x)
            net.params[i] = old
            return float(direction @ y)
        return fun

    worst = 0.0
    for i in range(net.num_params):
        fd = central_diff(scalar_of_params(i), np.array([net.params[i]]), 0)
        worst = max(worst, rel_err(grads[i], fd))
    assert worst < 1e-4

    for i in range(4):
        fd = central_diff(
            lambda xv: float(direction @ nn.forward(net, xv)[0]), x, i)
        assert rel_err(grad_in[i], fd) < 1e-4


def test_backward_batch_matches_sum_of_singles():
    rng = np.random.default_rng(11)
    net = nn.glorot_init(3, [4], 2, rng)
    xs = rng.normal(size=(5, 3))
    gs = rng.normal(size=(5, 2))
    _, tape = nn.forward(net, xs)
    batch_grads, batch_in = nn.backward(net, tape, gs)
    acc = net.zero_grad_like()
    for x, g in zip(xs, gs):
        _, t = nn.forward(net, x)
        gr, gi = nn.backward(net, t, g)
        acc += gr
    assert np.allclose(batch_grads, acc, atol=1e-12)
    assert batch_in.shape == (5, 3)


@pytest.mark.parametrize("out_act", nn.ACTIVATIONS)
@pytest.mark.parametrize("batched", [False, True])
def test_backward_leaves_grad_out_and_tape_unchanged(out_act, batched):
    # a ReLU output layer masks the incoming gradient first: the mask must
    # not be written into the caller's grad_out
    rng = np.random.default_rng(13)
    net = nn.DenseNet([3, 6, 5, 4], ["relu", "relu", out_act])
    net.params[:] = rng.normal(size=net.num_params)
    x = rng.normal(size=(7, 3) if batched else 3)
    _, tape = nn.forward(net, x)
    grad_out = rng.normal(size=(7, 4) if batched else 4)
    saved = [grad_out.copy(), [a.copy() for a in tape.inputs],
             [a.copy() for a in tape.preacts]]
    first, _ = nn.backward(net, tape, grad_out)
    assert np.array_equal(grad_out, saved[0])
    for now, before in zip(tape.inputs + tape.preacts, saved[1] + saved[2]):
        assert np.array_equal(now, before)
    again, _ = nn.backward(net, tape, grad_out)
    assert np.array_equal(first, again)


def test_backward_rejects_mismatched_tape():
    rng = np.random.default_rng(0)
    a = nn.glorot_init(3, [4], 2, rng)
    b = nn.glorot_init(3, [], 2, rng)
    _, tape = nn.forward(a, np.zeros(3))
    with pytest.raises(ValueError):
        nn.backward(b, tape, np.zeros(2))


def test_adam_zero_grad_keeps_params():
    params = np.array([1.0, -2.0, 3.0])
    state = nn.AdamState(3, lr=0.1)
    before = params.copy()
    nn.adam_step(params, np.zeros(3), state)
    assert np.array_equal(params, before)
    assert state.step_count == 1


def test_adam_first_step_magnitude_is_lr():
    params = np.zeros(4)
    state = nn.AdamState(4, lr=3e-4)
    nn.adam_step(params, np.full(4, 0.37), state)
    # bias-corrected m_hat / sqrt(v_hat) = 1 up to eps on step one
    assert np.all(np.abs(params) <= 3e-4 * (1 + 1e-6))
    assert np.all(np.abs(np.abs(params) - 3e-4) < 1e-7)


def test_adam_shape_mismatch():
    state = nn.AdamState(3, lr=0.1)
    with pytest.raises(ValueError):
        nn.adam_step(np.zeros(4), np.zeros(4), state)


def test_adam_step_count_increments():
    params = np.zeros(2)
    state = nn.AdamState(2, lr=0.1)
    for expected in (1, 2, 3):
        nn.adam_step(params, np.ones(2), state)
        assert state.step_count == expected


def test_adam_step_matches_textbook_update_bit_for_bit():
    # Kingma and Ba's update written out, one temporary per operation
    rng = np.random.default_rng(17)
    b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
    params = rng.normal(size=40)
    state = nn.AdamState(40, lr=3e-3)
    want, m, v = params.copy(), np.zeros(40), np.zeros(40)
    for t in range(1, 7):
        g = rng.normal(size=40) * 10.0 ** rng.uniform(-4, 4, size=40)
        state.lr = 3e-3 / t
        nn.adam_step(params, g, state)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        want = want - state.lr * m_hat / (np.sqrt(v_hat) + eps)
        for got, ref in ((params, want), (state.first_moment, m),
                         (state.second_moment, v)):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
