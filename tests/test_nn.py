import numpy as np
import pytest

from ibpdgm import nn

from oracles import fd_grad_all, net_pass_masking_preacts, rel_err, same_bits


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
    y, _ = nn.forward(net, np.array([[1.0, 2.0]]))
    assert np.array_equal(y, [[1.0, 2.0]])


def test_forward_relu_clamps():
    net = nn.DenseNet([2, 2], ["relu"])
    net.weights(0)[:] = np.eye(2)
    y, _ = nn.forward(net, np.array([[-1.0, 3.0]]))
    assert np.array_equal(y, [[0.0, 3.0]])


def test_forward_pure():
    rng = np.random.default_rng(3)
    net = nn.glorot_init(4, [6], 2, rng)
    x = rng.normal(size=(3, 4))
    y1, _ = nn.forward(net, x)
    y2, _ = nn.forward(net, x)
    assert np.array_equal(y1, y2)


def test_forward_rejects_bad_input():
    # a batch is (B, in): one point is a one-row batch, not a vector
    net = nn.DenseNet([2, 2], ["identity"])
    with pytest.raises(ValueError):
        nn.forward(net, np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        nn.forward(net, np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match=r"expects \(B, 2\)"):
        nn.forward(net, np.array([1.0, 2.0]))


def test_backward_linear_weight_grad_is_input():
    net = nn.DenseNet([3, 2], ["identity"])
    net.weights(0)[:] = np.random.default_rng(0).normal(size=(2, 3))
    x = np.array([1.5, -2.0, 0.5])
    _, tape = nn.forward(net, x[None])
    grads, _ = nn.backward(net, tape, np.array([[1.0, 0.0]]))
    w_grad = grads[:6].reshape(2, 3)
    assert np.allclose(w_grad[0], x)
    assert np.allclose(w_grad[1], 0.0)


def test_backward_dead_relu_blocks_gradient():
    net = nn.DenseNet([2, 2, 1], ["relu", "identity"])
    net.weights(0)[:] = -np.eye(2)   # all pre-activations negative for x > 0
    net.weights(1)[:] = 1.0
    x = np.array([[1.0, 2.0]])
    _, tape = nn.forward(net, x)
    grads, grad_in = nn.backward(net, tape, np.array([[1.0]]))
    assert np.all(grads[:6] == 0.0)   # layer-0 weights and biases
    assert np.all(grad_in == 0.0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = nn.glorot_init(4, [6, 5], 3, rng)
    x = rng.normal(size=4)
    direction = rng.normal(size=3)
    _, tape = nn.forward(net, x[None])
    grads, g_pre = nn.backward(net, tape, direction[None])
    # backward stops at the first layer's pre-activation gradient; the input
    # gradient is that times the first layer's weights
    assert g_pre.shape == (1, 6)
    grad_in = g_pre @ tape.layers[0][0]

    def objective():
        return float(direction @ nn.forward(net, x[None])[0][0])

    fd = fd_grad_all(objective, net.params)
    assert max(rel_err(g, f) for g, f in zip(grads, fd)) < 1e-4

    fd = fd_grad_all(objective, x)
    for i in range(4):
        assert rel_err(grad_in[0, i], fd[i]) < 1e-4


def test_backward_batch_matches_sum_of_singles():
    rng = np.random.default_rng(11)
    net = nn.glorot_init(3, [4], 2, rng)
    xs = rng.normal(size=(5, 3))
    gs = rng.normal(size=(5, 2))
    _, tape = nn.forward(net, xs)
    batch_grads, batch_pre = nn.backward(net, tape, gs)
    batch_in = batch_pre @ tape.layers[0][0]
    acc = net.zero_grad_like()
    for row, (x, g) in enumerate(zip(xs, gs)):
        _, t = nn.forward(net, x[None])
        gr, gp = nn.backward(net, t, g[None])
        acc += gr
        assert np.allclose(batch_in[row], (gp @ t.layers[0][0])[0], atol=1e-12)
    assert np.allclose(batch_grads, acc, atol=1e-12)
    assert batch_pre.shape == (5, 4) and batch_in.shape == (5, 3)


@pytest.mark.parametrize("out_act", nn.ACTIVATIONS)
@pytest.mark.parametrize("batched", [False, True])
def test_backward_leaves_grad_out_and_tape_unchanged(out_act, batched):
    # a ReLU output layer masks the incoming gradient first: the mask must
    # not be written into the caller's grad_out; unbatched is one row
    rng = np.random.default_rng(13)
    net = nn.DenseNet([3, 6, 5, 4], ["relu", "relu", out_act])
    net.params[:] = rng.normal(size=net.num_params)
    rows = 7 if batched else 1
    x = rng.normal(size=(rows, 3))
    _, tape = nn.forward(net, x)
    grad_out = rng.normal(size=(rows, 4))
    saved = [grad_out.copy(), [a.copy() for a in tape.inputs],
             [a.copy() for a in tape.outputs]]
    first, _ = nn.backward(net, tape, grad_out)
    assert np.array_equal(grad_out, saved[0])
    for now, before in zip(tape.inputs + tape.outputs, saved[1] + saved[2]):
        assert np.array_equal(now, before)
    again, _ = nn.backward(net, tape, grad_out)
    assert np.array_equal(first, again)


def test_relu_output_is_held_once():
    # a ReLU layer's output is the next layer's input, the same array, and
    # the last output is the array forward returns: no second copy
    rng = np.random.default_rng(17)
    net = nn.DenseNet([3, 6, 5, 4], ["relu", "relu", "identity"])
    net.params[:] = rng.normal(size=net.num_params)
    y, tape = nn.forward(net, rng.normal(size=(7, 3)))
    assert len(tape.outputs) == len(tape.inputs) == 3
    for layer in range(2):
        assert tape.outputs[layer] is tape.inputs[layer + 1]
        assert np.all(tape.outputs[layer] >= 0.0)
    assert tape.outputs[-1] is y


def test_relu_mask_from_output_equals_mask_from_preactivation():
    z = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                  1.0, -1.0])
    for dtype in (np.float32, np.float64):
        pre = z.astype(dtype)
        out = np.maximum(pre, 0.0)
        assert np.array_equal(out > 0.0, pre > 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("acts", [["relu", "identity"], ["relu", "relu", "identity"],
                                  ["relu", "relu", "relu"], ["identity", "relu"]])
def test_pass_matches_the_preactivation_mask_oracle_bit_for_bit(acts, dtype):
    # masking on the ReLU output instead of the pre-activation changes no
    # bit of the output or of either gradient
    rng = np.random.default_rng(len(acts))
    dims = [5, 8, 6, 4][:len(acts) + 1]
    net = nn.DenseNet(dims, acts)
    net.params[:] = rng.normal(size=net.num_params)
    x = rng.normal(size=(9, dims[0]))
    grad_out = rng.normal(size=(9, dims[-1]))
    y, tape = nn.forward(net, x, nn.cast_layers(net, dtype))
    grads, g_pre = nn.backward(net, tape, grad_out)
    want_y, want_grads, want_pre = net_pass_masking_preacts(net, x, grad_out, dtype)
    assert same_bits(y, want_y)
    assert same_bits(grads, want_grads)
    assert same_bits(g_pre, want_pre)
    # every ReLU layer masks some units
    assert all(np.any(out == 0.0) for out, act in zip(tape.outputs, acts)
               if act == "relu")


def test_pass_runs_in_the_precision_of_its_weights():
    # a pass on float32 copies of the weights keeps them on its tape and
    # runs forward and backward in float32, up to a float64 parameter
    # gradient; the default pass keeps the network's own float64 views
    rng = np.random.default_rng(19)
    net = nn.glorot_init(6, [9, 7], 4, rng)
    x = rng.normal(size=(5, 6))
    grad_out = rng.normal(size=(5, 4))
    y, tape = nn.forward(net, x)
    views = [(net.weights(layer), net.biases(layer)) for layer in range(3)]
    for layers in (tape.layers, nn.cast_layers(net, np.float64)):
        assert all(w is v and b is c for (w, b), (v, c) in zip(layers, views))
    grads, grad_in = nn.backward(net, tape, grad_out)

    y32, tape32 = nn.forward(net, x, nn.cast_layers(net, np.float32))
    assert {a.dtype for a in (y32, *tape32.inputs, *tape32.outputs,
                              *(p for layer in tape32.layers for p in layer))} \
        == {np.dtype(np.float32)}
    grads32, grad_in32 = nn.backward(net, tape32, grad_out)
    assert grads32.dtype == np.float64 and grad_in32.dtype == np.float32
    for got, want in ((y32, y), (grads32, grads), (grad_in32, grad_in)):
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_backward_rejects_mismatched_tape():
    rng = np.random.default_rng(0)
    a = nn.glorot_init(3, [4], 2, rng)
    b = nn.glorot_init(3, [], 2, rng)
    _, tape = nn.forward(a, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        nn.backward(b, tape, np.zeros((1, 2)))


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
    # Kingma and Ba's update written out, one temporary per operation, over
    # a small group and groups one below, at and above one slice
    # (ADAM_CHUNK), and three slices and a ragged fourth
    rng = np.random.default_rng(17)
    b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
    chunk = nn.ADAM_CHUNK
    for n in (40, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        params = rng.normal(size=n)
        state = nn.AdamState(n, lr=3e-3)
        want, m, v = params.copy(), np.zeros(n), np.zeros(n)
        for t in range(1, 7):
            g = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 4, size=n)
            state.lr = 3e-3 / t
            nn.adam_step(params, g, state)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            want = want - state.lr * m_hat / (np.sqrt(v_hat) + eps)
            for got, ref in ((params, want), (state.first_moment, m),
                             (state.second_moment, v)):
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), n
