"""Dense feedforward networks with manual backpropagation and the AdaM optimizer.

Every network keeps its weights in one flat float64 vector; the layer
matrices are views into that vector, so an optimizer can treat any
network (or a bag of networks) as a single parameter array.
"""

import numpy as np

ACTIVATIONS = ("relu", "identity")
# AdaM's moment decay rates and denominator offset (Kingma and Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Tape:
    """Per-layer cache from one forward pass, consumed by backward()."""

    def __init__(self, inputs, preacts, single):
        self.inputs = inputs      # list of layer inputs, shape (B, fan_in)
        self.preacts = preacts    # list of pre-activations, shape (B, fan_out)
        self.single = single      # True if forward() was called with a 1-D x


class DenseNet:
    """MLP with per-layer (W, b, activation); parameters live in one flat array.

    `layers` is a list of (out_dim, activation) pairs; weights are W[l] of
    shape (out, in) and biases b[l] of shape (out,), all views into
    `self.params` (flat, float64).
    """

    def __init__(self, dims, activations):
        if len(dims) < 2:
            raise ValueError("need at least input and output dimension")
        for d in dims:
            if int(d) < 1:
                raise ValueError(f"dimensions must be >= 1, got {d}")
        if len(activations) != len(dims) - 1:
            raise ValueError("one activation per layer required")
        for a in activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        self.dims = [int(d) for d in dims]
        self.activations = list(activations)
        n = sum(o * i + o for i, o in zip(self.dims[:-1], self.dims[1:]))
        self.params = np.zeros(n, dtype=np.float64)
        self._views = []
        off = 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            w = self.params[off:off + fan_out * fan_in].reshape(fan_out, fan_in)
            off += fan_out * fan_in
            b = self.params[off:off + fan_out]
            off += fan_out
            self._views.append((w, b))

    @property
    def input_dim(self):
        return self.dims[0]

    @property
    def output_dim(self):
        return self.dims[-1]

    @property
    def num_params(self):
        return self.params.size

    def weights(self, layer):
        return self._views[layer][0]

    def biases(self, layer):
        return self._views[layer][1]

    def zero_grad_like(self):
        return np.zeros_like(self.params)


def glorot_init(input_dim, hidden_dims, output_dim, rng):
    """Build a DenseNet with Glorot-uniform weights and zero biases.

    Weights of each layer are drawn uniformly from [-b, b] with
    b = sqrt(6 / (fan_in + fan_out)); hidden layers use ReLU, the output
    layer is linear.
    """
    dims = [input_dim, *hidden_dims, output_dim]
    for d in dims:
        if int(d) < 1:
            raise ValueError(f"dimensions must be >= 1, got {d}")
    acts = ["relu"] * len(hidden_dims) + ["identity"]
    net = DenseNet(dims, acts)
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        net.weights(layer)[:] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        # biases stay zero
    return net


def forward(net, x):
    """Run the network on x (shape (in,) or (B, in)); returns (y, tape).

    Pure given the parameters: same params + same input give bit-identical
    output.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"input has {x.shape[-1] if x.ndim else 0} features, "
            f"network expects {net.input_dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    inputs, preacts = [], []
    h = x
    for (w, b), act in zip(net._views, net.activations):
        inputs.append(h)
        z = h @ w.T
        z += b
        preacts.append(z)
        h = np.maximum(z, 0.0) if act == "relu" else z
    tape = Tape(inputs, preacts, single)
    return (h[0] if single else h), tape


def backward(net, tape, grad_out):
    """Reverse-mode gradients of <grad_out, forward(net, x)>.

    Returns (flat parameter gradient aligned with net.params, gradient
    w.r.t. the input x).  For batched tapes the parameter gradient is the
    sum over the batch and grad_in has one row per batch element.  The
    ReLU subgradient at exactly 0 is taken as 0.
    """
    if len(tape.inputs) != len(net._views):
        raise ValueError("tape does not match network (layer count)")
    g = np.asarray(grad_out, dtype=np.float64)
    if tape.single and g.ndim == 1:
        g = g[None, :]
    if g.shape != tape.preacts[-1].shape:
        raise ValueError(
            f"grad_out shape {g.shape} does not match forward output "
            f"{tape.preacts[-1].shape}")
    grads = net.zero_grad_like()
    off = net.params.size
    owned = False             # g is the caller's grad_out until the first g @ w
    for layer in range(len(net._views) - 1, -1, -1):
        w, _ = net._views[layer]
        if tape.inputs[layer].shape[1] != w.shape[1]:
            raise ValueError("tape does not match network (layer shape)")
        if net.activations[layer] == "relu":
            mask = tape.preacts[layer] > 0.0
            if owned:
                g *= mask
            else:
                g = g * mask
        fan_out, fan_in = w.shape
        off -= fan_out
        g.sum(axis=0, out=grads[off:off + fan_out])
        off -= fan_out * fan_in
        np.matmul(g.T, tape.inputs[layer],
                  out=grads[off:off + fan_out * fan_in].reshape(fan_out, fan_in))
        g = g @ w
        owned = True
    grad_in = g[0] if tape.single else g
    return grads, grad_in


class AdamState:
    """First/second moment buffers plus step counter for one flat parameter array."""

    def __init__(self, num_params, lr):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.first_moment = np.zeros(num_params, dtype=np.float64)
        self.second_moment = np.zeros(num_params, dtype=np.float64)
        self.step_count = 0
        self.lr = float(lr)


def adam_step(params, grads, state):
    """One AdaM update (descent on `grads`), in place; returns (params, state).

    Single-writer: parameter mutation must not run concurrently.
    """
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ValueError("parameter/gradient/state shape mismatch")
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    # m <- b1 m + (1 - b1) g,  v <- b2 v + (1 - b2) g g,
    # params -= lr m_hat / (sqrt(v_hat) + eps), in that order of operations
    tmp = np.multiply(grads, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += tmp
    np.multiply(grads, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= grads
    v *= ADAM_BETA2
    v += tmp
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=tmp)        # v_hat
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step = np.divide(m, 1.0 - ADAM_BETA1 ** t)           # m_hat
    step *= state.lr
    step /= tmp
    params -= step
    return params, state
