"""Dense feedforward networks with manual backpropagation and the AdaM optimizer.

Every network keeps its weights in one flat float64 vector; the layer
matrices are views into that vector, so an optimizer can treat any
network (or a bag of networks) as one parameter array.

A pass computes in the precision of the weights it is given: by default
the network's own float64 views, or the float32 copy that
`cast_layers(net, np.float32)` makes once for a caller that runs several
passes at the same parameters.  The pass keeps those weights on its tape,
so the backward pass runs in their precision too; the parameter gradient
`backward` returns is float64 either way, like the weights.  Training runs
its decoder in float32.
"""

import numpy as np

ACTIVATIONS = ("relu", "identity")
# AdaM's moment decay rates and denominator offset (Kingma and Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Tape:
    """Per-layer cache from one forward pass, consumed by backward()."""

    def __init__(self, layers, inputs, preacts):
        self.layers = layers      # the (W, b) pairs the pass ran with, in its dtype
        self.inputs = inputs      # list of layer inputs, shape (B, fan_in)
        self.preacts = preacts    # list of pre-activations, shape (B, fan_out)


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
    acts = ["relu"] * len(hidden_dims) + ["identity"]
    net = DenseNet(dims, acts)
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        net.weights(layer)[:] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        # biases stay zero
    return net


def cast_layers(net, dtype):
    """The network's (W, b) pairs in `dtype`, for `forward`'s `layers`: the
    float64 views themselves, or copies cast once, for a caller that runs
    several passes at the same parameters."""
    return [(w.astype(dtype, copy=False), b.astype(dtype, copy=False))
            for w, b in net._views]


def forward(net, x, layers=None):
    """Run the network on a batch x of shape (B, in); returns (y, tape),
    y of shape (B, out).  One point is a one-row batch.

    The pass computes in the precision of its weights: `layers`, as
    `cast_layers` returns them, or by default the network's own float64
    views.  x is cast to that precision, and the output and the tape are
    in it.

    Pure given the parameters: same params + same input give bit-identical
    output.
    """
    if layers is None:
        layers = net._views
    x = np.asarray(x, dtype=layers[0][0].dtype)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"input of shape {x.shape}: network expects (B, {net.input_dim})")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    inputs, preacts = [], []
    h = x
    for (w, b), act in zip(layers, net.activations):
        inputs.append(h)
        z = h @ w.T
        z += b
        preacts.append(z)
        h = np.maximum(z, 0.0) if act == "relu" else z
    return h, Tape(layers, inputs, preacts)


def backward(net, tape, grad_out):
    """Reverse-mode gradients of <grad_out, forward(net, x)>.

    grad_out is (B, out), like the forward output.  Returns (flat
    parameter gradient aligned with net.params, summed over the batch;
    gradient w.r.t. the input x, one row per batch element).  The ReLU
    subgradient at exactly 0 is taken as 0.

    The pass runs in the tape's dtype, on the weights the forward pass
    kept on the tape; the parameter gradient is returned as float64 in
    either case (a float32 pass computes it in float32 and casts it once),
    the input gradient in the tape's dtype.
    """
    if len(tape.inputs) != len(net._views):
        raise ValueError("tape does not match network (layer count)")
    dtype = tape.inputs[0].dtype
    g = np.asarray(grad_out, dtype=dtype)
    if g.shape != tape.preacts[-1].shape:
        raise ValueError(
            f"grad_out shape {g.shape} does not match forward output "
            f"{tape.preacts[-1].shape}")
    grads = np.zeros(net.params.size, dtype=dtype)
    off = net.params.size
    owned = False             # g is the caller's grad_out until the first g @ w
    for layer in range(len(net._views) - 1, -1, -1):
        w, _ = tape.layers[layer]
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
    return grads.astype(np.float64, copy=False), g


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
