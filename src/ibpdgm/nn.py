"""Dense feedforward networks with manual backpropagation and the AdaM optimizer.

Every network keeps its weights in one flat float64 vector; the layer
matrices are views into that vector, so an optimizer can treat any
network (or a bag of networks) as one parameter array.

A pass computes in the precision of the weights it is given: by default
the network's own float64 views, or the float32 copy that
`cast_layers(net, np.float32)` makes once for a caller that runs several
passes at the same parameters.  The pass keeps those weights on its tape,
so the backward pass runs in their precision too; the parameter gradient
`backward` returns is float64 either way, like the weights.  The passes
that need no float64 run in FAST_DTYPE (float32): the estimator's decoder
blocks in training, the evaluation passes behind `error_rate` and
`component_report`, and `model.generate`'s decoder pass.

`backward` stops at the first layer's pre-activation gradient: the
encoder and classifier never read their input gradient, and the decoder's
caller, which does, multiplies by the first layer's weights itself.

Each array of a pass is held once: `forward` applies a ReLU in place on
its layer's pre-activation, so a ReLU output is both the tape's record of
that layer and the next layer's input, and `backward` takes the ReLU mask
from the output (output > 0 exactly where pre-activation > 0, NaN
included).  So a ReLU output must not be overwritten before `backward`
has run on its tape.
"""

import numpy as np

ACTIVATIONS = ("relu", "identity")
# AdaM's moment decay rates and denominator offset (Kingma and Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# `adam_step` updates slices of this many float64 elements (256 KB each)
ADAM_CHUNK = 32768
# the precision of training's decoder blocks and of the evaluation passes
FAST_DTYPE = np.float32


class Tape:
    """Per-layer cache from one forward pass, consumed by backward().

    A layer's output is the next layer's input, the same array; the last
    output is the array `forward` returned.  `backward` reads each ReLU
    mask from its output, so a caller overwrites no ReLU output before
    `backward`; a linear output, which it does not read, may be (the
    estimator writes the likelihood gradient over the decoder's).
    """

    def __init__(self, layers, inputs, outputs):
        self.layers = layers      # the (W, b) pairs the pass ran with, in its dtype
        self.inputs = inputs      # list of layer inputs, shape (B, fan_in)
        self.outputs = outputs    # list of post-activation outputs, (B, fan_out)


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
    in it.  A ReLU is applied in place on its layer's pre-activation, so
    each layer allocates one array, its output, which the tape keeps.

    Pure given the parameters: same params + same input give bit-identical
    output.
    """
    if layers is None:
        layers = net._views
    x = np.asarray(x, dtype=layers[0][0].dtype)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"input of shape {x.shape}: network expects (B, {net.input_dim})")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    inputs, outputs = [], []
    h = x
    for (w, b), act in zip(layers, net.activations):
        inputs.append(h)
        h = h @ w.T
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        outputs.append(h)
    return h, Tape(layers, inputs, outputs)


def backward(net, tape, grad_out):
    """Reverse-mode gradients of <grad_out, forward(net, x)>.

    grad_out is (B, out), like the forward output.  Returns (flat
    parameter gradient aligned with net.params, summed over the batch;
    gradient w.r.t. the first layer's pre-activation, (B, fan_out of the
    first layer)).  The pass stops there: a caller that wants the gradient
    w.r.t. the input x takes `g_pre @ tape.layers[0][0]`.  The ReLU
    subgradient at exactly 0 is taken as 0.  Each ReLU mask is read from
    the layer's output on the tape, as output > 0, which equals
    pre-activation > 0 for every value: a ReLU output overwritten since
    `forward` would give a wrong gradient.

    The pass runs in the tape's dtype, on the weights the forward pass
    kept on the tape; the parameter gradient is returned as float64 in
    either case (a float32 pass computes it in float32 and casts it once),
    the pre-activation gradient in the tape's dtype.
    """
    if len(tape.inputs) != len(net._views):
        raise ValueError("tape does not match network (layer count)")
    dtype = tape.inputs[0].dtype
    g = np.asarray(grad_out, dtype=dtype)
    if g.shape != tape.outputs[-1].shape:
        raise ValueError(
            f"grad_out shape {g.shape} does not match forward output "
            f"{tape.outputs[-1].shape}")
    grads = np.empty(net.params.size, dtype=dtype)      # every slot is written
    off = net.params.size
    owned = False             # g is the caller's grad_out until the first g @ w
    for layer in range(len(net._views) - 1, -1, -1):
        w, _ = tape.layers[layer]
        if tape.inputs[layer].shape[1] != w.shape[1]:
            raise ValueError("tape does not match network (layer shape)")
        if net.activations[layer] == "relu":
            mask = tape.outputs[layer] > 0.0
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
        if layer:
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

    params, grads and the moments are flat arrays.  The update runs on
    slices of ADAM_CHUNK elements, so each of its passes stays in a core's
    L2 cache; a group of at most ADAM_CHUNK runs as one slice.  Every
    element sees the same operations in the same order whatever the
    slicing, so the bits do not depend on it.

    Single-writer: parameter mutation must not run concurrently.
    """
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ValueError("parameter/gradient/state shape mismatch")
    state.step_count += 1
    t = state.step_count
    n = params.shape[0]
    # two temporaries, reused by every slice: one holds the moment
    # increments, then the denominator; the other the step
    tmp_buf = np.empty(min(n, ADAM_CHUNK))
    step_buf = np.empty_like(tmp_buf)
    for lo in range(0, n, ADAM_CHUNK):
        sl = slice(lo, lo + ADAM_CHUNK)
        p, g = params[sl], grads[sl]
        m, v = state.first_moment[sl], state.second_moment[sl]
        tmp, step = tmp_buf[:p.shape[0]], step_buf[:p.shape[0]]
        # m <- b1 m + (1 - b1) g,  v <- b2 v + (1 - b2) g g,
        # params -= lr m_hat / (sqrt(v_hat) + eps), in that order of operations
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= g
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, 1.0 - ADAM_BETA2 ** t, out=tmp)        # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1 ** t, out=step)        # m_hat
        step *= state.lr
        step /= tmp
        p -= step
    return params, state
