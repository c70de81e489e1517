"""Feedforward network: definition, forward pass, reverse-mode gradients, I/O.

Parameter flattening contract (frozen, shared by every module): layers in
order, and within a layer the weight matrix in row-major (C) order followed
by the bias vector. Jacobians and curvature matrices over the full parameter
set use this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ModelFormatError
from .numerics import Rng

__all__ = [
    "ACTIVATIONS",
    "LayerSpec",
    "Network",
    "ForwardTrace",
    "ParamGrads",
    "forward",
    "forward_output",
    "backward",
    "jacobian_factors",
    "save",
    "load",
]

ACTIVATIONS = ("relu", "selu", "tanh", "identity")

# Standard self-normalizing constants (Klambauer et al.), full precision.
SELU_ALPHA = 1.6732632423543772848170429916717
SELU_SCALE = 1.0507009873554804934193349852946


def apply_activation(name: str, a: np.ndarray) -> np.ndarray:
    """The activation of pre-activation ``a``; the identity returns ``a``."""
    if name == "identity":
        return a
    if name == "relu":
        return np.maximum(a, 0.0)
    if name == "tanh":
        return np.tanh(a)
    if name == "selu":
        positive = a > 0.0
        out = np.expm1(a)
        out *= SELU_ALPHA
        np.copyto(out, a, where=positive)
        out *= SELU_SCALE
        return out
    raise ValueError(f"unknown activation {name!r}")


def activation_derivative(name: str, a: np.ndarray) -> np.ndarray:
    """Derivative as a function of the pre-activation; relu'(0) is taken as 0."""
    if name == "relu":
        return np.greater(a, 0.0, out=np.empty_like(a))
    if name == "selu":
        positive = a > 0.0
        out = np.exp(a)
        out *= SELU_ALPHA
        np.copyto(out, 1.0, where=positive)
        out *= SELU_SCALE
        return out
    if name == "tanh":
        out = np.tanh(a)
        np.multiply(out, out, out=out)
        return np.subtract(1.0, out, out=out)
    if name == "identity":
        return np.ones_like(a)
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class LayerSpec:
    """Shape and nonlinearity of one affine layer."""

    in_dim: int
    out_dim: int
    activation: str

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class Network:
    """Immutable feedforward network: a chain of affine layers.

    Hidden layers apply their configured activation; the output layer is
    always linear (its spec must use the identity activation). All
    parameters live in one flat read-only buffer in the frozen order;
    ``weights`` and ``biases`` are read-only views into it.
    """

    def __init__(
        self,
        specs: Sequence[LayerSpec],
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
    ):
        if not specs:
            raise ValueError("network needs at least one layer")
        if len(specs) != len(weights) or len(specs) != len(biases):
            raise ValueError("specs, weights, and biases must align")
        if specs[-1].activation != "identity":
            raise ValueError("output layer activation must be identity")
        for i, (spec, w, b) in enumerate(zip(specs, weights, biases)):
            if w.shape != (spec.out_dim, spec.in_dim):
                raise ValueError(
                    f"layer {i}: weight shape {w.shape} does not match spec "
                    f"({spec.out_dim}, {spec.in_dim})"
                )
            if b.shape != (spec.out_dim,):
                raise ValueError(f"layer {i}: bias shape {b.shape} invalid")
            if i > 0 and spec.in_dim != specs[i - 1].out_dim:
                raise ValueError(f"layer {i}: dimension chain broken")
        self.specs = tuple(specs)
        params = np.concatenate(
            [np.ravel(p) for pair in zip(weights, biases) for p in pair]
        ).astype(np.float64, copy=False)
        params.flags.writeable = False
        self._bind(params)

    @classmethod
    def _on_buffer(cls, specs: Sequence[LayerSpec], params: np.ndarray) -> "Network":
        """Network over ``params`` itself, not a copy; specs are not re-checked.

        Writing ``params`` changes the network, so only code that owns the
        buffer (the optimizer loop of ``train_map``) builds one this way.
        """
        net = cls.__new__(cls)
        net.specs = tuple(specs)
        net._bind(params)
        return net

    def _bind(self, params: np.ndarray) -> None:
        self._params = params
        weights, biases = _layer_views(self.specs, params)
        for view in weights + biases:
            view.flags.writeable = False
        self.weights, self.biases = tuple(weights), tuple(biases)

    @property
    def num_layers(self) -> int:
        return len(self.specs)

    @property
    def input_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.specs[-1].out_dim

    @property
    def num_params(self) -> int:
        return self._params.size

    @staticmethod
    def init_random(
        dims: Sequence[int], hidden_activation: str, rng: Rng
    ) -> "Network":
        """Fresh network with N(0, c/fan_in) weights and zero biases.

        c is 2 for relu/selu and 1 otherwise.
        """
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        gain = 2.0 if hidden_activation in ("relu", "selu") else 1.0
        specs, weights, biases = [], [], []
        for i in range(len(dims) - 1):
            act = hidden_activation if i < len(dims) - 2 else "identity"
            specs.append(LayerSpec(dims[i], dims[i + 1], act))
            std = np.sqrt(gain / dims[i])
            weights.append(rng.normal(0.0, std, (dims[i + 1], dims[i])))
            biases.append(np.zeros(dims[i + 1]))
        return Network(specs, weights, biases)

    def flatten_params(self) -> np.ndarray:
        return self._params.copy()

    def with_flat_params(self, theta: np.ndarray) -> "Network":
        """New network with the same specs and parameters copied from theta."""
        params = np.array(theta, dtype=np.float64)
        if params.shape != (self.num_params,):
            raise ValueError(
                f"expected {self.num_params} parameters, got {params.shape}"
            )
        params.flags.writeable = False
        return Network._on_buffer(self.specs, params)


def _layer_views(
    specs: Sequence[LayerSpec], flat: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a flat vector in the frozen order."""
    weights, biases, offset = [], [], 0
    for spec in specs:
        n_w = spec.out_dim * spec.in_dim
        weights.append(flat[offset : offset + n_w].reshape(spec.out_dim, spec.in_dim))
        offset += n_w
        biases.append(flat[offset : offset + spec.out_dim])
        offset += spec.out_dim
    return weights, biases


@dataclass(frozen=True)
class ForwardTrace:
    """Per-layer pre-activations and activations for one batch.

    ``activations[0]`` is the input batch; ``activations[-1]`` is the output.
    ``pre_activations[l]`` belongs to layer l (0-based).
    """

    pre_activations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


@dataclass
class ParamGrads:
    """Parameter gradients in one flat buffer in the frozen order.

    ``weights`` and ``biases`` are views into ``flat``, aligned with
    Network.weights / Network.biases.
    """

    flat: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def for_network(cls, net: Network) -> "ParamGrads":
        flat = np.zeros(net.num_params)
        return cls(flat, *_layer_views(net.specs, flat))

    def flatten(self) -> np.ndarray:
        return self.flat.copy()


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product a b of two 2-d arrays, the one layer product.

    ``np.dot`` calls BLAS for every shape; ``@`` runs numpy's own loop when
    the inner dimension is 1 (a (240, 1) by (1, 50) product took about 42 us
    against 10 us on one BLAS thread), and both give the same bits otherwise.
    """
    return np.dot(a, b, out=out)


def _as_batch(x: np.ndarray, input_dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ValueError(
            f"input batch must have {input_dim} columns, got shape {x.shape}"
        )
    return x


def _pre_activation(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = _product(h, w.T)
    a += b
    return a


def forward(net: Network, x: np.ndarray) -> ForwardTrace:
    """Run the network on a batch (rows are samples) and record the trace,
    every array of which is new apart from ``activations[0]``, the batch."""
    pre, acts = [], [_as_batch(x, net.input_dim)]
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        a = _pre_activation(acts[-1], w, b)
        pre.append(a)
        acts.append(apply_activation(spec.activation, a))
    return ForwardTrace(tuple(pre), tuple(acts))


def forward_output(net: Network, x: np.ndarray, depth: int | None = None) -> np.ndarray:
    """Activation after the first ``depth`` layers (default all: the output).

    Bitwise ``forward(net, x).activations[depth]``, but only the running
    activation is kept, not the per-layer trace a backward pass needs.
    """
    h = _as_batch(x, net.input_dim)
    for spec, w, b in zip(net.specs[:depth], net.weights, net.biases):
        h = apply_activation(spec.activation, _pre_activation(h, w, b))
    return h


class _Block(NamedTuple):
    """One layer's factors of a stack of rows over the flat parameters.

    Row a of point x, restricted to the layer, is the weight block
    delta[x, a] kron feat[x] from flat index ``start`` on, followed by the
    bias block delta[x, a] when ``bias`` (the last layer's augmented
    features carry their bias column in ``feat`` instead). ``delta`` is
    (m, r, out), ``feat`` (m, in).
    """

    delta: np.ndarray
    feat: np.ndarray
    start: int
    bias: bool


def _sweep(net: Network, trace: ForwardTrace, delta: np.ndarray) -> list[np.ndarray]:
    """The package's one reverse pass: every layer's deltas, in order, for
    the r rows per example seeded with ``delta``.

    ``delta`` (m, r, k) holds, for each of the m traced examples, the
    gradients of r output combinations w.r.t. the outputs, which are the
    linear output layer's pre-activations. Going down, each layer's
    deltas, one (m r, out_l) array whose row x r + a is seed a of example
    x, take one 2-d product with the layer's weights and are scaled by the
    activation derivative of the layer below. Every reshape names its
    widths, so an empty batch and r = 0 keep their shapes.
    """
    m, r, k = delta.shape
    d = delta.reshape(m * r, k)
    deltas = [d]
    for i in range(net.num_layers - 1, 0, -1):
        phi_grad = activation_derivative(
            net.specs[i - 1].activation, trace.pre_activations[i - 1]
        )
        d = _product(d, net.weights[i])
        if r == 1:  # one row per example, as in backward: no broadcast view
            d *= phi_grad
        else:
            below = d.reshape(m, r, net.specs[i].in_dim)
            below *= phi_grad[:, None, :]
        deltas.append(d)
    deltas.reverse()
    return deltas


def backward(
    net: Network,
    trace: ForwardTrace,
    output_grad: np.ndarray,
    out: ParamGrads | None = None,
) -> ParamGrads:
    """Gradients of sum(output_grad * output) w.r.t. the parameters.

    ``output_grad`` must match the traced output batch shape. This is the
    r = 1 case of the reverse sweep of :func:`jacobian_factors`, seeded
    with ``output_grad[:, None, :]``: each layer's weight gradient is the
    batch sum delta^T h of its deltas and inputs, and its bias gradient
    the sum of delta. They are written into ``out`` when given, else into
    a new :class:`ParamGrads`, which is returned.
    """
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != trace.output.shape:
        raise ValueError(
            f"output_grad shape {g.shape} does not match output "
            f"{trace.output.shape}"
        )
    grads = ParamGrads.for_network(net) if out is None else out
    deltas = _sweep(net, trace, g[:, None, :])
    for d, h, w, b in zip(deltas, trace.activations, grads.weights, grads.biases):
        _product(d.T, h, out=w)
        d.sum(axis=0, out=b)
    return grads


def jacobian_factors(
    net: Network, x: np.ndarray, seeds: np.ndarray | None = None
) -> list[_Block]:
    """Per-layer factors of the seed-weighted output Jacobian rows S^T J.

    A linear layer's gradient is an outer product, so row a of example x's
    S_x^T J_x restricted to layer l is the weight block
    delta_l[x, a] h_{l-1}[x]^T followed by the bias block delta_l[x, a].
    The reverse sweep of the batch ``x`` (m rows), the one :func:`backward`
    runs with r = 1, gives, for every layer in order, the :class:`_Block`
    of delta_l, shape (m, r, out_l), the gradients of the outputs
    sum_i S_x[i, a] f_i w.r.t. the layer's pre-activations, h_{l-1}, shape
    (m, in_l), the layer's input, and the layer's flat start. The sweep
    starts from S_x^T at the linear output layer, from the identity
    (r = k) without ``seeds``, which are (m, k, r). Seeds of the wrong
    shape raise ``ValueError``.
    """
    trace = forward(net, x)
    m, k = trace.output.shape
    if seeds is None:
        delta = np.broadcast_to(np.eye(k), (m, k, k))
    else:
        seeds = np.asarray(seeds, dtype=np.float64)
        if seeds.ndim != 3 or seeds.shape[:2] != (m, k):
            raise ValueError(
                f"seeds of shape {seeds.shape} do not fit {m} examples of "
                f"{k} outputs"
            )
        delta = seeds.transpose(0, 2, 1)
    r = delta.shape[1]
    blocks, start = [], 0
    for d, h in zip(_sweep(net, trace, delta), trace.activations):
        out_dim, in_dim = d.shape[1], h.shape[1]
        blocks.append(_Block(d.reshape(m, r, out_dim), h, start, True))
        start += out_dim * (in_dim + 1)
    return blocks


def _write_rows(blocks: list[_Block], out: np.ndarray) -> np.ndarray:
    """Write the rows held as ``blocks`` into ``out``, the caller's
    (m, r, d) array, and return it: each weight block is the outer product
    delta kron feat, multiplied straight into its place, and each bias
    block delta itself."""
    m, r = out.shape[:2]
    for blk in blocks:
        width, inn = blk.delta.shape[2], blk.feat.shape[1]
        stop = blk.start + width * inn
        # splitting the last axis is always a view, whatever out's strides
        weights = out[:, :, blk.start : stop].reshape(m, r, width, inn)
        np.multiply(blk.delta[:, :, :, None], blk.feat[:, None, None, :], out=weights)
        if blk.bias:
            out[:, :, stop : stop + width] = blk.delta
    return out


def augment_ones(features: np.ndarray) -> np.ndarray:
    """Append a constant-1 column (the bias feature)."""
    return np.concatenate(
        [features, np.ones((features.shape[0], 1))], axis=1
    )


# ---------------------------------------------------------------------------
# Model file format: self-describing structured text, one value per field,
# floats written with 17 significant digits so a save/load round trip is
# bitwise exact. Documented in the README.

_MAGIC = "lula-lab-model"
_VERSION = "v1"


def _row_format(width: int) -> str:
    """``%`` format of one row: ``width`` values at 17 significant digits,
    which is what ``format(v, ".17g")`` prints for each, space separated."""
    return " ".join(["%.17g"] * width)


def save(net: Network, path: str) -> None:
    """Write ``net`` as a model file that :func:`load` reads back bitwise.

    Raises ``ValueError``, naming the layer and W or b, for a NaN or
    infinite weight or bias, before the file is opened: :func:`load`
    refuses such a file.
    """
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        for part, values in (("W", w), ("b", b)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"layer {i} {part} holds a non-finite value")
    lines = [f"{_MAGIC} {_VERSION}", f"num_layers {net.num_layers}"]
    for i, spec in enumerate(net.specs):
        lines.append(
            f"layer {i} in {spec.in_dim} out {spec.out_dim} "
            f"activation {spec.activation}"
        )
        lines.append(f"W {spec.out_dim} {spec.in_dim}")
        row_fmt = _row_format(spec.in_dim)
        lines.extend(row_fmt % tuple(row) for row in net.weights[i].tolist())
        lines.append(f"b {spec.out_dim}")
        lines.append(_row_format(spec.out_dim) % tuple(net.biases[i].tolist()))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, path: str):
        self.path = path
        self.pos = 0
        try:
            with open(path, "r", encoding="utf-8") as handle:
                self.lines = handle.read().splitlines()
        except UnicodeDecodeError:
            raise ModelFormatError(f"{path}: not UTF-8 text") from None

    def error(self, message: str) -> ModelFormatError:
        """``message`` prefixed with the file and the line last read."""
        return ModelFormatError(f"{self.path}, line {self.pos}: {message}")

    def next(self, what: str) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        raise ModelFormatError(
            f"{self.path}: unexpected end of file while reading {what}"
        )

    def floats(self, count: int, what: str) -> np.ndarray:
        """The next nonblank line as ``count`` finite floats."""
        parts = self.next(what).split()
        if len(parts) != count:
            raise self.error(f"{what}: expected {count} values, found {len(parts)}")
        try:
            values = np.array(list(map(float, parts)), dtype=np.float64)
        except ValueError as exc:
            raise self.error(f"{what}: {exc}") from None
        if not np.all(np.isfinite(values)):
            raise self.error(f"{what} holds a non-finite value")
        return values


def load(path: str) -> Network:
    """Read a model file written by :func:`save`.

    Raises :class:`ModelFormatError` for a malformed file, and for a NaN or
    infinite weight or bias, naming the file and the line.
    """
    reader = _LineReader(path)
    header = reader.next("header").split()
    if len(header) != 2 or header[0] != _MAGIC:
        raise reader.error("not a lula-lab model file")
    if header[1] != _VERSION:
        raise reader.error(f"unsupported model version {header[1]!r}")
    fields = reader.next("num_layers").split()
    if len(fields) != 2 or fields[0] != "num_layers":
        raise reader.error("expected num_layers line")
    try:
        n_layers = int(fields[1])
    except ValueError:
        raise reader.error(f"bad num_layers: {fields[1]!r}") from None
    if n_layers < 1:
        raise reader.error("num_layers must be at least 1")

    specs, weights, biases = [], [], []
    for i in range(n_layers):
        fields = reader.next(f"layer {i} header").split()
        if (
            len(fields) != 8
            or fields[0] != "layer"
            or fields[2] != "in"
            or fields[4] != "out"
            or fields[6] != "activation"
        ):
            raise reader.error(f"malformed layer header at layer {i}")
        try:
            index, in_dim, out_dim = int(fields[1]), int(fields[3]), int(fields[5])
        except ValueError as exc:
            raise reader.error(f"layer {i} header: {exc}") from None
        if index != i:
            raise reader.error(f"layer index mismatch at layer {i}")
        act = fields[7]
        if i == n_layers - 1 and act != "identity":
            raise reader.error(
                f"layer {i} is the output layer, whose activation must be "
                f"identity, not {act!r}"
            )
        try:
            spec = LayerSpec(in_dim, out_dim, act)
        except ValueError as exc:
            raise reader.error(f"layer {i}: {exc}") from None
        if specs and in_dim != specs[-1].out_dim:
            raise reader.error(
                f"layer {i} reads {in_dim} inputs, but layer {i - 1} has "
                f"{specs[-1].out_dim} outputs"
            )
        w_header = reader.next(f"W header, layer {i}").split()
        if w_header != ["W", str(out_dim), str(in_dim)]:
            raise reader.error(f"malformed W header at layer {i}")
        rows = [reader.floats(in_dim, f"layer {i} W") for _ in range(out_dim)]
        b_header = reader.next(f"b header, layer {i}").split()
        if b_header != ["b", str(out_dim)]:
            raise reader.error(f"malformed b header at layer {i}")
        bias = reader.floats(out_dim, f"layer {i} b")
        specs.append(spec)
        weights.append(np.stack(rows, axis=0))
        biases.append(bias)
    return Network(specs, weights, biases)
