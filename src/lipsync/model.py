"""Conv1D + LSTM + dense regression network with exact numpy gradients.

Layer stack (widths for the production preset):

    features (T x 29)
      -> temporal conv, kernel 5, 32 channels, ReLU, same padding   x2
      -> unidirectional LSTM 128                                    x2
      -> unidirectional LSTM 64                                     x2
      -> dense 128 tanh
      -> dense 50 linear (low-dimensional embedding)
      -> dense V*3 linear (vertex displacement decoder)

``NetworkParams.layers`` lists the layers in that order, each a ``Layer``:
its kind and a weight and a bias; the number of LSTMs follows
``ArchConfig.lstm_sizes``. Every ``W`` and ``b`` is a view into one
contiguous float64 vector ``flat``, laid out by ``_bind`` from ``_tensors``,
the one table of checkpoint tensor names and shapes, in its order.
``backward`` returns gradients in the same layout, so the optimizer works
on whole vectors. Each LSTM holds its four gates fused into one
(4H, H + input) matrix, row blocks f, i, o, C.

Forward starts every sequence from zero LSTM state; ``forward_batch`` steps
several sequences through each LSTM together, bit-equal to running them one
at a time, and ``predictions`` runs a list of them in length-sorted batches
of at most ``_BATCH_FRAMES`` padded frames. Backward is full backpropagation
through time against a cache captured during the forward pass of one
sequence. All math is float64.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import Format, check_finite, read_into
from .errors import ConfigError, DataError, FileFormatError
from .features import CHAR_PROB_DIM, FeatureSequence
from .mesh import DisplacementSequence

CHECKPOINT_MAGIC = b"LSN1"
_LSN1 = Format(CHECKPOINT_MAGIC, "<II")  # V, tensor count
GATES = "fioC"  # row-block order of the fused LSTM gate matrix
DENSE_LAYERS = {"fc1": "tanh", "fc2": "linear", "decoder": "linear"}  # name: activation
# Every network reads CHAR_PROB_DIM-wide input. With ArchConfig.conv_channels
# it starts with _N_CONV temporal convolutions of kernel width _CONV_KERNEL.
_N_CONV = 2
_CONV_KERNEL = 5


@dataclass
class Layer:
    """One layer: its kind, and its weight and bias as views into ``flat``.

    ``kind`` is "conv", "lstm", or a dense layer's activation, "tanh" or
    "linear". ``W`` is (out_ch, in_ch, width) for a conv, (out, in) for a
    dense layer, and (4H, H + input) for an LSTM, whose gates act on the
    concatenated [h_prev, x_t] vector and are stacked in row blocks of H
    in the order f, i, o, C, as is ``b``.
    """

    kind: str
    W: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class ArchConfig:
    """Shape knobs; the defaults are the production preset. No conv channels is the LSTM-only network,
    and empty ``lstm_sizes`` a network with no LSTM, which trains, saves and loads like any other."""

    conv_channels: int = 32
    lstm_sizes: tuple[int, ...] = (128, 128, 64, 64)
    fc1_size: int = 128
    embedding_size: int = 50

    def __post_init__(self):
        for name, least in (("conv_channels", 0), ("lstm_sizes", 1), ("fc1_size", 1), ("embedding_size", 1)):
            value = getattr(self, name)
            values = value if name == "lstm_sizes" and isinstance(value, tuple) else [value]
            if not all(isinstance(n, int) and n >= least for n in values):
                kind = "a tuple of ints" if name == "lstm_sizes" else "an int"
                raise ConfigError(f"{name} must be {kind} >= {least}, got {value!r}")


@dataclass
class NetworkParams:
    layers: list[Layer]  # in flat order: convs, LSTMs, then fc1, fc2, decoder
    vertex_count: int
    arch: ArchConfig
    flat: np.ndarray  # every W and b is a view into this vector

    def items(self):
        """(LSN1 tensor name, view) pairs in ``flat`` order, one per LSTM gate block."""
        table = _tensors(self.arch, self.vertex_count)
        bounds = [0, *itertools.accumulate(math.prod(shape) for _, shape in table)]
        return [(name, self.flat[a:b].reshape(shape)) for (name, shape), a, b in zip(table, bounds, bounds[1:])]

    def copy(self) -> "NetworkParams":
        return _bind(self.arch, self.vertex_count, self.flat.copy())

    def read_only(self) -> "NetworkParams":
        """The same parameters, bound over a view of ``flat`` that refuses writes."""
        flat = self.flat.view()
        flat.flags.writeable = False
        return _bind(self.arch, self.vertex_count, flat)


@functools.lru_cache(maxsize=64)
def _tensors(arch: ArchConfig, vertex_count: int) -> tuple:
    """(LSN1 tensor name, shape) in ``flat`` order, the one table of parameter shapes: conv, LSTM,
    then dense layers, each weight before its bias, an LSTM's split into its gate row blocks."""
    n_conv = _N_CONV if arch.conv_channels else 0
    widths = [CHAR_PROB_DIM, *[arch.conv_channels] * n_conv, *arch.lstm_sizes]
    widths += [arch.fc1_size, arch.embedding_size, 3 * vertex_count]
    layers = [f"conv{n}" for n in range(1, n_conv + 1)]
    layers += [f"lstm{n}" for n in range(1, len(arch.lstm_sizes) + 1)] + list(DENSE_LAYERS)
    out = []
    for name, i, o in zip(layers, widths, widths[1:]):
        if name.startswith("conv"):
            out += [(f"{name}.kernels", (o, i, _CONV_KERNEL)), (f"{name}.bias", (o,))]
        elif name.startswith("lstm"):
            out += [(f"{name}.W_{gate}", (o, o + i)) for gate in GATES]
            out += [(f"{name}.b_{gate}", (o,)) for gate in GATES]
        else:
            out += [(f"{name}.weight", (o, i)), (f"{name}.bias", (o,))]
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _cuts(arch: ArchConfig, vertex_count: int) -> tuple:
    """(kind, start, stop, shape) in ``flat`` of each layer array, weight before bias; an LSTM's W
    or b spans its four gate blocks. The kind is the layer name's, or a dense layer's activation."""
    table = [(name.split(".")[0], (rows * len(GATES) if name.endswith("_f") else rows, *cols))
             for name, (rows, *cols) in _tensors(arch, vertex_count) if not name.endswith(("_i", "_o", "_C"))]
    bounds = [0, *itertools.accumulate(math.prod(shape) for _, shape in table)]
    return tuple((DENSE_LAYERS.get(layer, layer.rstrip("0123456789")), a, b, shape)
                 for (layer, shape), a, b in zip(table, bounds, bounds[1:]))


def _bind(arch: ArchConfig, vertex_count: int, flat=None) -> NetworkParams:
    """Lay the layers of ``arch`` out as views into one float64 vector, zeros by default."""
    cuts = _cuts(arch, vertex_count)
    if flat is None:
        flat = np.zeros(cuts[-1][2])
    views = [flat[a:b].reshape(shape) for _, a, b, shape in cuts]
    layers = [Layer(kind, w, b) for (kind, *_), w, b in zip(cuts[::2], views[::2], views[1::2])]
    return NetworkParams(layers=layers, vertex_count=vertex_count, arch=arch, flat=flat)


def init_params(seed: int, vertex_count: int, arch: ArchConfig = ArchConfig()) -> NetworkParams:
    """Glorot-uniform weights, zero biases, LSTM forget-gate bias 1.0.

    Each tensor of rank >= 2 is drawn in ``flat`` order, fan-in ``shape[1] * k``
    and fan-out ``shape[0] * k`` for kernel width k, else 1."""
    if vertex_count < 1:
        raise ConfigError("vertex_count must be >= 1")
    rng = np.random.default_rng(seed)
    net = _bind(arch, vertex_count)
    for name, arr in net.items():
        if arr.ndim >= 2:
            k = math.prod(arr.shape[2:])
            limit = np.sqrt(6.0 / (arr.shape[1] * k + arr.shape[0] * k))
            arr[...] = rng.uniform(-limit, limit, size=arr.shape)
        elif name.endswith(".b_f"):
            arr[...] = 1.0  # keeps long-range memory open early in training
    return net


# ---------------------------------------------------------------------------
# per-layer primitives


@dataclass
class _LstmCache:
    x: np.ndarray
    h_prev: np.ndarray  # h_{t-1} rows, zeros at t=0
    gates: np.ndarray  # (T, 4H): sigmoid f, i, o and the candidate tanh(...)
    c: np.ndarray


def _lstm_forward(p: Layer, xs: list, tape: bool = True):
    """Run the layer over a list of (T_j, input) sequences stepped together.

    Slots hold the sequences longest first, so the ones still running at
    step t are a prefix of k slots and nothing is padded or masked. Each
    sequence keeps its own input-projection product, and the recurrent
    term is one matrix-vector product per running sequence, so every
    output is bit-equal to running the sequence alone. Returns the h rows
    of each sequence, in input order, and with ``tape`` their backward
    caches (else None). Only h keeps its history without a tape.
    """
    hid = p.W.shape[0] // 4
    width = p.W.shape[1] - hid
    for x in xs:
        if x.shape[1] != width:
            raise DataError(f"lstm layer expects input dim {width}, got {x.shape[1]}")
    n = len(xs)
    order = sorted(range(n), key=lambda j: -len(xs[j]))
    lengths = [len(xs[j]) for j in order] + [0]
    t_max = lengths[0]
    # Time-major: step t reads row t of h and c, writes row t + 1, and with
    # a tape overwrites its input projections in gates with the gate values.
    gates = np.empty((t_max, n, 4 * hid))
    h = np.zeros((t_max + 1, n, hid))
    # Without a tape, a step's gates go to work and C_t lives in row t % 2 of c.
    c = np.zeros((t_max + 1 if tape else 2, n, hid))
    work = None if tape else np.empty((n, 4 * hid))
    # The sigmoid rows hold -pre, so exp takes them as they are. Negation is
    # exact, and a dot product with negated weights is the exact negation of
    # the original, so every gate keeps the bits of 1 / (1 + exp(-pre)).
    for slot, j in enumerate(order):
        proj = gates[: lengths[slot], slot]
        np.matmul(xs[j], p.W[:, hid:].T, out=proj)
        np.add(proj, p.b, out=proj)
        np.negative(proj[:, : 3 * hid], out=proj[:, : 3 * hid])
    w_h = p.W[:, :hid].copy()
    np.negative(w_h[: 3 * hid], out=w_h[: 3 * hid])
    rec, tmp, ones = np.empty((n, 4 * hid)), np.empty((n, hid)), np.ones((n, 3 * hid))
    # all four gates, the three sigmoids, the candidate, then f, i and o
    cuts = (slice(None), slice(3 * hid), slice(3 * hid, None), *(slice(m * hid, (m + 1) * hid) for m in range(3)))
    add, multiply, exp, divide, tanh = np.add, np.multiply, np.exp, np.divide, np.tanh

    for k in range(n, 0, -1):
        # Steps t0 .. t1 - 1 run the first k slots (lengths[n] is the appended
        # 0); their operands are built once. One running sequence uses 1-D
        # rows and takes the same gemv through np.dot, without the stacked
        # matmul's call overhead.
        t0, t1 = lengths[k], lengths[k - 1]
        if k == 1:
            run, product, h_in, rec_out = 0, np.dot, h[t0:t1, 0], rec[0]
        else:
            run, product, h_in, rec_out = slice(k), np.matmul, h[t0:t1, :k, :, None], rec[:k, :, None]
        proj = gates[t0:t1, run]
        if tape:
            steps = (proj, *(proj[..., cut] for cut in cuts), h_in, h[t0 + 1 : t1 + 1, run],
                     c[t0:t1, run], c[t0 + 1 : t1 + 1, run])
        else:
            c_rows = (c[t0 % 2, run], c[1 - t0 % 2, run])
            steps = (proj, *(itertools.repeat(work[run][..., cut]) for cut in cuts), h_in, h[t0 + 1 : t1 + 1, run],
                     itertools.cycle(c_rows), itertools.cycle(c_rows[::-1]))
        rec_k, tmp_k, ones_k = rec[run], tmp[run], ones[run]
        for x_t, s, sig, cand, f, i, o, h_t, h_next, c_t, c_next in zip(*steps):
            product(w_h, h_t, rec_out)
            add(x_t, rec_k, s)
            exp(sig, sig)
            add(sig, ones_k, sig)
            divide(ones_k, sig, sig)
            tanh(cand, cand)
            multiply(f, c_t, c_next)
            multiply(i, cand, tmp_k)
            add(c_next, tmp_k, c_next)
            tanh(c_next, tmp_k)
            multiply(o, tmp_k, h_next)

    hs, caches = [None] * n, [None] * n
    for slot, j in enumerate(order):
        t_len = lengths[slot]
        hs[j] = h[1 : t_len + 1, slot]
        if tape:
            caches[j] = _LstmCache(x=xs[j], h_prev=h[:t_len, slot], gates=gates[:t_len, slot], c=c[1 : t_len + 1, slot])
    return hs, caches if tape else None


def _lstm_backward(p: Layer, cache: _LstmCache, dh_seq, grad: Layer):
    t_len, hid = dh_seq.shape
    w_h = p.W[:, :hid]  # a contiguous copy would move bits of dpre_t @ w_h at small H
    f, i, o, g = (cache.gates[:, k * hid : (k + 1) * hid] for k in range(4))
    c_prev = np.vstack([np.zeros(hid), cache.c[:-1]])
    # The recurrence only carries dh and dC; every other factor of the gate
    # pre-activation gradients is known for all steps up front:
    #   dpre[t] = dC_t * by_dc[t] + dh_t * [0, 0, by_dh_o[t], 0]
    by_dc = np.stack(
        [c_prev * f * (1.0 - f), g * i * (1.0 - i), np.zeros_like(o), i * (1.0 - g**2)], axis=1
    )
    tanh_c = np.tanh(cache.c)
    by_dh_o = tanh_c * o * (1.0 - o)
    dc_by_dh = o * (1.0 - tanh_c**2)

    dpre = np.empty((t_len, 4 * hid))
    blocks = dpre.reshape(t_len, 4, hid)
    dh_carry, dh, dc, tmp = np.zeros(hid), np.empty(hid), np.zeros(hid), np.empty(hid)
    add, multiply, matmul = np.add, np.multiply, np.matmul
    # Reversed row views, built once; each step writes into its last operand.
    rows = (dh_seq, dc_by_dh, by_dc, dpre, blocks, blocks[:, 2], by_dh_o, f)
    for dh_t, dc_by_dh_t, by_dc_t, dpre_t, d, d_o, by_dh_o_t, f_t in zip(*(r[::-1] for r in rows)):
        add(dh_t, dh_carry, dh)
        multiply(dh, dc_by_dh_t, tmp)
        add(dc, tmp, dc)
        multiply(by_dc_t, dc, d)
        multiply(dh, by_dh_o_t, d_o)
        matmul(dpre_t, w_h, dh_carry)
        multiply(dc, f_t, dc)

    np.matmul(dpre.T, np.hstack([cache.h_prev, cache.x]), out=grad.W)
    np.sum(dpre, axis=0, out=grad.b)
    return dpre @ p.W[:, hid:]


def _conv_forward(p: Layer, x: np.ndarray):
    t_len, in_ch = x.shape
    out_ch, expected, k = p.W.shape
    if in_ch != expected:
        raise DataError(f"conv expects {expected} channels, got {in_ch}")
    pad = (k - 1) // 2
    xp = np.zeros((t_len + k - 1, in_ch))
    xp[pad : pad + t_len] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)  # (T, in_ch, k)
    flat = windows.reshape(t_len, in_ch * k)
    pre = flat @ p.W.reshape(out_ch, in_ch * k).T + p.b
    y = np.maximum(pre, 0.0)
    return y, (xp, flat, pre > 0.0)


def _conv_backward(p: Layer, cache, dy: np.ndarray, grad: Layer):
    xp, flat, mask = cache
    k = p.W.shape[2]
    pad = (k - 1) // 2
    t_len = len(dy)
    dpre = dy * mask
    grad.W[...] = (dpre.T @ flat).reshape(p.W.shape)
    grad.b[...] = dpre.sum(axis=0)
    dxp = np.zeros_like(xp)
    for j in range(k):
        dxp[j : j + t_len] += dpre @ p.W[:, :, j]
    return dxp[pad : pad + t_len]


def _dense_forward(p: Layer, x: np.ndarray):
    y = x @ p.W.T + p.b
    if p.kind == "tanh":
        y = np.tanh(y)
    return y, (x, y)


def _dense_backward(p: Layer, cache, dy: np.ndarray, grad: Layer):
    x, y = cache
    dpre = dy * (1.0 - y**2) if p.kind == "tanh" else dy
    grad.W[...] = dpre.T @ x
    grad.b[...] = dpre.sum(axis=0)
    return dpre @ p.W


# Layer.kind -> primitive; the LSTM forward steps every sequence together, in _run_layers.
_FORWARD = {"conv": _conv_forward, "tanh": _dense_forward, "linear": _dense_forward}
_BACKWARD = {"conv": _conv_backward, "lstm": _lstm_backward, "tanh": _dense_backward, "linear": _dense_backward}


# ---------------------------------------------------------------------------
# full network

# Padded frames (sequences x the batch's longest length) that predictions
# runs through forward_batch together; bounds the batched LSTM buffers.
# Larger budgets raise the peak RSS once eval's batches outgrow train's peak.
_BATCH_FRAMES = 1536


def _input(feats: FeatureSequence) -> np.ndarray:
    x = np.asarray(feats.data, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != CHAR_PROB_DIM:
        raise DataError(f"network expects T x {CHAR_PROB_DIM} features, got {x.shape}")
    return x


def _run_layers(net: NetworkParams, xs: list, tapes=None) -> list:
    """Network outputs for a list of (T_j, D) inputs; when ``tapes`` is a
    list, each layer appends its per-sequence caches to it."""
    for layer in net.layers:
        if layer.kind == "lstm":
            xs, caches = _lstm_forward(layer, xs, tapes is not None)
        else:
            xs, caches = zip(*(_FORWARD[layer.kind](layer, x) for x in xs))
        if tapes is not None:
            tapes.append(caches)
        del caches  # otherwise a layer's buffers live on while the next one runs
    return xs


def _displacements(net: NetworkParams, y: np.ndarray, feats: FeatureSequence) -> DisplacementSequence:
    return DisplacementSequence(frames=y.reshape(len(y), net.vertex_count, 3), fps=feats.fps)


def forward_with_cache(net: NetworkParams, feats: FeatureSequence):
    """The network's output for a feature sequence, and for backward the list of each layer's tape."""
    tapes = []
    (y,) = _run_layers(net, [_input(feats)], tapes)
    return _displacements(net, y, feats), [tape for (tape,) in tapes]


def forward(net: NetworkParams, feats: FeatureSequence) -> DisplacementSequence:
    """Vertex displacements for a feature sequence, one pose per input frame."""
    (y,) = _run_layers(net, [_input(feats)])
    return _displacements(net, y, feats)


def forward_batch(net: NetworkParams, seqs) -> list:
    """``forward(net, f)`` for each feature sequence f, in input order, all run through the network
    together; each output is bit-equal to the one ``forward`` gives."""
    ys = _run_layers(net, [_input(feats) for feats in seqs]) if seqs else []
    return [_displacements(net, y, feats) for y, feats in zip(ys, seqs)]


def _batches(lengths) -> list:
    """Index lists of batches, longest first by a stable sort: a batch takes the next sequence while its
    count times its first length stays within ``_BATCH_FRAMES``, and a longer sequence runs alone."""
    batches = []
    for j in sorted(range(len(lengths)), key=lambda j: -lengths[j]):
        if batches and (len(batches[-1]) + 1) * lengths[batches[-1][0]] <= _BATCH_FRAMES:
            batches[-1].append(j)
        else:
            batches.append([j])
    return batches


def predictions(net: NetworkParams, seqs):
    """Yield ``(j, forward(net, seqs[j]))`` for every j, one ``_batches`` batch at a time."""
    for batch in _batches([feats.n_frames for feats in seqs]):
        # forward_batch is looked up in the module on each call, so a profiler's wrapper times every batch
        yield from zip(batch, forward_batch(net, [seqs[j] for j in batch]))


def backward(net: NetworkParams, cache: list, upstream: np.ndarray, out=None) -> NetworkParams:
    """Gradients of sum(upstream * output) w.r.t. every parameter.

    ``upstream`` is dLoss/dOutput with shape T x V x 3 from a matching
    forward_with_cache call. The result has the layout of ``net``: its
    ``flat`` is the gradient vector and ``items()`` names its pieces.
    Every element is written, into ``out`` when given (a float64 vector
    the size of ``net.flat``, whose old contents are ignored) or else into
    a new vector.
    """
    if cache is None:
        raise DataError("backward needs the cache returned by forward_with_cache")
    upstream = np.asarray(upstream, dtype=np.float64)
    _, y = cache[-1]  # the decoder's output, T x 3V
    shape = (len(y), y.shape[1] // 3, 3)
    if upstream.shape != shape:
        raise DataError(f"upstream gradient shape {upstream.shape} does not match forward output {shape}")
    grads = _bind(net.arch, net.vertex_count, out)
    d = upstream.reshape(len(upstream), -1)
    for layer, grad, tape in reversed(list(zip(net.layers, grads.layers, cache))):
        d = _BACKWARD[layer.kind](layer, tape, d, grad)
    return grads


# ---------------------------------------------------------------------------
# checkpoint container


def save_checkpoint(net: NetworkParams, path) -> None:
    """LSN1 container: magic | u32 V | u32 tensor count | named f64 tensors."""
    items = net.items()
    blobs = []
    for name, arr in items:
        encoded = name.encode()
        blobs.append(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
        blobs.append(np.ascontiguousarray(arr, dtype="<f8"))
    _LSN1.write(path, (net.vertex_count, len(items)), *blobs)


def load_checkpoint(path) -> NetworkParams:
    """Read an LSN1 checkpoint.

    One pass over the tensor table finds each tensor's dims and payload
    offset, and the dims alone give the architecture. Every tensor is
    checked against the layout before ``flat`` is allocated: each payload
    fits in the file, so a network they match fits too. Each payload is then
    read straight into its view of ``flat``. When a name occurs twice, the
    later tensor wins.
    """
    path = Path(path)
    with _LSN1.open(path) as (fh, size, (vertex_count, n_tensors)):
        tensors = _read_table(fh, size, n_tensors, path)
        arch = _arch_from_dims({name: dims for name, (dims, _) in tensors.items()}, str(path))
        layout = _tensors(arch, vertex_count)
        n_params = sum(math.prod(shape) for _, shape in layout)
        for name, shape in layout:
            if name not in tensors:
                raise FileFormatError(f"missing tensor {name}", path=str(path))
            dims = tensors[name][0]
            if dims != shape:
                message = f"tensor {name} has shape {dims}, the layout needs {shape}"
                # A header V, or one layer's shape read into the next, can
                # describe a network far larger than the file.
                if n_params > sum(math.prod(d) for d, _ in tensors.values()):
                    message = f"tensor shapes describe a network larger than the payload: {message}"
                raise FileFormatError(message, path=str(path))
        unexpected = set(tensors) - {name for name, _ in layout}
        if unexpected:
            raise FileFormatError(f"unexpected tensor {min(unexpected)}", path=str(path))
        net = _bind(arch, vertex_count, np.empty(n_params, dtype="<f8"))
        for name, view in net.items():
            read_into(fh, view, path, tensors[name][1])
    if not np.isfinite(net.flat).all():
        check_finite(path, [(tensors[name][1], view) for name, view in net.items()])
    return net


def _read_table(fh, size: int, n_tensors: int, path) -> dict:
    """name -> (dims, payload offset) for each entry of the LSN1 tensor table.

    ``size`` is the file's length. It bounds every read, so a corrupt length
    field cannot ask for more memory than the file holds.
    """
    pos = _LSN1.header_size

    def take(n):
        nonlocal pos
        if size - pos < n:
            raise FileFormatError("truncated tensor table", path=str(path), offset=pos)
        pos += n
        return fh.read(n)

    tensors = {}
    for _ in range(n_tensors):
        start = pos
        fh.seek(pos)
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = fh.read(min(name_len, size - pos)).decode()
        except UnicodeDecodeError:
            raise FileFormatError("tensor name is not UTF-8", path=str(path), offset=pos)
        pos += name_len
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        # Layout tensors have rank 1..3 and no zero dimension. A zero
        # dimension would let any other dims past the payload size check.
        if not 1 <= rank <= 3 or 0 in dims:
            raise FileFormatError(f"tensor {name!r} has dims {dims}", path=str(path), offset=start)
        count = math.prod(dims)
        if size - pos < 8 * count:
            raise FileFormatError("truncated tensor payload", path=str(path), offset=pos)
        tensors[name] = (dims, pos)
        pos += 8 * count
    return tensors


def _arch_from_dims(dims: dict, path: str) -> ArchConfig:
    """The architecture that LSN1 tensors of these dims describe."""
    # Only row counts vary; another input or kernel width fails the layout.
    def rows(name):
        if name not in dims:
            raise FileFormatError(f"missing tensor {name}", path=path)
        return dims[name][0]

    n_lstm = 0
    while f"lstm{n_lstm + 1}.W_f" in dims:
        n_lstm += 1
    return ArchConfig(
        conv_channels=rows("conv1.kernels") if "conv1.kernels" in dims else 0,
        lstm_sizes=tuple(rows(f"lstm{n}.W_f") for n in range(1, n_lstm + 1)),
        fc1_size=rows("fc1.weight"),
        embedding_size=rows("fc2.weight"),
    )
