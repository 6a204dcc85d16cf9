import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    OTHER_WIDTHS,
    TINY_ARCH,
    other_width_tensors,
    random_features,
    reference_load,
    tiny_net,
    write_lsn1,
)
from lipsync import model, training
from lipsync.errors import ConfigError, DataError, FileFormatError
from lipsync.features import FeatureSequence
from lipsync.mesh import DisplacementSequence
from lipsync.model import ArchConfig, Layer


def zero_cell(hidden, input_dim):
    return Layer("lstm", np.zeros((4 * hidden, hidden + input_dim)), np.zeros(4 * hidden))


def lstms(net):
    """The layers of kind "lstm" in ``net``, in order."""
    return [layer for layer in net.layers if layer.kind == "lstm"]


def hidden_size(cell):
    """Hidden width H of an LSTM layer."""
    return cell.W.shape[0] // 4


def input_size(cell):
    """Input width of an LSTM layer."""
    return cell.W.shape[1] - hidden_size(cell)


def lstm_step(p, x_t, h_prev, c_prev):
    """One LSTM cell update, (h_t, C_t): the reference for the layer recurrence.

    f = sig(W_f [h,x] + b_f),  i and o likewise,  C~ = tanh(W_C [h,x] + b_C),
    C_t = f * C_prev + i * C~,  h_t = o * tanh(C_t), where W_f is the first
    row block of ``p.W``.
    """
    hid = hidden_size(p)
    a = p.W @ np.concatenate([h_prev, x_t]) + p.b
    f, i, o = (1.0 / (1.0 + np.exp(-a[: 3 * hid]))).reshape(3, hid)
    c_t = f * c_prev + i * np.tanh(a[3 * hid :])
    return o * np.tanh(c_t), c_t


def reference_lstm_forward(p, x):
    """The layer over one sequence, one step at a time: the oracle for the
    batched recurrence. Returns the h rows, the C rows and the gate rows
    (sigmoid f, i, o and the candidate tanh) that the backward reads."""
    t_len = len(x)
    hid = hidden_size(p)
    pre = x @ p.W[:, hid:].T + p.b
    w_h = p.W[:, :hid]
    c = np.empty((t_len, hid))
    gates = np.empty((t_len, 4 * hid))
    h_all = np.zeros((t_len + 1, hid))
    c_state = np.zeros(hid)
    for t in range(t_len):
        a = pre[t] + w_h @ h_all[t]
        s = gates[t]
        s[: 3 * hid] = 1.0 / (1.0 + np.exp(-a[: 3 * hid]))
        s[3 * hid :] = np.tanh(a[3 * hid :])
        c_state = s[:hid] * c_state + s[hid : 2 * hid] * s[3 * hid :]
        c[t] = c_state
        np.multiply(s[2 * hid : 3 * hid], np.tanh(c_state), out=h_all[t + 1])
    return h_all[1:], c, gates


def reference_lstm_backward(p, cache, dh_seq, grad):
    """BPTT through one layer with a fresh array per step: the oracle for the
    buffered step loop of ``model._lstm_backward``."""
    t_len, hid = dh_seq.shape
    w_h = p.W[:, :hid]
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
    dh_carry = np.zeros(hid)
    dc = np.zeros(hid)
    for t in range(t_len - 1, -1, -1):
        dh = dh_seq[t] + dh_carry
        dc = dc + dh * dc_by_dh[t]
        d = dpre[t].reshape(4, hid)
        np.multiply(by_dc[t], dc, out=d)
        np.multiply(dh, by_dh_o[t], out=d[2])
        dh_carry = dpre[t] @ w_h
        dc = dc * f[t]

    grad.W[...] = dpre.T @ np.hstack([cache.h_prev, cache.x])
    grad.b[...] = dpre.sum(axis=0)
    return dpre @ p.W[:, hid:]


def reference_forward(net, feats):
    """Network output frames for one sequence through the per-sequence LSTM oracle."""
    x = np.asarray(feats.data, dtype=np.float64)
    for layer in net.layers:
        if layer.kind == "lstm":
            x, _, _ = reference_lstm_forward(layer, x)
        else:
            x, _ = model._FORWARD[layer.kind](layer, x)
    return x.reshape(len(x), net.vertex_count, 3)


def conv1d_forward(p, x):
    """Same-padded temporal convolution followed by ReLU; length preserved."""
    return model._conv_forward(p, np.asarray(x, dtype=np.float64))[0]


class TestLstmStep:
    def test_all_zero_parameters(self):
        p = zero_cell(3, 2)
        h, c = lstm_step(p, np.array([0.7, -0.4]), np.zeros(3), np.zeros(3))
        # every gate sigmoid(0) = 0.5, candidate tanh(0) = 0
        assert np.array_equal(c, np.zeros(3))
        assert np.array_equal(h, np.zeros(3))

    def test_zero_weights_nonzero_cell_state(self):
        p = zero_cell(3, 2)
        c_prev = np.array([1.0, -2.0, 0.5])
        h, c = lstm_step(p, np.zeros(2), np.zeros(3), c_prev)
        assert np.allclose(c, 0.5 * c_prev, atol=1e-15)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_matches_scalar_transcription(self):
        # independent oracle: the cell update evaluated scalar by scalar
        rng = np.random.default_rng(9)
        hidden, input_dim = 2, 3
        p = Layer("lstm", rng.standard_normal((4 * hidden, hidden + input_dim)), rng.standard_normal(4 * hidden))
        x = rng.standard_normal(input_dim)
        h_prev = rng.standard_normal(hidden)
        c_prev = rng.standard_normal(hidden)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        def gate(block, r):
            # row r of gate block f=0, i=1, o=2, C=3 of the fused matrix
            row = block * hidden + r
            return sum(p.W[row][k] * z[k] for k in range(len(z))) + p.b[row]

        z = list(h_prev) + list(x)
        h_exp, c_exp = [], []
        for r in range(hidden):
            f = sig(gate(0, r))
            i = sig(gate(1, r))
            o = sig(gate(2, r))
            g = math.tanh(gate(3, r))
            c = f * c_prev[r] + i * g
            c_exp.append(c)
            h_exp.append(o * math.tanh(c))

        h, c = lstm_step(p, x, h_prev, c_prev)
        assert np.allclose(h, h_exp, atol=1e-12)
        assert np.allclose(c, c_exp, atol=1e-12)

    def test_dimension_mismatch(self):
        p = zero_cell(3, 2)
        with pytest.raises(DataError, match="lstm layer expects input dim 2, got 5"):
            model._lstm_forward(p, [np.zeros((3, 2)), np.zeros((4, 5))])

    def test_layer_matches_repeated_steps(self):
        rng = np.random.default_rng(4)
        net = tiny_net(seed=4)
        for cell in (lstms(net)[0], lstms(net)[2]):
            x = rng.standard_normal((12, input_size(cell)))
            (h_seq,), (cache,) = model._lstm_forward(cell, [x])
            h = np.zeros(hidden_size(cell))
            c = np.zeros(hidden_size(cell))
            for t in range(12):
                h, c = lstm_step(cell, x[t], h, c)
                assert np.allclose(h_seq[t], h, atol=1e-12)
                assert np.allclose(cache.c[t], c, atol=1e-12)

    def test_layer_backward_matches_per_gate_reference(self):
        # reference: BPTT written with one product per gate block
        rng = np.random.default_rng(11)
        cell = lstms(tiny_net(seed=11))[1]
        hid = hidden_size(cell)
        x = rng.standard_normal((10, input_size(cell)))
        dh_seq = rng.standard_normal((10, hid))
        _, (cache,) = model._lstm_forward(cell, [x])
        tanh_c = np.tanh(cache.c)
        grad = zero_cell(hid, input_size(cell))
        dx = model._lstm_backward(cell, cache, dh_seq, grad)

        blocks = [slice(k * hid, (k + 1) * hid) for k in range(4)]
        f, i, o, g = (cache.gates[:, b] for b in blocks)
        dpre = np.zeros((10, 4 * hid))
        dh_carry, dc = np.zeros(hid), np.zeros(hid)
        for t in range(9, -1, -1):
            dh = dh_seq[t] + dh_carry
            dc = dc + dh * o[t] * (1.0 - tanh_c[t] ** 2)
            c_prev = cache.c[t - 1] if t > 0 else 0.0
            dpre[t, blocks[0]] = dc * c_prev * f[t] * (1.0 - f[t])
            dpre[t, blocks[1]] = dc * g[t] * i[t] * (1.0 - i[t])
            dpre[t, blocks[2]] = dh * tanh_c[t] * o[t] * (1.0 - o[t])
            dpre[t, blocks[3]] = dc * i[t] * (1.0 - g[t] ** 2)
            dh_carry = sum(cell.W[b, :hid].T @ dpre[t, b] for b in blocks)
            dc = dc * f[t]
        z = np.hstack([cache.h_prev, x])
        for b in blocks:
            assert np.allclose(grad.W[b], dpre[:, b].T @ z, rtol=1e-12, atol=1e-14)
            assert np.allclose(grad.b[b], dpre[:, b].sum(axis=0), rtol=1e-12, atol=1e-14)
        expected_dx = sum(dpre[:, b] @ cell.W[b, hid:] for b in blocks)
        assert np.allclose(dx, expected_dx, rtol=1e-12, atol=1e-14)


class TestConv1d:
    def test_delta_kernel_is_relu_identity(self):
        kernels = np.zeros((1, 1, 5))
        kernels[0, 0, 2] = 1.0
        p = Layer("conv", kernels, np.zeros(1))
        x = np.array([[-1.0], [2.0], [-3.0], [4.0], [0.5]])
        out = conv1d_forward(p, x)
        assert np.array_equal(out, np.maximum(x, 0.0))

    def test_zero_input_gives_relu_bias(self):
        rng = np.random.default_rng(1)
        p = Layer("conv", rng.standard_normal((4, 2, 5)), rng.standard_normal(4))
        out = conv1d_forward(p, np.zeros((6, 2)))
        assert np.allclose(out, np.tile(np.maximum(p.b, 0.0), (6, 1)), atol=1e-15)

    def test_matches_naive_sliding_window(self):
        # oracle: O(T * k) triple loop over zero-padded input
        rng = np.random.default_rng(2)
        p = Layer("conv", rng.standard_normal((2, 3, 5)), rng.standard_normal(2))
        x = rng.standard_normal((7, 3))
        expected = np.zeros((7, 2))
        for t in range(7):
            for o in range(2):
                acc = p.b[o]
                for k in range(5):
                    src = t + k - 2
                    if 0 <= src < 7:
                        acc += float(p.W[o, :, k] @ x[src])
                expected[t, o] = max(acc, 0.0)
        assert np.allclose(conv1d_forward(p, x), expected, atol=1e-12)

    def test_channel_mismatch(self):
        p = Layer("conv", np.zeros((2, 3, 5)), np.zeros(2))
        with pytest.raises(DataError, match="conv expects 3 channels, got 4"):
            conv1d_forward(p, np.zeros((4, 4)))


class TestForward:
    def test_length_preserved(self):
        net = tiny_net()
        out = model.forward(net, random_features(np.random.default_rng(0), 120))
        assert out.n_frames == 120
        assert out.frames.shape == (120, 5, 3)

    def test_zero_parameters_give_zero_output(self):
        net = tiny_net()
        for _, arr in net.items():
            arr[:] = 0.0
        out = model.forward(net, random_features(np.random.default_rng(1), 20))
        assert np.array_equal(out.frames, np.zeros((20, 5, 3)))

    def test_prefix_property_conv(self):
        # two stacked width-5 convs see 4 frames ahead; everything earlier
        # must agree between a 10-frame and a 20-frame run
        net = tiny_net(seed=7)
        feats = random_features(np.random.default_rng(7), 20)
        short = model.forward(net, FeatureSequence(data=feats.data[:10])).frames
        long = model.forward(net, feats).frames
        assert np.allclose(short[:6], long[:6], atol=1e-9, rtol=1e-9)

    def test_prefix_property_lstm_only_is_exact(self):
        net = tiny_net(seed=7, conv=False)
        feats = random_features(np.random.default_rng(8), 20)
        short = model.forward(net, FeatureSequence(data=feats.data[:10])).frames
        long = model.forward(net, feats).frames
        assert np.array_equal(short, long[:10])

    def test_causality_halo(self):
        # perturbing frame t cannot change outputs before t - 4 (conv halo)
        net = tiny_net(seed=5)
        rng = np.random.default_rng(5)
        feats = random_features(rng, 15)
        base = model.forward(net, feats).frames
        bumped = feats.data.copy()
        bumped[9] += 1.0
        out = model.forward(net, FeatureSequence(data=bumped)).frames
        assert np.array_equal(out[:5], base[:5])
        assert not np.allclose(out[5:], base[5:])

    def test_feature_dim_mismatch(self):
        net = tiny_net()
        with pytest.raises(DataError, match=r"network expects T x 29 features, got \(10, 13\)"):
            model.forward(net, FeatureSequence(data=np.zeros((10, 13))))


def shuffled_lengths(seed, longest=120):
    return np.random.default_rng(seed).permutation(np.arange(1, longest + 1))


class TestBatchedForward:
    """The batched recurrence against the per-sequence oracle, bit for bit."""

    def check_layer(self, lengths, tape):
        # without a tape, C alternates between two rows and only h is returned
        rng = np.random.default_rng(12)
        cell = lstms(tiny_net(seed=12))[0]
        xs = [rng.standard_normal((t, input_size(cell))) for t in lengths]
        hs, caches = model._lstm_forward(cell, xs, tape)
        assert len(hs) == len(xs)
        assert len(caches) == len(xs) if tape else caches is None
        for j, (x, h) in enumerate(zip(xs, hs)):
            h_ref, c_ref, gates_ref = reference_lstm_forward(cell, x)
            assert np.array_equal(h, h_ref)
            if tape:
                cache = caches[j]
                assert np.array_equal(cache.c, c_ref)
                assert np.array_equal(cache.gates, gates_ref)
                assert np.array_equal(cache.h_prev, np.vstack([np.zeros((1, hidden_size(cell))), h_ref])[:-1])
                assert cache.x is x

    @pytest.mark.parametrize("tape", [True, False], ids=["tape", "no-tape"])
    def test_layer_matches_oracle(self, tape):
        self.check_layer([5, 0, 17, 1, 17, 9], tape)

    @pytest.mark.parametrize("tape", [True, False], ids=["tape", "no-tape"])
    @pytest.mark.parametrize(
        "lengths",
        [[1], [3, 3, 3], [0, 0], [], [4, 3, 1], [6, 4, 1]],
        ids=["one-step", "equal", "all-empty", "none", "odd-t-shrink", "even-t-shrink"],
    )
    def test_layer_segment_edges(self, lengths, tape):
        # each distinct length ends a run of steps over the same sequences;
        # the last two shrink the running prefix after odd and even step counts
        self.check_layer(lengths, tape)

    @pytest.mark.parametrize(
        "arch",
        [
            TINY_ARCH,
            ArchConfig(),
            ArchConfig(conv_channels=0),
            ArchConfig(conv_channels=4, lstm_sizes=(6, 3), fc1_size=10, embedding_size=6),
            ArchConfig(conv_channels=4, lstm_sizes=(6, 6, 3, 3, 3), fc1_size=10, embedding_size=6),
        ],
        ids=["tiny", "production", "lstm-only", "2-lstm", "5-lstm"],
    )
    def test_matches_per_sequence_oracle(self, arch):
        # lengths 1..120 in shuffled order, all run through the network together
        rng = np.random.default_rng(3)
        net = model.init_params(3, 5, arch)
        seqs = [random_features(rng, t) for t in shuffled_lengths(3)]
        outs = list(model.forward_batch(net, seqs))
        assert len(outs) == len(seqs)
        for feats, out in zip(seqs, outs):
            assert out.fps == feats.fps
            assert np.array_equal(out.frames, reference_forward(net, feats))

    @pytest.mark.parametrize("budget", [1, 45, 120, 400])
    def test_chunk_size_does_not_change_outputs(self, budget, monkeypatch):
        # lengths 1..40 in 40, 26, 9 and 3 batches of at most budget padded frames
        rng = np.random.default_rng(4)
        net = tiny_net(seed=4)
        seqs = [random_features(rng, t) for t in shuffled_lengths(4, longest=40)]
        monkeypatch.setattr(model, "_BATCH_FRAMES", budget)
        outs = dict(model.predictions(net, seqs))
        assert sorted(outs) == list(range(len(seqs)))
        for feats, out in zip(seqs, (outs[j] for j in range(len(seqs)))):
            assert np.array_equal(out.frames, reference_forward(net, feats))

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(0, 60), max_size=30), budget=st.integers(1, 200))
    def test_batches_sorted_and_bounded(self, lengths, budget):
        # the function-scoped monkeypatch fixture would not reset between hypothesis examples
        saved, model._BATCH_FRAMES = model._BATCH_FRAMES, budget
        try:
            batches = model._batches(lengths)
        finally:
            model._BATCH_FRAMES = saved
        order = [j for batch in batches for j in batch]
        assert sorted(order) == list(range(len(lengths)))
        assert all(lengths[a] >= lengths[b] for a, b in zip(order, order[1:]))
        assert all(a < b for a, b in zip(order, order[1:]) if lengths[a] == lengths[b])
        for batch in batches:
            assert len(batch) == 1 or len(batch) * lengths[batch[0]] <= budget

    def test_single_sequence_forward_matches_oracle(self):
        net = model.init_params(0, 5)
        feats = random_features(np.random.default_rng(5), 137)
        assert np.array_equal(model.forward(net, feats).frames, reference_forward(net, feats))

    @pytest.mark.parametrize("conv", [True, False], ids=["conv", "lstm-only"])
    def test_read_only_parameters_give_the_same_bytes(self, conv):
        # the forward only reads the parameters: a network bound over a
        # read-only flat raises on any write, and must give the same output
        net = tiny_net(seed=7, conv=conv)
        frozen = net.read_only()
        assert not frozen.flat.flags.writeable and np.shares_memory(frozen.flat, net.flat)
        rng = np.random.default_rng(7)
        seqs = [random_features(rng, t) for t in (9, 1, 14, 4)]
        for feats in seqs:
            assert model.forward(frozen, feats).frames.tobytes() == model.forward(net, feats).frames.tobytes()
        got = [out.frames.tobytes() for out in model.forward_batch(frozen, seqs)]
        assert got == [out.frames.tobytes() for out in model.forward_batch(net, seqs)]

    def test_no_sequences(self):
        assert list(model.forward_batch(tiny_net(), [])) == []

    def test_feature_dim_checked(self):
        seqs = [random_features(np.random.default_rng(6), 4), FeatureSequence(data=np.zeros((4, 13)))]
        with pytest.raises(DataError, match=r"network expects T x 29 features, got \(4, 13\)"):
            list(model.forward_batch(tiny_net(), seqs))


def layer_cases():
    """(id, cell) for the four production LSTM shapes, every tiny-net LSTM,
    and one LSTM over 29-dim input for each hidden size 1..7."""
    for name, net in (("production", model.init_params(0, 5)), ("tiny", tiny_net(seed=9))):
        for n, cell in enumerate(lstms(net), start=1):
            yield f"{name}-lstm{n}-{hidden_size(cell)}x{input_size(cell)}", cell
    for hid in range(1, 8):
        cell = model.init_params(hid, 5, ArchConfig(conv_channels=0, lstm_sizes=(hid,))).layers[0]
        yield f"hidden{hid}-{hid}x{input_size(cell)}", cell


LAYERS = dict(layer_cases())


class TestLayerBackwardBits:
    """Forward and backward of one layer against the per-step oracles, bit for bit."""

    def check_backward(self, cell, x, cache, rng):
        hid = hidden_size(cell)
        dh_seq = rng.standard_normal((len(x), hid))
        h_ref, c_ref, gates_ref = reference_lstm_forward(cell, x)
        h_prev = np.vstack([np.zeros((1, hid)), h_ref])[:-1]
        want = zero_cell(hid, input_size(cell))
        dx_want = reference_lstm_backward(
            cell, model._LstmCache(x=x, h_prev=h_prev, gates=gates_ref, c=c_ref), dh_seq, want
        )
        got = zero_cell(hid, input_size(cell))
        dx = model._lstm_backward(cell, cache, dh_seq, got)
        assert np.array_equal(dx, dx_want)
        assert np.array_equal(got.W, want.W)
        assert np.array_equal(got.b, want.b)

    @pytest.mark.parametrize("t_len", [1, 2, 73, 137])
    @pytest.mark.parametrize("layer", list(LAYERS))
    def test_matches_reference(self, layer, t_len):
        # one sequence: every step runs a single-sequence segment
        cell = LAYERS[layer]
        rng = np.random.default_rng(t_len)
        x = rng.standard_normal((t_len, input_size(cell)))
        _, (cache,) = model._lstm_forward(cell, [x])
        self.check_backward(cell, x, cache, rng)

    @pytest.mark.parametrize("lengths", [[9, 2], [2, 9], [40, 1, 1], [1, 40, 1]])
    @pytest.mark.parametrize(
        "layer", ["production-lstm1-128x32", "production-lstm3-64x128", "tiny-lstm4-3x3", "hidden1-1x29"]
    )
    def test_longest_running_alone_matches_reference(self, layer, lengths):
        # the longest sequence runs its last steps as a single-sequence
        # segment after the shorter ones stop
        cell = LAYERS[layer]
        rng = np.random.default_rng(len(lengths))
        xs = [rng.standard_normal((t, input_size(cell))) for t in lengths]
        hs, caches = model._lstm_forward(cell, xs)
        for x, h, cache in zip(xs, hs, caches):
            h_ref, c_ref, gates_ref = reference_lstm_forward(cell, x)
            assert np.array_equal(h, h_ref)
            assert np.array_equal(cache.c, c_ref)
            assert np.array_equal(cache.gates, gates_ref)
            self.check_backward(cell, x, cache, rng)


def scalar_loss(net, feats, truth, cfg):
    pred, _ = model.forward_with_cache(net, feats)
    total, _ = training.loss_total(pred, truth, cfg)
    return total


def max_gradient_error(seed, eps=1e-5, arch=TINY_ARCH):
    """Central finite differences over every parameter of the reduced net."""
    net = model.init_params(seed, 5, arch)
    rng = np.random.default_rng(seed + 1000)
    feats = random_features(rng, 9)
    truth = DisplacementSequence(frames=rng.standard_normal((9, 5, 3)) * 0.1)
    cfg = training.TrainConfig()

    pred, tape = model.forward_with_cache(net, feats)
    _, dpred = training.loss_total(pred, truth, cfg)
    grads = model.backward(net, tape, dpred)

    worst = 0.0
    for (name, arr), (_, g) in zip(net.items(), grads.items()):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            up = scalar_loss(net, feats, truth, cfg)
            arr[ix] = orig - eps
            down = scalar_loss(net, feats, truth, cfg)
            arr[ix] = orig
            fd = (up - down) / (2.0 * eps)
            # absolute guard 1e-10 sits above the ~1e-11 cancellation noise
            # of the difference quotient for near-zero gradients
            err = (abs(g[ix] - fd) - 1e-10) / max(abs(fd), abs(g[ix]), 1e-10)
            worst = max(worst, err)
    return worst


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        net = tiny_net()
        feats = random_features(np.random.default_rng(2), 8)
        _, tape = model.forward_with_cache(net, feats)
        grads = model.backward(net, tape, np.zeros((8, 5, 3)))
        assert np.array_equal(grads.flat, np.zeros_like(net.flat))

    def test_decoder_bias_gradient_is_upstream_sum(self):
        net = tiny_net()
        rng = np.random.default_rng(3)
        feats = random_features(rng, 8)
        upstream = rng.standard_normal((8, 5, 3))
        _, tape = model.forward_with_cache(net, feats)
        grads = model.backward(net, tape, upstream)
        assert np.allclose(grads.layers[-1].b, upstream.reshape(8, -1).sum(axis=0), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        assert max_gradient_error(seed=0) < 1e-4

    def test_gradients_share_the_parameter_layout(self):
        net = tiny_net(seed=1)
        _, tape = model.forward_with_cache(net, random_features(np.random.default_rng(1), 6))
        grads = model.backward(net, tape, np.ones((6, 5, 3)))
        assert grads.flat.shape == net.flat.shape
        assert [(n, a.shape) for n, a in grads.items()] == [(n, a.shape) for n, a in net.items()]
        for _, arr in grads.items():
            assert np.shares_memory(arr, grads.flat)

    def test_out_is_overwritten_in_full(self):
        # training writes every step's gradient into one vector
        net = tiny_net(seed=4)
        _, tape = model.forward_with_cache(net, random_features(np.random.default_rng(4), 6))
        upstream = np.random.default_rng(5).standard_normal((6, 5, 3))
        out = np.full_like(net.flat, np.nan)
        grads = model.backward(net, tape, upstream, out=out)
        assert grads.flat is out
        assert np.array_equal(out, model.backward(net, tape, upstream).flat)

    def test_requires_cache(self):
        net = tiny_net()
        with pytest.raises(DataError, match="backward needs the cache returned by forward_with_cache"):
            model.backward(net, None, np.zeros((4, 5, 3)))

    def test_upstream_shape_checked(self):
        net = tiny_net()
        _, tape = model.forward_with_cache(net, random_features(np.random.default_rng(0), 8))
        with pytest.raises(
            DataError, match=r"upstream gradient shape \(7, 5, 3\) does not match forward output \(8, 5, 3\)"
        ):
            model.backward(net, tape, np.zeros((7, 5, 3)))


class TestInitParams:
    def test_deterministic(self):
        a = model.init_params(12, 7, TINY_ARCH)
        b = model.init_params(12, 7, TINY_ARCH)
        for (name_a, arr_a), (_, arr_b) in zip(a.items(), b.items()):
            assert np.array_equal(arr_a, arr_b), name_a

    def test_forget_gate_bias_is_one(self):
        net = model.init_params(0, 5, TINY_ARCH)
        assert len(lstms(net)) == 4
        for cell in lstms(net):
            hid = hidden_size(cell)
            assert np.array_equal(cell.b[:hid], np.ones(hid))
            assert np.array_equal(cell.b[hid:], np.zeros(3 * hid))

    @pytest.mark.parametrize("vertices", [0, -3])
    def test_no_vertices_is_config_error(self, vertices):
        with pytest.raises(ConfigError, match="vertex_count"):
            model.init_params(0, vertices, TINY_ARCH)

    def test_glorot_bounds(self):
        net = model.init_params(1, 9, TINY_ARCH)

        def limit(fan_in, fan_out):
            return np.sqrt(6.0 / (fan_in + fan_out))

        assert np.abs(net.layers[0].W).max() <= limit(29 * 5, 4 * 5)
        assert np.abs(lstms(net)[0].W).max() <= limit(6 + 4, 6)
        assert np.abs(net.layers[-3].W).max() <= limit(3, 10)
        assert np.abs(net.layers[-1].W).max() <= limit(6, 27)

    def test_parameter_count_production_preset(self):
        # closed-form total of the production shape chain with V = 5713
        conv = (29 * 32 * 5 + 32) + (32 * 32 * 5 + 32)
        lstm = (
            4 * (128 * (128 + 32) + 128)
            + 4 * (128 * (128 + 128) + 128)
            + 4 * (64 * (64 + 128) + 64)
            + 4 * (64 * (64 + 64) + 64)
        )
        dense = (128 * 64 + 128) + (50 * 128 + 50) + (5713 * 3 * 50 + 5713 * 3)
        expected = conv + lstm + dense
        assert expected == 1_195_131
        net = model.init_params(0, 5713)
        assert net.flat.size == expected


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = tiny_net(seed=13)
        model.save_checkpoint(net, tmp_path / "n.lsn1")
        back = model.load_checkpoint(tmp_path / "n.lsn1")
        assert back.vertex_count == net.vertex_count
        assert back.arch == net.arch
        for (name_a, arr_a), (_, arr_b) in zip(net.items(), back.items()):
            assert np.array_equal(arr_a, arr_b), name_a

    def test_round_trip_without_conv(self, tmp_path):
        net = tiny_net(seed=14, conv=False)
        model.save_checkpoint(net, tmp_path / "n.lsn1")
        back = model.load_checkpoint(tmp_path / "n.lsn1")
        assert "conv" not in [layer.kind for layer in back.layers]
        assert back.arch == net.arch

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.lsn1").write_bytes(b"WRNG" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            model.load_checkpoint(tmp_path / "x.lsn1")

    def test_truncated(self, tmp_path):
        net = tiny_net()
        model.save_checkpoint(net, tmp_path / "t.lsn1")
        raw = (tmp_path / "t.lsn1").read_bytes()
        (tmp_path / "t.lsn1").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FileFormatError):
            model.load_checkpoint(tmp_path / "t.lsn1")

    def test_load_peak_memory(self, tmp_path):
        # payloads are read in place: beyond the parameter vector itself,
        # a copy of any of it would add 1.0 to this ratio
        net = model.init_params(0, 100)
        model.save_checkpoint(net, tmp_path / "n.lsn1")
        model.load_checkpoint(tmp_path / "n.lsn1")
        tracemalloc.start()
        try:
            model.load_checkpoint(tmp_path / "n.lsn1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * net.flat.nbytes

    def test_loaded_checkpoint_same_forward(self, tmp_path):
        net = tiny_net(seed=15)
        feats = random_features(np.random.default_rng(15), 12)
        model.save_checkpoint(net, tmp_path / "f.lsn1")
        back = model.load_checkpoint(tmp_path / "f.lsn1")
        assert np.array_equal(model.forward(net, feats).frames, model.forward(back, feats).frames)


ARCHS = st.builds(
    ArchConfig,
    conv_channels=st.integers(0, 4),
    lstm_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
    fc1_size=st.integers(1, 5),
    embedding_size=st.integers(1, 4),
)
# ArchConfig keyword arguments, in range or out: negative and zero sizes,
# no LSTM, a list in place of the tuple, and sizes that are not ints
ARCH_FIELDS = st.fixed_dictionaries(
    {
        "conv_channels": st.integers(-2, 4),
        "lstm_sizes": st.lists(st.one_of(st.integers(-1, 4), st.just(2.0)), max_size=4).flatmap(
            lambda sizes: st.sampled_from([tuple(sizes), sizes])
        ),
        "fc1_size": st.one_of(st.integers(-1, 5), st.just(None)),
        "embedding_size": st.integers(-1, 4),
    }
)


class TestArchConfig:
    @settings(max_examples=80, deadline=None)
    @given(fields=ARCH_FIELDS, vertices=st.integers(1, 4))
    def test_refused_or_round_trips(self, tmp_path_factory, fields, vertices):
        sizes = fields["lstm_sizes"]
        valid = (
            isinstance(sizes, tuple)
            and all(isinstance(n, int) and n >= 1 for n in sizes)
            and fields["conv_channels"] >= 0
            and all(isinstance(fields[k], int) and fields[k] >= 1 for k in ("fc1_size", "embedding_size"))
        )
        if not valid:
            with pytest.raises(ConfigError) as info:
                ArchConfig(**fields)
            bad = [k for k in fields if k in str(info.value)]
            assert len(bad) == 1
            with pytest.raises(ConfigError):
                ArchConfig(**{**ArchConfig().__dict__, bad[0]: fields[bad[0]]})
            return
        arch = ArchConfig(**fields)
        path = tmp_path_factory.mktemp("arch") / "a.lsn1"
        model.save_checkpoint(model.init_params(0, vertices, arch), path)
        assert model.load_checkpoint(path).arch == arch

    @pytest.mark.parametrize("tensor", [b"conv1.kernels", b"lstm2.W_f", b"fc2.weight"])
    def test_checkpoint_with_a_zero_size_is_a_format_error(self, tmp_path, tensor):
        # zero rows would describe a size ArchConfig refuses; the loader refuses the tensor first
        named = [(n, np.zeros((0, *a.shape[1:])) if n == tensor else a) for n, a in
                 ((name.encode(), arr) for name, arr in tiny_net().items())]
        write_lsn1(tmp_path / "z.lsn1", 5, named)
        with pytest.raises(FileFormatError, match=f"tensor '{tensor.decode()}' has dims"):
            model.load_checkpoint(tmp_path / "z.lsn1")


class TestLoaderMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(arch=ARCHS, vertices=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_archs_orders_and_duplicates(self, tmp_path_factory, arch, vertices, seed, data):
        # tensors in any order, some preceded by a decoy of the same name and
        # another shape, which the later tensor replaces; values over the
        # whole float64 exponent range, signed zeros, and sometimes NaN or inf
        rng = np.random.default_rng(seed)
        net = model.init_params(0, vertices, arch)
        net.flat[:] = np.ldexp(rng.standard_normal(net.flat.size), rng.integers(-1000, 1000, net.flat.size))
        net.flat[rng.random(net.flat.size) < 0.05] = -0.0
        for k in data.draw(st.lists(st.integers(0, net.flat.size - 1), max_size=2)):
            net.flat[k] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        named = [(name.encode(), arr) for name, arr in net.items()]
        named = [named[k] for k in data.draw(st.permutations(range(len(named))))]
        for k in data.draw(st.lists(st.integers(0, len(named) - 1), max_size=3)):
            decoy = rng.standard_normal(tuple(rng.integers(1, 4, rng.integers(1, 4))))
            named.insert(k, (named[k][0], decoy))
        path = tmp_path_factory.mktemp("arch") / "n.lsn1"
        write_lsn1(path, vertices, named)

        try:
            want = reference_load(path)
        except FileFormatError as exc:  # only the injected NaN or inf
            assert "non-finite value in payload" in str(exc)
            with pytest.raises(FileFormatError) as info:
                model.load_checkpoint(path)
            assert str(info.value) == str(exc)
            return
        got = model.load_checkpoint(path)
        assert (got.vertex_count, got.arch) == want[:2]
        assert got.arch == arch
        assert got.flat.tobytes() == want[2].tobytes() == net.flat.tobytes()
        assert got.flat.dtype == np.float64 and got.flat.flags.writeable


class TestMalformedCheckpoint:
    def named(self, net):
        return [(name.encode(), arr) for name, arr in net.items()]

    def test_shape_outside_layout(self, tmp_path):
        # fc1 widened by one input column no longer fits the LSTM below it
        named = self.named(tiny_net())
        named = [(n, np.zeros((10, 4)) if n == b"fc1.weight" else a) for n, a in named]
        write_lsn1(tmp_path / "s.lsn1", 5, named)
        with pytest.raises(FileFormatError, match="fc1.weight"):
            model.load_checkpoint(tmp_path / "s.lsn1")

    @pytest.mark.parametrize("defect", OTHER_WIDTHS)
    def test_other_input_or_kernel_width_refused(self, tmp_path, defect):
        # the input is always 29 wide and every conv kernel 5; the message
        # names the first tensor in layout order that does not fit
        write_lsn1(tmp_path / "w.lsn1", 5, other_width_tensors(defect))
        first = "lstm1.W_f" if defect == "lstm-13-wide" else "conv1.kernels"
        with pytest.raises(FileFormatError, match=f"tensor {first} has shape"):
            model.load_checkpoint(tmp_path / "w.lsn1")

    def test_decoder_rows_disagree_with_header(self, tmp_path):
        write_lsn1(tmp_path / "v.lsn1", 4, self.named(tiny_net()))
        with pytest.raises(FileFormatError, match="decoder.weight"):
            model.load_checkpoint(tmp_path / "v.lsn1")

    @pytest.mark.parametrize("defect", ["header", "empty"])
    def test_huge_layout_refused_before_allocation(self, tmp_path, defect):
        # a header V of 2**31, or an empty lstm1 gate claiming 10**9 rows,
        # would need terabytes; the loader must refuse, not allocate. The
        # empty gate is refused as it is read, for its zero dimension.
        named = self.named(tiny_net())
        vertices = 2**31 if defect == "header" else 5
        if defect == "empty":
            named = [(n, np.zeros((10**9, 0)) if n == b"lstm1.W_f" else a) for n, a in named]
        write_lsn1(tmp_path / "h.lsn1", vertices, named)
        message = "larger than the payload" if defect == "header" else r"has dims \(1000000000, 0\)"
        with pytest.raises(FileFormatError, match=message):
            model.load_checkpoint(tmp_path / "h.lsn1")

    def test_name_not_utf8(self, tmp_path):
        named = self.named(tiny_net())
        named[3] = (b"\xff\xfe", named[3][1])
        write_lsn1(tmp_path / "u.lsn1", 5, named)
        with pytest.raises(FileFormatError, match="UTF-8"):
            model.load_checkpoint(tmp_path / "u.lsn1")

    def test_unexpected_tensor(self, tmp_path):
        named = self.named(tiny_net()) + [(b"conv3.bias", np.zeros(4))]
        write_lsn1(tmp_path / "x.lsn1", 5, named)
        with pytest.raises(FileFormatError, match="conv3.bias"):
            model.load_checkpoint(tmp_path / "x.lsn1")

    def test_missing_gate(self, tmp_path):
        named = [(n, a) for n, a in self.named(tiny_net()) if n != b"lstm2.b_o"]
        named.append((b"lstm2.b_x", np.zeros(6)))
        write_lsn1(tmp_path / "m.lsn1", 5, named)
        with pytest.raises(FileFormatError, match="missing tensor lstm2.b_o"):
            model.load_checkpoint(tmp_path / "m.lsn1")

    def test_independent_writer_matches_save(self, tmp_path):
        net = tiny_net(seed=3)
        write_lsn1(tmp_path / "w.lsn1", 5, self.named(net))
        model.save_checkpoint(net, tmp_path / "s.lsn1")
        assert (tmp_path / "w.lsn1").read_bytes() == (tmp_path / "s.lsn1").read_bytes()


class TestLayout:
    # sha256 of the LSN1 bytes of freshly initialised nets, pinned when each
    # LSTM still held eight per-gate arrays; fails if the draw order, the
    # tensor names or order, or the container layout drift
    PINNED = {
        (0, 100, ArchConfig()): "3b9d964878ff4f92cb7dbf92ed900e86652f57642e6214a11e75ece6c3ad85a7",
        (13, 5, TINY_ARCH): "d1c3ca23ec6169e4886b0a63524d0658827931f9b24b5bbd9c1041fe8150fa53",
    }

    @pytest.mark.parametrize("key", list(PINNED), ids=["production", "tiny"])
    def test_fresh_checkpoint_bytes_pinned(self, key, tmp_path):
        seed, vertices, arch = key
        model.save_checkpoint(model.init_params(seed, vertices, arch), tmp_path / "p.lsn1")
        assert hashlib.sha256((tmp_path / "p.lsn1").read_bytes()).hexdigest() == self.PINNED[key]

    def test_items_tile_the_flat_vector_in_order(self):
        net = tiny_net(seed=2)
        assert net.flat.flags.c_contiguous and net.flat.dtype == np.float64
        pieces = [arr.ravel() for _, arr in net.items()]
        assert all(np.shares_memory(arr, net.flat) for _, arr in net.items())
        assert np.array_equal(np.concatenate(pieces), net.flat)
        assert sum(p.size for p in pieces) == net.flat.size

    def test_gate_names_are_row_blocks(self):
        net = tiny_net(seed=2)
        named = dict(net.items())
        cell = lstms(net)[1]
        hid = hidden_size(cell)
        for k, gate in enumerate("fioC"):
            assert np.array_equal(named[f"lstm2.W_{gate}"], cell.W[k * hid : (k + 1) * hid])
            assert np.array_equal(named[f"lstm2.b_{gate}"], cell.b[k * hid : (k + 1) * hid])

    def test_copy_is_independent(self):
        net = tiny_net(seed=2)
        dup = net.copy()
        assert np.array_equal(dup.flat, net.flat) and dup.arch == net.arch
        lstms(dup)[0].W[0, 0] += 1.0
        assert not np.array_equal(dup.flat, net.flat)
        assert not np.shares_memory(dup.flat, net.flat)
        assert all(np.shares_memory(arr, dup.flat) for _, arr in dup.items())


def depth_arch(sizes):
    return ArchConfig(conv_channels=4, lstm_sizes=sizes, fc1_size=10, embedding_size=6)


@pytest.mark.parametrize("sizes", [(6, 3), (6, 6, 3, 3, 3)], ids=["2-lstm", "5-lstm"])
class TestLstmDepth:
    def test_builds_requested_layers(self, sizes):
        net = model.init_params(0, 5, depth_arch(sizes))
        assert [hidden_size(c) for c in lstms(net)] == list(sizes)
        out = model.forward(net, random_features(np.random.default_rng(0), 7))
        assert out.frames.shape == (7, 5, 3)

    def test_round_trip(self, sizes, tmp_path):
        net = model.init_params(1, 5, depth_arch(sizes))
        model.save_checkpoint(net, tmp_path / "d.lsn1")
        back = model.load_checkpoint(tmp_path / "d.lsn1")
        assert back.arch == depth_arch(sizes)
        assert np.array_equal(back.flat, net.flat)

    def test_gradients_match_finite_differences(self, sizes):
        assert max_gradient_error(seed=2, arch=depth_arch(sizes)) < 1e-4


@pytest.mark.parametrize(
    "arch",
    [ArchConfig(), ArchConfig(conv_channels=0), depth_arch((6, 3)), depth_arch((6, 6, 3, 3, 3))],
    ids=["production", "no-conv", "2-lstm", "5-lstm"],
)
def test_layers_are_kinds_over_the_tensor_table(arch):
    net = model.init_params(3, 5, arch)
    n_conv = 2 if arch.conv_channels else 0
    assert [layer.kind for layer in net.layers] == (
        ["conv"] * n_conv + ["lstm"] * len(arch.lstm_sizes) + ["tanh", "linear", "linear"]
    )

    def start(arr):
        return (arr.__array_interface__["data"][0] - net.flat.__array_interface__["data"][0]) // net.flat.itemsize

    # items() names each layer's weight tensors, then its bias tensors (an LSTM's four gate blocks each)
    tables = [[view for _, view in group] for _, group in itertools.groupby(net.items(), lambda i: i[0].split(".")[0])]
    assert len(tables) == len(net.layers)
    for layer, views in zip(net.layers, tables):
        half = len(views) // 2
        for arr, pieces in ((layer.W, views[:half]), (layer.b, views[half:])):
            assert np.shares_memory(arr, net.flat)
            assert start(arr) == start(pieces[0]) and arr.size == sum(p.size for p in pieces)
            assert np.array_equal(arr, np.concatenate(pieces))
