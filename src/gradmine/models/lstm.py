"""LSTM classifier with hand-derived gradients.

Cell, per step over embedded tokens x_t (all gates elementwise):

    z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)     input gate
    f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)     forget gate
    g_t = tanh(W_c x_t + U_c h_{t-1} + b_c)        candidate cell
    C_t = z_t * g_t + f_t * C_{t-1}
    o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)     exposure gate
    h_t = o_t * tanh(C_t)

The classification head mean-pools h_1..h_T and applies a softmax layer;
the loss is the negative log-likelihood of the sample's label. The W_c
block of the backward pass is the norm proxy used by importance mining.
Both passes run a packed batch of samples at once, and each sample's row
has the bits it has in a batch of its own. They run the rows longest first,
sorted once by ``forward``, on time-major (T, B, ...) step buffers sliced once
per run of steps with the same rows still inside their sequence, a contiguous block.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from .common import add_rows_backwards, check_ids, check_trace, init_normal, runs
from ..tensor import embed, log_softmax, matvec, sigmoid, transpose

BASE_SELECTOR = "w_c"
FORGET_BIAS = 1.0  # keeps early memory from washing out

# Candidate-cell input weights start near zero so the mined norm of this
# block reflects accumulated per-sample updates rather than init mass.
BASE_BLOCK_SCALE = 0.02

GATES = ("z", "f", "c", "o")


def layout(spec):
    """Blocks in order; each gate family's (z, f, c, o) blocks are adjacent,
    so its stacked matrix is one view of the vector (see ``_stacked``)."""
    v, d, h, k = spec.vocab, spec.embed, spec.hidden, spec.classes
    return (
        (("w_emb", (v, d)),)
        + tuple((f"w_{g}", (h, d)) for g in GATES)
        + tuple((f"u_{g}", (h, h)) for g in GATES)
        + tuple((f"b_{g}", (h,)) for g in GATES)
        + (("w_cls", (k, h)), ("b_cls", (k,)), ("h0", (h,)), ("c0", (h,)))
    )


def init_params(spec, seed):  # other biases, h0 and c0 start at zero
    p = init_normal(layout(spec), seed, {
        "w_emb": 0.1, "w_z": None, "w_f": None, "w_c": BASE_BLOCK_SCALE, "w_o": None,
        **{f"u_{g}": None for g in GATES}, "w_cls": None})
    p.b_f = FORGET_BIAS
    return p


def check_sample(spec, sample):
    """Reject a token outside [0, vocab) or a label outside [0, classes)."""
    check_ids(sample.tokens, spec.vocab, "token")
    if not 0 <= sample.label < spec.classes:
        raise InvalidInputError(f"label out of range [0, {spec.classes})")


def _stacked(params):
    """(w, u, b) gate blocks stacked in (z, f, c, o) order: views of vec."""
    return params.span("w_z", "w_o"), params.span("u_z", "u_o"), params.span("b_z", "b_o")


def _blocks(hidden):
    """Slices of the (z, f, c, o) blocks in a stacked 4*hidden vector."""
    return tuple(slice(i * hidden, (i + 1) * hidden) for i in range(4))


@dataclass
class LstmBatchTrace:
    """``forward`` of B samples padded to T steps. The fields above
    ``losses`` have their rows longest first (``_longest_first``), and the
    states are batch-major views of time-major buffers, zero past a row's
    length; ``losses`` and the fields below it are in the caller's order."""

    xs: np.ndarray  # (B, T, embed)
    gates: np.ndarray  # (B, T, 4*hidden) (z, f, g, o) activations
    cs: np.ndarray  # (B, T+1, hidden)
    tcs: np.ndarray  # (B, T, hidden) tanh(C_t), kept for backward
    hs: np.ndarray  # (B, T+1, hidden)
    pooled: np.ndarray  # (B, hidden) mean of each sample's own states
    probs: np.ndarray  # (B, classes) head output
    losses: np.ndarray  # (B,)
    wrong: np.ndarray  # (B,) argmax mistakes
    total: np.ndarray  # (B,) opportunities
    predictions: np.ndarray  # (B,) argmax class of each sample
    rows = None  # not a field: ``forward``'s ``(params, batch, back)``, for ``backward``


def _longest_first(params, batch):
    """``(params, batch, back)``: ``params`` (rows, if it has them) and ``batch``
    sorted by falling length (stable), so the rows still inside their sequence
    at a step lead, and the index that puts sorted rows back in caller order."""
    if (ls := batch.lengths.tolist()) == sorted(ls, reverse=True):
        return params, batch, slice(None)
    order = np.argsort(-batch.lengths, kind="stable")
    if params.vec.ndim == 2:
        params = params.like(params.vec[order])
    return params, batch.take(order), np.argsort(order)


def forward(params, batch, rng=None, k=1):
    """Cell over a ``Batch``, each step one product and one sigmoid call on
    the rows still inside their sequence, and head over each sample's pooled
    states. Deterministic: ``rng`` and ``k`` (model protocol) are ignored."""
    params, batch, back = rows = _longest_first(params, batch)
    tokens, lengths, labels = batch.tokens, batch.lengths, batch.labels
    (n, t_len), hidden = tokens.shape, params.h0.shape[-1]
    c_blk = _blocks(hidden)[2]

    xs = embed(params.w_emb, tokens)
    gates = np.zeros((t_len, n, 4 * hidden))
    tcs = np.zeros((t_len, n, hidden))
    cs, hs = np.zeros((2, t_len + 1, n, hidden))
    cs[0], hs[0] = params.c0, params.h0

    w_all, u_all, b_all = _stacked(params)
    acts = np.empty((t_len, n, 4 * hidden))  # x W^T + b, then plus U h per step
    np.matmul(xs, transpose(w_all), out=acts.swapaxes(0, 1))
    # Packed alone, a one-step sample's input product is a vector times a
    # matrix, whose bits differ from a row of the matrix product; it is
    # taken that way in every batch, so its row does not depend on the batch.
    if lengths[-1] == 1:  # the shortest row is the last
        one = lengths == 1
        acts[0, one] = np.matmul(xs[:, :1], transpose(w_all))[one, 0]
    acts += b_all
    # Per run of steps on the same live rows, sliced once: one sigmoid over all four blocks,
    # then the c block's tanh over it; elementwise, each gate has the bits of its own call.
    for t0, t1, a in runs(lengths):
        u = u_all[:a] if u_all.ndim == 3 else u_all  # per-row or shared
        uh = np.empty((a, 4 * hidden, 1))
        act, gate, tc, c, h = (x[t0:t1 + 1, :a] for x in (acts, gates, tcs, cs, hs))
        for pre, pre_c, g, z, f, g_c, o, tc_t, c_prev, c_t, h_prev, h_t in zip(
                act, act[..., c_blk], gate, *(gate[..., b] for b in _blocks(hidden)),
                tc, c, c[1:], h, h[1:]):
            pre += np.matmul(u, h_prev[..., None], out=uh)[..., 0]
            g[:] = sigmoid(pre)
            np.tanh(pre_c, out=g_c)
            np.add(z * g_c, f * c_prev, out=c_t)
            np.tanh(c_t, out=tc_t)
            np.multiply(o, tc_t, out=h_t)

    gates, cs, tcs, hs = (x.swapaxes(0, 1) for x in (gates, cs, tcs, hs))
    # Each sample's mean, as ``mean(axis=0)`` takes it: one sum per sample
    # (grouped, sums can round apart at hidden width 1), then one division.
    pooled = np.stack([np.add.reduce(hs[b, 1:size + 1], axis=0)
                       for b, size in enumerate(lengths)]) / lengths[:, None]
    logp = log_softmax(matvec(params.w_cls, pooled) + params.b_cls)
    probs = np.exp(logp)
    predictions = np.argmax(probs, axis=1)
    trace = LstmBatchTrace(
        xs=xs, gates=gates, cs=cs, tcs=tcs, hs=hs, pooled=pooled, probs=probs,
        losses=-logp[np.arange(n), labels][back],
        wrong=(predictions != labels).astype(np.int64)[back],
        total=np.ones(n, dtype=np.int64),
        predictions=predictions[back])
    trace.rows = rows
    return trace


def backward(params, batch, trace):
    """Exact gradients of each sample's loss for all blocks, including
    h0/c0: a (B, P) matrix with one gradient vector per row, in the
    caller's order; the rows are those ``forward`` sorted for ``trace``."""
    check_trace(batch, trace.hs)
    params, batch, back = trace.rows
    tokens, lengths, labels = batch.tokens, batch.lengths, batch.labels
    (n, t_len), hidden = tokens.shape, params.h0.shape[-1]

    g = params.like(np.zeros((n, params.vec.shape[-1])))
    g.b_cls = trace.probs  # d loss / d logits, once the label's 1 is taken off
    g.b_cls[np.arange(n), labels] -= 1.0
    dh_pool = matvec(transpose(params.w_cls), g.b_cls) / lengths[:, None]

    w_all, u_all, _ = _stacked(params)
    # Only the live slots enter the factors, gathered last step first: a run of
    # steps t0 <= t < t1 on the first a rows owns (t1 - t0) * a of them.
    inside = lengths > np.arange(t_len)[::-1, None]
    gates, cs, tcs = (x.swapaxes(0, 1)[::-1][inside]
                      for x in (trace.gates, trace.cs[:, :-1], trace.tcs))
    zs, fs, gs, os_ = (gates[:, blk] for blk in _blocks(hidden))
    one_tc2 = 1.0 - tcs**2
    # The (z, f, c, o) blocks of da are dc*g*z*(1-z), dc*C_{t-1}*f*(1-f),
    # dc*z*(1-g^2) and do*o*(1-o), multiplied left to right: here
    # (a * s1) * s2, times s3 on the z and f blocks, with a = (dc, dc, dc, do)
    # written into ``factor`` and every s stacked for all live slots at once.
    s1 = np.concatenate([gs, cs, zs, os_], axis=-1)
    s2 = np.concatenate([zs, fs, 1.0 - gs**2, 1.0 - os_], axis=-1)
    s3 = np.concatenate([1.0 - zs, 1.0 - fs], axis=-1)
    da_all = np.zeros((t_len, n, 4 * hidden))  # padded steps stay zero
    spans, start = runs(lengths), 0
    for t0, t1, a in reversed(spans):
        live = [x[start:start + (t1 - t0) * a].reshape(t1 - t0, a, -1)
                for x in (os_, one_tc2, tcs, s1, s2, s3, fs)]
        start += (t1 - t0) * a
        da = da_all[t0:t1, :a][::-1]
        u_t = transpose(u_all[:a] if u_all.ndim == 3 else u_all)  # per-row or shared
        dh_pool_a, dh_next_a, dc_next_a = dh_pool[:a], g.h0[:a], g.c0[:a]  # carries, from 0
        factor = np.empty((a, 4, hidden))
        dc_blocks, do_block, flat = factor[:, :3], factor[:, 3], factor.reshape(a, -1)
        for o, otc, tc, x1, x2, x3, f, d, d_zf in zip(*live, da, da[..., :2 * hidden]):
            dh = dh_pool_a + dh_next_a
            dc = dh * o * otc + dc_next_a
            dc_blocks[:] = dc[:, None]
            np.multiply(dh, tc, out=do_block)
            np.multiply(flat, x1, out=d)
            d *= x2
            d_zf *= x3
            np.multiply(dc, f, out=dc_next_a)
            np.matmul(u_t, d[..., None], out=dh_next_a[..., None])

    g_w, g_u, g_b = _stacked(g)
    w_t, hs_tm = transpose(w_all), trace.hs.swapaxes(0, 1)
    # Per length group (rows i:j), live steps only, on contiguous copies: padded, sums differ.
    for (_, size, j), (_, _, i) in zip(spans, spans[1:] + [(0, 0, 0)]):
        da, hs = (np.ascontiguousarray(x[:size, i:j].swapaxes(0, 1)) for x in (da_all, hs_tm))
        add_rows_backwards(g.w_emb[i:j], tokens[i:j, :size],
                           matvec(w_t[i:j] if w_t.ndim == 3 else w_t, da))
        np.matmul(da.transpose(0, 2, 1), trace.xs[i:j, :size], out=g_w[i:j])
        np.matmul(da.transpose(0, 2, 1), hs, out=g_u[i:j])
        g_b[i:j] = da.sum(axis=1)
    np.multiply(g.b_cls[:, :, None], trace.pooled[:, None, :], out=g.w_cls)
    return g.vec[back]
