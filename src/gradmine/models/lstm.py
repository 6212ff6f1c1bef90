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
has the bits it has in a batch of its own. They sort the rows longest first
and keep their step buffers time-major (T, B, ...), so each step runs on one
contiguous block: the rows still inside their sequence.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from .common import add_rows_backwards, check_ids, check_trace, init_normal
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
    return tuple(params.span(f"{x}_z", f"{x}_o") for x in "wub")


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


def _longest_first(params, batch):
    """``params`` (rows, if it has them), tokens, lengths and labels sorted by
    falling length (stable), so the rows still inside their sequence at a
    step lead; and the index that puts sorted rows back in caller order."""
    lengths = batch.lengths
    if (np.diff(lengths) <= 0).all():
        return params, batch.tokens, lengths, batch.labels, slice(None)
    order = np.argsort(-lengths, kind="stable")
    if params.vec.ndim == 2:
        params = params.like(params.vec[order])
    return (params, batch.tokens[order], lengths[order], batch.labels[order],
            np.argsort(order))


def forward(params, batch, rng=None, k=1):
    """Cell over a ``Batch``, each step one product and one sigmoid call on
    the rows still inside their sequence, and head over each sample's pooled
    states. Deterministic: ``rng`` and ``k`` (model protocol) are ignored."""
    params, tokens, lengths, labels, back = _longest_first(params, batch)
    (n, t_len), hidden = tokens.shape, params.h0.shape[-1]
    z_blk, f_blk, c_blk, o_blk = _blocks(hidden)

    xs = embed(params.w_emb, tokens)
    gates = np.zeros((t_len, n, 4 * hidden))
    tcs = np.zeros((t_len, n, hidden))
    cs, hs = np.zeros((2, t_len + 1, n, hidden))
    cs[0], hs[0] = params.c0, params.h0

    w_all, u_all, b_all = _stacked(params)
    pre_x = np.empty((t_len, n, 4 * hidden))
    np.matmul(xs, transpose(w_all), out=pre_x.swapaxes(0, 1))
    # Packed alone, a one-step sample's input product is a vector times a
    # matrix, whose bits differ from a row of the matrix product; it is
    # taken that way in every batch, so its row does not depend on the batch.
    one = lengths == 1
    if one.any():
        pre_x[0, one] = np.matmul(xs[:, :1], transpose(w_all))[one, 0]
    pre_x += b_all
    for t, a in enumerate(batch.mask.sum(axis=0).tolist()):
        # One sigmoid over all four blocks; the c block is then overwritten
        # by its tanh. Elementwise, so each gate gets the bits of its own call.
        u = u_all[:a] if u_all.ndim == 3 else u_all  # per-row or shared
        acts = pre_x[t, :a] + matvec(u, hs[t, :a])
        gate = gates[t, :a]
        gate[:] = sigmoid(acts)
        np.tanh(acts[:, c_blk], out=gate[:, c_blk])
        np.add(gate[:, z_blk] * gate[:, c_blk], gate[:, f_blk] * cs[t, :a],
               out=cs[t + 1, :a])
        np.tanh(cs[t + 1, :a], out=tcs[t, :a])
        np.multiply(gate[:, o_blk], tcs[t, :a], out=hs[t + 1, :a])

    gates, cs, tcs, hs = (x.swapaxes(0, 1) for x in (gates, cs, tcs, hs))
    # Each sample's mean, as ``mean(axis=0)`` takes it: one sum per sample
    # (grouped, sums can round apart at hidden width 1), then one division.
    pooled = np.stack([np.add.reduce(hs[b, 1:size + 1], axis=0)
                       for b, size in enumerate(lengths)]) / lengths[:, None]
    logp = log_softmax(matvec(params.w_cls, pooled) + params.b_cls)
    probs = np.exp(logp)
    predictions = np.argmax(probs, axis=1)
    return LstmBatchTrace(
        xs=xs, gates=gates, cs=cs, tcs=tcs, hs=hs, pooled=pooled, probs=probs,
        losses=-logp[np.arange(n), labels][back],
        wrong=(predictions != labels).astype(np.int64)[back],
        total=np.ones(n, dtype=np.int64),
        predictions=predictions[back])


def backward(params, batch, trace):
    """Exact gradients of each sample's loss for all blocks, including
    h0/c0: a (B, P) matrix with one gradient vector per row, in the
    caller's order."""
    check_trace(batch, trace.hs)
    params, tokens, lengths, labels, back = _longest_first(params, batch)
    (n, t_len), hidden = tokens.shape, params.h0.shape[-1]
    z_blk, f_blk, c_blk, o_blk = _blocks(hidden)

    dlogits = trace.probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dh_pool = matvec(transpose(params.w_cls), dlogits) / lengths[:, None]
    dh_next, dc_next = np.zeros((2, n, hidden))  # zero up to a row's last step

    w_all, u_all, _ = _stacked(params)
    g = params.like(np.zeros((n, params.vec.shape[-1])))
    # Only the live slots [t, :a_t] enter the factors, gathered step after
    # step: step t owns rows off[t]:off[t + 1] of each.
    inside = lengths > np.arange(t_len)[:, None]
    off = [0, *np.cumsum(inside.sum(axis=1)).tolist()]
    gates, cs, tcs = (x.swapaxes(0, 1)[inside]
                      for x in (trace.gates, trace.cs[:, :-1], trace.tcs))
    zs, fs, gs, os_ = (gates[:, blk] for blk in (z_blk, f_blk, c_blk, o_blk))
    one_tc2 = 1.0 - tcs**2
    # The (z, f, c, o) blocks of da are dc*g*z*(1-z), dc*C_{t-1}*f*(1-f),
    # dc*z*(1-g^2) and do*o*(1-o), multiplied left to right: here
    # (a * s1) * s2, times s3 on the z and f blocks, with a = (dc, dc, dc, do)
    # and every factor s stacked for all live slots at once.
    s1 = np.concatenate([gs, cs, zs, os_], axis=-1)
    s2 = np.concatenate([zs, fs, 1.0 - gs**2, 1.0 - os_], axis=-1)
    s3 = np.concatenate([1.0 - zs, 1.0 - fs], axis=-1)
    a = np.empty((n, 4, hidden))
    da_all = np.zeros((t_len, n, 4 * hidden))  # padded steps stay zero
    u_all_t = transpose(u_all)
    for t in reversed(range(t_len)):
        at, live = slice(off[t], off[t + 1]), off[t + 1] - off[t]
        dh = dh_pool[:live] + dh_next[:live]
        dc = dh * os_[at] * one_tc2[at] + dc_next[:live]
        a[:live, :3] = dc[:, None]
        np.multiply(dh, tcs[at], out=a[:live, 3])

        da = da_all[t, :live]
        np.multiply(a[:live].reshape(live, -1), s1[at], out=da)
        da *= s2[at]
        da[:, :2 * hidden] *= s3[at]
        dc_next[:live] = dc * fs[at]
        dh_next[:live] = matvec(u_all_t[:live] if u_all.ndim == 3 else u_all_t, da)
    del s1, s2, s3, one_tc2  # room for the batch-major copy of da_all
    da_all = np.ascontiguousarray(da_all.swapaxes(0, 1))
    add_rows_backwards(g.w_emb, tokens, matvec(transpose(w_all), da_all))

    g_w, g_u, g_b = _stacked(g)
    hs, xs = np.ascontiguousarray(trace.hs), trace.xs
    # Sums over time run per length group (a slice): padded, they can round apart.
    first = np.unique(-lengths, return_index=True)[1].tolist() + [n]
    for i, j in zip(first, first[1:]):
        da = da_all[i:j, :lengths[i]]
        g_w[i:j] = np.matmul(da.transpose(0, 2, 1), xs[i:j, :lengths[i]])
        g_u[i:j] = np.matmul(da.transpose(0, 2, 1), hs[i:j, :lengths[i]])
        g_b[i:j] = da.sum(axis=1)
    g.w_cls = dlogits[:, :, None] * trace.pooled[:, None, :]
    g.b_cls = dlogits
    g.h0 = dh_next
    g.c0 = dc_next
    return g.vec[back]
