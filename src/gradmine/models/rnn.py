"""Vanilla recurrent network with hand-derived gradients.

Recurrence, per step over the embedded tokens x_t:

    h_t = tanh(W_h h_{t-1} + W_x x_t + b_h)
    y_t = softmax(W_s h_t + b_y)

The loss is mean negative log-likelihood of the per-step targets, or the
final-step negative log-likelihood when the sample carries one label.
Backward runs untruncated through the whole history; every block of the
returned gradient matches central finite differences of the loss.
``forward_batch``/``backward_batch`` run a packed batch of samples at once,
with the bits of ``forward``/``backward`` on each.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from .common import (
    STREAM_INIT,
    Params,
    add_rows_backwards,
    check_ids,
    check_kind,
    stream_rng,
)
from ..tensor import embed, log_softmax, matvec, per_step, transpose

BASE_SELECTOR = "w_x"

# The input-weight block starts near zero so that after per-sample private
# training its norm is dominated by the accumulated updates, not by random
# initialization mass. Training escapes zero through the embeddings.
BASE_BLOCK_SCALE = 0.02


def layout(spec):
    v, d, h = spec.vocab, spec.embed, spec.hidden
    return (("w_emb", (v, d)), ("w_x", (h, d)), ("w_h", (h, h)),
            ("w_s", (v, h)), ("b_h", (h,)), ("b_y", (v,)), ("h0", (h,)))


@dataclass
class RnnTrace:
    xs: np.ndarray  # (T, embed) embedded inputs
    hs: np.ndarray  # (T+1, hidden), hs[0] = h0
    ys: np.ndarray  # (T, vocab) per-step output distributions
    loss: float


def init_params(spec, seed):
    rng = stream_rng(seed, STREAM_INIT)
    v, d, h = spec.vocab, spec.embed, spec.hidden

    def w(rows, cols):
        return rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols))

    p = Params(layout(spec))  # biases and h0 start at zero
    p.w_emb = rng.normal(0.0, 0.1, size=(v, d))
    p.w_x = rng.normal(0.0, BASE_BLOCK_SCALE, size=(h, d))
    p.w_h = w(h, h)
    p.w_s = w(v, h)
    return p


def check_sample(spec, sample):
    """Reject a frame sequence, or a token, label or target outside
    [0, vocab)."""
    check_kind(spec, sample)
    check_ids(sample.tokens, spec.vocab, "token")
    if sample.is_classification:
        if not 0 <= sample.label < spec.vocab:
            raise InvalidInputError(f"label out of range [0, {spec.vocab})")
    else:
        check_ids(sample.targets, spec.vocab, "target")


def forward(params, sample, rng=None, k=1):
    """Run the recurrence and return the full trace, including the loss.
    Deterministic: ``rng`` and ``k`` (model protocol) are ignored."""
    tokens = sample.tokens
    t_len = tokens.size
    hidden = params.h0.size

    xs = params.w_emb[tokens]
    hs = np.empty((t_len + 1, hidden))
    hs[0] = params.h0
    logits = np.empty((t_len, params.b_y.size))
    for t in range(t_len):
        hs[t + 1] = np.tanh(params.w_h @ hs[t] + params.w_x @ xs[t] + params.b_h)
        logits[t] = params.w_s @ hs[t + 1] + params.b_y

    logp = log_softmax(logits)
    if sample.is_classification:
        loss = -logp[t_len - 1, sample.label]
    else:
        loss = -np.mean(logp[np.arange(t_len), sample.targets])
    return RnnTrace(xs=xs, hs=hs, ys=np.exp(logp), loss=float(loss))


def backward(params, sample, trace):
    """Exact gradients of the loss for every parameter block."""
    tokens = sample.tokens
    t_len = tokens.size
    if (trace.hs.shape, trace.ys.shape, trace.xs.shape) != (
            (t_len + 1, params.h0.size), (t_len, params.b_y.size),
            (t_len, params.w_emb.shape[1])):
        raise InvalidInputError("trace does not match (params, sample)")

    # d loss / d logits, per step
    dz = trace.ys.copy()
    if sample.is_classification:
        dz[: t_len - 1] = 0.0
        dz[t_len - 1, sample.label] -= 1.0
    else:
        dz[np.arange(t_len), sample.targets] -= 1.0
        dz /= t_len

    g = params.like()
    g_w_emb, g_w_x, g_w_h, g_b_h = g.w_emb, g.w_x, g.w_h, g.b_h
    g.w_s = dz.T @ trace.hs[1:]
    g.b_y = dz.sum(axis=0)

    carry = np.zeros_like(params.h0)  # d loss / d h_t from steps after t
    for t in range(t_len - 1, -1, -1):
        dh = params.w_s.T @ dz[t] + carry
        da = dh * (1.0 - trace.hs[t + 1] ** 2)
        g_w_h += np.outer(da, trace.hs[t])
        g_w_x += np.outer(da, trace.xs[t])
        g_b_h += da
        g_w_emb[tokens[t]] += params.w_x.T @ da
        carry = params.w_h.T @ da

    g.h0 = carry
    return g


def errors(trace, sample):
    """(mistakes, opportunities) of argmax decoding over a forward trace."""
    if sample.is_classification:
        return int(predict(trace) != sample.label), 1
    pred = np.argmax(trace.ys, axis=1)
    return int(np.sum(pred != sample.targets)), sample.tokens.size


def predict(trace):
    """Argmax class at the final step (classification head)."""
    return int(np.argmax(trace.ys[-1]))


@dataclass
class RnnBatchTrace:
    """``forward_batch`` of B samples padded to T steps; entries past a
    sample's length are padding."""

    xs: np.ndarray  # (B, T, embed)
    hs: np.ndarray  # (B, T+1, hidden)
    ys: np.ndarray  # (B, T, vocab); backward_batch overwrites it
    losses: np.ndarray  # (B,)
    wrong: np.ndarray  # (B,) argmax mistakes, as ``errors``
    total: np.ndarray  # (B,) opportunities
    predictions: np.ndarray  # (B,) ``predict`` of each sample


def forward_batch(params, batch, rng=None, k=1):
    """``forward`` of every sample of a ``Batch``, bit for bit, with one
    batched product per step. Deterministic: ``rng`` and ``k`` are ignored."""
    tokens, lengths, n = batch.tokens, batch.lengths, batch.lengths.size
    rows, last, cls = np.arange(n), lengths - 1, batch.labels >= 0
    t_len = tokens.shape[1]

    xs = embed(params.w_emb, tokens)
    wx = matvec(params.w_x, xs)
    hs = np.empty((n, t_len + 1, params.h0.shape[-1]))
    hs[:, 0] = params.h0
    for t in range(t_len):
        hs[:, t + 1] = np.tanh(matvec(params.w_h, hs[:, t]) + wx[:, t] + params.b_h)

    logp = matvec(params.w_s, hs[:, 1:])
    logp += per_step(params.b_y)
    log_softmax(logp, out=logp)
    losses = np.empty(n)
    losses[cls] = -logp[rows[cls], last[cls], batch.labels[cls]]
    picked = logp[rows[:, None], np.arange(t_len), batch.targets]
    for b in np.flatnonzero(~cls):
        losses[b] = -np.mean(picked[b, :lengths[b]])

    ys = np.exp(logp, out=logp)
    pred = np.argmax(ys, axis=-1)
    predictions = pred[rows, last]
    wrong = np.where(cls, predictions != batch.labels,
                     np.sum((pred != batch.targets) & batch.mask, axis=1))
    return RnnBatchTrace(xs=xs, hs=hs, ys=ys, losses=losses, wrong=wrong,
                         total=np.where(cls, 1, lengths), predictions=predictions)


def backward_batch(params, batch, trace):
    """``backward`` of every sample of a ``Batch``: a (B, P) matrix whose
    rows are the gradient vectors, bit for bit. Padded steps add exact
    zeros. Turns ``trace.ys`` into d loss / d logits in place."""
    lengths, mask, n = batch.lengths, batch.mask, batch.lengths.size
    rows, last, cls = np.arange(n), lengths - 1, batch.labels >= 0
    t_len, hidden = mask.shape[1], params.h0.shape[-1]

    dz = trace.ys
    seq_rows, seq_steps = np.nonzero(mask & ~cls[:, None])
    dz[seq_rows, seq_steps, batch.targets[seq_rows, seq_steps]] -= 1.0
    dz /= np.where(cls, 1, lengths)[:, None, None]
    dz[~(mask & (~cls[:, None] | (np.arange(t_len) == last[:, None])))] = 0.0
    dz[rows[cls], last[cls], batch.labels[cls]] -= 1.0

    g = params.like(np.zeros((n, params.vec.shape[-1])))
    hs, xs = trace.hs, trace.xs
    # Sums over time run per sample: padded, they can group differently.
    for b, size in enumerate(lengths):
        g.w_s[b] = dz[b, :size].T @ hs[b, 1:size + 1]
        g.b_y[b] = dz[b, :size].sum(axis=0)

    # One outer product per step with (h_{t-1}, x_t, 1) fills the w_h, w_x
    # and b_h sums at once, each in ``backward``'s order; x * 1.0 is x.
    inputs = np.concatenate([hs[:, :-1], xs, np.ones((n, t_len, 1))], axis=-1)
    sums = np.zeros((n, hidden, inputs.shape[-1]))
    dh_out = matvec(transpose(params.w_s), dz)
    one_h2 = 1.0 - hs[:, 1:] ** 2
    das = np.empty((n, t_len, hidden))
    carry = np.zeros((n, hidden))
    for t in range(t_len - 1, -1, -1):
        da = das[:, t]
        np.multiply(dh_out[:, t] + carry, one_h2[:, t], out=da)
        sums += da[:, :, None] * inputs[:, t, None, :]
        carry = np.where(mask[:, t, None], matvec(transpose(params.w_h), da), 0.0)
    g.w_h = sums[..., :hidden]
    g.w_x = sums[..., hidden:-1]
    g.b_h = sums[..., -1]
    add_rows_backwards(g.w_emb, batch.tokens, matvec(transpose(params.w_x), das))
    g.h0 = carry
    return g.vec
