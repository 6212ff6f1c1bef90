"""Vanilla recurrent network with hand-derived gradients.

Recurrence, per step over the embedded tokens x_t:

    h_t = tanh(W_h h_{t-1} + W_x x_t + b_h)
    y_t = softmax(W_s h_t + b_y)

The loss is mean negative log-likelihood of the per-step targets, or the
final-step negative log-likelihood when the sample carries one label; a
labelled batch takes the output layer at each sample's last step alone.
Both passes run a packed batch of samples at once, and each sample's row
has the bits it has in a batch of its own. Backward runs untruncated
through the whole history; every block of each returned gradient row
matches central finite differences of that sample's loss.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from .common import (
    add_rows_backwards, check_ids, check_trace, init_normal, tanh_backward, tanh_forward)
from ..tensor import embed, log_softmax, matvec, transpose

BASE_SELECTOR = "w_x"

# The input-weight block starts near zero so that after per-sample private
# training its norm is dominated by the accumulated updates, not by random
# initialization mass. Training escapes zero through the embeddings.
BASE_BLOCK_SCALE = 0.02


def layout(spec):
    v, d, h = spec.vocab, spec.embed, spec.hidden
    return (("w_emb", (v, d)), ("w_x", (h, d)), ("w_h", (h, h)),
            ("w_s", (v, h)), ("b_h", (h,)), ("b_y", (v,)), ("h0", (h,)))


def init_params(spec, seed):  # biases and h0 start at zero
    return init_normal(layout(spec), seed, {
        "w_emb": 0.1, "w_x": BASE_BLOCK_SCALE, "w_h": None, "w_s": None})


def check_sample(spec, sample):
    """Reject a token, label or target outside [0, vocab)."""
    check_ids(sample.tokens, spec.vocab, "token")
    if sample.is_classification:
        if not 0 <= sample.label < spec.vocab:
            raise InvalidInputError(f"label out of range [0, {spec.vocab})")
    else:
        check_ids(sample.targets, spec.vocab, "target")


@dataclass
class RnnBatchTrace:
    """``forward`` of B samples padded to T steps; entries past a sample's
    length are padding."""

    xs: np.ndarray  # (B, T, embed)
    hs: np.ndarray  # (B, T+1, hidden)
    ys: np.ndarray  # (B, T, vocab), or (B, vocab) for labels; backward overwrites it
    losses: np.ndarray  # (B,)
    wrong: np.ndarray  # (B,) argmax mistakes: at the last step, or per step
    total: np.ndarray  # (B,) opportunities
    predictions: np.ndarray  # (B,) argmax class at each sample's last step


def forward(params, batch, rng=None, k=1):
    """Run the recurrence over every sample of a ``Batch``, one batched
    product per step, and return the trace with each sample's loss.
    Deterministic: ``rng`` and ``k`` (model protocol) are ignored."""
    tokens, lengths, n = batch.tokens, batch.lengths, batch.lengths.size
    rows, t_len = np.arange(n), tokens.shape[1]

    xs = embed(params.w_emb, tokens)
    wx = np.matmul(params.w_x, xs.swapaxes(0, 1)[..., None])  # time-major
    hs = tanh_forward(params.w_h, params.h0, wx, params.b_h[..., None])
    labelled = batch.targets is None  # a label reads the last step's head alone
    if not labelled:  # products over hs's strided steps can change bits there
        hs = np.ascontiguousarray(hs)
    logp = matvec(params.w_s, hs[rows, lengths] if labelled else hs[:, 1:])
    logp += params.b_y if labelled else params.b_y[..., None, :]
    log_softmax(logp, out=logp)
    if labelled:
        losses = -logp[rows, batch.labels]
    else:  # each step against its target, averaged over the sample's steps
        picked = logp[rows[:, None], np.arange(t_len), batch.targets]
        losses = np.array([-np.mean(p[:size]) for p, size in zip(picked, lengths)])

    ys = np.exp(logp, out=logp)
    pred = np.argmax(ys, axis=-1)
    if labelled:
        predictions, total = pred, np.ones(n, np.int64)
        wrong = (pred != batch.labels).astype(np.int64)
    else:
        predictions, total = pred[rows, lengths - 1], lengths
        wrong = np.sum((pred != batch.targets) & batch.mask, axis=1)
    return RnnBatchTrace(xs=xs, hs=hs, ys=ys, losses=losses, wrong=wrong,
                         total=total, predictions=predictions)


def backward(params, batch, trace):
    """Exact gradients of each sample's loss for every parameter block: a
    (B, P) matrix with one gradient vector per row. Padded steps add exact
    zeros. Turns ``trace.ys`` into d loss / d logits in place."""
    check_trace(batch, trace.hs)
    lengths, mask, rows = batch.lengths, batch.mask, np.arange(batch.lengths.size)
    g = params.like(np.zeros((rows.size, params.vec.shape[-1])))
    dz, hs, xs = trace.ys, trace.hs, trace.xs
    if batch.targets is None:  # only the last step has a head
        dz[rows, batch.labels] -= 1.0
        g.b_y = dz
        # + 0.0, as a sum over time from +0.0 would: the product may be -0.0
        g.w_s = dz[:, :, None] * hs[rows, lengths][:, None, :] + 0.0
        ext = np.zeros(mask.shape + hs.shape[-1:])
        ext[rows, lengths - 1] = matvec(transpose(params.w_s), dz)
    else:  # the mean over each sample's own steps, then no padding
        live, steps = np.nonzero(mask)
        dz[live, steps, batch.targets[live, steps]] -= 1.0
        dz /= lengths[:, None, None]
        dz[~mask] = 0.0
        # Sums over time run per sample: padded, they can group differently.
        for b, size in enumerate(lengths):
            g.w_s[b] = dz[b, :size].T @ hs[b, 1:size + 1]
            g.b_y[b] = dz[b, :size].sum(axis=0)
        ext = matvec(transpose(params.w_s), dz)

    g.w_h, g.w_x, g.b_h, das, g.h0 = tanh_backward(params.w_h, hs, xs, ext, mask)
    add_rows_backwards(g.w_emb, batch.tokens, matvec(transpose(params.w_x), das))
    return g.vec
