"""Frame-sequence generative model: an RBM conditioned per step by a
deterministic recurrence that shifts its biases.

For frames v_1..v_T (binary, width n_v):

    bv_t = b_v + W_uv u_{t-1}
    bh_t = b_h + W_uh u_{t-1}
    u_t  = tanh(b_u + W_uu u_{t-1} + W_vu v_t)

At each step a k-step Gibbs chain starts from the data frame and yields
the reconstruction used both for the contrastive weight updates and for
the monitoring cost (mean frame-wise binary cross-entropy). Gradients for
W, b_v, b_h are the usual positive/negative phase differences; gradients
for the conditioning parameters backpropagate exactly through the
recurrence with the phase statistics held fixed. Both passes run a packed
batch of samples at once, and each sample's row has the bits it has in a
batch of its own.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from .common import (
    STREAM_INIT, Params, check_trace, stream_rng, sum_over_time, tanh_backward,
    tanh_forward)
from ..tensor import matvec, sigmoid, transpose

BASE_SELECTOR = "w"


def layout(spec):
    """``w`` is the shared visible-hidden weight, ``b_v``/``b_h`` the static
    offsets; the ``*_u*`` blocks and ``u0`` drive the conditioning state."""
    n_v, n_h, d_u = spec.vocab, spec.hidden, spec.context
    return (("w", (n_v, n_h)), ("b_v", (n_v,)), ("b_h", (n_h,)),
            ("w_uv", (n_v, d_u)), ("w_uh", (n_h, d_u)), ("w_uu", (d_u, d_u)),
            ("w_vu", (d_u, n_v)), ("b_u", (d_u,)), ("u0", (d_u,)))


def init_params(spec, seed):
    rng = stream_rng(seed, STREAM_INIT)
    n_v, n_h, d_u = spec.vocab, spec.hidden, spec.context

    def w(rows, cols, scale=None):
        return rng.normal(0.0, scale or 1.0 / np.sqrt(cols), size=(rows, cols))

    p = Params(layout(spec))  # biases and u0 start at zero
    p.w = w(n_v, n_h, scale=0.01)
    p.w_uv = w(n_v, d_u, scale=0.01)
    p.w_uh = w(n_h, d_u, scale=0.01)
    p.w_uu = w(d_u, d_u)
    p.w_vu = w(d_u, n_v)
    return p


def check_sample(spec, sample):
    """Reject frames whose width is not n_v."""
    if sample.frames.shape[1] != spec.vocab:
        raise InvalidInputError(
            f"frame width {sample.frames.shape[1]} != n_v {spec.vocab}")


@dataclass
class RnnRbmBatchTrace:
    """``forward`` of B samples padded to T frames; entries past a sample's
    length are padding, except that ``h_pos`` and ``h_neg`` are zero there."""

    us: np.ndarray  # (B, T+1, context), us[:, 0] = u0
    v_star: np.ndarray  # (B, T, n_v) chain-end visible samples
    h_pos: np.ndarray  # (B, T, n_h) sigmoid(W^T v_t + bh_t)
    h_neg: np.ndarray  # (B, T, n_h) sigmoid(W^T v_star_t + bh_t)
    losses: np.ndarray  # (B,) monitoring costs
    wrong: np.ndarray  # (B,) bit mismatches of the thresholded reconstructions
    total: np.ndarray  # (B,) frame bits
    predictions: np.ndarray  # (B,) of None: no class to predict


def gibbs_step(w, bv, bh, v, uniforms, h_prob=None):
    """One alternating Gibbs update of every chain from visible states
    ``v`` (..., n_v), sampling h from the first n_h ``uniforms`` (...,
    n_h + n_v) and then v from the rest.

    Returns (h_sample, v_next_prob, v_next_sample). ``h_prob``, when given,
    must be ``sigmoid(w.T @ v + bh)``, which the caller already holds.
    """
    n_h = bh.shape[-1]
    if h_prob is None:
        h_prob = sigmoid(matvec(transpose(w), v) + bh)
    h = (uniforms[..., :n_h] < h_prob).astype(np.float64)
    v_prob = sigmoid(matvec(w, h) + bv)
    v_next = (uniforms[..., n_h:] < v_prob).astype(np.float64)
    return h, v_prob, v_next


def forward(params, batch, rng=None, k=1):
    """Conditioning recurrence plus one CD-k chain per frame for every
    sample of a ``Batch``. Each sample takes one draw for all its frames
    (per frame and chain step, n_h uniforms for h, then n_v for v) from its
    own generator when ``rng`` is a sequence of them, or in turn from one
    shared ``rng``: one bulk draw equals the same draws taken in pieces, so
    every generator ends as if each sample had drawn alone."""
    if rng is None:
        raise InvalidInputError("the frame model needs a random generator")
    frames, lengths, mask = batch.frames, batch.lengths, batch.mask
    n, t_len, n_v = frames.shape
    n_h = params.b_h.shape[-1]

    vu = np.matmul(params.w_vu, frames.swapaxes(0, 1)[..., None])  # time-major
    us = tanh_forward(params.w_uu, params.u0, params.b_u[..., None], vu)
    bvs = params.b_v[..., None, :] + matvec(params.w_uv, us[:, :-1])
    bhs = params.b_h[..., None, :] + matvec(params.w_uh, us[:, :-1])

    # Padding draws 1.0, which samples 0 from every probability.
    width = k * (n_h + n_v)
    rngs = [rng] * n if isinstance(rng, np.random.Generator) else rng
    draws = np.concatenate([r.random(m * width) for r, m in zip(rngs, lengths)])
    uniforms = np.ones((n, t_len, k, n_h + n_v))
    uniforms[mask] = draws.reshape(-1, k, n_h + n_v)
    # The positive phase is the first half-step's hidden probability.
    w_t = transpose(params.w)
    h_pos = sigmoid(matvec(w_t, frames) + bhs)
    v_chain, h_prob = frames, h_pos
    for step in range(k):
        _, recon, v_chain = gibbs_step(
            params.w, bvs, bhs, v_chain, uniforms[:, :, step], h_prob)
        h_prob = None
    h_neg = sigmoid(matvec(w_t, v_chain) + bhs)
    h_pos[~mask] = 0.0
    h_neg[~mask] = 0.0

    with np.errstate(divide="ignore"):
        costs = np.mean(np.where(frames > 0.5, -np.log(recon), -np.log1p(-recon)),
                        axis=-1)
    cost = np.zeros(n)
    # A running sum in frame order: a padded sum over time can group differently.
    for t in range(t_len):
        cost += np.where(mask[:, t], costs[:, t], 0.0)
    wrong = np.sum(((recon > 0.5) != frames) & mask[:, :, None], axis=(1, 2))
    return RnnRbmBatchTrace(
        us=us, v_star=v_chain, h_pos=h_pos, h_neg=h_neg, losses=cost / lengths,
        wrong=wrong, total=lengths * n_v, predictions=np.full(n, None))


def backward(params, batch, trace):
    """CD gradients for the RBM blocks and exact recurrence backprop for
    the conditioning blocks, with the phase statistics treated as
    constants: a (B, P) matrix with one gradient vector per row. Padded
    frames add exact zeros."""
    check_trace(batch, trace.us)
    frames, mask = batch.frames, batch.mask
    n, t_len, n_v = frames.shape
    us, v_star, h_pos, h_neg = trace.us, trace.v_star, trace.h_pos, trace.h_neg

    g = params.like(np.zeros((n, params.vec.shape[-1])))
    # Each sum runs in frame order, over time-major terms. w's subtracts, which
    # numpy never does pairwise, so it keeps the bits at one entry a row too.
    # The adjacent (b_v, b_h) and (w_uv, w_uh) blocks take one stacked sum each.
    dbs = np.concatenate([-(frames - v_star), -(h_pos - h_neg)], axis=-1)
    v, hp, vs, hn, db, u = (
        a.swapaxes(0, 1) for a in (frames, h_pos, v_star, h_neg, dbs, us))
    g.w = sum_over_time(lambda s, out: np.subtract(  # v h_pos - v* h_neg
        np.multiply(v[s, ..., None], hp[s, :, None], out=out),
        vs[s, ..., None] * hn[s, :, None], out=out), t_len, g.w.shape, np.subtract)
    g_b, g_wu = g.span("b_v", "b_h"), g.span("w_uv", "w_uh")
    g_b[...] = np.add.reduce(dbs, axis=1, initial=0.0)
    g_wu[...] = sum_over_time(lambda s, out: np.multiply(
        db[s, ..., None], u[s, :, None], out=out), t_len, g_wu.shape)

    # Frame t's biases read u_{t-1}, so its bias gradient reaches the state
    # one step earlier; nothing outside the recurrence reads the last one.
    du_bias = (matvec(transpose(params.w_uv), dbs[..., :n_v])
               + matvec(transpose(params.w_uh), dbs[..., n_v:]))
    ext = np.zeros_like(du_bias)
    ext[:, :-1] = np.where(mask[:, 1:, None], du_bias[:, 1:], 0.0)
    g.w_uu, g.w_vu, g.b_u, _, carry = tanh_backward(params.w_uu, us, frames, ext, mask)
    g.u0 = carry + du_bias[:, 0]
    return g.vec
