"""Independent reference implementations used as test oracles.

Everything here is written as plain step-by-step code, deliberately not
sharing structure with the library (no stacked gates, no fused products),
so agreement between the two is meaningful.
"""

import math

import numpy as np

from gradmine.errors import DivergenceError
from gradmine.fim import HistoryRecord
from gradmine.models import STREAM_MINE, get_model, param_block, param_blocks, stream_rng
from gradmine.optimizer import sgd_step
from gradmine.tensor import matrix_norm


def finite_diff_grads(loss_fn, params, step=1e-5):
    """Central finite differences of ``loss_fn(params)`` per block entry."""
    out = {}
    for name, block in param_blocks(params).items():
        g = np.zeros_like(block)
        it = np.nditer(block, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = block[idx]
            block[idx] = orig + step
            hi = loss_fn(params)
            block[idx] = orig - step
            lo = loss_fn(params)
            block[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        out[name] = g
    return out


def max_fd_violation(analytic, numeric, rel=1e-4, abs_tol=1e-7):
    """Largest relative error among entries that exceed the absolute floor.

    Agreement contract: |a - n| <= max(rel * max(|a|, |n|), abs_tol).
    """
    worst = 0.0
    for name, num in numeric.items():
        ana = getattr(analytic, name)
        diff = np.abs(ana - num)
        scale = np.maximum(np.abs(ana), np.abs(num))
        bad = diff > abs_tol
        if np.any(bad):
            worst = max(worst, float(np.max(diff[bad] / scale[bad])))
    return worst


def softmax_list(v):
    m = max(v)
    e = [math.exp(x - m) for x in v]
    s = sum(e)
    return [x / s for x in e]


def naive_rnn_loss(params, sample):
    """Loop-and-list recurrence: embeds tokens, updates the hidden state,
    reads the per-step distribution, and averages the log losses."""
    h = [float(x) for x in params.h0]
    d_h = len(h)
    losses = []
    final = None
    for t, tok in enumerate(sample.tokens):
        x = [float(v) for v in params.w_emb[int(tok)]]
        new_h = []
        for r in range(d_h):
            acc = float(params.b_h[r])
            for c in range(d_h):
                acc += float(params.w_h[r, c]) * h[c]
            for c in range(len(x)):
                acc += float(params.w_x[r, c]) * x[c]
            new_h.append(math.tanh(acc))
        h = new_h
        logits = []
        for r in range(params.w_s.shape[0]):
            acc = float(params.b_y[r])
            for c in range(d_h):
                acc += float(params.w_s[r, c]) * h[c]
            logits.append(acc)
        probs = softmax_list(logits)
        if sample.is_classification:
            final = -math.log(probs[sample.label])
        else:
            losses.append(-math.log(probs[int(sample.targets[t])]))
    if sample.is_classification:
        return final
    return sum(losses) / len(losses)


def masked_sigmoid(v):
    """Logistic function evaluated per tail through boolean masks, so each
    entry's exponential never overflows."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def _sig(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def naive_lstm_loss(params, sample):
    """Gate-by-gate scalar recurrence with a mean-pooled softmax head."""

    def affine(w, u, b, x, h):
        out = []
        for r in range(w.shape[0]):
            acc = float(b[r])
            for c in range(w.shape[1]):
                acc += float(w[r, c]) * x[c]
            for c in range(u.shape[1]):
                acc += float(u[r, c]) * h[c]
            out.append(acc)
        return out

    h = [float(v) for v in params.h0]
    c = [float(v) for v in params.c0]
    pooled = [0.0] * len(h)
    t_len = sample.tokens.size
    for tok in sample.tokens:
        x = [float(v) for v in params.w_emb[int(tok)]]
        z = [_sig(a) for a in affine(params.w_z, params.u_z, params.b_z, x, h)]
        f = [_sig(a) for a in affine(params.w_f, params.u_f, params.b_f, x, h)]
        g = [math.tanh(a) for a in affine(params.w_c, params.u_c, params.b_c, x, h)]
        o = [_sig(a) for a in affine(params.w_o, params.u_o, params.b_o, x, h)]
        c = [z[r] * g[r] + f[r] * c[r] for r in range(len(h))]
        h = [o[r] * math.tanh(c[r]) for r in range(len(h))]
        pooled = [pooled[r] + h[r] / t_len for r in range(len(h))]
    logits = []
    for r in range(params.w_cls.shape[0]):
        acc = float(params.b_cls[r])
        for q in range(len(pooled)):
            acc += float(params.w_cls[r, q]) * pooled[q]
        logits.append(acc)
    probs = softmax_list(logits)
    return -math.log(probs[sample.label])


def naive_rnnrbm_cost(params, frames, k, rng):
    """Step-by-step conditioned reconstruction cost, consuming the
    generator in the same h-then-v order per chain step."""
    u = np.array(params.u0, dtype=float)
    total = 0.0
    for t in range(frames.shape[0]):
        v = frames[t]
        bv = params.b_v + params.w_uv @ u
        bh = params.b_h + params.w_uh @ u
        chain = v.copy()
        recon = None
        for _ in range(k):
            hp = 1.0 / (1.0 + np.exp(-(params.w.T @ chain + bh)))
            hsamp = (rng.random(hp.size) < hp) * 1.0
            recon = 1.0 / (1.0 + np.exp(-(params.w @ hsamp + bv)))
            chain = (rng.random(recon.size) < recon) * 1.0
        step_cost = 0.0
        for j in range(v.size):
            p = min(max(recon[j], 1e-300), 1.0)
            step_cost += -math.log(p) if v[j] > 0.5 else -math.log1p(-p)
        total += step_cost / v.size
        u = np.tanh(params.b_u + params.w_uu @ u + params.w_vu @ v)
    return total / frames.shape[0]


def static_rbm_cd(w, bv, bh, frames, k, rng):
    """Standalone contrastive-divergence accumulation for a static RBM.

    Mirrors the per-frame chain protocol (probabilities for both phase
    statistics, sampled chain states, h-then-v draw order) so gradients
    can be compared against the conditioned model with zeroed coupling.
    """
    g_w = np.zeros_like(w)
    g_bv = np.zeros_like(bv)
    g_bh = np.zeros_like(bh)
    for t in range(frames.shape[0]):
        v = frames[t]
        chain = v.copy()
        for _ in range(k):
            hp = 1.0 / (1.0 + np.exp(-(w.T @ chain + bh)))
            hsamp = (rng.random(hp.size) < hp) * 1.0
            vp = 1.0 / (1.0 + np.exp(-(w @ hsamp + bv)))
            chain = (rng.random(vp.size) < vp) * 1.0
        h_pos = 1.0 / (1.0 + np.exp(-(w.T @ v + bh)))
        h_neg = 1.0 / (1.0 + np.exp(-(w.T @ chain + bh)))
        g_w -= np.outer(v, h_pos) - np.outer(chain, h_neg)
        g_bv -= v - chain
        g_bh -= h_pos - h_neg
    return g_w, g_bv, g_bh


def cd_surrogate_loss(params, sample, trace):
    """Scalar whose exact parameter gradient is what ``rnnrbm.backward``
    returns.

    Rebuilds the conditioning recurrence from ``params`` and contracts it
    against the frozen phase statistics of ``trace``; used to verify the
    conditioning gradients by finite differences.
    """
    frames = sample.frames
    u = params.u0
    total = 0.0
    for t, v in enumerate(frames):
        v_star, h_pos, h_neg = trace.v_star[t], trace.h_pos[t], trace.h_neg[t]
        bv = params.b_v + params.w_uv @ u
        bh = params.b_h + params.w_uh @ u
        pos = h_pos @ (params.w.T @ v + bh) + bv @ v
        neg = h_neg @ (params.w.T @ v_star + bh) + bv @ v_star
        total -= pos - neg
        u = np.tanh(params.b_u + params.w_uu @ u + params.w_vu @ v)
    return float(total)


def per_sample_passes(model, params, samples, rng):
    """The single-sample protocol over ``samples`` in turn, all drawing from
    ``rng``: per-sample losses, mistakes, opportunities and predictions,
    and the (N, P) matrix of gradient vectors. The batched passes must
    reproduce every bit of it."""
    losses, wrong, total, predictions, grads = [], [], [], [], []
    for sample in samples:
        trace = model.forward_unchecked(params, sample, rng)
        w, t = model.errors(trace, sample)
        losses.append(trace.loss)
        wrong.append(w)
        total.append(t)
        predictions.append(model.predict(trace))
        grads.append(model.backward_unchecked(params, sample, trace).vec)
    return losses, wrong, total, predictions, np.stack(grads)


def evaluate_per_sample(model, params, samples, probs, rng):
    """Mean loss, error rate and estimator variance from
    ``per_sample_passes``, as training evaluated them one sample at a
    time."""
    from gradmine.analysis import gradient_variance

    losses, wrong, total, _, grads = per_sample_passes(model, params, samples, rng)
    return (float(np.mean(losses)), sum(wrong) / sum(total),
            gradient_variance(grads, probs))


def mine_one_scalar(task):
    """One private mining run, one sample at a time with the single-sample
    passes: the loop the lockstep miner must reproduce bit for bit.
    Returns ``fim._mine_one``'s tuple."""
    spec, sample, cfg, index, params = task
    model = get_model(spec)
    selector = cfg.base_selector or model.base_selector
    rng = stream_rng(cfg.seed, STREAM_MINE, index)

    trace = model.forward_unchecked(params, sample, rng)
    loss = float(trace.loss)
    grad_sum = np.zeros_like(np.atleast_1d(param_block(params, selector)))
    norm_sum = 0.0
    losses = [loss]
    steps = 0
    while loss > cfg.epsilon and steps < cfg.t_max:
        if not np.isfinite(loss):
            raise DivergenceError(
                f"private training diverged on sample {index} at step {steps}")
        grads = model.backward_unchecked(params, sample, trace)
        if cfg.record_history:
            base_grad = param_block(grads, selector)
            grad_sum += base_grad
            norm_sum += matrix_norm(base_grad, cfg.norm_kind)
        params = sgd_step(params, grads, cfg.lr)
        steps += 1
        trace = model.forward_unchecked(params, sample, rng)
        loss = float(trace.loss)
        if cfg.record_history:
            losses.append(loss)
    if not np.isfinite(loss):
        raise DivergenceError(f"private training diverged on sample {index}")

    base = param_block(params, selector)
    history = None
    if cfg.record_history:
        history = HistoryRecord(base_final=base.copy(), grad_sum=grad_sum,
                                norm_sum=norm_sum, losses=losses)
    emb = None
    if cfg.embed_diagnostic and hasattr(params, "w_emb"):
        emb = params.w_emb.copy()
    return (index, matrix_norm(base, cfg.norm_kind), steps,
            bool(loss <= cfg.epsilon), history, emb)


def mine_rows_scalar(task):
    """``fim._mine_rows`` as a loop of ``mine_one_scalar``, in sample order;
    patched in for it, ``mine_importance`` mines as the scalar oracle."""
    spec, samples, cfg, first, params = task
    return [mine_one_scalar((spec, sample, cfg, first + i, params))
            for i, sample in enumerate(samples)]
