"""Independent reference implementations used as test oracles.

Everything here is written as plain step-by-step code, deliberately not
sharing structure with the library's batched passes (no padding, no
per-row parameters, one sample per call), so agreement between the two is
meaningful. The single-sample passes at the end are the library's passes
as they were before it ran every pass batched; the batched passes, the
training step and lockstep mining must reproduce them bit for bit.
``tanh_backward_per_step`` is the batched recurrence backward as it was
before its sums over time left the step loop, and ``tanh_forward_per_step``
the batched recurrence forward as it was before it ran time-major.
``init_params_reference`` is each model's initialization as it was written
before one routine drew every model's blocks, and ``reconstructed`` reads
the probabilities back out of an alias table.
"""

import math
from dataclasses import dataclass

import numpy as np

from gradmine import optimizer
from gradmine.errors import DivergenceError, InvalidInputError
from gradmine.models import (
    STREAM_DRAW,
    STREAM_INIT,
    STREAM_MINE,
    STREAM_MODEL,
    Params,
    get_model,
    pack,
    param_block,
    stream_rng,
    validate_dataset,
)
from gradmine.models.lstm import _blocks, _stacked
from gradmine.optimizer import sgd_step
from gradmine.sampling import build_alias, generate_sequence
from gradmine.tensor import (
    frobenius_norm,
    log_softmax,
    matrix_norm,
    matvec,
    sigmoid,
    transpose,
)

from conftest import param_blocks


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
    """The single-sample passes of ``model``'s kind over ``samples`` in
    turn, all drawing from ``rng``: per-sample losses, mistakes,
    opportunities and predictions, and the (N, P) matrix of gradient
    vectors. The batched passes must reproduce every bit of it."""
    forward, backward, errors, predict = SCALAR[model.spec.kind]
    losses, wrong, total, predictions, grads = [], [], [], [], []
    for sample in samples:
        trace = forward(params, sample, rng, model.spec.cd_k)
        w, t = errors(trace, sample)
        losses.append(trace.loss)
        wrong.append(w)
        total.append(t)
        predictions.append(predict(trace))
        grads.append(backward(params, sample, trace).vec)
    return losses, wrong, total, predictions, np.stack(grads)


def evaluate_per_sample(model, params, samples, probs, rng):
    """Mean loss, error rate and estimator variance from
    ``per_sample_passes``, as training evaluated them one sample at a
    time."""
    from gradmine.analysis import gradient_variance

    losses, wrong, total, _, grads = per_sample_passes(model, params, samples, rng)
    return (float(np.mean(losses)), sum(wrong) / sum(total),
            gradient_variance(grads, probs))


def init_params_reference(spec, seed):
    """``get_model(spec).init_params(seed)`` as each model wrote it out: one
    ``rng.normal`` call per drawn block, in this order, from the (seed,
    STREAM_INIT) stream; a weight without a scale of its own takes
    1/sqrt(columns). Every other block starts at zero, but the LSTM's b_f."""
    rng = stream_rng(seed, STREAM_INIT)
    v, d, h = spec.vocab, spec.embed, spec.hidden

    def w(rows, cols, scale=None):
        scale = 1.0 / np.sqrt(cols) if scale is None else scale
        return rng.normal(0.0, scale, size=(rows, cols))

    p = Params(get_model(spec).module.layout(spec))
    if spec.kind == "rnn":
        p.w_emb = w(v, d, 0.1)
        p.w_x = w(h, d, 0.02)
        p.w_h = w(h, h)
        p.w_s = w(v, h)
    elif spec.kind == "lstm":
        p.w_emb = w(v, d, 0.1)
        p.w_z = w(h, d)
        p.w_f = w(h, d)
        p.w_c = w(h, d, 0.02)
        p.w_o = w(h, d)
        for gate in "zfco":
            setattr(p, f"u_{gate}", w(h, h))
        p.b_f = 1.0
        p.w_cls = w(spec.classes, h)
    else:
        n_v, d_u = spec.vocab, spec.context
        p.w = w(n_v, h, 0.01)
        p.w_uv = w(n_v, d_u, 0.01)
        p.w_uh = w(h, d_u, 0.01)
        p.w_uu = w(d_u, d_u)
        p.w_vu = w(d_u, n_v)
    return p


def reconstructed(dist):
    """The probability of each index that the alias tables of ``dist`` give:
    cell i gives alias_prob[i]/N to i and the rest of its 1/N to
    alias_idx[i]. It must reproduce ``dist.probs``."""
    n = dist.n
    mass = dist.alias_prob / n
    np.add.at(mass, dist.alias_idx, (1.0 - dist.alias_prob) / n)
    return mass


def tanh_forward_per_step(w_rec, s0, first, second):
    """``models.common.tanh_forward`` one batch-major step at a time through
    ``tensor.matvec``: ``s_t = tanh((W s_{t-1} + first_t) + second_t)``
    over (B, T+1, H) states. An addend is a (B, T, H) array of per-step
    terms or a constant, (H,) or (B, H). The frame model wrote its step as
    ``(b_u + W u) + vu_t``; the first sum commutes exactly."""
    per_step = first if first.ndim == 3 else second
    n, t_len, hidden = per_step.shape
    states = np.empty((n, t_len + 1, hidden))
    states[:, 0] = s0
    for t in range(t_len):
        a, b = (x[:, t] if x.ndim == 3 else x for x in (first, second))
        states[:, t + 1] = np.tanh(matvec(w_rec, states[:, t]) + a + b)
    return states


def tanh_backward_per_step(w_rec, states, inputs, ext, mask):
    """``models.common.tanh_backward`` with the three outer-product sums
    added inside the step loop, one step at a time from the last to the
    first: the running sums its chunked reduces must reproduce bit for bit."""
    n, t_len, hidden = ext.shape
    stacked = np.concatenate([states[:, :-1], inputs, np.ones((n, t_len, 1))], axis=-1)
    sums = np.zeros((n, hidden, stacked.shape[-1]))
    one_s2 = 1.0 - states[:, 1:] ** 2
    das = np.empty((n, t_len, hidden))
    carry = np.zeros((n, hidden))
    w_t = transpose(w_rec)
    for t in range(t_len - 1, -1, -1):
        da = das[:, t]
        np.multiply(ext[:, t] + carry, one_s2[:, t], out=da)
        sums += da[:, :, None] * stacked[:, t, None, :]
        carry = np.where(mask[:, t, None], matvec(w_t, da), 0.0)
    return sums[..., :hidden], sums[..., hidden:-1], sums[..., -1], das, carry


@dataclass
class HistoryRecord:
    """Step-level bookkeeping of one private run."""

    base_final: np.ndarray
    grad_sum: np.ndarray  # sum of base-block gradients over all steps
    norm_sum: float  # sum of per-step base-gradient Frobenius norms
    losses: list  # loss before each step, plus the final loss


def history_sum_check(final_base, init_base, history, lr, tol=1e-9):
    """Verify the recorded-run identities of the mined proxy.

    Checks that the final block equals the initialization minus the
    step-scaled gradient sum (within ``tol`` per entry) and that its norm
    obeys the triangle bound  ||final|| <= ||init|| + lr * sum ||g_t||.
    """
    reconstructed = init_base - lr * history.grad_sum
    if np.max(np.abs(final_base - reconstructed)) > tol:
        return False
    lhs = frobenius_norm(final_base)
    rhs = frobenius_norm(init_base) + lr * history.norm_sum
    return lhs <= rhs + 1e-12 * (1.0 + rhs)


def mine_one_scalar(task):
    """One private mining run, one sample at a time with the single-sample
    passes: the loop the lockstep miner must reproduce bit for bit.
    Returns ``fim._mine_one``'s tuple and the run's ``HistoryRecord``."""
    spec, sample, cfg, index, params = task
    forward, backward = SCALAR[spec.kind][:2]
    selector = cfg.base_selector or get_model(spec).base_selector
    rng = stream_rng(cfg.seed, STREAM_MINE, index)

    trace = forward(params, sample, rng, spec.cd_k)
    loss = float(trace.loss)
    grad_sum = np.zeros_like(np.atleast_1d(param_block(params, selector)))
    norm_sum = 0.0
    losses = [loss]
    steps = 0
    while loss > cfg.epsilon and steps < cfg.t_max:
        if not np.isfinite(loss):
            raise DivergenceError(
                f"private training diverged on sample {index} at step {steps}")
        grads = backward(params, sample, trace)
        base_grad = param_block(grads, selector)
        grad_sum += base_grad
        norm_sum += frobenius_norm(base_grad)
        params = sgd_step(params, grads, cfg.lr)
        steps += 1
        trace = forward(params, sample, rng, spec.cd_k)
        loss = float(trace.loss)
        losses.append(loss)
    if not np.isfinite(loss):
        raise DivergenceError(
            f"private training diverged on sample {index} at step {steps}")

    base = param_block(params, selector)
    history = HistoryRecord(base_final=base.copy(), grad_sum=grad_sum,
                            norm_sum=norm_sum, losses=losses)
    return (index, matrix_norm(base, cfg.norm_kind), steps,
            bool(loss <= cfg.epsilon)), history


def mine_rows_scalar(task):
    """``fim._mine_rows`` as a loop of ``mine_one_scalar``, in sample order;
    patched in for it, ``mine_importance`` mines as the scalar oracle."""
    spec, samples, cfg, first, params = task
    return [mine_one_scalar((spec, sample, cfg, first + i, params))[0]
            for i, sample in enumerate(samples)]


def mine_scalar(dataset, spec, cfg):
    """Every sample's ``mine_one_scalar`` run from the shared initialization
    that ``fim.mine_importance`` draws: (that initialization, the runs'
    ``_mine_one`` tuples, their histories)."""
    params0 = get_model(spec).init_params(cfg.seed)
    runs = [mine_one_scalar((spec, sample, cfg, i, params0))
            for i, sample in enumerate(validate_dataset(spec, dataset))]
    outputs, histories = zip(*runs)
    return params0, list(outputs), list(histories)


def train_scalar(dataset, params0, cfg, eval_dataset=None):
    """``optimizer.train`` with each training step run through the
    single-sample passes: the loop the one-row training step must reproduce
    bit for bit. Evaluation runs the library's batched ``_evaluate``, as
    this loop always did. Returns (params, metrics log with ``wall_ms`` 0,
    the model-stream generator at its end state)."""
    forward, backward = SCALAR[cfg.spec.kind][:2]
    samples = validate_dataset(cfg.spec, dataset)
    held = None if eval_dataset is None else pack(validate_dataset(
        cfg.spec, eval_dataset, "held-out sample"))
    n = len(samples)
    batch = pack(samples)
    model = get_model(cfg.spec)
    if cfg.sampler == optimizer.IMPORTANCE:
        probs, clip = cfg.importance.check_fits(cfg.spec, n).probs, cfg.clip
    else:
        probs, clip = np.full(n, 1.0 / n), None
    schedule = generate_sequence(
        build_alias(probs), cfg.epochs * n, stream_rng(cfg.seed, STREAM_DRAW))
    rng_model = stream_rng(cfg.seed, STREAM_MODEL)

    log = optimizer.MetricsLog()
    params = params0.like(params0.vec.copy())
    for epoch in range(1, cfg.epochs + 1):
        for step in range(n):
            idx = int(schedule[(epoch - 1) * n + step])
            trace = forward(params, samples[idx], rng_model, cfg.spec.cd_k)
            if not np.isfinite(trace.loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {step}, sample {idx}")
            grads = backward(params, samples[idx], trace)
            params = sgd_step(
                params, grads, optimizer._step_size(cfg.lr, n, probs[idx], clip))
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            splits = [("train", batch, probs)]
            if held is not None:
                n_held = held.lengths.size
                splits.append(("eval", held, np.full(n_held, 1.0 / n_held)))
            for split, data, p in splits:
                loss, err, gvar = optimizer._evaluate(
                    model, params, data, p, epoch, cfg.seed)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite evaluation loss on the {split} split at epoch {epoch}")
                log.rows.append(optimizer.MetricsRow(epoch, split, loss, err, gvar, 0.0))
    return params, log, rng_model


# The single-sample passes: ``forward(params, sample, rng, k)`` returns a
# trace of one sample's per-step arrays and its ``loss``, ``backward`` the
# gradient as ``Params``, ``errors`` (mistakes, opportunities) and
# ``predict`` the argmax class (None for the frame model).


@dataclass
class RnnTrace:
    xs: np.ndarray  # (T, embed) embedded inputs
    hs: np.ndarray  # (T+1, hidden), hs[0] = h0
    ys: np.ndarray  # (T, vocab) per-step output distributions
    loss: float


def rnn_forward(params, sample, rng=None, k=1):
    tokens = sample.tokens
    t_len = tokens.size
    xs = params.w_emb[tokens]
    hs = np.empty((t_len + 1, params.h0.size))
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


def rnn_backward(params, sample, trace):
    tokens = sample.tokens
    t_len = tokens.size
    dz = trace.ys.copy()  # d loss / d logits, per step
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


def rnn_predict(trace):
    return int(np.argmax(trace.ys[-1]))


def rnn_errors(trace, sample):
    if sample.is_classification:
        return int(rnn_predict(trace) != sample.label), 1
    pred = np.argmax(trace.ys, axis=1)
    return int(np.sum(pred != sample.targets)), sample.tokens.size


@dataclass
class LstmTrace:
    xs: np.ndarray  # (T, embed)
    zs: np.ndarray  # (T, hidden) gate activations
    fs: np.ndarray
    gs: np.ndarray  # candidate cells, in (-1, 1)
    os_: np.ndarray
    cs: np.ndarray  # (T+1, hidden), cs[0] = c0
    tcs: np.ndarray  # (T, hidden) tanh(C_t)
    hs: np.ndarray  # (T+1, hidden), hs[0] = h0
    probs: np.ndarray  # (classes,) head output
    loss: float


def lstm_forward(params, sample, rng=None, k=1):
    tokens = sample.tokens
    t_len = tokens.size
    hidden = params.h0.size
    z_blk, f_blk, c_blk, o_blk = _blocks(hidden)

    xs = params.w_emb[tokens]
    gates = np.empty((t_len, 4 * hidden))  # (z, f, g, o) activations
    cs = np.empty((t_len + 1, hidden))
    tcs = np.empty((t_len, hidden))
    hs = np.empty((t_len + 1, hidden))
    cs[0] = params.c0
    hs[0] = params.h0
    w_all, u_all, b_all = _stacked(params)
    pre_x = xs @ w_all.T + b_all  # (T, 4*hidden), input share of every gate
    for t in range(t_len):
        acts = pre_x[t] + u_all @ hs[t]
        gate = gates[t]
        gate[:] = sigmoid(acts)
        np.tanh(acts[c_blk], out=gate[c_blk])
        np.add(gate[z_blk] * gate[c_blk], gate[f_blk] * cs[t], out=cs[t + 1])
        np.tanh(cs[t + 1], out=tcs[t])
        np.multiply(gate[o_blk], tcs[t], out=hs[t + 1])
    zs, fs, gs, os_ = (gates[:, blk] for blk in (z_blk, f_blk, c_blk, o_blk))

    pooled = hs[1:].mean(axis=0)
    logp = log_softmax(params.w_cls @ pooled + params.b_cls)
    return LstmTrace(xs=xs, zs=zs, fs=fs, gs=gs, os_=os_, cs=cs, tcs=tcs,
                     hs=hs, probs=np.exp(logp), loss=float(-logp[sample.label]))


def lstm_backward(params, sample, trace):
    tokens = sample.tokens
    t_len = tokens.size
    z_blk, f_blk, c_blk, o_blk = _blocks(params.h0.size)
    dlogits = trace.probs.copy()
    dlogits[sample.label] -= 1.0
    pooled = trace.hs[1:].mean(axis=0)
    dh_pool = (params.w_cls.T @ dlogits) / t_len
    dh_next = np.zeros_like(params.h0)
    dc_next = np.zeros_like(params.c0)

    w_all, u_all, _ = _stacked(params)
    g = params.like()
    zs, fs, gs, os_, cs, tcs = (
        trace.zs, trace.fs, trace.gs, trace.os_, trace.cs, trace.tcs)
    one_z, one_f, one_o = 1.0 - zs, 1.0 - fs, 1.0 - os_
    one_g2, one_tc2 = 1.0 - gs**2, 1.0 - tcs**2
    da_all = np.empty((t_len, 4 * params.h0.size))  # pre-activation grads
    for t in range(t_len - 1, -1, -1):
        z, f, o = zs[t], fs[t], os_[t]
        dh = dh_pool + dh_next
        do = dh * tcs[t]
        dc = dh * o * one_tc2[t] + dc_next
        da = da_all[t]
        da[z_blk] = dc * gs[t] * z * one_z[t]
        da[f_blk] = dc * cs[t] * f * one_f[t]
        da[c_blk] = dc * z * one_g2[t]
        da[o_blk] = do * o * one_o[t]
        dc_next = dc * f
        g.w_emb[tokens[t]] += w_all.T @ da
        dh_next = u_all.T @ da

    g_w, g_u, g_b = _stacked(g)
    g_w[...] = da_all.T @ trace.xs
    g_u[...] = da_all.T @ trace.hs[:-1]
    g_b[...] = da_all.sum(axis=0)
    g.w_cls = np.outer(dlogits, pooled)
    g.b_cls = dlogits
    g.h0 = dh_next
    g.c0 = dc_next
    return g


def lstm_predict(trace):
    return int(np.argmax(trace.probs))


def lstm_errors(trace, sample):
    return int(lstm_predict(trace) != sample.label), 1


@dataclass
class RnnRbmTrace:
    us: np.ndarray  # (T+1, context), us[0] = u0
    bvs: np.ndarray  # (T, n_v) per-step visible biases
    bhs: np.ndarray  # (T, n_h)
    v_star: np.ndarray  # (T, n_v) chain-end visible samples
    h_pos: np.ndarray  # (T, n_h) sigmoid(W^T v_t + bh_t)
    h_neg: np.ndarray  # (T, n_h) sigmoid(W^T v_star_t + bh_t)
    recon: np.ndarray  # (T, n_v) visible probabilities at the chain ends
    loss: float  # monitoring cost


def rnnrbm_gibbs_step(w, bv, bh, v, rng, h_prob=None):
    """One Gibbs update of one chain, drawing n_h then n_v uniforms from
    ``rng``: (h_sample, v_next_prob, v_next_sample)."""
    if h_prob is None:
        h_prob = sigmoid(w.T @ v + bh)
    h = (rng.random(h_prob.size) < h_prob).astype(np.float64)
    v_prob = sigmoid(w @ h + bv)
    v_next = (rng.random(v_prob.size) < v_prob).astype(np.float64)
    return h, v_prob, v_next


def bernoulli_cost(v, prob):
    """Mean cross-entropy of 0/1 ``v`` under ``prob``; inf on a saturated
    mismatch."""
    with np.errstate(divide="ignore"):
        out = np.where(v > 0.5, -np.log(prob), -np.log1p(-prob))
    return float(np.mean(out))


def rnnrbm_forward(params, sample, rng=None, k=1):
    if rng is None:
        raise InvalidInputError("the frame model needs a random generator")
    frames = sample.frames
    t_len = frames.shape[0]
    us = np.empty((t_len + 1, params.u0.size))
    us[0] = params.u0
    bvs, v_star, recon = (np.empty((t_len, params.b_v.size)) for _ in range(3))
    bhs, h_pos, h_neg = (np.empty((t_len, params.b_h.size)) for _ in range(3))
    cost = 0.0
    for t in range(t_len):
        v = frames[t]
        bvs[t] = params.b_v + params.w_uv @ us[t]
        bhs[t] = params.b_h + params.w_uh @ us[t]
        h_pos[t] = sigmoid(params.w.T @ v + bhs[t])
        v_chain, h_prob = v, h_pos[t]
        for _ in range(k):
            _, recon[t], v_chain = rnnrbm_gibbs_step(
                params.w, bvs[t], bhs[t], v_chain, rng, h_prob)
            h_prob = None
        v_star[t] = v_chain
        h_neg[t] = sigmoid(params.w.T @ v_chain + bhs[t])
        cost += bernoulli_cost(v, recon[t])
        us[t + 1] = np.tanh(params.b_u + params.w_uu @ us[t] + params.w_vu @ v)
    return RnnRbmTrace(us=us, bvs=bvs, bhs=bhs, v_star=v_star, h_pos=h_pos,
                       h_neg=h_neg, recon=recon, loss=cost / t_len)


def rnnrbm_backward(params, sample, trace):
    frames = sample.frames
    t_len = frames.shape[0]
    g = params.like()
    dbvs = np.empty((t_len, params.b_v.size))
    dbhs = np.empty((t_len, params.b_h.size))
    for t in range(t_len):
        v, v_star = frames[t], trace.v_star[t]
        g.w -= np.outer(v, trace.h_pos[t]) - np.outer(v_star, trace.h_neg[t])
        dbvs[t] = -(v - v_star)
        dbhs[t] = -(trace.h_pos[t] - trace.h_neg[t])
        g.b_v += dbvs[t]
        g.b_h += dbhs[t]
        g.w_uv += np.outer(dbvs[t], trace.us[t])
        g.w_uh += np.outer(dbhs[t], trace.us[t])

    du = np.zeros_like(params.u0)  # d loss / d u_{t+1}, carried backwards
    for t in range(t_len - 1, -1, -1):
        da = du * (1.0 - trace.us[t + 1] ** 2)
        g.b_u += da
        g.w_uu += np.outer(da, trace.us[t])
        g.w_vu += np.outer(da, frames[t])
        du = params.w_uu.T @ da
        du += params.w_uv.T @ dbvs[t] + params.w_uh.T @ dbhs[t]
    g.u0 = du
    return g


def rnnrbm_errors(trace, sample):
    return int(np.sum((trace.recon > 0.5) != sample.frames)), sample.frames.size


def rnnrbm_predict(trace):
    return None


# kind -> (forward, backward, errors, predict)
SCALAR = {
    "rnn": (rnn_forward, rnn_backward, rnn_errors, rnn_predict),
    "lstm": (lstm_forward, lstm_backward, lstm_errors, lstm_predict),
    "rnnrbm": (rnnrbm_forward, rnnrbm_backward, rnnrbm_errors, rnnrbm_predict),
}
