"""Acceptance gate: one test per shipping criterion.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure) and asserts the criterion at its stated tolerance. Budgets
are wall-clock seconds on a single core.
"""

import time

import numpy as np
import pytest
from scipy import stats

from gradmine.analysis import bound_ratio, gradient_variance, optimal_distribution
from gradmine.data import SequenceSample, gen_seqclass
from gradmine.fim import FimConfig, ImportanceTable, mine_importance
from gradmine.models import ModelSpec, get_model, param_block
from gradmine.optimizer import TrainConfig, train
from gradmine.sampling import build_alias, generate_sequence

from conftest import OneSample, first_row, param_blocks, randomize
from convex import ConvexProblem, svm_lipschitz_bound, svm_loss_grad
from oracles import (
    cd_surrogate_loss,
    finite_diff_grads,
    history_sum_check,
    max_fd_violation,
    mine_scalar,
    reconstructed,
    static_rbm_cd,
)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0

    spec = ModelSpec(kind="rnn", vocab=6, embed=4, hidden=5)
    model = OneSample(spec)
    for trial in range(20):
        params = randomize(model.init_params(trial), rng, 0.5)
        t_len = int(rng.integers(1, 5))
        tokens = rng.integers(0, 6, size=t_len)
        if trial % 2 == 0:
            sample = SequenceSample(tokens=tokens, label=int(rng.integers(0, 6)))
        else:
            sample = SequenceSample(tokens=tokens, targets=rng.integers(0, 6, size=t_len))
        grads = model.backward(params, sample, model.forward(params, sample))
        numeric = finite_diff_grads(lambda p: model.loss(p, sample), params)
        worst = max(worst, max_fd_violation(grads, numeric))

    spec = ModelSpec(kind="lstm", vocab=6, embed=4, hidden=5, classes=2)
    model = OneSample(spec)
    for trial in range(20):
        params = randomize(model.init_params(trial), rng, 0.5)
        t_len = int(rng.integers(1, 5))
        sample = SequenceSample(
            tokens=rng.integers(0, 6, size=t_len), label=int(rng.integers(0, 2))
        )
        grads = model.backward(params, sample, model.forward(params, sample))
        numeric = finite_diff_grads(lambda p: model.loss(p, sample), params)
        worst = max(worst, max_fd_violation(grads, numeric))

    spec = ModelSpec(kind="rnnrbm", vocab=5, hidden=4, context=3, cd_k=1)
    model = OneSample(spec)
    for trial in range(20):
        params = randomize(model.init_params(trial), rng, 0.5)
        t_len = int(rng.integers(1, 5))
        frames = (rng.random((t_len, 5)) < 0.4) * 1.0
        from gradmine.data import FrameSequence

        sample = FrameSequence(frames=frames)
        trace = model.forward(params, sample, rng=np.random.default_rng(trial))
        grads = model.backward(params, sample, trace)
        numeric = finite_diff_grads(
            lambda p: cd_surrogate_loss(p, sample, first_row(trace)), params
        )
        worst = max(worst, max_fd_violation(grads, numeric))

    elapsed = time.perf_counter() - start
    report(
        1,
        "finite-difference agreement for all three models",
        worst <= 1e-4 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_unbiased_estimator():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    prob = ConvexProblem(
        xs=rng.normal(size=(8, 5)), ys=rng.choice([-1.0, 1.0], size=8), reg=0.4
    )
    w = rng.normal(size=5)
    grads = np.stack([svm_loss_grad(prob, i, w)[1] for i in range(8)])
    full = grads.mean(axis=0)
    worst = 0.0
    for _ in range(100):
        p = rng.dirichlet(np.ones(8)) + 1e-3
        p /= p.sum()
        expectation = np.sum(p[:, None] * grads / (8 * p)[:, None], axis=0)
        worst = max(worst, float(np.max(np.abs(expectation - full))))
    elapsed = time.perf_counter() - start
    report(
        2,
        "reweighted estimator is exactly unbiased on the 8-sample problem",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_optimal_distribution():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(5):
        grads = rng.normal(size=(16, 6))
        best = gradient_variance(grads, optimal_distribution(grads))
        ok &= best <= gradient_variance(grads, np.full(16, 1 / 16)) + 1e-10
        for _ in range(1000):
            q = rng.dirichlet(np.ones(16))
            ok &= best <= gradient_variance(grads, q) + 1e-10
    elapsed = time.perf_counter() - start
    report(
        3,
        "norm-proportional sampling minimizes enumerated variance",
        ok and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_benefit_ratio():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(10**4):
        v = rng.random(int(rng.integers(1, 24))) * rng.choice([1.0, 10.0, 100.0])
        ok &= bound_ratio(v + 1e-9) >= 1.0 - 1e-12
    for n in (1, 3, 7, 20):
        ok &= abs(bound_ratio(np.full(n, 2.7)) - 1.0) <= 1e-12
    report(4, "dispersion ratio >= 1, equality on constant vectors", ok)


def test_criterion_5_gradient_bound_domination():
    rng = np.random.default_rng(505)
    violations = 0
    for reg in (0.3, 1.0, 2.5):
        for _ in range(3400):
            x = rng.normal(size=4) * rng.choice([0.3, 1.0, 3.0])
            prob = ConvexProblem(xs=x[None, :], ys=np.array([rng.choice([-1.0, 1.0])]), reg=reg)
            w = rng.normal(size=4)
            w *= rng.random() / np.sqrt(reg) / np.linalg.norm(w)
            _, grad = svm_loss_grad(prob, 0, w)
            if np.linalg.norm(grad) > svm_lipschitz_bound(x, reg):
                violations += 1
    report(
        5,
        "per-point gradient bound dominates inside the iterate ball",
        violations == 0,
        f"{violations} violations in 10200 trials",
    )


def test_criterion_6_uniform_reduction_bitwise():
    ds = gen_seqclass(n=50, vocab=12, length_range=(4, 10), hard_fraction=0.25, seed=60)
    spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=5, hidden=6)
    model = get_model(spec)
    params0 = model.init_params(3)
    table = ImportanceTable(
        model="rnn", base_selector="w_x", epsilon=1.0, seed=0,
        norm_kind="frobenius", norms=np.ones(50), probs=np.full(50, 1.0 / 50),
        iterations=np.zeros(50, dtype=int), converged=np.ones(50, dtype=bool),
    )
    plain_cfg = TrainConfig(spec=spec, lr=0.3, epochs=10, sampler="uniform", seed=17)
    is_cfg = TrainConfig(
        spec=spec, lr=0.3, epochs=10, sampler="importance", importance=table, seed=17
    )
    [(p1, l1)] = train(ds, params0, [plain_cfg])
    [(p2, l2)] = train(ds, params0, [is_cfg])
    ok = all(
        np.array_equal(block, getattr(p2, name))
        for name, block in param_blocks(p1).items()
    )
    ok &= [r.loss for r in l1.rows] == [r.loss for r in l2.rows]
    ok &= [r.error_rate for r in l1.rows] == [r.error_rate for r in l2.rows]
    ok &= [r.grad_var for r in l1.rows] == [r.grad_var for r in l2.rows]
    report(6, "uniform-table importance run is bitwise-identical to plain SGD", ok)


def test_criterion_7_sampler_fidelity():
    p = np.array([1 / 6, 1 / 3, 1 / 2])
    dist = build_alias(p)
    recon_err = float(np.max(np.abs(reconstructed(dist) - dist.probs)))
    seq = generate_sequence(dist, 10**6, np.random.default_rng(777))
    counts = np.bincount(seq, minlength=3)
    _, pvalue = stats.chisquare(counts, f_exp=p * 10**6)
    rng2 = np.random.default_rng(888)
    big = rng2.random(500)
    big /= big.sum()
    dist2 = build_alias(big)
    recon_err = max(recon_err, float(np.max(np.abs(reconstructed(dist2) - dist2.probs))))
    report(
        7,
        "alias tables reproduce the distribution; draws pass chi-square",
        recon_err <= 1e-12 and pvalue > 0.001,
        f"recon err {recon_err:.1e}, chi2 p={pvalue:.4f}",
    )


def test_criterion_8_mining_semantics():
    ds = gen_seqclass(n=10, vocab=10, length_range=(4, 9), hard_fraction=0.3, seed=80)
    spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=4, hidden=5)

    cfg = FimConfig(epsilon=0.02, lr=0.2, seed=5, t_max=2000)
    t1 = mine_importance(ds, spec, cfg, n_workers=1)
    t8 = mine_importance(ds, spec, cfg, n_workers=8)
    same = (
        np.array_equal(t1.norms, t8.norms)
        and np.array_equal(t1.probs, t8.probs)
        and np.array_equal(t1.iterations, t8.iterations)
        and np.array_equal(t1.converged, t8.converged)
    )

    params0, outputs, histories = mine_scalar(ds, spec, cfg)
    init_base = param_block(params0, "w_x")
    history_ok = all(
        history_sum_check(rec.base_final, init_base, rec, cfg.lr)
        and np.float64(norm).tobytes() == t1.norms[i].tobytes()
        for (i, norm, *_), rec in zip(outputs, histories)
    )

    degenerate = mine_importance(
        ds, spec, FimConfig(epsilon=1e9, lr=0.2, seed=5), n_workers=1
    )
    uniform_ok = bool(
        np.all(degenerate.iterations == 0)
        and np.allclose(degenerate.probs, 0.1, atol=1e-12)
    )
    report(
        8,
        "mining is scheduling-independent; history identities hold; "
        "loose accuracy yields the uniform table",
        same and history_ok and uniform_ok,
    )


@pytest.mark.slow
def test_criterion_9_desk_scale_convergence():
    start = time.perf_counter()
    target, cap = 0.3, 15

    def epochs_to_target(losses):
        for epoch, loss in enumerate(losses, start=1):
            if loss <= target:
                return epoch
        return cap

    ds = gen_seqclass(n=200, vocab=50, length_range=(6, 40), hard_fraction=0.25, seed=7)
    spec = ModelSpec(kind="lstm", vocab=ds.vocab, embed=8, hidden=12, classes=2)
    model = get_model(spec)

    # Mine every seed, then train the 10 seeds x 2 samplers in one lockstep
    # call, each run from its seed's own start row.
    seeds, samplers = range(10), ("uniform", "importance")
    mined = [
        mine_importance(
            ds, spec, FimConfig(epsilon=0.003, lr=0.5, seed=seed), n_workers=2
        )
        for seed in seeds
    ]
    cfgs = [
        TrainConfig(
            spec=spec,
            lr=0.5,
            epochs=14,
            sampler=sampler,
            importance=table if sampler == "importance" else None,
            seed=seed,
        )
        for seed, table in zip(seeds, mined)
        for sampler in samplers
    ]
    params0 = model.init_params(0).like(
        np.stack([model.init_params(seed).vec for seed in seeds for _ in samplers])
    )
    reach = {"uniform": [], "importance": []}
    loss10 = {"uniform": [], "importance": []}
    for cfg, (_, log) in zip(cfgs, train(ds, params0, cfgs)):
        losses = log.losses("train")
        reach[cfg.sampler].append(epochs_to_target(losses))
        loss10[cfg.sampler].append(losses[9])

    med_uniform = float(np.median(reach["uniform"]))
    med_importance = float(np.median(reach["importance"]))
    var_uniform = float(np.var(loss10["uniform"]))
    var_importance = float(np.var(loss10["importance"]))
    elapsed = time.perf_counter() - start
    report(
        9,
        "importance sampling reaches the loss target no slower and with "
        "lower across-seed variance",
        med_importance <= med_uniform
        and var_importance <= var_uniform
        and elapsed < 900.0,
        f"median epochs {med_importance:g} vs {med_uniform:g} "
        f"(per-seed {reach['importance']} vs {reach['uniform']}), "
        f"var@10 {var_importance:.2e} vs {var_uniform:.2e}, {elapsed:.0f}s",
    )


def test_criterion_10_rbm_decoupling():
    rng = np.random.default_rng(1000)
    spec = ModelSpec(kind="rnnrbm", vocab=6, hidden=5, context=3, cd_k=1)
    model = OneSample(spec)
    params = randomize(model.init_params(0), rng, 0.4)
    for name in ("w_uv", "w_uh", "w_uu", "w_vu"):
        getattr(params, name)[:] = 0.0
    from gradmine.data import FrameSequence

    frames = (rng.random((6, 6)) < 0.45) * 1.0
    sample = FrameSequence(frames=frames)
    trace = model.forward(params, sample, rng=np.random.default_rng(33))
    grads = model.backward(params, sample, trace)
    g_w, _, _ = static_rbm_cd(
        params.w, params.b_v, params.b_h, frames, 1, np.random.default_rng(33)
    )
    weight_err = float(np.max(np.abs(grads.w - g_w)))

    zero = randomize(model.init_params(0), rng, 0.0)
    cost = model.loss(zero, sample, rng=np.random.default_rng(1))
    cost_err = abs(cost - np.log(2))
    report(
        10,
        "zero-conditioning CD gradients match the static oracle; "
        "zero-weight cost is ln 2",
        weight_err <= 1e-12 and cost_err <= 1e-12,
        f"weight err {weight_err:.1e}, cost err {cost_err:.1e}",
    )
