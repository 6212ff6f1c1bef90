"""An L2-regularized squared-hinge classifier: the analytic instance of the
variance-reduction theory.

Its per-point gradient-norm bound is computable, so the theory checks can
compare the uniform, optimal, bound-based and mined distributions on it.
No pipeline stage uses it; the library's analysis module works on any
per-sample gradients.
"""

from dataclasses import dataclass

import numpy as np

from gradmine.errors import InvalidInputError


@dataclass
class ConvexProblem:
    """Points with +/-1 labels under squared-hinge loss + L2 penalty."""

    xs: np.ndarray  # (N, dim)
    ys: np.ndarray  # (N,) in {-1, +1}
    reg: float

    def __post_init__(self):
        self.xs = np.ascontiguousarray(self.xs, dtype=np.float64)
        self.ys = np.ascontiguousarray(self.ys, dtype=np.float64)
        if self.xs.ndim != 2 or self.ys.shape != (self.xs.shape[0],):
            raise InvalidInputError("xs must be (N, dim) with matching labels")
        if not np.all(np.isin(self.ys, (-1.0, 1.0))):
            raise InvalidInputError("labels must be -1 or +1")
        if not self.reg > 0:
            raise InvalidInputError("reg must be > 0")

    @property
    def n(self):
        return int(self.xs.shape[0])


def svm_loss_grad(problem, i, w):
    """Per-point squared hinge plus L2 term, and its gradient.

        f_i(w) = max(0, 1 - y_i x_i.w)^2 + (reg/2) ||w||^2
    """
    x, y = problem.xs[i], problem.ys[i]
    w = np.asarray(w, dtype=np.float64)
    margin = max(0.0, 1.0 - y * float(x @ w))
    loss = margin**2 + 0.5 * problem.reg * float(w @ w)
    grad = -2.0 * margin * y * x + problem.reg * w
    return loss, grad


def svm_lipschitz_bound(x, reg):
    """Gradient-norm bound for one point, valid on ||w|| <= reg^-1/2:

        2 (1 + ||x|| / sqrt(reg)) ||x|| + sqrt(reg)
    """
    nx = float(np.linalg.norm(x))
    return 2.0 * (1.0 + nx / np.sqrt(reg)) * nx + np.sqrt(reg)
