"""Central-difference gradient check: the oracle the gradient tests hold
every analytic loss gradient to."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    passed: bool
    n_coords: int


def as_dense(param: np.ndarray, grad) -> np.ndarray:
    """A gradient as an array shaped like its parameter: an embedding
    gradient's (rows, block) pair is scattered into zeros."""
    if not isinstance(grad, tuple):
        return grad
    rows, block = grad
    dense = np.zeros_like(param)
    dense[rows] = block
    return dense


def finite_diff_gradcheck(loss_fn, model, epsilon: float = 1e-4,
                          tolerance: float = 1e-4, n_coords: int = 128,
                          seed: int = 0) -> GradCheckReport:
    """Central-difference check of analytic gradients.

    loss_fn(model) must return (loss, grads) where grads maps parameter
    names to arrays or, for an embedding table, to (rows, block) pairs
    (`as_dense`). `model` is either an EncoderModel or a plain dict of
    parameter arrays, which are perturbed in place and restored. Relative
    error is measured against the largest analytic gradient magnitude, so
    coordinates with near-zero gradients do not blow up on rounding noise.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError("epsilon must be in [1e-6, 1e-3]")
    params = model if isinstance(model, dict) else model.parameters()
    loss0, grads = loss_fn(model)
    if not np.isfinite(loss0):
        raise ValueError(f"loss is not finite: {loss0}")
    grads = {name: as_dense(params[name], g) for name, g in grads.items()}

    coords = [(name, i) for name in sorted(grads) for i in range(params[name].size)]
    rng = np.random.default_rng(seed)
    k = min(len(coords), max(100, n_coords))
    picked = rng.choice(len(coords), size=k, replace=False)

    scale = max(max(np.max(np.abs(g)) for g in grads.values()), 1e-8)
    max_rel = 0.0
    for ci in picked:
        name, i = coords[ci]
        flat = params[name].reshape(-1)
        orig = flat[i]
        flat[i] = orig + epsilon
        loss_plus, _ = loss_fn(model)
        flat[i] = orig - epsilon
        loss_minus, _ = loss_fn(model)
        flat[i] = orig
        if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
            raise ValueError("loss is not finite under perturbation")
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        analytic = grads[name].reshape(-1)[i]
        max_rel = max(max_rel, abs(analytic - numeric) / scale)
    return GradCheckReport(float(max_rel), bool(max_rel <= tolerance), int(k))
