"""Dense float64 numerics: matrix validation, softmax cross-entropy, an
SGD-with-momentum optimizer over flat parameter vectors, and a central
finite-difference gradient oracle used by the test suites.

Everything operates on plain numpy arrays (row-major, 64-bit floats).  There
is no autodiff graph: the model's layers (``rnalign.model``) pair each
forward with a hand-derived backward.  All computations are deterministic
for fixed inputs.
"""

import numpy as np

from .errors import ConfigurationError, NumericalError


def as_matrix(values):
    """Coerce ``values`` (anything numpy can turn into a 2-D array) to a 2-D
    float64 array, validating its rank and finiteness."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigurationError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    return a


def softmax(logits):
    """Rowwise softmax, stabilized by max-subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of rowwise softmax against integer class labels.

    ``logits`` is a float64 (N, C) array and ``labels`` N integers in
    [0, C); the caller guarantees both, since the trainer calls this every
    step.  Returns (loss, grad_logits) with
    grad_logits = (softmax - onehot) / N.
    """
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    rows = np.arange(n)
    # sum / n is the arithmetic of np.mean, without its call overhead
    loss = float((np.log(total) - shifted[rows, labels]).sum() / n)
    grad = e / total[:, None]  # softmax(z), reusing its exponentials
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def sgd_step(params, grads, velocity, learning_rate, momentum=0.0,
             weight_decay=0.0):
    """One SGD step with momentum and L2 weight decay, applied in place to
    three congruent float64 vectors:

        v     <- momentum * v + grad + weight_decay * param
        param <- param - learning_rate * v

    ``params`` is typically ``model.flat``, ``grads`` the vector of
    ``model.gradient()`` and ``velocity`` starts at zeros.  Raises
    NumericalError on any non-finite gradient before anything is touched.
    """
    if grads.shape != params.shape or velocity.shape != params.shape:
        raise ConfigurationError(
            f"sgd_step: vector shapes differ: params {params.shape}, "
            f"grads {grads.shape}, velocity {velocity.shape}")
    if not np.isfinite(grads).all():
        raise NumericalError("non-finite gradient; step aborted")
    velocity *= momentum
    velocity += grads
    if weight_decay:
        velocity += weight_decay * params
    params -= learning_rate * velocity


def finite_difference_grad(f, x, eps=1e-6):
    """Central-difference gradient estimate of a scalar function.

    Per coordinate i: (f(x + eps*e_i) - f(x - eps*e_i)) / (2 eps).
    ``f`` must be a pure function of its argument.
    """
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2.0 * eps)
    return grad


def relative_error(a, b):
    """Max elementwise relative error |a - b| / max(1e-4, |a| + |b|).

    The shared yardstick for every gradient-vs-finite-differences check.
    The denominator floor makes the comparison absolute below 1e-4: central
    differences at eps=1e-6 carry ~1e-10 of float64 roundoff noise, so
    structurally-zero gradients (e.g. a bias feeding a mean-subtracting
    normalizer) can only be checked against an absolute scale.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigurationError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(1e-4, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))
