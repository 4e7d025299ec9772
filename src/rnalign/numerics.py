"""Dense float64 numerics: validated linear/ReLU layer primitives with
hand-derived backward passes, softmax cross-entropy, an SGD-with-momentum
optimizer over flat parameter vectors, and a central finite-difference
gradient oracle used by the test suites.

Everything operates on plain numpy arrays (row-major, 64-bit floats).  There
is no autodiff graph: each forward returns an explicit cache and each backward
consumes it.  The single-layer primitives are the validated reference for
one stream; the model runs the same arithmetic on both streams at once,
stacked on a leading axis.  All computations are deterministic for fixed
inputs.
"""

import numpy as np

from .errors import ConfigurationError, NumericalError


def as_matrix(values, rows=None, cols=None):
    """Coerce ``values`` to a 2-D float64 array, validating shape and finiteness.

    Parameters
    ----------
    values : array-like
        Anything numpy can turn into a 2-D array.
    rows, cols : int, optional
        If given, the corresponding dimension must match exactly.

    Returns
    -------
    numpy.ndarray of shape (rows, cols), dtype float64.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigurationError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise ConfigurationError(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ConfigurationError(f"expected {cols} columns, got {a.shape[1]}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    return a


class LinearLayerParams:
    """Parameters of one fully connected layer: weight (out x in), bias (out,)."""

    def __init__(self, weight, bias):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ConfigurationError("weight must be 2-D (out x in)")
        if self.bias.shape != (self.weight.shape[0],):
            raise ConfigurationError(
                f"bias shape {self.bias.shape} does not match weight rows "
                f"{self.weight.shape[0]}")

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def in_dim(self):
        return self.weight.shape[1]


def linear_forward(params, x):
    """Affine map y = x @ W.T + b.

    Returns (output, cache); the cache feeds ``linear_backward``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ConfigurationError(
            f"linear_forward: input shape {x.shape}, expected (N, {params.in_dim})")
    y = x @ params.weight.T
    y += params.bias
    return y, (params, x)


def linear_backward(cache, grad_output):
    """Backward pass of ``linear_forward``.

    Returns ({'weight': grad, 'bias': grad}, grad_input).
    """
    params, x = cache
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != (x.shape[0], params.out_dim):
        raise ConfigurationError(
            f"linear_backward: grad_output shape {g.shape} does not match the "
            f"cached forward call (expected {(x.shape[0], params.out_dim)})")
    return {"weight": g.T @ x, "bias": g.sum(axis=0)}, g @ params.weight


def relu_forward(x):
    """Elementwise max(0, x).  Returns (output, cache)."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0), x


def relu_backward(cache, grad_output):
    """Mask grad_output by positivity of the cached input.

    The subgradient at exactly 0 is defined as 0.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != cache.shape:
        raise ConfigurationError(
            f"relu_backward: grad shape {g.shape} != cached input {cache.shape}")
    return g * (cache > 0.0)


def softmax(logits):
    """Rowwise softmax, stabilized by max-subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of rowwise softmax against integer class labels.

    Parameters
    ----------
    logits : array (N, C)
    labels : sequence of N integers in [0, C)

    Returns
    -------
    (loss, grad_logits) where grad_logits = (softmax - onehot) / N.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ConfigurationError("logits must be 2-D (N x C)")
    y = np.asarray(labels)
    n, c = z.shape
    if y.shape != (n,):
        raise ConfigurationError(f"expected {n} labels, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ConfigurationError(
            f"label out of range [0, {c}): {int(y.min())}..{int(y.max())}")
    return cross_entropy(z, y)


def cross_entropy(logits, labels):
    """The arithmetic of ``softmax_cross_entropy`` without its checks:
    ``logits`` a float64 (N, C) array, ``labels`` N integers already known
    to lie in [0, C).  The trainer checks its labels once per run and calls
    this every step."""
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
