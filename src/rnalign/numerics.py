"""Dense float64 numerics: softmax, softmax cross-entropy and an
SGD-with-momentum optimizer over flat parameter vectors.

Each operates on plain numpy arrays (row-major, 64-bit floats) and is
deterministic for fixed inputs.
"""

import numpy as np

from .errors import ConfigurationError, NumericalError


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
