"""Unit tests for the dense numerics, the gradient oracle, and the
single-layer primitives that the step oracle (``test_step_oracle.py``) builds
its per-stream reference from."""

import numpy as np
import pytest
from test_step_oracle import (LinearLayerParams, linear_backward,
                              linear_forward, relu_backward, relu_forward)

from rnalign.errors import ConfigurationError, NumericalError
from rnalign.numerics import (
    as_matrix,
    finite_difference_grad,
    relative_error,
    sgd_step,
    softmax,
    softmax_cross_entropy,
)


# ---------------------------------------------------------------------------
# as_matrix


def test_as_matrix_validates_shape_and_finiteness():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    with pytest.raises(ConfigurationError):
        as_matrix([1.0, 2.0])
    with pytest.raises(NumericalError):
        as_matrix([[np.nan, 0.0]])


# ---------------------------------------------------------------------------
# linear layer (the step oracle's reference primitive)


def test_linear_forward_identity_layer():
    params = LinearLayerParams(np.eye(2), np.zeros(2))
    y, _ = linear_forward(params, [[5.0, 7.0]])
    assert np.array_equal(y, [[5.0, 7.0]])


def test_linear_forward_small_affine():
    params = LinearLayerParams([[2.0, 0.0], [0.0, 3.0]], [1.0, 1.0])
    y, _ = linear_forward(params, [[1.0, 1.0]])
    assert np.allclose(y, [[3.0, 4.0]])


def test_linear_forward_zero_input_gives_bias():
    params = LinearLayerParams(np.ones((3, 2)), [9.0, -1.0, 0.5])
    y, _ = linear_forward(params, np.zeros((4, 2)))
    assert np.array_equal(y, np.tile([9.0, -1.0, 0.5], (4, 1)))


def test_linear_forward_dimension_mismatch():
    params = LinearLayerParams(np.eye(2), np.zeros(2))
    with pytest.raises(ConfigurationError):
        linear_forward(params, np.zeros((1, 3)))


def test_linear_backward_zero_grad():
    params = LinearLayerParams(np.eye(3), np.zeros(3))
    _, cache = linear_forward(params, np.ones((2, 3)))
    grads, grad_in = linear_backward(cache, np.zeros((2, 3)))
    assert np.array_equal(grads["weight"], np.zeros((3, 3)))
    assert np.array_equal(grads["bias"], np.zeros(3))
    assert np.array_equal(grad_in, np.zeros((2, 3)))


def test_linear_backward_identity_jacobian():
    params = LinearLayerParams(np.eye(4), np.zeros(4))
    _, cache = linear_forward(params, np.arange(4.0).reshape(1, 4))
    g = np.array([[1.0, -2.0, 0.5, 3.0]])
    _, grad_in = linear_backward(cache, g)
    assert np.array_equal(grad_in, g)


def test_linear_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, din, dout = rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 5)
        w = rng.normal(size=(dout, din))
        b = rng.normal(size=dout)
        x = rng.normal(size=(n, din))
        proj = rng.normal(size=(n, dout))  # random scalarization

        def run(weight=w, bias=b, inp=x):
            y, _ = linear_forward(LinearLayerParams(weight, bias), inp)
            return float(np.sum(proj * y))

        params = LinearLayerParams(w, b)
        y, cache = linear_forward(params, x)
        grads, grad_in = linear_backward(cache, proj)
        fd_w = finite_difference_grad(lambda t: run(weight=t), w)
        fd_b = finite_difference_grad(lambda t: run(bias=t), b)
        fd_x = finite_difference_grad(lambda t: run(inp=t), x)
        assert relative_error(grads["weight"], fd_w) < 1e-6
        assert relative_error(grads["bias"], fd_b) < 1e-6
        assert relative_error(grad_in, fd_x) < 1e-6


def test_linear_backward_rejects_mismatched_grad():
    params = LinearLayerParams(np.eye(2), np.zeros(2))
    _, cache = linear_forward(params, np.zeros((3, 2)))
    with pytest.raises(ConfigurationError):
        linear_backward(cache, np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# relu (the step oracle's reference primitive)


def test_relu_forward_clips_negatives():
    y, _ = relu_forward([-1.0, 0.0, 2.0])
    assert np.array_equal(y, [0.0, 0.0, 2.0])


def test_relu_backward_subgradient_at_zero_is_zero():
    _, cache = relu_forward([-1.0, 0.0, 2.0])
    grad_in = relu_backward(cache, [1.0, 1.0, 1.0])
    assert np.array_equal(grad_in, [0.0, 0.0, 1.0])


def test_relu_backward_matches_finite_differences_away_from_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 1e-3] = 0.5  # stay away from the kink
        proj = rng.normal(size=(3, 4))
        y, cache = relu_forward(x)
        grad_in = relu_backward(cache, proj)

        def run(t):
            out, _ = relu_forward(t)
            return float(np.sum(proj * out))

        fd = finite_difference_grad(run, x)
        assert relative_error(grad_in, fd) < 1e-6


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_cross_entropy_uniform_logits():
    loss, _ = softmax_cross_entropy(np.zeros((5, 8)), np.arange(5) % 8)
    assert abs(loss - np.log(8.0)) < 1e-12


def test_cross_entropy_vanishes_with_growing_margin():
    losses = []
    for margin in (1.0, 5.0, 20.0, 50.0):
        logits = np.zeros((1, 4))
        logits[0, 2] = margin
        loss, _ = softmax_cross_entropy(logits, [2])
        losses.append(loss)
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-12


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        logits = rng.normal(size=(4, 8))
        labels = rng.integers(0, 8, size=4)
        _, grad = softmax_cross_entropy(logits, labels)
        fd = finite_difference_grad(
            lambda t: softmax_cross_entropy(t, labels)[0], logits)
        assert relative_error(grad, fd) < 1e-6


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        logits = rng.normal(size=(3, 6))
        labels = rng.integers(0, 6, size=3)
        shifted = logits + rng.normal(size=(3, 1))  # per-row constant
        a, _ = softmax_cross_entropy(logits, labels)
        b, _ = softmax_cross_entropy(shifted, labels)
        assert abs(a - b) < 1e-9


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    p = softmax(rng.normal(size=(6, 5)) * 50.0)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= 0.0)


# ---------------------------------------------------------------------------
# sgd


def test_sgd_lr_zero_is_identity():
    params = np.array([1.0, 2.0])
    sgd_step(params, np.array([5.0, -5.0]), np.zeros(2), learning_rate=0.0)
    assert np.array_equal(params, [1.0, 2.0])


def test_sgd_plain_step():
    params = np.array([1.0])
    sgd_step(params, np.array([0.5]), np.zeros(1), learning_rate=1.0,
             momentum=0.0, weight_decay=0.0)
    assert params[0] == 0.5


def test_sgd_momentum_two_steps():
    lr, g = 0.1, 2.0
    params = np.array([0.0])
    vel = np.zeros(1)
    grads = np.array([g])
    sgd_step(params, grads, vel, learning_rate=lr, momentum=0.9)
    sgd_step(params, grads, vel, learning_rate=lr, momentum=0.9)
    # v1 = g, v2 = 0.9 g + g -> total displacement lr * g * (1 + 1.9)
    assert abs(params[0] + lr * g * 2.9) < 1e-12


def test_sgd_weight_decay_pulls_toward_zero():
    params = np.array([10.0])
    sgd_step(params, np.array([0.0]), np.zeros(1), learning_rate=0.1,
             momentum=0.0, weight_decay=0.5)
    assert abs(params[0] - (10.0 - 0.1 * 0.5 * 10.0)) < 1e-12


def test_sgd_aborts_on_non_finite_gradient_without_mutation():
    params = np.array([1.0, 2.0])
    vel = np.array([0.5, 0.5])
    with pytest.raises(NumericalError):
        sgd_step(params, np.array([0.1, np.nan]), vel, learning_rate=0.5,
                 momentum=0.9)
    assert np.array_equal(params, [1.0, 2.0])
    assert np.array_equal(vel, [0.5, 0.5])


def test_sgd_requires_gradient_for_every_parameter():
    with pytest.raises(ConfigurationError):
        sgd_step(np.zeros(2), np.zeros(1), np.zeros(2), learning_rate=0.1)
    with pytest.raises(ConfigurationError):
        sgd_step(np.zeros(2), np.zeros(2), np.zeros(3), learning_rate=0.1)


# ---------------------------------------------------------------------------
# finite differences


def test_fd_quadratic():
    grad = finite_difference_grad(lambda x: float(x[0] ** 2), np.array([3.0]),
                                  eps=1e-5)
    assert abs(grad[0] - 6.0) < 1e-8


def test_fd_constant_function():
    grad = finite_difference_grad(lambda x: 1.25, np.ones((2, 3)))
    assert np.array_equal(grad, np.zeros((2, 3)))


def test_fd_l2_norm_gradient():
    grad = finite_difference_grad(lambda x: float(np.linalg.norm(x)),
                                  np.array([3.0, 4.0]))
    assert np.max(np.abs(grad - [0.6, 0.8])) < 1e-7


def test_fd_rejects_bad_eps():
    with pytest.raises(ConfigurationError):
        finite_difference_grad(lambda x: 0.0, np.zeros(1), eps=0.0)


# ---------------------------------------------------------------------------
# relative_error


def test_relative_error_yardstick():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_error(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
    assert relative_error(np.array([1.0]), np.array([1.0 + 1e-9])) < 1e-8
    with pytest.raises(ConfigurationError):
        relative_error(np.zeros(2), np.zeros(3))
