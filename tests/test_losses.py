"""Unit tests for the loss family: values, analytic gradients, invariances."""

import numpy as np
import pytest
from oracle import (dot_product_decomposition, finite_difference_grad,
                    relative_error, rna_loss_uda)

from rnalign.errors import ConfigurationError, DegenerateInputError
from rnalign.losses import hna_loss, norm_stats, rna_loss, row_norms


# The hand-computable fixture: visual norms (5, 5), audio norms (1, 2).
FIX_V = [[3.0, 4.0], [0.0, 5.0]]
FIX_A = [[1.0, 0.0], [0.0, 2.0]]


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def check_grads_against_fd(loss_fn, visual, audio, tol=1e-5):
    """Both analytic gradients of a paired loss match central differences."""
    res = loss_fn(visual, audio)
    fd_v = finite_difference_grad(
        lambda t: loss_fn(t, audio).value, np.asarray(visual, float))
    fd_a = finite_difference_grad(
        lambda t: loss_fn(visual, t).value, np.asarray(audio, float))
    assert relative_error(res.grad_visual, fd_v) < tol
    assert relative_error(res.grad_audio, fd_a) < tol


# ---------------------------------------------------------------------------
# feature norms and norm stats


def test_feature_norms_fixture():
    assert np.allclose(row_norms(np.asarray(FIX_V)), [5.0, 5.0])


def test_feature_norms_identity_rows():
    assert np.allclose(row_norms(np.eye(3)), [1.0, 1.0, 1.0])


def test_feature_norms_zero_batch():
    assert np.array_equal(row_norms(np.zeros((4, 3))), np.zeros(4))


def test_norm_stats_fixture():
    stats = norm_stats(FIX_V, FIX_A)
    assert stats.mean_norm_visual == 5.0
    assert stats.mean_norm_audio == 1.5
    assert stats.delta == 3.5
    assert abs(stats.rho - 10.0 / 3.0) < 1e-12


def test_norm_stats_identical_batches():
    stats = norm_stats(FIX_V, FIX_V)
    assert stats.delta == 0.0
    assert stats.rho == 1.0


def test_norm_stats_rowwise_doubling_halves_rho():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4))
    stats = norm_stats(x, 2.0 * x)
    assert abs(stats.rho - 0.5) < 1e-12


def test_norm_stats_zero_audio_is_degenerate():
    # rho is undefined there and reads NaN, as in the trainer's telemetry
    stats = norm_stats(FIX_V, np.zeros((2, 2)))
    assert stats[:3] == (5.0, 0.0, 5.0)
    assert np.isnan(stats.rho)


def test_norm_stats_requires_equal_batch_sizes():
    with pytest.raises(ConfigurationError):
        norm_stats(FIX_V, [[1.0, 0.0]])


# every function that takes a visual and an audio batch, as f(visual, audio)
PAIR_FUNCTIONS = {
    "rna_loss": rna_loss,
    "hna_loss": lambda v, a: hna_loss(v, a, 1.0),
    "rna_loss_uda": lambda v, a: rna_loss_uda(v, a, v, a),
    "norm_stats": norm_stats,
}


@pytest.mark.parametrize("name", sorted(PAIR_FUNCTIONS))
def test_pair_functions_reject_zero_row_batches(name):
    empty = np.zeros((0, 3))
    with pytest.raises(ConfigurationError, match="at least one row"):
        PAIR_FUNCTIONS[name](empty, empty)


@pytest.mark.parametrize("name", ["hna_loss", "norm_stats", "rna_loss"])
@pytest.mark.parametrize("bad, message", [
    (np.ones(2), "batch inputs must be 2-D"),
    (np.array([[np.nan, 1.0]]), "batch contains non-finite inputs"),
], ids=["1-d", "nan"])
def test_pair_functions_reject_bad_arrays(name, bad, message):
    # the checks of a MultiModalBatch, on either side; a caller's mistake
    good = np.ones((1, 2))
    for visual, audio in ((bad, good), (good, bad)):
        with pytest.raises(ConfigurationError, match=message):
            PAIR_FUNCTIONS[name](visual, audio)


# ---------------------------------------------------------------------------
# rna loss


def test_rna_loss_fixture_value():
    res = rna_loss(FIX_V, FIX_A)
    assert abs(res.value - 49.0 / 9.0) < 1e-12


def test_rna_loss_zero_at_minimum():
    res = rna_loss(FIX_V, FIX_V)
    assert res.value == 0.0
    assert np.linalg.norm(res.grad_visual) == 0.0
    assert np.linalg.norm(res.grad_audio) == 0.0


def test_rna_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(10):
        v = rng.normal(size=(4, 6))
        a = rng.normal(size=(4, 6)) * rng.uniform(0.2, 5.0)
        check_grads_against_fd(rna_loss, v, a)


def test_rna_loss_zero_norm_row_gets_zero_gradient():
    v = np.array([[0.0, 0.0], [3.0, 4.0]])
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    res = rna_loss(v, a)
    assert np.array_equal(res.grad_visual[0], [0.0, 0.0])
    assert np.linalg.norm(res.grad_visual[1]) > 0.0


def test_rna_loss_descent_step_decreases_value():
    rng = np.random.default_rng(33)
    for _ in range(10):
        v = rng.normal(size=(3, 5))
        a = rng.normal(size=(3, 5)) * 3.0
        res = rna_loss(v, a)
        if res.value < 1e-8:
            continue
        step = 1e-4
        after = rna_loss(v - step * res.grad_visual,
                         a - step * res.grad_audio)
        assert after.value < res.value


def test_rna_loss_is_asymmetric_in_rho():
    # rho = 2 on one side of 1, rho = 0.5 on the other: (2-1)^2 != (0.5-1)^2
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    res_two = rna_loss(2.0 * x, x)
    res_half = rna_loss(x, 2.0 * x)
    assert abs(res_two.value - 1.0) < 1e-12
    assert abs(res_half.value - 0.25) < 1e-12


def test_rna_loss_joint_scale_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.normal(size=(3, 4))
        a = rng.normal(size=(3, 4)) * 2.0
        c = rng.uniform(0.1, 100.0)
        base = rna_loss(v, a).value
        scaled = rna_loss(c * v, c * a).value
        assert abs(base - scaled) <= 1e-12 * max(1.0, abs(base))


def test_rna_loss_orthogonal_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        v = rng.normal(size=(4, d))
        a = rng.normal(size=(4, d)) * 2.0
        qv = random_orthogonal(rng, d)
        qa = random_orthogonal(rng, d)
        base = rna_loss(v, a).value
        rotated = rna_loss(v @ qv.T, a @ qa.T).value
        assert abs(base - rotated) < 1e-9


def test_rna_loss_zero_audio_is_degenerate():
    with pytest.raises(DegenerateInputError):
        rna_loss(FIX_V, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# rna loss, uda decomposition


def test_rna_uda_terms_match_per_domain_values():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    src_term, tgt_term = rna_loss_uda(x, x, FIX_V, FIX_A)
    assert src_term.value == 0.0
    assert abs(tgt_term.value - 49.0 / 9.0) < 1e-12


def test_rna_uda_identical_batches_everywhere():
    x = np.eye(3)
    src_term, tgt_term = rna_loss_uda(x, x, 2 * x, 2 * x)
    assert src_term.value == 0.0 and tgt_term.value == 0.0


def test_rna_uda_gradients_never_mix_domains():
    rng = np.random.default_rng(8)
    sv, sa = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)) * 2.0
    tv, ta = rng.normal(size=(5, 4)), rng.normal(size=(5, 4)) * 0.5
    src_term, tgt_term = rna_loss_uda(sv, sa, tv, ta)
    # each term's gradients are exactly the single-domain gradients
    alone_s = rna_loss(sv, sa)
    alone_t = rna_loss(tv, ta)
    assert np.array_equal(src_term.grad_visual, alone_s.grad_visual)
    assert np.array_equal(src_term.grad_audio, alone_s.grad_audio)
    assert np.array_equal(tgt_term.grad_visual, alone_t.grad_visual)
    assert np.array_equal(tgt_term.grad_audio, alone_t.grad_audio)
    # and perturbing the other domain leaves a term untouched
    src_again, _ = rna_loss_uda(sv, sa, 10 * tv, 0.3 * ta)
    assert src_again.value == src_term.value


def test_rna_uda_reports_offending_domain():
    x = np.eye(2)
    with pytest.raises(DegenerateInputError, match="target"):
        rna_loss_uda(x, x, x, np.zeros((2, 2)))
    with pytest.raises(DegenerateInputError, match="source"):
        rna_loss_uda(x, np.zeros((2, 2)), x, x)


# ---------------------------------------------------------------------------
# hna loss


def test_hna_zero_when_both_means_hit_target():
    x = np.array([[2.0, 0.0], [0.0, 2.0]])  # both mean norms exactly 2
    res = hna_loss(x, x, target_norm=2.0)
    assert res.value == 0.0


def test_hna_fixture_value():
    res = hna_loss(FIX_V, FIX_A, target_norm=3.25)
    assert abs(res.value - 6.125) < 1e-12


def test_hna_gradients_match_finite_differences():
    rng = np.random.default_rng(27)
    for _ in range(10):
        v = rng.normal(size=(4, 5))
        a = rng.normal(size=(4, 5)) * 2.0
        res = hna_loss(v, a, target_norm=1.7)
        fd_v = finite_difference_grad(
            lambda t: hna_loss(t, a, 1.7).value, v)
        fd_a = finite_difference_grad(
            lambda t: hna_loss(v, t, 1.7).value, a)
        assert relative_error(res.grad_visual, fd_v) < 1e-5
        assert relative_error(res.grad_audio, fd_a) < 1e-5


def test_hna_rejects_non_positive_target():
    with pytest.raises(ConfigurationError):
        hna_loss(FIX_V, FIX_A, target_norm=0.0)
    with pytest.raises(ConfigurationError):
        hna_loss(FIX_V, FIX_A, target_norm=-1.0)


@pytest.mark.parametrize("target", [np.nan, np.inf])
def test_hna_rejects_non_finite_target(target):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        hna_loss(FIX_V, FIX_A, target_norm=target)


def test_hna_orthogonal_invariance():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        v = rng.normal(size=(4, d))
        a = rng.normal(size=(4, d))
        qv = random_orthogonal(rng, d)
        qa = random_orthogonal(rng, d)
        base = hna_loss(v, a, 2.5).value
        rotated = hna_loss(v @ qv.T, a @ qa.T, 2.5).value
        assert abs(base - rotated) < 1e-9


# ---------------------------------------------------------------------------
# dot-product decomposition


def test_dot_decomposition_orthogonal_pair():
    d = dot_product_decomposition([1.0, 0.0], [0.0, 1.0])
    assert d.dot == 0.0
    assert d.cos_theta == 0.0


def test_dot_decomposition_parallel_pair():
    d = dot_product_decomposition([3.0, 4.0], [3.0, 4.0])
    assert d.dot == 25.0
    assert d.norm_v == 5.0 and d.norm_a == 5.0
    assert abs(d.cos_theta - 1.0) < 1e-12


def test_dot_decomposition_identity_on_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(50):
        v = rng.normal(size=6)
        a = rng.normal(size=6)
        d = dot_product_decomposition(v, a)
        assert abs(d.dot - d.norm_v * d.norm_a * d.cos_theta) < 1e-9


def test_dot_decomposition_zero_vector_has_undefined_angle():
    d = dot_product_decomposition([0.0, 0.0], [1.0, 0.0])
    assert d.dot == 0.0
    assert np.isnan(d.cos_theta)


def test_dot_decomposition_needs_equal_shapes():
    with pytest.raises(ConfigurationError) as excinfo:
        dot_product_decomposition([1.0, 2.0], [1.0, 2.0, 3.0])
    assert str(excinfo.value) == "vector shapes differ: (2,) vs (3,)"
