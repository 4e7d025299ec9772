"""Feature-norm alignment losses with analytic gradients.

The central quantity is the ratio rho of the two modalities' mean feature
norms.  The relative-norm-alignment loss penalizes (rho - 1)^2, driving the
norms of the visual and audio embeddings toward a common scale without
constraining the angle between them.  A hard variant pinning both mean norms
to a fixed constant is provided as a baseline.

Each loss is implemented once, on the two streams stacked into one (2, N, D)
array together with their (2, N) row norms (``rna_stacked`` and
``hna_stacked``, which the trainer calls).  The pair-argument functions
(``rna_loss(visual, audio)``, ``hna_loss``) stack a visual and an audio
batch, call them, and return a LossResult carrying the scalar value and the
exact analytic gradients with respect to both batches.  ``norm_stats``
reports the two mean norms, their difference and their ratio for a caller's
own features.  All three take the batches a ``MultiModalBatch`` takes (2-D,
finite, the same number of rows), with at least one row; any other input is
a ConfigurationError.
"""

import math
from collections import namedtuple

import numpy as np

from .data import MultiModalBatch
from .errors import ConfigurationError, DegenerateInputError

VISUAL = "visual"
AUDIO = "audio"


# a pair loss's scalar value and its analytic gradients w.r.t. both batches
LossResult = namedtuple("LossResult", "value grad_visual grad_audio")
NormStats = namedtuple(
    "NormStats", ["mean_norm_visual", "mean_norm_audio", "delta", "rho"])


def row_norms(features):
    """L2 norm of every feature row: (N,) for an (N, D) batch, (2, N) for
    a stacked visual/audio pair."""
    return np.sqrt(np.sum(features * features, axis=-1))


def mean_norms(norms):
    """Per-stream mean of stacked (2, N) row norms, as a (2,) array."""
    return norms.sum(axis=-1) / norms.shape[-1]


def _unit_rows(features, norms):
    """Rows scaled to unit norm; rows of norm 0 map to zero (their norm has
    no gradient there, by convention)."""
    safe = np.where(norms > 0.0, norms, 1.0)
    return features / safe[..., None]


def _paired(visual, audio):
    """Both (N, D) batches as the arrays of a ``MultiModalBatch`` (2-D,
    finite, paired), with N >= 1."""
    batch = MultiModalBatch(visual, audio)
    if batch.n == 0:
        raise ConfigurationError("a feature batch needs at least one row")
    return batch.visual, batch.audio


def _pair_loss(stacked_loss, visual, audio, *args):
    """A stacked loss applied to a visual and an audio batch.  The narrower
    modality is padded with zero columns; they leave its row norms equal up
    to summation order."""
    fv, fa = _paired(visual, audio)
    dim_v, dim_a = fv.shape[1], fa.shape[1]
    features = np.zeros((2, fv.shape[0], max(dim_v, dim_a)))
    features[0, :, :dim_v] = fv
    features[1, :, :dim_a] = fa
    value, grads = stacked_loss(features, row_norms(features), *args)
    return LossResult(value, grads[0, :, :dim_v], grads[1, :, :dim_a])


def norm_stats(visual, audio):
    """Mean norms of both modalities, their difference delta, and ratio rho.

    rho is NaN where the mean audio norm is 0, as in the trainer's telemetry
    rows.
    """
    fv, fa = _paired(visual, audio)
    mean_v = float(np.mean(row_norms(fv)))
    mean_a = float(np.mean(row_norms(fa)))
    return NormStats(mean_v, mean_a, mean_v - mean_a,
                     mean_v / mean_a if mean_a > 0 else float("nan"))


# ---------------------------------------------------------------------------
# The stacked losses.  Each takes the (2, N, D) visual/audio feature stack and
# its (2, N) row norms and returns (value, gradient stack).  They are the only
# implementation of each loss; the pair-argument functions below validate,
# stack and call them.


def rna_stacked(features, norms):
    """Relative norm alignment: (rho - 1)^2 with rho = sum|v_i| / sum|a_i|.

    The ratio of summed norms equals the ratio of mean norms (equal N), so
    minimizing drives the two modalities' mean feature norms together.
    Gradients are exact: d|x|/dx = x/|x|, zero rows get zero gradient.
    """
    sum_v, sum_a = norms.sum(axis=1).tolist()
    if sum_a == 0.0:
        raise DegenerateInputError("mean audio norm is 0; norm ratio undefined")
    rho = sum_v / sum_a
    value = (rho - 1.0) ** 2
    # d value / d sum_v = 2 (rho-1) / sum_a;  d value / d sum_a = -2 (rho-1) rho / sum_a
    coeff = np.array([2.0 * (rho - 1.0) / sum_a,
                      -2.0 * (rho - 1.0) * rho / sum_a])
    return value, coeff[:, None, None] * _unit_rows(features, norms)


def hna_stacked(features, norms, target_norm):
    """Hard norm alignment: (mean|v| - R)^2 + (mean|a| - R)^2 for fixed R > 0.

    Unlike the relative variant this pins both modalities to an absolute
    scale R chosen up front.
    """
    r = target_norm
    n = norms.shape[1]
    mean_v, mean_a = mean_norms(norms).tolist()
    value = (mean_v - r) ** 2 + (mean_a - r) ** 2
    coeff = np.array([2.0 * (mean_v - r) / n, 2.0 * (mean_a - r) / n])
    return value, coeff[:, None, None] * _unit_rows(features, norms)


# ---------------------------------------------------------------------------
# pair-argument adapters


def rna_loss(visual, audio):
    """``rna_stacked`` on a visual and an audio batch (see there)."""
    return _pair_loss(rna_stacked, visual, audio)


def hna_loss(visual, audio, target_norm):
    """``hna_stacked`` on a visual and an audio batch, for finite R > 0."""
    r = float(target_norm)
    if not (math.isfinite(r) and r > 0.0):
        raise ConfigurationError(
            f"target norm R must be positive and finite, got {r}")
    return _pair_loss(hna_stacked, visual, audio, r)
