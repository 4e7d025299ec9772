"""Feature-norm and feature-angle alignment losses with analytic gradients.

The central quantity is the ratio rho of the two modalities' mean feature
norms.  The relative-norm-alignment loss penalizes (rho - 1)^2, driving the
norms of the visual and audio embeddings toward a common scale without
constraining the angle between them.  Angle-based alternatives (cosine
alignment, orthogonality) and a hard variant pinning both mean norms to a
fixed constant are provided as baselines, plus the dot-product decomposition
dot = |v| |a| cos(theta) used to cross-check the two families.

Each loss is implemented once, on the two streams stacked into one (2, N, D)
array together with their (2, N) row norms (``rna_stacked`` and friends,
which the trainer calls).  The pair-argument functions (``rna_loss(visual,
audio)`` ...) validate, stack and call them, and return a LossResult carrying
the scalar value and exact analytic gradients with respect to both feature
batches; every gradient is verified against central finite differences in
the test suite.
"""

from collections import namedtuple

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .numerics import as_matrix

VISUAL = "visual"
AUDIO = "audio"


class FeatureBatch:
    """A batch of N encoded feature rows for one modality.

    Parameters
    ----------
    features : array (N, D)
        One feature vector per row; all entries must be finite, N >= 1.
    modality : str
        "visual" or "audio".
    domain : str, optional
        Free-form domain tag ("source", "target", a domain id, ...).
    """

    def __init__(self, features, modality, domain=None):
        self.features = as_matrix(features)
        if self.features.shape[0] < 1:
            raise ConfigurationError("a feature batch needs at least one row")
        if modality not in (VISUAL, AUDIO):
            raise ConfigurationError(f"unknown modality: {modality!r}")
        self.modality = modality
        self.domain = domain

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


class LossResult:
    """Scalar loss value plus analytic gradients w.r.t. both feature batches."""

    def __init__(self, value, grad_visual, grad_audio):
        self.value = float(value)
        self.grad_visual = np.asarray(grad_visual, dtype=np.float64)
        self.grad_audio = np.asarray(grad_audio, dtype=np.float64)
        if self.value < 0:
            raise ConfigurationError("loss values in this module are >= 0")


NormStats = namedtuple(
    "NormStats", ["mean_norm_visual", "mean_norm_audio", "delta", "rho"])


def _rows(batch):
    """Accept a FeatureBatch or a bare (N, D) array."""
    if isinstance(batch, FeatureBatch):
        return batch.features
    return as_matrix(batch)


def row_norms(features):
    """L2 norm of every feature row: (N,) for an (N, D) batch, (2, N) for
    a stacked visual/audio pair."""
    return np.sqrt(np.sum(features * features, axis=-1))


def mean_norms(norms):
    """Per-stream mean of stacked (2, N) row norms, as a (2,) array."""
    return norms.sum(axis=-1) / norms.shape[-1]


def feature_norms(batch):
    """Per-sample L2 norms: element i is the norm of feature row i."""
    return row_norms(_rows(batch))


def _unit_rows(features, norms):
    """Rows scaled to unit norm; rows of norm 0 map to zero (their norm has
    no gradient there, by convention)."""
    safe = np.where(norms > 0.0, norms, 1.0)
    return features / safe[..., None]


def _paired(visual, audio):
    """Both batches as validated arrays with the same number of rows."""
    fv = _rows(visual)
    fa = _rows(audio)
    if fv.shape[0] != fa.shape[0]:
        raise ConfigurationError(
            f"modalities must be paired: {fv.shape[0]} visual rows vs "
            f"{fa.shape[0]} audio rows")
    return fv, fa


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

    Raises DegenerateInputError when the mean audio norm is 0 (rho undefined).
    """
    fv, fa = _paired(visual, audio)
    mean_v = float(np.mean(row_norms(fv)))
    mean_a = float(np.mean(row_norms(fa)))
    if mean_a == 0.0:
        raise DegenerateInputError("mean audio norm is 0; norm ratio undefined")
    return NormStats(mean_v, mean_a, mean_v - mean_a, mean_v / mean_a)


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


def _paired_cosines(features, norms):
    """Rowwise cosines between the visual and the audio rows."""
    if np.any(norms == 0.0):
        raise DegenerateInputError(
            "zero-norm feature row: cosine similarity undefined")
    dots = np.sum(features[0] * features[1], axis=1)
    # round-off can push |cos| infinitesimally past 1 for (anti)parallel rows,
    # which would make 1 - cos dip below the losses' value >= 0 contract
    return np.clip(dots / (norms[0] * norms[1]), -1.0, 1.0)


def _cosine_grads(features, norms, cos, coeff):
    """Gradients of sum_i coeff_i * cos_i w.r.t. both streams' rows.

    d cos_i / d v_i = a_i / (|v_i||a_i|) - cos_i * v_i / |v_i|^2, symmetrically
    for a_i.
    """
    return coeff[:, None] * (
        features[::-1] / (norms[0] * norms[1])[:, None]
        - (cos / norms ** 2)[..., None] * features)


def cosine_alignment_stacked(features, norms):
    """Mean over paired rows of 1 - cos(theta_i); pulls the angle to zero."""
    cos = _paired_cosines(features, norms)
    n = cos.shape[0]
    value = float(np.mean(1.0 - cos))
    return value, _cosine_grads(features, norms, cos, np.full(n, -1.0 / n))


def orthogonality_stacked(features, norms):
    """Mean over paired rows of cos^2(theta_i); pushes the modalities apart."""
    cos = _paired_cosines(features, norms)
    n = cos.shape[0]
    value = float(np.mean(cos ** 2))
    return value, _cosine_grads(features, norms, cos, 2.0 * cos / n)


# ---------------------------------------------------------------------------
# pair-argument adapters


def rna_loss(visual, audio):
    """``rna_stacked`` on a visual and an audio batch (see there)."""
    return _pair_loss(rna_stacked, visual, audio)


def rna_loss_uda(source_visual, source_audio, target_visual, target_audio):
    """Domain-decomposed relative norm alignment for adaptation settings.

    The total loss is the sum of an independent term per domain, each computed
    exactly as ``rna_loss`` on that domain's own feature pair; gradients never
    mix domains.  Returns (source LossResult, target LossResult).
    """
    try:
        source_term = rna_loss(source_visual, source_audio)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"source domain: {exc}") from exc
    try:
        target_term = rna_loss(target_visual, target_audio)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"target domain: {exc}") from exc
    return source_term, target_term


def _same_dims(visual, audio):
    dim_v, dim_a = _rows(visual).shape[1], _rows(audio).shape[1]
    if dim_v != dim_a:
        raise ConfigurationError(
            f"cosines need equal feature dims, got {dim_v} and {dim_a}")


def cosine_alignment_loss(visual, audio):
    """``cosine_alignment_stacked`` on a visual and an audio batch."""
    _same_dims(visual, audio)
    return _pair_loss(cosine_alignment_stacked, visual, audio)


def orthogonality_loss(visual, audio):
    """``orthogonality_stacked`` on a visual and an audio batch."""
    _same_dims(visual, audio)
    return _pair_loss(orthogonality_stacked, visual, audio)


def hna_loss(visual, audio, target_norm):
    """``hna_stacked`` on a visual and an audio batch, for target R > 0."""
    r = float(target_norm)
    if r <= 0.0:
        raise ConfigurationError(f"target norm R must be positive, got {r}")
    return _pair_loss(hna_stacked, visual, audio, r)


def top_k_norm_share(features, k):
    """Fraction of total squared norm mass carried by the k largest feature
    dimensions of a batch (a concentration diagnostic: 1.0 means k dimensions
    hold everything).

    k is clamped to the feature dimensionality.
    """
    f = _rows(features)
    k = int(k)
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    k = min(k, f.shape[1])
    per_dim = np.sum(f * f, axis=0)
    total = float(per_dim.sum())
    if total == 0.0:
        raise DegenerateInputError("all-zero feature batch: norm share undefined")
    top = np.sort(per_dim)[::-1][:k]
    return float(top.sum() / total)


DotDecomposition = namedtuple(
    "DotDecomposition", ["dot", "norm_v", "norm_a", "cos_theta"])


def dot_product_decomposition(v, a):
    """Decompose a dot product into norms and angle: dot = |v| |a| cos(theta).

    For a zero vector the angle is undefined and cos_theta is reported as NaN;
    the dot product itself is always defined.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if v.shape != a.shape:
        raise ConfigurationError(f"vector shapes differ: {v.shape} vs {a.shape}")
    dot = float(np.dot(v, a))
    norm_v = float(np.linalg.norm(v))
    norm_a = float(np.linalg.norm(a))
    if norm_v == 0.0 or norm_a == 0.0:
        cos_theta = float("nan")
    else:
        cos_theta = dot / (norm_v * norm_a)
    return DotDecomposition(dot, norm_v, norm_a, cos_theta)
