"""Training for domain generalization (DG) and unsupervised domain
adaptation (UDA), per-iteration norm telemetry, evaluation, and multi-pair
experiment matrices.

One loop serves every setting.  It minimizes

    L = softmax_cross_entropy(fused logits, labels) + lambda * L_aux(f_v, f_a)

where the auxiliary term acts directly on the encoded features.  In the UDA
setting the auxiliary loss is applied to the labeled source batch and to an
unlabeled target batch symmetrically; no label-dependent term ever touches
target data, which is enforced structurally (the target batch object carries
no labels at all).

Reproducibility: a run is fully determined by (config, config.seed).  The
seed is split into independent child streams for model init, source
minibatch sampling, and target minibatch sampling, so e.g. a lambda=0 UDA run
is bitwise independent of the target data.

Telemetry serializes to CSV with one column per ``IterationRecord`` field
(``TELEMETRY_HEADER``); results tables serialize with one row per method and
one column per domain pair plus "mean".
All accuracies are fractions in [0, 1].
"""

import copy
import csv
import functools
import io
import itertools
import math
import re
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .data import (SETTINGS, BenchmarkSpec, DomainData, at_least, cast_fields,
                   check_pair, feature_files, generate_benchmark,
                   generated_domain_ids, load_feature_file, read_text,
                   split_domains, write_bytes)
from .errors import (ConfigurationError, DegenerateInputError,
                     NumericalError, ParseError)
from .losses import hna_stacked, mean_norms, rna_stacked, row_norms
from .model import (EVAL_MODES, LATE, MID, ModelConfig, TwoStreamModel,
                    encode_pair, encode_pair_backward, eval_logits,
                    init_model, model_backward, model_forward)
from .numerics import sgd_step, softmax, softmax_cross_entropy

# one telemetry row; its fields name the CSV columns, the first as "iter"
IterationRecord = namedtuple(
    "IterationRecord",
    "iteration mean_norm_v mean_norm_a delta rho ce_loss aux_loss")
EvalRecord = namedtuple("EvalRecord", "mode accuracy")

TELEMETRY_HEADER = ",".join(("iter",) + IterationRecord._fields[1:])

# the stacked feature losses: each maps the (2, N, d) feature stack and its
# (2, N) row norms (plus R for hna) to (value, gradient stack)
_AUX_FUNCTIONS = {"rna": rna_stacked, "hna": hna_stacked}
# "none" and "batchnorm-only" train on cross-entropy alone
AUX_LOSSES = ("none", *_AUX_FUNCTIONS, "batchnorm-only")


class NormTelemetry:
    """Per-iteration norm/loss records plus the run's target-test
    evaluation records, one per mode in ``EVAL_MODES`` order."""

    def __init__(self):
        self.iterations = []
        self.evals = []

    def add_iteration(self, record):
        self.iterations.append(record)

    def eval_accuracy(self, mode):
        for rec in self.evals:
            if rec.mode == mode:
                return rec.accuracy
        raise ConfigurationError(f"no evaluation record for mode {mode!r}")

    def to_csv(self, path):
        _write_csv(path, [TELEMETRY_HEADER.split(","), *(
            [r.iteration, *map(repr, map(float, r[1:]))]
            for r in self.iterations)])

    @classmethod
    def from_csv(cls, path):
        """Read a telemetry CSV.  Each row must have every column, an
        iteration above the previous row's, finite norms >= 0, delta and
        losses, and a delta and rho that match the norms to 1e-9 (rho is NaN
        where mean_norm_a is 0); any other row is a ParseError naming its
        line, and a "_" in any row is reported first."""
        telemetry = cls()
        header, rows = _csv_table(path, skip=0)
        if header is None:
            raise ParseError(f"{path}: line 1: empty telemetry file")
        if ",".join(header) != TELEMETRY_HEADER:
            raise ParseError(
                f"{path}: line 1: expected header '{TELEMETRY_HEADER}'")
        width = len(IterationRecord._fields)
        for lineno, row in rows:
            try:
                if len(row) != width:
                    raise ValueError(
                        f"expected {width} fields, got {len(row)}")
                r = IterationRecord(int(row[0]), *map(float, row[1:]))
                if (telemetry.iterations
                        and r.iteration <= telemetry.iterations[-1].iteration):
                    raise ValueError(
                        "iteration records must be strictly increasing")
                for name in ("mean_norm_v", "mean_norm_a", "delta",
                             "ce_loss", "aux_loss"):
                    if not math.isfinite(getattr(r, name)):
                        raise ValueError(f"{name} is not finite")
                if r.mean_norm_v < 0 or r.mean_norm_a < 0:
                    raise ValueError("mean norms must be >= 0")
                if abs(r.delta - (r.mean_norm_v - r.mean_norm_a)) > 1e-9:
                    raise ValueError("delta inconsistent with mean norms")
                if r.mean_norm_a > 0:
                    ratio = r.mean_norm_v / r.mean_norm_a
                    if not (r.rho == ratio or abs(r.rho - ratio) <= 1e-9):
                        raise ValueError("rho inconsistent with mean norms")
                elif not math.isnan(r.rho):
                    raise ValueError("rho must be nan where mean_norm_a is 0")
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            telemetry.iterations.append(r)
        return telemetry


def _write_csv(path, rows):
    """Write ``rows`` through ``write_bytes`` as an ASCII CSV file, one
    "\n"-terminated line each, encoded before the file is opened."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    write_bytes(path, text.getvalue().encode("ascii"))


def _csv_table(path, skip):
    """(header or None for an empty file, later rows) of an ASCII CSV file,
    each later row paired with the physical line it starts on.  Undecodable
    bytes, malformed CSV and a "_" in a later row's cells past the first
    ``skip`` (checked before the caller reads any row) are ParseErrors
    naming the byte or line."""
    reader = csv.reader(io.StringIO(read_text(path, newline=""), newline=""))
    rows, line = [], 1
    try:
        for row in reader:
            rows.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    (_, header), *rows = rows or [(1, None)]
    # int() and float() read "1_0" as 10, and no writer emits a "_"
    for line, row in rows:
        if "_" in ",".join(row[skip:]):
            raise ParseError(f"{path}: line {line}: unexpected '_'")
    return header, rows


def no_repeats(where, values, shown, error=ParseError):
    """An ``error`` naming the first entry of ``values`` that repeats an
    earlier one (``shown`` holds how each entry is named)."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise error(f"{where} names {shown[i]!r} twice")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a single training run depends on, cast and checked on
    construction."""
    benchmark: BenchmarkSpec = BenchmarkSpec()
    data_dir: Optional[str] = None
    setting: str = "dg-single"
    aux_loss: str = "rna"
    lambda_weight: float = at_least(0, 1.0)
    fusion_mode: str = "late"
    hidden_dim: int = at_least(1, 128)
    feature_dim: int = at_least(1, 64)
    learning_rate: float = at_least(0, 0.01)
    momentum: float = at_least(0, 0.9)
    weight_decay: float = at_least(0, 0.03)
    iterations: int = at_least(0, 2000)
    batch_size: int = at_least(1, 32)
    checkpoint_average: int = at_least(1, 9)
    source_index: Optional[int] = at_least(0, 0)
    target_index: int = at_least(0, 1)
    seed: int = at_least(0, 0)

    def __post_init__(self):
        if not isinstance(self.benchmark, BenchmarkSpec):
            raise ConfigurationError(
                f"benchmark: expected a BenchmarkSpec, got {self.benchmark!r}")
        cast_fields(self)
        if self.setting not in SETTINGS:
            raise ConfigurationError(f"unknown setting: {self.setting!r}")
        if self.aux_loss not in AUX_LOSSES:
            raise ConfigurationError(f"unknown aux loss: {self.aux_loss!r}")
        if self.fusion_mode not in (LATE, MID):
            raise ConfigurationError(f"unknown fusion mode: {self.fusion_mode!r}")
        if self.momentum >= 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        if self.setting in ("dg-single", "uda") and self.source_index is None:
            raise ConfigurationError(
                f"setting {self.setting} needs a source_index")


def _domain_order(path):
    """Sort key: file names by their digit runs as numbers, so D2 comes
    before D10; names that tie (D01, D1) by the names themselves."""
    return ([int(part) if part.isdigit() else part
             for part in re.split(r"(\d+)", path.name)], path.name)


def _domain_files(data_dir):
    """[(domain id, train path, test path)] for ``<data_dir>/<id>_train.
    rnafeat`` / ``<id>_test.rnafeat`` pairs, ordered by the numbers in the
    ids (D1, D2, ..., D10).  A split file without its twin is an error, and
    so is an id that is not ASCII, the alphabet of the results table, or
    that holds "," or "->", which join the ids in its labels."""
    root = Path(data_dir)
    files = feature_files(root)

    def ids(split):  # the ids with a split file, by _domain_order of its name
        return sorted((i for i in files if split in files[i]),
                      key=lambda i: _domain_order(files[i][split]))

    train_ids = ids("train")
    if not train_ids:
        raise ConfigurationError(
            f"no '*_train.rnafeat' files found in {root}")
    for domain_id in train_ids:
        if not domain_id.isascii():
            raise ConfigurationError(f"domain id {domain_id!r} is not "
                                     f"ASCII: {files[domain_id]['train']}")
        if "," in domain_id or "->" in domain_id:
            raise ConfigurationError(
                f"domain id {domain_id!r} holds ',' or '->', which results "
                f"labels join ids with: {files[domain_id]['train']}")
        if "test" not in files[domain_id]:
            raise ConfigurationError("missing test split file: "
                                     f"{root / f'{domain_id}_test.rnafeat'}")
    for domain_id in ids("test"):
        if "train" not in files[domain_id]:
            raise ConfigurationError("missing train split file: "
                                     f"{root / f'{domain_id}_train.rnafeat'}")
    return [(i, files[i]["train"], files[i]["test"]) for i in train_ids]


def domain_ids(config):
    """The ids of the run's domains, in domain-index order (without loading
    files)."""
    if config.data_dir is None:
        return generated_domain_ids(config.benchmark.num_domains)
    return [domain_id for domain_id, _, _ in _domain_files(config.data_dir)]


@functools.lru_cache(maxsize=1)
def _generated(spec):
    """``generate_benchmark(spec)`` with read-only arrays; one spec kept."""
    domains = generate_benchmark(spec)
    for d in domains:
        for batch in (d.train, d.test):
            for array in (batch.visual, batch.audio, batch.labels):
                array.flags.writeable = False
    return domains


def resolve_domains(config):
    """The run's domains: generated from the benchmark spec, or loaded from
    ``<data_dir>/<id>_train.rnafeat`` / ``<id>_test.rnafeat`` file pairs,
    in the order of the numbers in their ids.  The last generated set is
    kept, its arrays read-only, and shared by a call with an equal spec;
    each such call returns fresh DomainData and MultiModalBatch wrappers."""
    if config.data_dir is None:
        return [DomainData(d.domain_id, copy.copy(d.train), copy.copy(d.test))
                for d in _generated(config.benchmark)]
    domains = []
    widths = None  # the first file's (Dv, Da), which every file must share
    for domain_id, train_path, test_path in _domain_files(config.data_dir):
        train = load_feature_file(train_path)
        test = load_feature_file(test_path)
        if not train.labeled or not test.labeled:
            raise ConfigurationError(
                f"domain files for {domain_id} must be labeled")
        for split, path, batch in (("train", train_path, train),
                                   ("test", test_path, test)):
            if batch.labels.min(initial=0) < 0:
                raise ConfigurationError(
                    f"{path}: domain {domain_id} {split} split has a "
                    f"negative label {batch.labels.min()}")
            found = (batch.visual.shape[1], batch.audio.shape[1])
            if widths is None:
                widths, first_path = found, path
            elif found != widths:
                raise ConfigurationError(
                    f"{path}: (Dv, Da) = {found} differs from {widths} "
                    f"in {first_path}; every domain file must share them")
        domains.append(DomainData(domain_id, train, test))
    return domains


def _model_config(config, pool, num_classes):
    return ModelConfig(
        input_dim_visual=pool.visual.shape[1],
        input_dim_audio=pool.audio.shape[1],
        hidden_dim=config.hidden_dim,
        feature_dim=config.feature_dim,
        num_classes=num_classes,
        fusion_mode=config.fusion_mode,
        batchnorm=(config.aux_loss == "batchnorm-only"))


def _resolve_hna_target(config, model, probe_batch):
    """R for the hard-alignment baseline: the midpoint of the two
    modalities' mean feature norms, measured with the freshly initialized
    model on the first ``batch_size`` training examples."""
    n = min(config.batch_size, probe_batch.n)
    probe = probe_batch.take(np.arange(n))
    features, _ = encode_pair(model, probe.visual, probe.audio)
    mean_v, mean_a = mean_norms(row_norms(features)).tolist()
    return 0.5 * (mean_v + mean_a)


def _aux_term(aux, features, norms, aux_args, it, batch):
    """``aux(features, norms, *aux_args)``; a degenerate input names the
    iteration and the batch ("source" or "target")."""
    try:
        return aux(features, norms, *aux_args)
    except DegenerateInputError as exc:
        raise DegenerateInputError(
            f"iteration {it}: {batch} batch: {exc}") from exc


def _index_blocks(rng, pool_size, config, block=256):
    """Each iteration's minibatch indices.  One ``integers`` call draws up to
    ``block`` iterations' worth; the generator keeps its spare 32-bit half
    in its state, so the stream is bitwise the one that a call per
    iteration draws."""
    for start in range(0, config.iterations, block):
        count = min(block, config.iterations - start)
        yield from rng.integers(0, pool_size,
                                size=(count, config.batch_size))


def run_experiment(config):
    """Train one run of any setting; returns (model, telemetry).

    One loop serves every setting.  Both streams travel as one (2, N, d)
    stack; the row norms are computed once per step and feed the auxiliary
    loss and the telemetry row.  UDA adds the unlabeled target batch's
    auxiliary term, whose encoder gradients accumulate into the same
    gradient vector as the source terms'; that term sees only encoded
    target features, never labels (the target batch object has none), and
    without a feature-level auxiliary loss (``none``, ``batchnorm-only``)
    target data is never touched.  The target test split is scored as the
    run trains: the model right after each of the last
    ``checkpoint_average`` steps (with ``iterations == 0``, the fresh model,
    returned unchanged) goes straight to ``snapshot_accuracies``, so no
    copy of it is kept and the last one scored is the final model.  The
    returned model shares that model's parameters and running statistics
    but not its gradient buffer, which ``model.gradient()`` allocates anew.
    """
    domains = resolve_domains(config)
    source, target_train, target_test = split_domains(
        domains, config.setting, config.source_index, config.target_index)

    model_seed, source_seed, target_seed = \
        np.random.SeedSequence(config.seed).spawn(3)
    # the classes of the labeled splits the run reads, never of labels it
    # must not see (the uda target's train split, an unused domain);
    # resolve_domains rejects a negative label in a file
    num_classes = 1 + max(int(batch.labels.max(initial=-1))
                          for batch in (source, target_test))
    model = init_model(_model_config(config, source, num_classes),
                       model_seed)
    aux = _AUX_FUNCTIONS.get(config.aux_loss)
    aux_args = ()
    if config.aux_loss == "hna":
        aux_args = (_resolve_hna_target(config, model, source),)
    telemetry = NormTelemetry()
    grad, grads, _ = model.gradient()
    velocity = np.zeros_like(model.flat)
    lam = config.lambda_weight
    use_aux = lam != 0.0 and aux is not None
    adapt = target_train is not None and aux is not None
    source_indices = _index_blocks(np.random.default_rng(source_seed),
                                   source.n, config)
    if adapt:
        target_indices = _index_blocks(np.random.default_rng(target_seed),
                                       target_train.n, config)

    # divergence shows up as inf/nan and is caught by the explicit finiteness
    # checks in the step; numpy's own overflow warnings would only duplicate
    # that, so they are silenced for each step, and scoring between steps
    # keeps the caller's error state
    @np.errstate(over="ignore", invalid="ignore")
    def step(it, idx):
        fused, cache = model_forward(
            model, source.visual[idx], source.audio[idx])
        norms = row_norms(cache.features)
        ce, grad_logits = softmax_cross_entropy(fused, source.labels[idx])
        aux_value, aux_grad = 0.0, None
        if aux is not None:
            aux_value, aux_grad = _aux_term(aux, cache.features, norms,
                                            aux_args, it, "source")
        if adapt:
            idx = next(target_indices)
            target, target_cache = encode_pair(
                model, target_train.visual[idx], target_train.audio[idx])
            target_value, target_grad = _aux_term(
                aux, target, row_norms(target), aux_args, it, "target")
            aux_value += target_value
        mean_v, mean_a = mean_norms(norms).tolist()
        record = IterationRecord(
            it, mean_v, mean_a, mean_v - mean_a,
            mean_v / mean_a if mean_a > 0 else float("nan"),
            float(ce), float(aux_value))
        # the telemetry reader's rule: finite mean norms and losses
        if not all(map(math.isfinite, (mean_v, mean_a, record.ce_loss,
                                       record.aux_loss))):
            raise NumericalError(
                f"non-finite norm or loss at iteration {it}: {record}; "
                f"last record: {(telemetry.iterations or [None])[-1]}")
        model_backward(cache, grad_logits,
                       lam * aux_grad if use_aux else None)
        if adapt and use_aux:
            encode_pair_backward(target_cache, lam * target_grad)
        try:
            sgd_step(model.flat, grad, velocity, config.learning_rate,
                     config.momentum, config.weight_decay)
        except NumericalError as exc:
            bad = next(name for name, g in grads.items()
                       if not np.isfinite(g).all())
            raise NumericalError(
                f"iteration {it}: {exc} (first at '{bad}'); last record: "
                f"{(telemetry.iterations or [None])[-1]}") from exc
        telemetry.add_iteration(record)

    def trained():
        for it, idx in zip(range(config.iterations), source_indices):
            step(it, idx)
            if config.iterations - it <= config.checkpoint_average:
                yield model
        if config.iterations == 0:
            yield model

    telemetry.evals = list(map(EvalRecord, EVAL_MODES, snapshot_accuracies(
        trained(), target_test)))
    return TwoStreamModel(model.config, model.flat, model.running), telemetry


def snapshot_accuracies(snapshots, batch):
    """Top-1 accuracy on a labeled batch of each mode in ``EVAL_MODES``:
    fused under snapshot averaging (the mean of the snapshots' softmax
    scores, then the argmax), each stream alone from the last snapshot (for
    mid fusion, with the other half of the concatenated features zeroed).
    Ties break toward the lowest class index.  ``snapshots`` is any
    iterable of models, read lazily after the batch is checked: each is
    encoded once, as it arrives, and only the running sum of scores and the
    last one's logits are kept."""
    if batch.n == 0:
        raise ConfigurationError("cannot evaluate on an empty dataset")
    if not batch.labeled:
        raise ConfigurationError("evaluation needs a labeled dataset")
    total = None
    for count, snap in enumerate(snapshots, 1):
        logits = eval_logits(snap, batch.visual, batch.audio)
        scores = softmax(logits[0])
        total = scores if total is None else total + scores
    if total is None:
        raise ConfigurationError("need at least one snapshot")
    preds = (np.argmax(total / count, axis=1),
             *np.argmax(logits[1:], axis=2))
    return [float(np.mean(pred == batch.labels)) for pred in preds]


def headline_accuracy(telemetry):
    """The run's reported number: fused target-test accuracy under the
    snapshot-averaging protocol."""
    return telemetry.eval_accuracy("fused")


def default_pairs(setting, num_domains):
    """Every evaluation cell for a setting: all ordered (source, target)
    pairs for dg-single/uda, one cell per held-out target for dg-multi."""
    arity = 1 if setting == "dg-multi" else 2
    check_pair(setting, tuple(range(arity)), num_domains)
    grid = itertools.product(range(num_domains), repeat=arity)
    return [pair for pair in grid if len(set(pair)) == arity]


def pair_label(setting, pair, ids):
    """Cell label from the domain ids: "D1->D2" for a (source, target)
    tuple of dg-single or uda, "D1,D2->D3" for a (target,) of dg-multi."""
    *source, t = check_pair(setting, pair, len(ids))
    sources = source or [k for k in range(len(ids)) if k != t]
    return f"{','.join(ids[k] for k in sources)}->{ids[t]}"


MatrixCell = namedtuple("MatrixCell", "label accuracies mean")


class MatrixResult(namedtuple("MatrixResult", "cells failures",
                              defaults=((),))):
    """Per-pair seed-averaged accuracies for one method/config, and the
    (label, seed, message) of each run that failed."""
    __slots__ = ()

    @property
    def labels(self):
        return [c.label for c in self.cells]

    @property
    def means(self):
        return [c.mean for c in self.cells]

    @property
    def mean(self):
        return float(np.mean(self.means))


def run_experiment_matrix(base_config, pairs=None, seeds=(0,)):
    """Train one configuration over a grid of domain pairs and seeds.

    ``pairs`` are (source, target) tuples for dg-single and uda and
    (target,) tuples for dg-multi; a bad or repeated pair or seed fails
    before any run.
    Returns a MatrixResult with one cell per pair: the per-seed accuracies
    and their mean.  A run that aborts numerically is recorded as NaN for
    that seed and noted in ``failures``; the matrix continues.
    """
    ids = domain_ids(base_config)
    if pairs is None:
        pairs = default_pairs(base_config.setting, len(ids))
    pairs, seeds = list(pairs), list(seeds)
    if not pairs or not seeds:
        raise ConfigurationError(
            "an experiment matrix needs at least one domain pair and one seed")
    grid = [(pair_label(base_config.setting, pair, ids),
             [replace(base_config, target_index=pair[-1], seed=seed,
                      source_index=pair[0] if len(pair) == 2 else None)
              for seed in seeds]) for pair in pairs]
    no_repeats("the matrix's pairs", pairs, pairs, ConfigurationError)
    no_repeats("the matrix's seeds", [c.seed for c in grid[0][1]], seeds,
               ConfigurationError)
    cells, failures = [], []
    for label, configs in grid:
        accuracies = []
        for config in configs:
            try:
                _, telemetry = run_experiment(config)
                accuracies.append(headline_accuracy(telemetry))
            except NumericalError as exc:
                failures.append((label, config.seed, str(exc)))
                accuracies.append(float("nan"))
        cells.append(MatrixCell(label, accuracies,
                                float(np.mean(accuracies))))
    return MatrixResult(cells, failures)


def write_results_csv(path, results):
    """Write a methods-by-pairs results table.

    ``results`` is an ordered mapping method name -> MatrixResult; all rows
    must share the same pair labels, none of them twice, or the table is a
    ConfigurationError raised before the file is opened.  Cells hold the
    seed-mean accuracy as a fraction; the last column is the mean over pairs.
    """
    if not results:
        raise ConfigurationError("no results to write")
    items = list(results.items())
    labels = items[0][1].labels
    for method, result in items:
        if result.labels != labels:
            raise ConfigurationError(
                f"result rows disagree on pair labels ({method})")
    no_repeats(f"{path}: the header", labels, labels, ConfigurationError)
    _write_csv(path, [["method"] + labels + ["mean"], *(
        [method, *map(repr, map(float, [*result.means, result.mean]))]
        for method, result in items)])


def read_results_csv(path):
    """Parse a results table back into (pair_labels, {method: row}) where a
    row is the list of per-pair means plus the final overall mean.  Labels
    and method names may hold a "_"; a number holding one is reported
    before any other row error."""
    header, rows_in = _csv_table(path, skip=1)
    if header is None:
        raise ParseError(f"{path}: line 1: empty results file")
    if len(header) < 3 or header[0] != "method" or header[-1] != "mean":
        raise ParseError(
            f"{path}: line 1: expected 'method,<pairs...>,mean' header")
    labels = header[1:-1]
    no_repeats(f"{path}: line 1: header", labels, labels)
    rows = {}
    for lineno, row in rows_in:
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(header)} fields")
        if row[0] in rows:
            raise ParseError(
                f"{path}: line {lineno}: duplicate method {row[0]!r}")
        try:
            rows[row[0]] = [float(x) for x in row[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return labels, rows
