"""Span tracing from outside the package.

A traced op replaces the package's public functions, in every module that
holds them, with wrappers that record one span per call: (layer, start, end,
parent span, op id).  Spans stay in memory and are written out once, when the
run ends.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children.  In a serial process
children never overlap, so the self times of one op's spans add up to the
op's wall time; a function left unwrapped is charged to its nearest wrapped
caller.
"""

import functools
import time
from pathlib import Path

# (function name, layer).  Each function is patched in every package module
# that holds it: the defining module and each module that imported it by name
# (training does ``from .model import model_forward``, so patching only the
# defining module would miss the training loop's calls).
_FUNCTIONS = [
    ("generate_benchmark", "data.generate"),
    ("save_feature_file", "data.save_feature_file"),
    ("load_feature_file", "data.load_feature_file"),
    ("model_forward", "model.forward"),
    ("model_backward", "model.backward"),
    ("save_checkpoint", "model.checkpoint_io"),
    ("load_checkpoint", "model.checkpoint_io"),
    ("softmax_cross_entropy", "numerics.softmax_ce"),
    ("sgd_step", "numerics.sgd_step"),
    ("rna_loss", "losses.aux"),
    ("rna_loss_uda", "losses.aux"),
    ("hna_loss", "losses.aux"),
    ("cosine_alignment_loss", "losses.aux"),
    ("orthogonality_loss", "losses.aux"),
    ("top_k_norm_share", "losses.top_k"),
    ("run_experiment", "training.run_self"),
    ("train_dg", "training.run_self"),
    ("train_uda", "training.run_self"),
    ("average_checkpoint_scores", "training.eval"),
    ("evaluate", "training.eval"),
    ("run_experiment_matrix", "training.matrix_self"),
    ("write_results_csv", "training.matrix_self"),
    ("load_config_file", "config.parse"),
    ("parse_benchmark_spec", "config.parse"),
    ("parse_experiment_config", "config.parse"),
    ("parse_matrix_options", "config.parse"),
    ("apply_method", "config.parse"),
    ("main", "cli.self"),
]

# the encoders split out of model_forward and model_backward, per modality
_ENCODERS = [
    ("encode", lambda args: "model.encode_" + args[1]),
    ("encode_backward", lambda args: "model.encode_backward_" + args[0][0]),
]

# (module, class, method, layer)
_METHODS = [
    ("data", "MultiModalBatch", "take", "data.take"),
    ("model", "TwoStreamModel", "clone", "model.clone"),
    ("training", "NormTelemetry", "add_iteration", "training.telemetry"),
    ("training", "NormTelemetry", "to_csv", "training.telemetry"),
    ("training", "NormTelemetry", "from_csv", "training.telemetry"),
]

_MODULES = ("data", "model", "numerics", "losses", "training", "config",
            "cli")

# the root span of every op; its self time is the benchmark's own code
OP_SPAN = "bench.op_self"

LAYERS = sorted({layer for _, layer in _FUNCTIONS}
                | {method[-1] for method in _METHODS}
                | {"model.encode_visual", "model.encode_audio",
                   "model.encode_backward_visual",
                   "model.encode_backward_audio", OP_SPAN})


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self, rn):
        self.rn = rn
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.op_ids = []
        self._stack = [-1]
        self._op_id = -1
        self._saved = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.op_ids.append(self._op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name=None, namer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name if namer is None else namer(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def traced_op(self, op_id, fn):
        """Run ``fn()`` as the root span of op ``op_id`` with every patch in
        place; the patches are removed again before returning."""
        self._op_id = op_id
        self._install()
        idx = self._open(OP_SPAN)
        try:
            return fn()
        finally:
            self._close(idx)
            self._uninstall()
            self._op_id = -1

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self):
        rn = self.rn
        modules = [getattr(rn, name) for name in _MODULES]
        wrappers = {}

        def patch(fn_name, name=None, namer=None):
            for module in modules:
                current = module.__dict__.get(fn_name)
                if current is None:
                    continue
                if id(current) not in wrappers:
                    wrappers[id(current)] = self._wrap(current, name, namer)
                self._set(module, fn_name, wrappers[id(current)])

        for fn_name, layer in _FUNCTIONS:
            patch(fn_name, layer)
        for fn_name, namer in _ENCODERS:
            patch(fn_name, namer=namer)
        # the trainers look the angle baselines up in this table, not by name
        table = rn.training._AUX_FUNCTIONS
        for key, original in list(table.items()):
            self._saved.append((table, key, original))
            table[key] = self._wrap(original, "losses.aux")
        for module_name, cls_name, method, layer in _METHODS:
            cls = getattr(getattr(rn, module_name), cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                value = classmethod(self._wrap(raw.__func__, layer))
            else:
                value = self._wrap(raw, layer)
            self._set(cls, method, value)

    def _uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def layer_totals(self):
        """({layer: [self seconds, calls]} summed over every traced op, and
        the largest per-op share of wall time that the spans' self times
        fail to account for, which is 0 up to rounding)."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        totals = {layer: [0.0, 0] for layer in LAYERS}
        walls = {}
        accounted = {}
        for name, op, dur, seconds in zip(self.names, self.op_ids,
                                          durations, own):
            totals[name][0] += seconds
            totals[name][1] += 1
            accounted[op] = accounted.get(op, 0.0) + seconds
            if name == OP_SPAN:
                walls[op] = dur
        gap = max((abs(accounted[op] - wall) / wall
                   for op, wall in walls.items()), default=0.0)
        return totals, gap

    def write(self, path):
        """Write every span as CSV: op,layer,start,end,parent (seconds from
        the first span; parent is a row index, -1 for an op's root)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("op,layer,start,end,parent\n")
            for op, name, start, end, parent in zip(
                    self.op_ids, self.names, self.starts, self.ends,
                    self.parents):
                fh.write(f"{op},{name},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent}\n")
