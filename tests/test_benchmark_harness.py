"""What the benchmark harness in ``benchmarks/`` needs from the package.

The harness patches methods by name and reads telemetry and evaluation
records by field, so a refactor of ``src/`` could break every ``--trace 1``
run or the quality digests with no other test failing.  The harness files
are read from their paths and executed here; nothing is written under
``benchmarks/``.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

import rnalign
from rnalign.data import BenchmarkSpec
from rnalign.model import EVAL_MODES
from rnalign.training import ExperimentConfig, NormTelemetry, run_experiment

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_harness_file(name):
    path = BENCHMARKS / f"{name}.py"
    module = types.ModuleType(f"harness_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_every_traced_method_is_defined_on_its_class():
    tracing = load_harness_file("tracing")
    for module_name, cls_name, method, _ in tracing._METHODS:
        cls = getattr(getattr(rnalign, module_name), cls_name)
        assert method in cls.__dict__, f"{cls_name}.{method}"


def test_every_per_step_layer_counts_the_trainers_calls():
    # a row that reads 0 while its layer runs every step is a patch that
    # misses the function the trainer calls
    tracing = load_harness_file("tracing")
    rn = types.SimpleNamespace(**{
        module: importlib.import_module(f"rnalign.{module}")
        for module in tracing._MODULES})
    config = ExperimentConfig(
        benchmark=BenchmarkSpec(num_domains=3, num_classes=3,
                                input_dim_visual=6, input_dim_audio=5,
                                samples_per_class=8, seed=5),
        iterations=7, batch_size=8, hidden_dim=12, feature_dim=8,
        checkpoint_average=3)
    tracer = tracing.Tracer(rn)
    tracer.traced_op(0, lambda: rn.training.run_experiment(config))
    totals, unaccounted = tracer.layer_totals()
    for layer in ("model.forward", "model.backward", "numerics.softmax_ce",
                  "numerics.sgd_step", "losses.aux"):
        assert totals[layer][1] == config.iterations, layer
    assert unaccounted == pytest.approx(0.0, abs=1e-9)


def test_digest_rows_and_eval_records_have_the_fields_the_harness_reads(
        tmp_path):
    workloads = load_harness_file("workloads")
    config = ExperimentConfig(
        benchmark=BenchmarkSpec(num_domains=3, num_classes=3,
                                input_dim_visual=6, input_dim_audio=5,
                                samples_per_class=8, seed=5),
        iterations=20, batch_size=8, hidden_dim=12, feature_dim=8,
        checkpoint_average=3)
    _, telemetry = run_experiment(config)
    telemetry.to_csv(tmp_path / "telemetry.csv")
    loaded = NormTelemetry.from_csv(tmp_path / "telemetry.csv")
    run_row = json.dumps(workloads.row_repr(telemetry.iterations[-1]))
    assert json.dumps(workloads.row_repr(loaded.iterations[-1])) == run_row
    assert [rec.mode for rec in telemetry.evals] == list(EVAL_MODES)
    for rec in telemetry.evals:
        assert 0.0 <= rec.accuracy <= 1.0


@pytest.mark.parametrize("name", ["train-dg", "matrix", "cli-io"])
def test_each_workload_runs_and_checks_its_first_op(tmp_path, monkeypatch,
                                                    name):
    workloads = load_harness_file("workloads")
    rn = types.SimpleNamespace(**{
        module: importlib.import_module(f"rnalign.{module}")
        for module in ("data", "model", "training", "config", "cli")})
    # the matrix workload replaces training.run_experiment to observe cells
    monkeypatch.setattr(rn.training, "run_experiment",
                        rn.training.run_experiment)
    workload = workloads.WORKLOADS[name](rn, tmp_path, 0)
    outcome = workload.check(0, workload.op(0))
    assert outcome.failures == []
    assert outcome.iterations > 0
