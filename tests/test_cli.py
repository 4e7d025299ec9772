"""End-to-end tests of the command-line interface.

Every test drives ``rnalign.cli.main`` in-process with absolute paths, so
exit codes, stdout contracts, and written artifacts are all checked exactly
as a shell user would see them.
"""

import dataclasses
import json
import os
import re
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rnalign.training

from rnalign.cli import _atomic, main
from rnalign.config import (_SECTION_KEYS, load_config_file,
                            parse_benchmark_spec, parse_experiment_config,
                            parse_matrix_options)
from rnalign.data import BenchmarkSpec
from rnalign.errors import ConfigurationError, ParseError
from rnalign.data import load_feature_file
from rnalign.losses import norm_stats
from rnalign.model import eval_logits, load_checkpoint
from rnalign.training import (TELEMETRY_HEADER, ExperimentConfig,
                              NormTelemetry, snapshot_accuracies)

BENCHMARK_INI = """\
[benchmark]
num_domains = 3
num_classes = 3
input_dim_visual = 6
input_dim_audio = 5
samples_per_class = 8
seed = 5
"""

TRAIN_INI = BENCHMARK_INI + """
[experiment]
setting = dg-single
aux_loss = rna
source = 0
target = 1
hidden_dim = 12
feature_dim = 8
iterations = 40
batch_size = 8
checkpoint_average = 3
seed = 2
"""

MATRIX_INI = TRAIN_INI + """
[matrix]
methods = source-only, rna
seeds = 0, 1
pairs = D1->D2, D2->D1
"""


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    """'key=value' stdout lines -> dict of strings."""
    rows = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        rows[key] = value
    return rows


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_domain_files_and_manifest(tmp_path, capsys):
    config = write_config(tmp_path, BENCHMARK_INI)
    out_dir = tmp_path / "data"
    code, out, _ = run_cli(capsys, ["generate", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 0
    names = sorted(p.name for p in out_dir.glob("*.rnafeat"))
    assert names == ["D1_test.rnafeat", "D1_train.rnafeat",
                     "D2_test.rnafeat", "D2_train.rnafeat",
                     "D3_test.rnafeat", "D3_train.rnafeat"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert len(manifest["artifacts"]) == 6
    assert manifest["config"]["num_domains"] == 3
    assert "generated 3 domains (6 files)" in out


def test_generate_files_load_with_expected_shapes(tmp_path, capsys):
    config = write_config(tmp_path, BENCHMARK_INI)
    out_dir = tmp_path / "data"
    assert run_cli(capsys, ["generate", "--config", config,
                            "--out", str(out_dir)])[0] == 0
    batch = load_feature_file(out_dir / "D2_train.rnafeat")
    assert batch.visual.shape[1] == 6
    assert batch.audio.shape[1] == 5
    assert batch.labeled
    total = batch.n + load_feature_file(out_dir / "D2_test.rnafeat").n
    assert total == 3 * 8


def test_generate_rerun_is_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path, BENCHMARK_INI)
    dirs = (tmp_path / "a", tmp_path / "b")
    for out_dir in dirs:
        assert run_cli(capsys, ["generate", "--config", config,
                                "--out", str(out_dir)])[0] == 0
    for name in ("D1_train", "D1_test", "D2_train",
                 "D2_test", "D3_train", "D3_test"):
        first = (dirs[0] / f"{name}.rnafeat").read_bytes()
        second = (dirs[1] / f"{name}.rnafeat").read_bytes()
        assert first == second, name


def test_generate_refuses_an_out_dir_holding_other_domains(tmp_path,
                                                          capsys):
    # a data_dir run reads every domain file in the directory, so a 4-domain
    # benchmark's D3 and D4 left there would join a 2-domain one's D1 and D2
    out_dir = tmp_path / "data"
    configs = {k: write_config(tmp_path, BENCHMARK_INI.replace(
        "num_domains = 3", f"num_domains = {k}"), f"{k}.ini") for k in (4, 2)}
    assert run_cli(capsys, ["generate", "--config", configs[4],
                            "--out", str(out_dir)])[0] == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    code, out, err = run_cli(capsys, ["generate", "--config", configs[2],
                                      "--out", str(out_dir), "--quiet"])
    assert (code, out) == (2, "")
    assert (f"{out_dir / 'D3_test.rnafeat'}: domain 'D3' is not one of the "
            f"domains this spec writes (D1, D2)") in err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
    # the same domains again overwrite their files, and a file whose name
    # does not end in _train or _test is not a domain file
    (out_dir / "notes.rnafeat").write_text("")
    assert run_cli(capsys, ["generate", "--config", configs[4],
                            "--out", str(out_dir)])[0] == 0


def test_generate_seed_flag_overrides_config(tmp_path, capsys):
    config = write_config(tmp_path, BENCHMARK_INI)
    base, other = tmp_path / "base", tmp_path / "other"
    assert run_cli(capsys, ["generate", "--config", config,
                            "--out", str(base)])[0] == 0
    assert run_cli(capsys, ["generate", "--config", config,
                            "--out", str(other), "--seed", "11"])[0] == 0
    assert ((base / "D1_train.rnafeat").read_bytes()
            != (other / "D1_train.rnafeat").read_bytes())
    manifest = json.loads((other / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 11


def test_generate_invalid_spec_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, "[benchmark]\nnum_domains = 1\n")
    out_dir = tmp_path / "data"
    code, _, err = run_cli(capsys, ["generate", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 2
    assert "error:" in err
    assert list(out_dir.glob("*.rnafeat")) == []


def test_generate_unknown_key_exits_2(tmp_path, capsys):
    # a typo, and the generator settings that were removed
    for key in ("num_domainz", "class_skew", "prototype_scale",
                "train_fraction"):
        config = write_config(tmp_path, f"[benchmark]\n{key} = 1\n")
        out_dir = tmp_path / "d"
        code, _, err = run_cli(capsys, ["generate", "--config", config,
                                        "--out", str(out_dir)])
        assert code == 2, key
        assert f"{config}: unknown [benchmark] key: {key}" in err
        assert not out_dir.exists()


def test_generate_missing_config_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["generate",
                                    "--config", str(tmp_path / "nope.ini"),
                                    "--out", str(tmp_path / "d")])
    assert code == 2
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts_and_summary_line(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_INI)
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, ["train", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "checkpoint.rna").exists()
    assert (out_dir / "telemetry.csv").exists()
    assert (out_dir / "manifest.json").exists()
    line = out.strip().splitlines()[-1]
    assert line.startswith("setting=dg-single aux=rna acc=")
    accuracy = float(line.rsplit("=", 1)[1])
    assert 0.0 <= accuracy <= 1.0


def test_train_telemetry_round_trips(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_INI)
    out_dir = tmp_path / "run"
    assert run_cli(capsys, ["train", "--config", config,
                            "--out", str(out_dir)])[0] == 0
    text = (out_dir / "telemetry.csv").read_text(encoding="ascii")
    assert text.splitlines()[0] == TELEMETRY_HEADER
    telemetry = NormTelemetry.from_csv(out_dir / "telemetry.csv")
    assert len(telemetry.iterations) == 40
    assert telemetry.iterations[-1].iteration == 39


def test_train_checkpoint_is_usable(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_INI)
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert run_cli(capsys, ["generate", "--config", config,
                            "--out", str(data_dir)])[0] == 0
    assert run_cli(capsys, ["train", "--config", config,
                            "--out", str(run_dir)])[0] == 0
    model = load_checkpoint(run_dir / "checkpoint.rna")
    batch = load_feature_file(data_dir / "D2_test.rnafeat")
    assert eval_logits(model, batch.visual, batch.audio).shape == \
        (3, batch.n, 3)
    assert all(0.0 <= acc <= 1.0
               for acc in snapshot_accuracies([model], batch))


def test_train_same_seed_reproduces_run(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_INI)
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, out, _ = run_cli(capsys, ["train", "--config", config,
                                        "--out", str(out_dir), "--quiet"])
        assert code == 0
        outs.append(out)
        assert (out_dir / "telemetry.csv").read_bytes() \
            == (tmp_path / "a" / "telemetry.csv").read_bytes()
        assert (out_dir / "checkpoint.rna").read_bytes() \
            == (tmp_path / "a" / "checkpoint.rna").read_bytes()
    assert outs[0] == outs[1]


def test_train_from_exported_files_matches_generated_run(tmp_path, capsys):
    """Training on saved feature files reproduces the in-memory benchmark
    run bit for bit, so the text format loses nothing that matters."""
    config = write_config(tmp_path, TRAIN_INI)
    data_dir = tmp_path / "data"
    assert run_cli(capsys, ["generate", "--config", config,
                            "--out", str(data_dir)])[0] == 0
    from_spec, from_files = tmp_path / "spec_run", tmp_path / "file_run"
    assert run_cli(capsys, ["train", "--config", config,
                            "--out", str(from_spec)])[0] == 0
    file_config = write_config(
        tmp_path, TRAIN_INI + f"data_dir = {data_dir}\n", name="files.ini")
    assert run_cli(capsys, ["train", "--config", file_config,
                            "--out", str(from_files)])[0] == 0
    assert (from_spec / "telemetry.csv").read_bytes() \
        == (from_files / "telemetry.csv").read_bytes()
    assert (from_spec / "checkpoint.rna").read_bytes() \
        == (from_files / "checkpoint.rna").read_bytes()


def test_train_quiet_suppresses_progress(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_INI)
    _, _, noisy = run_cli(capsys, ["train", "--config", config,
                                   "--out", str(tmp_path / "a")])
    assert "training:" in noisy
    _, _, quiet = run_cli(capsys, ["train", "--config", config,
                                   "--out", str(tmp_path / "b"), "--quiet"])
    assert quiet == ""


def test_train_missing_data_dir_exits_2_without_artifacts(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    config = write_config(tmp_path, TRAIN_INI + f"data_dir = {empty}\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, ["train", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 2
    assert "rnafeat" in err
    assert not (out_dir / "checkpoint.rna").exists()
    assert not (out_dir / "telemetry.csv").exists()


def test_train_on_an_unreadable_domain_file_exits_2_naming_it(tmp_path,
                                                              capsys):
    data_dir = tmp_path / "data"
    assert run_cli(capsys, ["generate", "--config",
                            write_config(tmp_path, BENCHMARK_INI),
                            "--out", str(data_dir), "--quiet"])[0] == 0
    unreadable = data_dir / "D2_train.rnafeat"
    unreadable.unlink()
    unreadable.mkdir()
    config = write_config(tmp_path, TRAIN_INI + f"data_dir = {data_dir}\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, ["train", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 2
    assert f"cannot read {unreadable}" in err
    assert not (out_dir / "checkpoint.rna").exists()


def test_train_divergence_exits_1(tmp_path, capsys):
    config = write_config(tmp_path,
                          TRAIN_INI + "learning_rate = 1e12\nmomentum = 0\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, ["train", "--config", config,
                                    "--out", str(out_dir), "--quiet"])
    assert code == 1
    assert "error:" in err
    assert not (out_dir / "checkpoint.rna").exists()


def test_train_whose_norms_overflow_exits_1_and_writes_nothing(tmp_path,
                                                              capsys):
    # the losses stay finite while the mean feature norms overflow; the
    # telemetry reader rejects such a row, so the run stops at it
    config = write_config(tmp_path, """\
[experiment]
setting = dg-single
aux_loss = none
iterations = 4
learning_rate = 1e12
momentum = 0
""")
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, ["train", "--config", config,
                                      "--out", str(out_dir), "--quiet"])
    assert code == 1
    assert "error: non-finite norm or loss at iteration 3:" in err
    assert out == ""
    assert not (out_dir / "checkpoint.rna").exists()
    assert not (out_dir / "telemetry.csv").exists()


def test_train_bad_experiment_value_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_INI + "lambda = -1\n")
    code, _, err = run_cli(capsys, ["train", "--config", config,
                                    "--out", str(tmp_path / "run")])
    assert code == 2
    assert "lambda" in err


def test_train_removed_hna_target_norm_key_exits_2(tmp_path, capsys):
    # hna's R is always the midpoint of the streams' mean norms at init
    config = write_config(tmp_path, TRAIN_INI + "hna_target_norm = 3.0\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, ["train", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 2
    assert f"{config}: unknown [experiment] key: hna_target_norm" in err
    assert not out_dir.exists()


def test_train_value_that_does_not_cast_exits_2_naming_field_and_value(
        tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_INI + "lambda = abc\n")
    code, _, err = run_cli(capsys, ["train", "--config", config,
                                    "--out", str(tmp_path / "run")])
    assert code == 2
    assert (f"{config}: invalid [experiment]: lambda_weight: could not "
            f"convert string to float: 'abc'") in err


def test_seeds_beyond_float_precision_still_build(tmp_path):
    config = write_config(tmp_path, TRAIN_INI.replace(
        "seed = 2", "seed = 18446744073709551617"))
    assert load_experiment(config).seed == 18446744073709551617
    assert ExperimentConfig(seed=2 ** 53 + 1).seed == 2 ** 53 + 1


def test_config_numbers_keep_python_digit_groups(tmp_path):
    # config files are written by hand, so "1_000" stays a thousand
    config = write_config(tmp_path, TRAIN_INI.replace(
        "iterations = 40", "iterations = 1_000").replace(
        "seed = 2", "seed = 2_0"))
    experiment = load_experiment(config)
    assert (experiment.iterations, experiment.seed) == (1000, 20)


def test_train_non_finite_setting_exits_2_naming_the_key(tmp_path, capsys):
    for line, key in (("learning_rate = nan", "learning_rate"),
                      ("weight_decay = inf", "weight_decay"),
                      ("noise_sigma = inf", "noise_sigma")):
        text = (TRAIN_INI.replace("seed = 5", f"seed = 5\n{line}")
                if key == "noise_sigma" else TRAIN_INI + line + "\n")
        config = write_config(tmp_path, text)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, ["train", "--config", config,
                                        "--out", str(out_dir), "--quiet"])
        assert code == 2, line
        assert key in err, err
        assert not (out_dir / "checkpoint.rna").exists()


@pytest.mark.parametrize("old, new, key", [
    ("iterations = 40", "iterations =", "iterations"),
    ("seed = 2", "seed = 2\nlearning_rate =", "learning_rate"),
    ("seed = 2", "seed = 2\ndata_dir =", "data_dir"),
], ids=["iterations", "learning_rate", "data_dir"])
def test_train_empty_experiment_value_exits_2_naming_the_key(tmp_path,
                                                            capsys, old,
                                                            new, key):
    config = write_config(tmp_path, TRAIN_INI.replace(old, new))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, ["train", "--config", config,
                                    "--out", str(out_dir), "--quiet"])
    assert code == 2
    assert f"{config}: [experiment] {key} is empty" in err
    assert not (out_dir / "checkpoint.rna").exists()


# ---------------------------------------------------------------------------
# matrix


def test_matrix_results_table_layout(tmp_path, capsys):
    config = write_config(tmp_path, MATRIX_INI)
    out_dir = tmp_path / "grid"
    code, out, _ = run_cli(capsys, ["matrix", "--config", config,
                                    "--out", str(out_dir), "--quiet"])
    assert code == 0
    lines = (out_dir / "results.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "method,D1->D2,D2->D1,mean"
    assert [row.split(",")[0] for row in lines[1:]] == ["source-only", "rna"]
    for row in lines[1:]:
        values = [float(v) for v in row.split(",")[1:]]
        assert np.isclose(values[-1], np.mean(values[:-1]), atol=1e-12)
        assert all(0.0 <= v <= 1.0 for v in values)
    assert "source-only mean=" in out
    assert "rna mean=" in out


def test_matrix_rerun_is_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path, MATRIX_INI)
    for name in ("a", "b"):
        assert run_cli(capsys, ["matrix", "--config", config,
                                "--out", str(tmp_path / name),
                                "--quiet"])[0] == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() \
        == (tmp_path / "b" / "results.csv").read_bytes()


def test_matrix_seed_flag_replaces_seed_list(tmp_path, capsys):
    config = write_config(tmp_path, MATRIX_INI)
    pinned = write_config(tmp_path, MATRIX_INI.replace("seeds = 0, 1",
                                                       "seeds = 4"),
                          name="pinned.ini")
    assert run_cli(capsys, ["matrix", "--config", config,
                            "--out", str(tmp_path / "flag"),
                            "--seed", "4", "--quiet"])[0] == 0
    assert run_cli(capsys, ["matrix", "--config", pinned,
                            "--out", str(tmp_path / "ini"),
                            "--quiet"])[0] == 0
    assert (tmp_path / "flag" / "results.csv").read_bytes() \
        == (tmp_path / "ini" / "results.csv").read_bytes()


def test_matrix_multi_source_pair_labels(tmp_path, capsys):
    config = write_config(
        tmp_path,
        MATRIX_INI.replace("setting = dg-single", "setting = dg-multi")
                  .replace("pairs = D1->D2, D2->D1", "pairs = D3"))
    out_dir = tmp_path / "grid"
    assert run_cli(capsys, ["matrix", "--config", config,
                            "--out", str(out_dir), "--quiet"])[0] == 0
    header = (out_dir / "results.csv").read_text(
        encoding="ascii").splitlines()[0]
    # the multi-source label contains a comma, so the CSV writer quotes it
    assert header == 'method,"D1,D2->D3",mean'


def test_matrix_reports_each_failed_cell_and_records_nan(tmp_path, capsys):
    config = write_config(tmp_path, """\
[experiment]
setting = dg-single
iterations = 30
learning_rate = 1e12
momentum = 0

[matrix]
methods = source-only, rna
seeds = 0
pairs = D1->D2
""")
    out_dir = tmp_path / "grid"
    code, out, err = run_cli(capsys, ["matrix", "--config", config,
                                      "--out", str(out_dir), "--quiet"])
    assert code == 0
    for method in ("source-only", "rna"):
        warnings = [line for line in err.splitlines() if line.startswith(
            f"warning: {method} D1->D2 seed 0 failed: ")]
        assert len(warnings) == 1, err
        assert f"{method} mean=nan" in out
    assert (out_dir / "results.csv").read_text(encoding="ascii") == (
        "method,D1->D2,mean\nsource-only,nan,nan\nrna,nan,nan\n")


@pytest.mark.parametrize("old, new, message", [
    ("methods = source-only, rna", "methods = ,", "[matrix] methods is empty"),
    ("methods = source-only, rna", "methods = alignment-only",
     "unknown method 'alignment-only' (expected one of source-only, "
     "batchnorm, hna, rna, rna-mid)"),
    ("seeds = 0, 1", "seeds = 0, x",
     "[matrix] seeds: invalid literal for int() with base 10: ' x'"),
    ("seeds = 0, 1", "seeds = ,", "[matrix] seeds is empty"),
    ("pairs = D1->D2, D2->D1", "pairs = ,", "[matrix] pairs is empty"),
    ("pairs = D1->D2, D2->D1", "pairs = D1",
     "pair 'D1' must look like 'D1->D2' for dg-single"),
], ids=["methods-empty", "method-removed", "seeds-not-int", "seeds-empty",
        "pairs-empty", "pair-without-arrow"])
def test_matrix_option_errors_exit_2_naming_the_file(tmp_path, capsys, old,
                                                     new, message):
    config = write_config(tmp_path, MATRIX_INI.replace(old, new))
    out_dir = tmp_path / "grid"
    code, _, err = run_cli(capsys, ["matrix", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 2
    assert err == f"error: {config}: {message}\n"
    assert not (out_dir / "results.csv").exists()


def test_matrix_unknown_method_exits_2(tmp_path, capsys):
    config = write_config(tmp_path,
                          MATRIX_INI.replace("source-only, rna", "sota"))
    code, _, err = run_cli(capsys, ["matrix", "--config", config,
                                    "--out", str(tmp_path / "grid")])
    assert code == 2
    assert "sota" in err


def test_matrix_duplicate_method_exits_2(tmp_path, capsys):
    config = write_config(tmp_path,
                          MATRIX_INI.replace("source-only, rna",
                                             "rna, source-only, rna"))
    out_dir = tmp_path / "grid"
    code, _, err = run_cli(capsys, ["matrix", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 2
    assert "[matrix] methods names 'rna' twice" in err
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize("key, old, new, named", [
    ("seeds", "seeds = 0, 1", "seeds = 0, 0, 1", "0"),
    ("pairs", "D1->D2, D2->D1", "D1->D2, D2->D1, D1 -> D2", "'D1 -> D2'"),
], ids=["seeds", "pairs"])
def test_matrix_repeated_seed_or_pair_exits_2(tmp_path, capsys, key, old,
                                              new, named):
    config = write_config(tmp_path, MATRIX_INI.replace(old, new))
    out_dir = tmp_path / "grid"
    code, _, err = run_cli(capsys, ["matrix", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 2
    assert f"[matrix] {key} names {named} twice" in err
    assert not (out_dir / "results.csv").exists()


def test_matrix_bad_pair_exits_2(tmp_path, capsys):
    config = write_config(tmp_path,
                          MATRIX_INI.replace("D2->D1", "D9->D1"))
    code, _, err = run_cli(capsys, ["matrix", "--config", config,
                                    "--out", str(tmp_path / "grid")])
    assert code == 2
    assert "D9" in err


@pytest.mark.parametrize("setting", ["dg-single", "uda"])
def test_matrix_pair_from_a_domain_to_itself_exits_2_before_training(
        tmp_path, capsys, monkeypatch, setting):
    trained = []
    original = rnalign.training.run_experiment

    def recording(config):
        trained.append(config)
        return original(config)

    monkeypatch.setattr(rnalign.training, "run_experiment", recording)
    config = write_config(tmp_path, MATRIX_INI.replace(
        "setting = dg-single", f"setting = {setting}").replace(
        "D1->D2, D2->D1", "D1->D2, D2->D2"))
    out_dir = tmp_path / "grid"
    code, _, err = run_cli(capsys, ["matrix", "--config", config,
                                    "--out", str(out_dir)])
    assert code == 2
    assert f"{config}: [matrix] pairs: 'D2->D2'" in err
    assert trained == []
    assert not (out_dir / "results.csv").exists()


# ---------------------------------------------------------------------------
# seeds


def record_training(monkeypatch):
    """The list every model initialization of a training run appends to."""
    started = []
    original = rnalign.training.init_model

    def recording(*args):
        started.append(args)
        return original(*args)

    monkeypatch.setattr(rnalign.training, "init_model", recording)
    return started


@pytest.mark.parametrize("command", ["generate", "train", "matrix"])
def test_negative_seed_flag_exits_2_before_any_work(tmp_path, capsys,
                                                    monkeypatch, command):
    started = record_training(monkeypatch)
    config = write_config(tmp_path, MATRIX_INI)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--config", config, "--out", str(out_dir),
              "--seed", "-1"])
    assert excinfo.value.code == 2
    assert ("argument --seed: expected an integer >= 0, got '-1'"
            in capsys.readouterr().err)
    assert not out_dir.exists()
    assert started == []


def test_seed_flag_that_is_not_an_integer_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--config", write_config(tmp_path, TRAIN_INI),
              "--out", str(out_dir), "--seed", "x"])
    assert excinfo.value.code == 2
    assert ("argument --seed: expected an integer >= 0, got 'x'"
            in capsys.readouterr().err)
    assert not out_dir.exists()


@pytest.mark.parametrize("command, old, new, message", [
    ("generate", "seed = 5", "seed = -2",
     "invalid [benchmark]: seed must be >= 0, got -2"),
    ("train", "seed = 2", "seed = -2",
     "invalid [experiment]: seed must be >= 0, got -2"),
    ("matrix", "seeds = 0, 1", "seeds = 0, -1",
     "[matrix] seeds must be >= 0, got -1"),
], ids=["benchmark", "experiment", "matrix"])
def test_negative_seed_key_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                             command, old, new, message):
    started = record_training(monkeypatch)
    config = write_config(tmp_path, MATRIX_INI.replace(old, new))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, [command, "--config", config,
                                    "--out", str(out_dir)])
    assert code == 2
    assert f"{config}: {message}" in err
    assert not out_dir.exists()
    assert started == []


@pytest.mark.parametrize("old, new, message", [
    ("hidden_dim = 12", "hidden_dim = 0", "hidden_dim must be >= 1"),
    ("target = 1", "target = -1", "target_index must be >= 0, got -1"),
], ids=["hidden-dim", "target"])
def test_train_rejects_an_unusable_experiment_before_any_output(
        tmp_path, capsys, monkeypatch, old, new, message):
    started = record_training(monkeypatch)
    config = write_config(tmp_path, TRAIN_INI.replace(old, new))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, ["train", "--config", config,
                                      "--out", str(out_dir)])
    assert code == 2
    assert f"{config}: invalid [experiment]: {message}" in err
    assert "training:" not in out + err
    assert not out_dir.exists()
    assert started == []


# ---------------------------------------------------------------------------
# norms


@pytest.fixture()
def feature_file(tmp_path, capsys):
    config = write_config(tmp_path, BENCHMARK_INI)
    out_dir = tmp_path / "data"
    assert run_cli(capsys, ["generate", "--config", config,
                            "--out", str(out_dir), "--quiet"])[0] == 0
    return out_dir / "D1_train.rnafeat"


def test_norms_feature_report_matches_stats(feature_file, capsys):
    code, out, _ = run_cli(capsys, ["norms", str(feature_file)])
    assert code == 0
    report = parse_report(out)
    batch = load_feature_file(feature_file)
    stats = norm_stats(batch.visual, batch.audio)
    assert int(report["samples"]) == batch.n
    assert float(report["mean_norm_v"]) == stats.mean_norm_visual
    assert float(report["mean_norm_a"]) == stats.mean_norm_audio
    assert float(report["delta"]) == stats.delta
    assert float(report["rho"]) == stats.rho


def test_norms_telemetry_report(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_INI)
    run_dir = tmp_path / "run"
    assert run_cli(capsys, ["train", "--config", config,
                            "--out", str(run_dir), "--quiet"])[0] == 0
    telemetry_path = run_dir / "telemetry.csv"
    code, out, err = run_cli(capsys, ["norms", str(telemetry_path)])
    assert code == 0
    report = parse_report(out)
    last = NormTelemetry.from_csv(telemetry_path).iterations[-1]
    assert int(report["iterations"]) == 40
    assert float(report["rho"]) == last.rho
    assert float(report["delta"]) == last.delta
    assert err == ""


def test_norms_out_csv_mirrors_stdout(feature_file, tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    _, out, _ = run_cli(capsys, ["norms", str(feature_file),
                                 "--out", str(csv_path)])
    lines = csv_path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "metric,value"
    report = parse_report(out)
    for line in lines[1:]:
        key, _, value = line.partition(",")
        assert report[key] == value


def test_norms_out_creates_missing_parent_dirs(feature_file, tmp_path,
                                               capsys):
    csv_path = tmp_path / "new" / "dir" / "report.csv"
    code, _, _ = run_cli(capsys, ["norms", str(feature_file),
                                  "--out", str(csv_path)])
    assert code == 0
    assert csv_path.read_text(encoding="ascii").startswith("metric,value\n")


def test_norms_out_under_a_file_exits_2_naming_it(feature_file, tmp_path,
                                                  capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="ascii")
    code, out, err = run_cli(capsys, ["norms", str(feature_file), "--out",
                                      str(blocker / "report.csv")])
    assert code == 2
    assert str(blocker) in err
    assert out == ""


@pytest.mark.parametrize("kind", ["features", "telemetry"])
@pytest.mark.parametrize("spelling", ["relative", "absolute"])
def test_norms_out_naming_its_input_exits_2_and_leaves_it_alone(
        feature_file, tmp_path, capsys, monkeypatch, kind, spelling):
    source = feature_file
    if kind == "telemetry":
        assert run_cli(capsys, ["train", "--config",
                                write_config(tmp_path, TRAIN_INI),
                                "--out", str(tmp_path / "run"),
                                "--quiet"])[0] == 0
        source = tmp_path / "run" / "telemetry.csv"
    before = source.read_bytes()
    monkeypatch.chdir(tmp_path)
    out = (str(source) if spelling == "absolute"
           else os.path.relpath(source, tmp_path))
    code, stdout, err = run_cli(capsys, ["norms", str(source), "--out", out])
    assert code == 2
    assert f"--out {out} is the input file" in err
    assert stdout == ""
    assert source.read_bytes() == before
    assert list(source.parent.glob("*.tmp")) == []


def test_norms_rejects_unrecognized_input(tmp_path, capsys):
    bogus = tmp_path / "bogus.txt"
    bogus.write_text("hello world\n1,2,3\n", encoding="ascii")
    code, _, err = run_cli(capsys, ["norms", str(bogus)])
    assert code == 2
    assert "line 1" in err


def test_norms_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["norms", str(tmp_path / "gone.csv")])
    assert code == 2
    assert "cannot read" in err


def test_norms_empty_telemetry_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(TELEMETRY_HEADER + "\n", encoding="ascii")
    code, _, err = run_cli(capsys, ["norms", str(path)])
    assert code == 2
    assert "no iteration records" in err


def test_norms_reports_rho_nan_for_zero_audio_from_either_input(tmp_path,
                                                                capsys):
    features = tmp_path / "silent.rnafeat"
    features.write_text("RNAFEAT v1 2 2 1 0\n3.0 4.0 0.0\n0.0 5.0 0.0\n",
                        encoding="ascii")
    telemetry = tmp_path / "silent.csv"
    telemetry.write_text(TELEMETRY_HEADER + "\n0,5.0,0.0,5.0,nan,1.0,0.0\n",
                         encoding="ascii")
    for path in (features, telemetry):
        code, out, err = run_cli(capsys, ["norms", str(path)])
        assert (code, err) == (0, "")
        report = parse_report(out)
        assert (report["mean_norm_a"], report["rho"]) == ("0.0", "nan")


def test_import_leaves_scipy_unloaded():
    # only generating data needs scipy; the package and its CLI import
    # without it
    src = Path(rnalign.training.__file__).parents[1]
    probe = "import sys, rnalign, rnalign.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out == "False\n"


# ---------------------------------------------------------------------------
# top-level parser


def test_version_flag_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("rnalign ")


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["train"])
    assert excinfo.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# atomic writes


def test_atomic_write_removes_temp_file_when_writer_fails(tmp_path):
    target = tmp_path / "out.csv"

    def failing_writer(tmp):
        tmp.write_text("partial", encoding="ascii")
        raise OSError("disk full")

    with pytest.raises(ConfigurationError,
                       match=f"cannot write {re.escape(str(target))}: "
                             f"disk full"):
        _atomic(target, failing_writer)
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_removes_temp_file_and_reraises_other_errors(tmp_path):
    def failing_writer(tmp):
        tmp.write_text("partial", encoding="ascii")
        raise ValueError("bad row")

    with pytest.raises(ValueError, match="bad row"):
        _atomic(tmp_path / "out.csv", failing_writer)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["norms", "train"])
def test_output_path_that_is_a_directory_exits_2_naming_it(
        command, feature_file, tmp_path, capsys):
    if command == "norms":
        target = tmp_path / "report.csv"
        argv = ["norms", str(feature_file), "--out", str(target)]
    else:
        target = tmp_path / "run" / "checkpoint.rna"
        argv = ["train", "--config", write_config(tmp_path, TRAIN_INI),
                "--out", str(target.parent)]
    target.mkdir(parents=True)
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert f"cannot write {target}" in err
    assert list(target.parent.glob("*.tmp")) == []


@pytest.mark.parametrize("command", ["norms", "train"])
def test_temp_path_that_is_a_directory_exits_2_and_is_kept(
        command, feature_file, tmp_path, capsys):
    if command == "norms":
        target = tmp_path / "report.csv"
        argv = ["norms", str(feature_file), "--out", str(target)]
    else:
        target = tmp_path / "run" / "checkpoint.rna"
        argv = ["train", "--config", write_config(tmp_path, TRAIN_INI),
                "--out", str(target.parent)]
    tmp = target.with_name(target.name + ".tmp")
    (tmp / "inside").mkdir(parents=True)
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert f"cannot write {target}" in err
    assert (tmp / "inside").is_dir() and not target.exists()


# ---------------------------------------------------------------------------
# data directories and malformed input


def eleven_domain_data(tmp_path, capsys):
    """A generated data dir with domains D1..D11 (string order would put
    D10 and D11 before D2)."""
    spec = write_config(tmp_path, BENCHMARK_INI.replace(
        "num_domains = 3", "num_domains = 11").replace(
        "samples_per_class = 8", "samples_per_class = 4"), name="spec.ini")
    data_dir = tmp_path / "data11"
    assert run_cli(capsys, ["generate", "--config", spec,
                            "--out", str(data_dir), "--quiet"])[0] == 0
    return data_dir


def test_matrix_pairs_are_checked_against_the_data_dir(tmp_path, capsys):
    data_dir = eleven_domain_data(tmp_path, capsys)
    config = write_config(
        tmp_path,
        MATRIX_INI.replace("pairs = D1->D2, D2->D1", "pairs = D11->D1")
        .replace("seeds = 0, 1", "seeds = 0")
        .replace("iterations = 40", f"iterations = 5\ndata_dir = {data_dir}"))
    out_dir = tmp_path / "grid"
    code, _, err = run_cli(capsys, ["matrix", "--config", config,
                                    "--out", str(out_dir), "--quiet"])
    assert code == 0, err
    header = (out_dir / "results.csv").read_text(
        encoding="ascii").splitlines()[0]
    assert header == "method,D11->D1,mean"
    bad = write_config(tmp_path, config_text(config).replace(
        "D11->D1", "D12->D1"), name="bad.ini")
    code, _, err = run_cli(capsys, ["matrix", "--config", bad,
                                    "--out", str(tmp_path / "bad")])
    assert code == 2 and "D12" in err


def test_matrix_pairs_name_data_dir_domains_by_their_ids(tmp_path, capsys):
    spec = write_config(tmp_path, BENCHMARK_INI.replace(
        "num_domains = 3", "num_domains = 2"), name="spec.ini")
    data_dir = tmp_path / "rooms"
    assert run_cli(capsys, ["generate", "--config", spec,
                            "--out", str(data_dir), "--quiet"])[0] == 0
    for old, new in (("D1", "kitchen"), ("D2", "office")):
        for split in ("train", "test"):
            (data_dir / f"{old}_{split}.rnafeat").rename(
                data_dir / f"{new}_{split}.rnafeat")
    config = write_config(
        tmp_path,
        MATRIX_INI.replace("pairs = D1->D2, D2->D1", "pairs = office->kitchen")
        .replace("seeds = 0, 1", "seeds = 0")
        .replace("iterations = 40", f"iterations = 5\ndata_dir = {data_dir}"))
    out_dir = tmp_path / "grid"
    code, _, err = run_cli(capsys, ["matrix", "--config", config,
                                    "--out", str(out_dir), "--quiet"])
    assert code == 0, err
    header = (out_dir / "results.csv").read_text(
        encoding="ascii").splitlines()[0]
    assert header == "method,office->kitchen,mean"
    bad = write_config(tmp_path, config_text(config).replace(
        "office->kitchen", "D1->D2"), name="bad.ini")
    code, _, err = run_cli(capsys, ["matrix", "--config", bad,
                                    "--out", str(tmp_path / "bad")])
    assert code == 2 and "D1" in err


def config_text(path):
    with open(path, encoding="ascii") as fh:
        return fh.read()


@pytest.mark.parametrize("setting, target", [("dg-multi", 0),
                                             ("dg-single", 2)])
def test_data_dir_widths_must_agree_across_files(tmp_path, capsys, setting,
                                                 target):
    # D1 and D2 at Dv = 6, D3 at Dv = 4
    data_dir, narrow = tmp_path / "data", tmp_path / "narrow"
    for out_dir, dim in ((data_dir, 6), (narrow, 4)):
        spec = write_config(tmp_path, BENCHMARK_INI.replace(
            "input_dim_visual = 6", f"input_dim_visual = {dim}"),
            name="spec.ini")
        assert run_cli(capsys, ["generate", "--config", spec,
                                "--out", str(out_dir), "--quiet"])[0] == 0
    for split in ("train", "test"):
        (narrow / f"D3_{split}.rnafeat").replace(
            data_dir / f"D3_{split}.rnafeat")
    config = write_config(
        tmp_path,
        TRAIN_INI.replace("setting = dg-single", f"setting = {setting}")
        .replace("target = 1", f"target = {target}")
        + f"data_dir = {data_dir}\n", name="files.ini")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, ["train", "--config", config,
                                    "--out", str(out_dir), "--quiet"])
    assert code == 2
    assert (f"{data_dir / 'D3_train.rnafeat'}: (Dv, Da) = (4, 5) differs "
            f"from (6, 5) in {data_dir / 'D1_train.rnafeat'}") in err
    assert not (out_dir / "checkpoint.rna").exists()


def test_train_on_non_ascii_feature_file_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_INI)
    data_dir = tmp_path / "data"
    assert run_cli(capsys, ["generate", "--config", config,
                            "--out", str(data_dir), "--quiet"])[0] == 0
    target = data_dir / "D2_train.rnafeat"
    blob = bytearray(target.read_bytes())
    at = blob.index(b"\n") + 3
    blob[at] = 0xFF
    target.write_bytes(bytes(blob))
    file_config = write_config(
        tmp_path, TRAIN_INI + f"data_dir = {data_dir}\n", name="files.ini")
    code, _, err = run_cli(capsys, ["train", "--config", file_config,
                                    "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"byte {at}" in err and "D2_train.rnafeat" in err


def test_non_ascii_telemetry_and_config_exit_2(tmp_path, capsys):
    telemetry = tmp_path / "telemetry.csv"
    telemetry.write_bytes(TELEMETRY_HEADER.encode() + b"\n0,1.0,\xe9\n")
    code, _, err = run_cli(capsys, ["norms", str(telemetry)])
    assert code == 2 and "byte" in err
    config = tmp_path / "latin.ini"
    config.write_bytes(TRAIN_INI.encode("ascii") + b"; caf\xe9\n")
    code, _, err = run_cli(capsys, ["train", "--config", str(config),
                                    "--out", str(tmp_path / "run")])
    assert code == 2 and f"byte {len(TRAIN_INI) + 5}" in err


# ---------------------------------------------------------------------------
# the accepted keys


def test_benchmark_section_accepts_exactly_the_spec_fields(tmp_path):
    names = [f.name for f in dataclasses.fields(BenchmarkSpec)]
    assert list(_SECTION_KEYS["benchmark"]) == names
    stock = BenchmarkSpec()
    path = write_config(tmp_path, "[benchmark]\n" + "".join(
        f"{name} = {getattr(stock, name)!r}\n" for name in names))
    assert parse_benchmark_spec(load_config_file(path), path) == stock


def test_readme_config_example_names_every_accepted_key(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (example,) = re.findall(r"```ini\n(.*?)```",
                            readme.read_text(encoding="utf-8"), re.S)
    named = {}
    for line in example.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            section = named.setdefault(header.group(1), set())
        elif re.match(r";?\s*\w+\s*=", line):
            # a key line, or a "; key = value" line naming an optional key
            section.add(re.match(r";?\s*(\w+)", line).group(1))
    assert named.keys() == _SECTION_KEYS.keys()
    for name, keys in _SECTION_KEYS.items():
        assert named[name] == set(keys), name
    # the sample loads: its values are the defaults, and its [matrix] parses
    path = tmp_path / "sample.ini"
    path.write_text(example, encoding="utf-8")
    parser = load_config_file(path)
    assert parse_experiment_config(parser, path) == ExperimentConfig()
    methods, seeds, pairs = parse_matrix_options(parser, "dg-single",
                                                 ["D1", "D2", "D3"], path)
    assert (methods, seeds, pairs) == (["source-only", "rna", "hna",
                                        "rna-mid"], [0, 1, 2, 3, 4],
                                       [(0, 1), (1, 0)])


# ---------------------------------------------------------------------------
# fuzzing the config reader

# a config error names a line, a byte, or the section the bad value is in
CONFIG_LOCATION = re.compile(
    r"line\W*\d+|byte \d+|\[(benchmark|experiment|matrix)\]|"
    r"unknown section \[")

# inserted text: raw bytes, or printable text that decodes and parses further
CHUNKS = st.one_of(st.binary(min_size=1, max_size=3),
                   st.text(string.printable, min_size=1,
                           max_size=3).map(str.encode))

VALID_CONFIG_BYTES = TRAIN_INI.encode("ascii")


def load_experiment(path):
    return parse_experiment_config(load_config_file(path), path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(min_value=0,
                          max_value=len(VALID_CONFIG_BYTES) - 1),
              CHUNKS),
    min_size=1, max_size=4))
def test_config_corruption_parses_or_is_a_located_parse_error(tmp_path,
                                                             edits):
    blob = bytearray(VALID_CONFIG_BYTES)
    for kind, at, chunk in edits:
        at = min(at, len(blob))
        if kind == "replace":
            blob[at:at + len(chunk)] = chunk
        elif kind == "insert":
            blob[at:at] = chunk
        else:
            del blob[at:at + len(chunk)]
    path = tmp_path / "fuzz.ini"
    path.write_bytes(bytes(blob))
    try:
        load_experiment(str(path))
    except ParseError as exc:
        assert CONFIG_LOCATION.search(str(exc)), exc


# (config-file key, ExperimentConfig or BenchmarkSpec field, values)
_FLOAT_KEYS = (
    ("experiment", "lambda", "lambda_weight", st.floats(0.0, 1e9)),
    ("experiment", "learning_rate", "learning_rate", st.floats(0.0, 1e9)),
    ("experiment", "momentum", "momentum",
     st.floats(0.0, 1.0, exclude_max=True)),
    ("experiment", "weight_decay", "weight_decay", st.floats(0.0, 1e9)),
    ("benchmark", "transform_strength", "transform_strength",
     st.floats(0.0, 1e9)),
    ("benchmark", "noise_sigma", "noise_sigma", st.floats(0.0, 1e9)),
    ("benchmark", "audio_norm_scale", "audio_norm_scale",
     st.floats(1e-300, 1e9)),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.tuples(*(values for *_, values in _FLOAT_KEYS)),
       seed=st.integers(0, 2 ** 63), iterations=st.integers(0, 10 ** 9))
def test_config_round_trip_is_bitwise(tmp_path, values, seed, iterations):
    sections = {"benchmark": [], "experiment": [f"seed = {seed}",
                                                f"iterations = {iterations}"]}
    for (section, key, _, _), value in zip(_FLOAT_KEYS, values):
        sections[section].append(f"{key} = {value!r}")
    path = tmp_path / "round.ini"
    path.write_text("".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                            for name, lines in sections.items()),
                    encoding="ascii")
    config = load_experiment(str(path))
    assert (config.seed, config.iterations) == (seed, iterations)
    for (section, _, field, _), value in zip(_FLOAT_KEYS, values):
        owner = config.benchmark if section == "benchmark" else config
        assert repr(getattr(owner, field)) == repr(value), field
