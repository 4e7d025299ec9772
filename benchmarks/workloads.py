"""The benchmark's workloads.

Each workload is built from the package modules ``rn`` (a namespace holding
``data``, ``model``, ``training``, ``config``, ``cli`` ...), a private work
directory and a workload seed, from which it derives every pair, run seed and
benchmark seed it uses.  Construction is the set-up the benchmark times.

    op(i)              calls into the package for op ``i``; the caller times it
    check(i, result)   verifies the op's outputs without timing them and
                       returns an Outcome
    reference(i)       untimed source-only twin runs of quality op ``i``, for
                       the RNA margin

The first ``quality_ops`` ops are the quality set: the accuracy, norm-gap
and margin metrics are computed over them alone.  Their inputs come from
REFERENCE_SEED, not from the workload seed, so these metrics repeat exactly on
every run of the same code; a change to the numerics moves them.  (Across
seeds, a 6-run RNA margin spreads by about a quarter of its value, more than
any bound could absorb.)  Ops after the quality set take their inputs from
the workload seed.  Ops run in groups of ``granule``; the timed window only
ends between groups.
"""

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace

import numpy as np

RNA_METHODS = ("rna", "rna-mid")
REFERENCE_SEED = 0


@dataclass
class Outcome:
    """What one op did and whether its outputs were right."""
    iterations: int = 0
    failures: list = field(default_factory=list)
    digest: dict = field(default_factory=dict)
    # one dict per training run: method, acc, rho_gap, reference
    runs: list = field(default_factory=list)
    feature_file_bytes: int = 0
    checkpoint_bytes: int = 0


def rho_gap(telemetry):
    """Mean |rho - 1| over the last tenth of the run's iterations (the C4
    statistic: the ratio loss should have pulled rho to 1 by then)."""
    records = telemetry.iterations
    tail = records[-max(1, len(records) // 10):]
    return float(np.mean([abs(r.rho - 1.0) for r in tail]))


def row_repr(record):
    return [record.iteration] + [repr(float(getattr(record, k))) for k in (
        "mean_norm_v", "mean_norm_a", "delta", "rho", "ce_loss", "aux_loss")]


def check_telemetry(telemetry, iterations, failures, where):
    """The run logged one row per iteration and its last row is
    self-consistent: rho is exactly mean_v / mean_a."""
    if len(telemetry.iterations) != iterations:
        failures.append(f"{where}: {len(telemetry.iterations)} telemetry "
                        f"rows for {iterations} iterations")
        return
    last = telemetry.iterations[-1]
    if not last.rho == last.mean_norm_v / last.mean_norm_a:
        failures.append(f"{where}: last row rho {last.rho!r} != "
                        f"mean_v/mean_a")


def check_accuracy(value, failures, where):
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        failures.append(f"{where}: accuracy {value!r} not in [0, 1]")


def params_sha256(model):
    """sha256 of the parameter bytes in checkpoint order and encoding."""
    digest = hashlib.sha256()
    for array in model.parameters().values():
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(rn, argv):
    """``rnalign <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = rn.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def write_ini(path, sections):
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TrainDg:
    """Back-to-back stock dg-single runs (aux rna, late fusion, 2000
    iterations, batch 32), rotating the source/target pair and the seed."""

    name = "train-dg"
    granule = 1

    def __init__(self, rn, work, seed):
        self.rn = rn
        self.base = rn.training.ExperimentConfig()
        domains = rn.data.generate_benchmark(self.base.benchmark)
        self.pairs = rn.training.default_pairs("dg-single", len(domains))
        # the quality set is one full rotation of the pairs
        self.quality_ops = len(self.pairs)
        self.plans = [self._plan(REFERENCE_SEED), self._plan(seed)]

    def _plan(self, seed):
        rng = np.random.default_rng([seed, 0])
        return {"pairs": [list(self.pairs[k])
                          for k in rng.permutation(len(self.pairs))],
                "run_seed_base": int(rng.integers(0, 2 ** 30))}

    def seeds(self):
        return {"quality": self.plans[0], "timed": self.plans[1]}

    def config(self, i):
        plan = self.plans[i >= self.quality_ops]
        s, t = plan["pairs"][i % len(self.pairs)]
        return replace(self.base, source_index=s, target_index=t,
                       seed=plan["run_seed_base"] + i)

    def op(self, i):
        return self.rn.training.run_experiment(self.config(i))

    def check(self, i, result):
        model, telemetry = result
        config = self.config(i)
        out = Outcome(iterations=config.iterations)
        for rec in telemetry.evals:
            check_accuracy(rec.accuracy, out.failures, f"{rec.mode} eval")
        check_telemetry(telemetry, config.iterations, out.failures, "run")
        acc = self.rn.training.headline_accuracy(telemetry)
        out.runs.append({"method": "rna", "acc": acc,
                         "rho_gap": rho_gap(telemetry), "reference": False})
        out.digest = {"acc": repr(acc),
                      "last_row": row_repr(telemetry.iterations[-1]),
                      "params_sha256": params_sha256(model)}
        return out

    def reference(self, i):
        config = self.rn.config.apply_method(self.config(i), "source-only")
        _, telemetry = self.rn.training.run_experiment(config)
        return self.rn.training.headline_accuracy(telemetry)


class Matrix:
    """``rnalign matrix`` through ``cli.main``: five methods on one pair
    and seed per invocation.  The setting rotates dg-single -> dg-multi ->
    uda, so ops run in whole rotations of three."""

    name = "matrix"
    METHODS = ("source-only", "rna", "hna", "rna-mid", "batchnorm")
    SETTINGS = ("dg-single", "dg-multi", "uda")
    ITERATIONS = 300
    granule = len(SETTINGS)
    # pairs drawn per setting; rotation r runs pair r mod ROTATIONS, so the
    # quality set covers every dg-multi target
    ROTATIONS = 3
    quality_ops = ROTATIONS * len(SETTINGS)

    def __init__(self, rn, work, seed):
        self.rn = rn
        self.work = work
        self.num_domains = len(rn.data.generate_benchmark(
            rn.data.BenchmarkSpec()))
        self.plans = [self._plan(REFERENCE_SEED, 0), self._plan(seed, 1)]
        # run_experiment_matrix calls run_experiment once per cell; this
        # records each cell's telemetry, which results.csv does not keep
        self.cells = []
        original = rn.training.run_experiment

        def observed(config):
            model, telemetry = original(config)
            self.cells.append((config, model, telemetry))
            return model, telemetry
        rn.training.run_experiment = observed

    def _plan(self, seed, index):
        """ROTATIONS pairs per setting and the run seed base; writes one INI
        per setting and pair."""
        rng = np.random.default_rng([seed, 1])
        plan = {"pairs": {}, "ini": {}}
        for setting in self.SETTINGS:
            grid = self.rn.training.default_pairs(setting, self.num_domains)
            pairs = [grid[k] for k in rng.permutation(len(grid))]
            plan["pairs"][setting] = [list(p) for p in
                                      pairs[:self.ROTATIONS]]
            plan["ini"][setting] = []
            for k, pair in enumerate(pairs[:self.ROTATIONS]):
                token = (f"D{pair[0] + 1}" if setting == "dg-multi"
                         else f"D{pair[0] + 1}->D{pair[1] + 1}")
                path = self.work / f"{setting}-{index}-{k}.ini"
                write_ini(path, {
                    "experiment": {"setting": setting,
                                   "iterations": self.ITERATIONS},
                    "matrix": {"methods": ", ".join(self.METHODS),
                               "seeds": "0", "pairs": token}})
                plan["ini"][setting].append(path)
        plan["run_seed_base"] = int(rng.integers(0, 2 ** 30))
        return plan

    def seeds(self):
        return {key: {"pairs": plan["pairs"],
                      "run_seed_base": plan["run_seed_base"]}
                for key, plan in zip(("quality", "timed"), self.plans)}

    def op(self, i):
        self.cells.clear()
        plan = self.plans[i >= self.quality_ops]
        rotation = i // self.granule
        setting = self.SETTINGS[i % self.granule]
        out_dir = self.work / f"out-{setting}"
        code, stdout, _ = run_cli(self.rn, [
            "matrix", "--config",
            plan["ini"][setting][rotation % self.ROTATIONS],
            "--out", out_dir, "--seed", plan["run_seed_base"] + rotation,
            "--quiet"])
        return code, stdout, out_dir / "results.csv", list(self.cells)

    def check(self, i, result):
        code, stdout, results_path, cells = result
        out = Outcome()
        if code != 0:
            out.failures.append(f"matrix exit code {code}")
            return out
        printed = {}
        for line in stdout.splitlines():
            method, _, value = line.partition(" mean=")
            printed[method] = float(value)
        _, rows = self.rn.training.read_results_csv(results_path)
        if list(rows) != list(self.METHODS) or printed != {
                m: row[-1] for m, row in rows.items()}:
            out.failures.append("results.csv disagrees with printed means")
        if len(cells) != len(self.METHODS):
            out.failures.append(f"{len(cells)} cells run")
            return out
        for method, (config, model, telemetry) in zip(self.METHODS, cells):
            where = f"{method} cell"
            acc = self.rn.training.headline_accuracy(telemetry)
            for rec in telemetry.evals:
                check_accuracy(rec.accuracy, out.failures, where)
            if acc != rows[method][0]:
                out.failures.append(f"{where}: results.csv cell != run")
            check_telemetry(telemetry, config.iterations, out.failures,
                            where)
            out.iterations += config.iterations
            out.runs.append({"method": method, "acc": acc,
                             "rho_gap": rho_gap(telemetry)
                             if method in RNA_METHODS else None,
                             "reference": False})
        out.digest = {"means": {m: repr(v) for m, v in printed.items()},
                      "last_row": row_repr(cells[-1][2].iterations[-1]),
                      "results_sha256": file_sha256(results_path)}
        return out

    def reference(self, i):
        return None


class CliIo:
    """One file-based cycle per op: ``rnalign generate`` with a fresh
    benchmark seed, ``rnalign train`` (uda, aux rna, 200 iterations) on
    those files, ``rnalign norms`` on a feature file and on the telemetry
    CSV, then a checkpoint load/save round trip."""

    name = "cli-io"
    granule = 1
    quality_ops = 4
    ITERATIONS = 200

    def __init__(self, rn, work, seed):
        self.rn = rn
        self.work = work
        self.data_dir = work / "data"
        self.run_dir = work / "run"
        self.spec_ini = work / "spec.ini"
        write_ini(self.spec_ini, {"benchmark": {}})
        self.num_domains = rn.data.BenchmarkSpec().num_domains
        self.plans = [self._plan(REFERENCE_SEED, 0), self._plan(seed, 1)]

    def _plan(self, seed, index):
        """Source/target pair and seed bases; writes the train INI."""
        rng = np.random.default_rng([seed, 2])
        source, target = (int(k) for k in
                          rng.choice(self.num_domains, 2, replace=False))
        train_ini = self.work / f"train-{index}.ini"
        write_ini(train_ini, {"experiment": {
            "setting": "uda", "aux_loss": "rna",
            "iterations": self.ITERATIONS, "source": source,
            "target": target, "data_dir": self.data_dir}})
        return {"pair": [source, target], "train_ini": train_ini,
                "bench_seed_base": int(rng.integers(0, 2 ** 30)),
                "run_seed_base": int(rng.integers(0, 2 ** 30))}

    def seeds(self):
        return {key: {k: v for k, v in plan.items() if k != "train_ini"}
                for key, plan in zip(("quality", "timed"), self.plans)}

    def plan(self, i):
        return self.plans[i >= self.quality_ops]

    def op(self, i):
        plan = self.plan(i)
        steps = [
            ["generate", "--config", self.spec_ini, "--out", self.data_dir,
             "--seed", plan["bench_seed_base"] + i, "--quiet"],
            ["train", "--config", plan["train_ini"], "--out", self.run_dir,
             "--seed", plan["run_seed_base"] + i, "--quiet"],
            ["norms", self.data_dir / "D1_train.rnafeat", "--quiet"],
            ["norms", self.run_dir / "telemetry.csv", "--quiet"],
        ]
        results = []
        for argv in steps:
            results.append(run_cli(self.rn, argv))
            if results[-1][0] != 0:
                return results
        model = self.rn.model.load_checkpoint(self.run_dir / "checkpoint.rna")
        self.rn.model.save_checkpoint(model, self.run_dir / "resaved.rna")
        return results

    def check(self, i, result):
        rn = self.rn
        out = Outcome()
        codes = [code for code, _, _ in result]
        if codes != [0, 0, 0, 0]:
            out.failures.append(f"exit codes {codes}")
            return out
        spec = rn.data.BenchmarkSpec(seed=self.plan(i)["bench_seed_base"] + i)
        for domain in rn.data.generate_benchmark(spec):
            for split, batch in (("train", domain.train),
                                 ("test", domain.test)):
                path = self.data_dir / f"{domain.domain_id}_{split}.rnafeat"
                out.feature_file_bytes += path.stat().st_size
                loaded = rn.data.load_feature_file(path)
                if (loaded.visual.tobytes() != batch.visual.tobytes()
                        or loaded.audio.tobytes() != batch.audio.tobytes()
                        or loaded.labels.tobytes() != batch.labels.tobytes()):
                    out.failures.append(f"{path.name} differs from "
                                        f"generate_benchmark")
        checkpoint = self.run_dir / "checkpoint.rna"
        resaved = self.run_dir / "resaved.rna"
        out.checkpoint_bytes = (checkpoint.stat().st_size
                                + resaved.stat().st_size)
        if checkpoint.read_bytes() != resaved.read_bytes():
            out.failures.append("checkpoint does not re-save byte-identical")
        acc = float(result[1][1].rsplit("acc=", 1)[1])
        check_accuracy(acc, out.failures, "train")
        telemetry = rn.training.NormTelemetry.from_csv(
            self.run_dir / "telemetry.csv")
        check_telemetry(telemetry, self.ITERATIONS, out.failures,
                        "telemetry.csv")
        out.iterations = self.ITERATIONS
        out.runs.append({"method": "rna", "acc": acc,
                         "rho_gap": rho_gap(telemetry), "reference": False})
        out.digest = {"acc": repr(acc),
                      "last_row": row_repr(telemetry.iterations[-1]),
                      "checkpoint_sha256": file_sha256(checkpoint)}
        return out

    def reference(self, i):
        # the twin reads the op's files, so it runs before the next op
        # overwrites them
        plan = self.plan(i)
        parser = self.rn.config.load_config_file(plan["train_ini"])
        config = self.rn.config.parse_experiment_config(parser,
                                                        plan["train_ini"])
        config = replace(self.rn.config.apply_method(config, "source-only"),
                         seed=plan["run_seed_base"] + i)
        _, telemetry = self.rn.training.run_experiment(config)
        return self.rn.training.headline_accuracy(telemetry)


WORKLOADS = {w.name: w for w in (TrainDg, Matrix, CliIo)}
