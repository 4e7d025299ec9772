"""Acceptance suite: the eight headline guarantees of the package.

Each test covers one guarantee, prints a single ``[Cn] PASS/FAIL`` summary
line (visible under ``pytest -s`` and in failure output), and enforces the
stated tolerance and runtime budget:

  C1  analytic gradients match finite differences (<1e-5, 100+ instances)
  C2  norm-geometry invariances hold to 1e-9 (100 instances each)
  C3  exact loss values on the hand-computable fixture
  C4  the ratio loss drives the norm ratio to 1 during training (5 seeds)
  C5  generalization margin over the source-only baseline (both DG matrices)
  C6  adaptation with unlabeled target data matches or beats DG training
  C7  ratio alignment beats hard-norm alignment; mid-fusion completes
  C8  label hygiene, lossless formats, byte-identical reruns, exit codes

The trend criteria (C5-C7) share one set of results matrices, built once per
module; each criterion charges the build time of the matrices it actually
uses against its own runtime budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from oracle import (dot_product_decomposition, finite_difference_grad,
                    relative_error, rna_loss_uda)

from rnalign.cli import main
from rnalign.config import apply_method
from rnalign.data import MultiModalBatch, load_feature_file, save_feature_file
from rnalign.losses import hna_loss, norm_stats, rna_loss
from rnalign.model import (ModelConfig, init_model, load_checkpoint,
                           model_backward, model_forward, save_checkpoint)
from rnalign.numerics import softmax_cross_entropy
from rnalign.training import (ExperimentConfig, default_pairs, run_experiment,
                              run_experiment_matrix)

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status}: {detail}")
    assert ok, f"{criterion} {status}: {detail}"


def random_instance(rng):
    """A paired feature instance within the N <= 8, D <= 16 envelope."""
    n = int(rng.integers(1, 9))
    dim_v = int(rng.integers(2, 17))
    dim_a = int(rng.integers(2, 17))
    return rng.normal(size=(n, dim_v)), rng.normal(size=(n, dim_a))


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# shared results matrices for the trend criteria


@pytest.fixture(scope="module")
def grids():
    """(setting, method) -> (MatrixResult, build seconds) for C5-C7."""
    base = ExperimentConfig()
    built = {}
    plan = (("dg-single", ("source-only", "rna", "hna", "rna-mid")),
            ("dg-multi", ("source-only", "rna", "hna", "rna-mid")),
            ("uda", ("rna",)))
    for setting, methods in plan:
        config = replace(base, setting=setting)
        pairs = default_pairs(setting, base.benchmark.num_domains)
        for method in methods:
            start = time.perf_counter()
            result = run_experiment_matrix(apply_method(config, method),
                                           pairs, SEEDS)
            built[(setting, method)] = (result, time.perf_counter() - start)
    return built


def grid_cost(grids, keys):
    return sum(grids[key][1] for key in keys)


# ---------------------------------------------------------------------------
# C1: gradient oracles


def test_c1_gradients_match_finite_differences():
    start = time.perf_counter()
    tol = 1e-5
    instances = 0
    worst = 0.0

    def check(analytic_v, analytic_a, value_fn, fv, fa):
        nonlocal instances, worst
        fd_v = finite_difference_grad(lambda t: value_fn(t, fa), fv.copy())
        fd_a = finite_difference_grad(lambda t: value_fn(fv, t), fa.copy())
        err = max(relative_error(analytic_v, fd_v),
                  relative_error(analytic_a, fd_a))
        worst = max(worst, err)
        instances += 1
        assert err < tol, err

    rng = np.random.default_rng(41)
    for _ in range(24):
        fv, fa = random_instance(rng)

        res = rna_loss(fv, fa)
        check(res.grad_visual, res.grad_audio,
              lambda v, a: rna_loss(v, a).value, fv, fa)

        tv, ta = random_instance(rng)
        s_term, t_term = rna_loss_uda(fv, fa, tv, ta)
        check(s_term.grad_visual, s_term.grad_audio,
              lambda v, a: rna_loss_uda(v, a, tv, ta)[0].value,
              fv, fa)
        check(t_term.grad_visual, t_term.grad_audio,
              lambda v, a: rna_loss_uda(fv, fa, v, a)[1].value,
              tv, ta)

        target_norm = float(rng.uniform(0.5, 5.0))
        res = hna_loss(fv, fa, target_norm)
        check(res.grad_visual, res.grad_audio,
              lambda v, a: hna_loss(v, a, target_norm).value, fv, fa)

    # cross-entropy w.r.t. the logits
    for seed in range(6):
        rng_ce = np.random.default_rng(100 + seed)
        logits = rng_ce.normal(size=(5, 4))
        labels = rng_ce.integers(0, 4, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        fd = finite_difference_grad(
            lambda t: softmax_cross_entropy(t, labels)[0], logits.copy())
        err = relative_error(grad, fd)
        worst = max(worst, err)
        instances += 1
        assert err < tol, err

    # the full two-stream model, all parameters, all four variants
    for seed, (fusion, batchnorm) in enumerate(
            (("late", False), ("mid", False),
             ("late", True), ("mid", True))):
        rng_m = np.random.default_rng(200 + seed)
        cfg = ModelConfig(input_dim_visual=4, input_dim_audio=3, hidden_dim=6,
                          feature_dim=5, num_classes=3, fusion_mode=fusion,
                          batchnorm=batchnorm)
        model = init_model(cfg, seed=seed)
        x_v = rng_m.normal(size=(4, 4))
        x_a = rng_m.normal(size=(4, 3))
        labels = rng_m.integers(0, 3, size=4)
        fused, cache = model_forward(model, x_v, x_a)
        _, grad_logits = softmax_cross_entropy(fused, labels)
        bundle = model_backward(cache, grad_logits)
        for name, p in model.parameters().items():

            def f(t, p=p):
                old = p.copy()
                p[...] = t
                out, _ = model_forward(model, x_v, x_a)
                value, _ = softmax_cross_entropy(out, labels)
                p[...] = old
                return value

            err = relative_error(bundle[name], finite_difference_grad(
                f, p.copy()))
            worst = max(worst, err)
            assert err < tol, (fusion, batchnorm, name, err)
        instances += 1

    elapsed = time.perf_counter() - start
    report("C1", instances >= 100 and worst < tol and elapsed < 10.0,
           f"{instances} instances, worst rel err {worst:.2e} (tol 1e-5), "
           f"{elapsed:.1f}s (budget 10s)")


# ---------------------------------------------------------------------------
# C2: norm-geometry invariances


def test_c2_norm_geometry_invariances():
    start = time.perf_counter()
    tol = 1e-9
    worst = 0.0
    rng = np.random.default_rng(42)

    for _ in range(100):
        fv, fa = random_instance(rng)
        q_v = random_orthogonal(rng, fv.shape[1])
        q_a = random_orthogonal(rng, fa.shape[1])
        target_norm = float(rng.uniform(0.5, 5.0))
        worst = max(worst, abs(rna_loss(fv @ q_v, fa @ q_a).value
                               - rna_loss(fv, fa).value))
        worst = max(worst,
                    abs(hna_loss(fv @ q_v, fa @ q_a, target_norm).value
                        - hna_loss(fv, fa, target_norm).value))

        v = rng.normal(size=int(rng.integers(1, 17)))
        a = rng.normal(size=v.shape)
        parts = dot_product_decomposition(v, a)
        worst = max(worst, abs(parts.dot - parts.norm_v * parts.norm_a
                               * parts.cos_theta))

    elapsed = time.perf_counter() - start
    report("C2", worst < tol and elapsed < 5.0,
           f"100 instances x 3 identities, worst deviation {worst:.2e} "
           f"(tol 1e-9), {elapsed:.1f}s (budget 5s)")


# ---------------------------------------------------------------------------
# C3: exact values on the hand-computable fixture


def test_c3_exact_fixture_values():
    visual = [[3.0, 4.0], [0.0, 5.0]]   # row norms 5, 5 -> mean 5
    audio = [[1.0, 0.0], [0.0, 2.0]]    # row norms 1, 2 -> mean 1.5
    stats = norm_stats(visual, audio)
    value = rna_loss(visual, audio).value

    same = [[3.0, 4.0], [0.0, 5.0]]
    stats_same = norm_stats(same, same)
    value_same = rna_loss(same, same).value

    ok = (stats.delta == 3.5
          and stats.rho == pytest.approx(10.0 / 3.0, rel=1e-12)
          and value == pytest.approx(49.0 / 9.0, rel=1e-12)
          and stats_same.delta == 0.0
          and value_same == 0.0)
    report("C3", ok,
           f"delta={stats.delta} rho={stats.rho:.12f} loss={value:.12f} "
           f"(expected 3.5, 10/3, 49/9); identical batches: "
           f"delta={stats_same.delta} loss={value_same}")


# ---------------------------------------------------------------------------
# C4: the ratio loss drives the norm ratio toward 1 during training


def test_c4_norm_ratio_convergence():
    start = time.perf_counter()
    config = ExperimentConfig()  # dg-single, aux=rna, 2000 iterations
    per_seed = []
    for seed in SEEDS:
        _, telemetry = run_experiment(replace(config, seed=seed))
        gaps = np.array([abs(rec.rho - 1.0) for rec in telemetry.iterations])
        decile = len(gaps) // 10
        first = float(np.mean(gaps[:decile]))
        last = float(np.mean(gaps[-decile:]))
        per_seed.append((first, last))
    elapsed = time.perf_counter() - start

    ok = (all(last < first for first, last in per_seed)
          and all(last < 0.1 for _, last in per_seed)
          and elapsed < 300.0)
    summary = ", ".join(f"{first:.3f}->{last:.3f}" for first, last in per_seed)
    report("C4", ok,
           f"|rho-1| first->last decile per seed: {summary} "
           f"(need last < first and < 0.1), {elapsed:.0f}s (budget 300s)")


# ---------------------------------------------------------------------------
# C5: DG margin over the source-only baseline


def test_c5_dg_margin_over_source_only(grids):
    margins = {}
    for setting in ("dg-single", "dg-multi"):
        baseline = grids[(setting, "source-only")][0].mean
        aligned = grids[(setting, "rna")][0].mean
        margins[setting] = 100.0 * (aligned - baseline)
    cost = grid_cost(grids, [(s, m) for s in ("dg-single", "dg-multi")
                             for m in ("source-only", "rna")])
    ok = all(margin >= 2.0 for margin in margins.values()) and cost < 1800.0
    report("C5", ok,
           f"margin over source-only: single {margins['dg-single']:+.2f}pts, "
           f"multi {margins['dg-multi']:+.2f}pts (need >= +2.0 each), "
           f"5 seeds, {cost:.0f}s (budget 1800s)")


# ---------------------------------------------------------------------------
# C6: adaptation with unlabeled target data matches or beats DG training


def test_c6_uda_matches_or_beats_dg(grids):
    uda = grids[("uda", "rna")][0].mean
    dg = grids[("dg-single", "rna")][0].mean
    margin = 100.0 * (uda - dg)
    cost = grid_cost(grids, [("uda", "rna"), ("dg-single", "rna")])
    ok = margin >= 0.0 and cost < 1800.0
    report("C6", ok,
           f"uda {uda:.4f} vs dg {dg:.4f} over 6 pairs x 5 seeds: "
           f"{margin:+.2f}pts (need >= 0), {cost:.0f}s (budget 1800s)")


# ---------------------------------------------------------------------------
# C7: ratio alignment vs hard-norm alignment; mid-fusion completes


def test_c7_ablation_ordering(grids):
    margins = {}
    for setting in ("dg-single", "dg-multi"):
        rna = grids[(setting, "rna")][0].mean
        hna = grids[(setting, "hna")][0].mean
        margins[setting] = 100.0 * (rna - hna)
    mid = {setting: grids[(setting, "rna-mid")][0]
           for setting in ("dg-single", "dg-multi")}
    completes = all(not result.failures and np.isfinite(result.mean)
                    and 0.0 <= result.mean <= 1.0
                    for result in (entry for entry in mid.values()))
    clean = all(not grids[key][0].failures for key in grids)
    ok = all(margin >= 0.0 for margin in margins.values()) and completes \
        and clean
    report("C7", ok,
           f"ratio vs hard-norm: single {margins['dg-single']:+.2f}pts, "
           f"multi {margins['dg-multi']:+.2f}pts (need >= 0); mid-fusion "
           f"means {mid['dg-single'].mean:.4f}/{mid['dg-multi'].mean:.4f}, "
           f"no failed runs anywhere")


# ---------------------------------------------------------------------------
# C8: contracts and formats, end to end


C8_INI = """\
[benchmark]
num_domains = 3
num_classes = 3
input_dim_visual = 6
input_dim_audio = 5
samples_per_class = 8
seed = 5

[experiment]
setting = uda
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


def _run_artifacts(out_dir):
    return ((out_dir / "checkpoint.rna").read_bytes(),
            (out_dir / "telemetry.csv").read_bytes())


def test_c8_contract_and_format_checks(tmp_path, capsys):
    checks = []

    # target-label hygiene: permuting the (unlabeled-at-training) target
    # domain's training labels changes nothing, bitwise
    config_path = tmp_path / "config.ini"
    data_dir = tmp_path / "data"
    config_path.write_text(C8_INI, encoding="ascii")
    assert main(["generate", "--config", str(config_path),
                 "--out", str(data_dir), "--quiet"]) == 0
    uda_ini = C8_INI + f"data_dir = {data_dir}\n"
    uda_path = tmp_path / "uda.ini"
    uda_path.write_text(uda_ini, encoding="ascii")
    assert main(["train", "--config", str(uda_path),
                 "--out", str(tmp_path / "clean"), "--quiet"]) == 0
    target_file = data_dir / "D2_train.rnafeat"
    batch = load_feature_file(target_file)
    corrupted = MultiModalBatch(batch.visual, batch.audio,
                                (batch.labels + 1) % 3)
    save_feature_file(corrupted, target_file)
    assert main(["train", "--config", str(uda_path),
                 "--out", str(tmp_path / "corrupted"), "--quiet"]) == 0
    checks.append(("target-label hygiene",
                   _run_artifacts(tmp_path / "clean")
                   == _run_artifacts(tmp_path / "corrupted")))

    # feature-file round-trip is lossless, including awkward exact values
    rng = np.random.default_rng(3)
    visual = rng.normal(size=(6, 4))
    visual[0, 0], visual[1, 1], visual[2, 2] = 1e-300, 2.0 ** 52, 1e16 + 1
    original = MultiModalBatch(visual, rng.normal(size=(6, 3)),
                               rng.integers(0, 4, size=6))
    round_trip_path = tmp_path / "round.rnafeat"
    save_feature_file(original, round_trip_path)
    loaded = load_feature_file(round_trip_path)
    checks.append(("feature round-trip",
                   np.array_equal(original.visual, loaded.visual)
                   and np.array_equal(original.audio, loaded.audio)
                   and np.array_equal(original.labels, loaded.labels)))

    # checkpoint round-trip is lossless and re-saving is byte-identical
    model = init_model(ModelConfig(input_dim_visual=4, input_dim_audio=3,
                                   hidden_dim=6, feature_dim=5, num_classes=3,
                                   fusion_mode="mid", batchnorm=True), seed=9)
    first_path, second_path = tmp_path / "m1.rna", tmp_path / "m2.rna"
    save_checkpoint(model, first_path)
    reloaded = load_checkpoint(first_path)
    save_checkpoint(reloaded, second_path)
    params_equal = all(np.array_equal(p, reloaded.parameters()[name])
                       for name, p in model.parameters().items())
    checks.append(("checkpoint round-trip",
                   params_equal
                   and first_path.read_bytes() == second_path.read_bytes()))

    # fixed-seed reruns are byte-identical, generate and train alike
    for name in ("r1", "r2"):
        assert main(["generate", "--config", str(config_path),
                     "--out", str(tmp_path / name), "--quiet"]) == 0
        assert main(["train", "--config", str(uda_path),
                     "--out", str(tmp_path / f"t_{name}"), "--quiet"]) == 0
    rerun_ok = all(
        (tmp_path / "r1" / f"{stem}.rnafeat").read_bytes()
        == (tmp_path / "r2" / f"{stem}.rnafeat").read_bytes()
        for stem in ("D1_train", "D1_test", "D2_train",
                     "D2_test", "D3_train", "D3_test"))
    checks.append(("seeded reruns byte-identical",
                   rerun_ok and _run_artifacts(tmp_path / "t_r1")
                   == _run_artifacts(tmp_path / "t_r2")))

    # exit codes: 0 success (above), 1 numerical failure, 2 config failure
    diverging = tmp_path / "diverging.ini"
    diverging.write_text(C8_INI + "learning_rate = 1e12\nmomentum = 0\n",
                         encoding="ascii")
    code_one = main(["train", "--config", str(diverging),
                     "--out", str(tmp_path / "boom"), "--quiet"])
    broken = tmp_path / "broken.ini"
    broken.write_text("[benchmark]\nnum_domains = 1\n", encoding="ascii")
    code_two = main(["generate", "--config", str(broken),
                     "--out", str(tmp_path / "nope"), "--quiet"])
    checks.append(("exit codes 0/1/2", code_one == 1 and code_two == 2))

    capsys.readouterr()  # swallow CLI chatter so the verdict line stands alone
    failed = [name for name, ok in checks if not ok]
    report("C8", not failed,
           "all contract checks hold: " + ", ".join(name for name, _ in checks)
           if not failed else f"failed: {', '.join(failed)}")
