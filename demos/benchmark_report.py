"""Generate the synthetic multimodal benchmark and report its norm geometry.

The generator builds several domains of paired visual/audio features that
share class structure but differ by domain-specific rotations and noise; the
audio stream carries a deliberately larger feature norm.  The report below
shows exactly the imbalance the ratio loss is meant to repair.

Run:  python3 demos/benchmark_report.py
"""

from rnalign.data import BenchmarkSpec, generate_benchmark, split_domains
from rnalign.losses import norm_stats

SPEC = BenchmarkSpec(num_domains=3, num_classes=8, samples_per_class=50,
                     seed=7)


def main():
    domains = generate_benchmark(SPEC)
    print(f"{len(domains)} domains, {SPEC.num_classes} classes, "
          f"visual dim {SPEC.input_dim_visual}, audio dim "
          f"{SPEC.input_dim_audio}, audio norms scaled x{SPEC.audio_norm_scale}")

    print(f"\n{'domain':>8} {'split':>6} {'n':>5} {'mean |v|':>10} "
          f"{'mean |a|':>10} {'delta':>9} {'rho':>7}")
    for domain in domains:
        for split_name, split in (("train", domain.train),
                                  ("test", domain.test)):
            stats = norm_stats(split.visual, split.audio)
            print(f"{domain.domain_id:>8} {split_name:>6} {split.n:>5} "
                  f"{stats.mean_norm_visual:10.3f} "
                  f"{stats.mean_norm_audio:10.3f} "
                  f"{stats.delta:9.3f} {stats.rho:7.4f}")

    pool, _, target_test = split_domains(domains, "dg-multi", None, 2)
    sources = ", ".join(d.domain_id for d in domains[:2])
    print("\na generalization split holds one domain out entirely:")
    print(f"  sources: {sources} ({pool.n} pooled training samples)  ->  "
          f"target: {domains[2].domain_id} "
          f"({target_test.n} evaluation samples)")


if __name__ == "__main__":
    main()
