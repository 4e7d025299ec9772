"""Walk through the norm-alignment loss family on small hand-sized batches.

Shows the exactly-computable fixture, the geometric invariances, and why the
ratio-based penalty stays stable where the hard-norm penalty does not: its
gradient shrinks as the feature norms grow.

Run:  python3 demos/loss_geometry.py
"""

import numpy as np

from rnalign.losses import cosine_alignment_loss, hna_loss, norm_stats, rna_loss


def main():
    visual = np.array([[3.0, 4.0], [0.0, 5.0]])   # row norms 5, 5
    audio = np.array([[1.0, 0.0], [0.0, 2.0]])    # row norms 1, 2

    stats = norm_stats(visual, audio)
    print("hand-computable fixture")
    print(f"  mean visual norm : {stats.mean_norm_visual}")
    print(f"  mean audio norm  : {stats.mean_norm_audio}")
    print(f"  delta (v - a)    : {stats.delta}")
    print(f"  rho   (v / a)    : {stats.rho}   (= 10/3)")
    print(f"  ratio loss       : {rna_loss(visual, audio).value}   (= 49/9)")

    rng = np.random.default_rng(0)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)))
    rotated = visual @ (q * np.sign(np.diag(r)))
    print("\nrotating a modality changes nothing (norms are preserved):")
    print(f"  loss after rotation: {rna_loss(rotated, audio).value}")

    print("\nscaling both modalities together changes nothing either:")
    doubled = rna_loss(2.0 * visual, 2.0 * audio)
    print(f"  loss at 2x scale   : {doubled.value}")

    print("\nthe angle penalties react to direction, not scale:")
    aligned = np.array([[1.0, 0.0], [0.0, 1.0]])
    print(f"  cosine-align, parallel rows : "
          f"{cosine_alignment_loss(visual, visual).value:.6f}")
    print(f"  cosine-align, mixed rows    : "
          f"{cosine_alignment_loss(visual, aligned).value:.6f}")

    print("\ngradient size as the feature scale grows (the stability story):")
    print(f"  {'scale':>8} {'ratio-loss grad':>16} {'hard-norm grad':>16}")
    for scale in (1.0, 10.0, 100.0):
        fv = scale * visual
        fa = scale * audio
        ratio = rna_loss(fv, fa)
        hard = hna_loss(fv, fa, target_norm=scale * 3.25)
        grad_ratio = np.max(np.abs(ratio.grad_audio))
        grad_hard = np.max(np.abs(hard.grad_audio))
        print(f"  {scale:8.0f} {grad_ratio:16.6f} {grad_hard:16.6f}")
    print("the ratio loss self-attenuates (~1/scale); the hard-norm penalty")
    print("does not, which is what destabilizes it on high-norm streams.")


if __name__ == "__main__":
    main()
