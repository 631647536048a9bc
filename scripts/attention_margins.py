"""Criterion 8's attention ablation at config seeds 0-7, as a table.

Each seed runs ``ablate_attention`` with criterion 8's settings (32 px,
16 x 8 latent tokens, ``face_grid(8, seed=11)``, sampling seeds 0-24, the
default 1200 + 2000 training steps) and prints the margin
``mean_ffc_id - mean_ffc_base``, z = margin / ``paired_se`` and
``id_wins``, the (face, seed) pairs of 200 where the identity arm's FFC is
the larger, and each arm's identification rate: the share of its 200
samples whose own face is the nearest of the 8 by attribute distance
(chance is 12.5%). The last line counts the seeds where the direction
criterion 8 asserts at seed 3 (margin >= 0) holds. The output is a pure
function of the source tree; each seed takes about 1.6 s on one core.

    python scripts/attention_margins.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from craftfaces.facegen import face_grid  # noqa: E402
from craftfaces.pipeline import PipelineConfig, ablate_attention  # noqa: E402

CONFIG_SEEDS = range(8)


def main() -> None:
    faces = face_grid(8, seed=11)
    print("| seed | margin | z | id_wins | ID identified | BASE identified |")
    print("|---|---|---|---|---|---|")
    held = 0
    for seed in CONFIG_SEEDS:
        cfg = PipelineConfig(seed=seed, image_size=32, latent_tokens=16, token_dim=8)
        e = ablate_attention(faces, cfg, seeds=range(25)).extras
        margin = e["mean_ffc_id"] - e["mean_ffc_base"]
        held += margin >= 0.0
        print(f"| {seed} | {margin:+.3e} | {margin / e['paired_se']:+.2f} | {e['id_wins']} "
              f"| {e['ident_rate_id']:.1%} | {e['ident_rate_base']:.1%} |")
    print(f"direction holds on {held} of {len(CONFIG_SEEDS)} seeds")


if __name__ == "__main__":
    main()
