"""Train the checkpoint that the eval-full workload evaluates.

Usage: python3 bench/make_checkpoint.py OUT.ckpt

Full preset, scatter variant, 4 classes, 24 optimizer steps at batch 4 on a
fixed synthetic dataset. 24 steps move every batchnorm running statistic
well away from its initial value and give a non-trivial challenge score;
an untrained checkpoint saturates (bce ~147), and with 24 classes the score
is still 0 after 48 steps. The dataset and seed are fixed, so each checkout
trains the same checkpoint with its own code.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from scatternet import pipeline, trainer  # noqa: E402


def main(out: str) -> int:
    recs = pipeline.make_synthetic_dataset(40, 4, np.random.default_rng(20201015))
    cfg = trainer.TrainConfig(variant="scatter", preset="full", batch_size=4, seed=0,
                              max_epochs=100, max_steps=24, out=out + ".tmp")
    ckpt = trainer.train(cfg, dataset=(recs, pipeline.synthetic_weight_matrix(4)))
    moved = [np.max(np.abs(arr - (1.0 if key.endswith("running_var") else 0.0)))
             for key, arr in ckpt.arrays.items() if key.startswith("buffer:")]
    if min(moved) < 1e-3:
        print("batchnorm running statistics did not move", file=sys.stderr)
        return 1
    os.replace(out + ".tmp", out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
