"""Trained models the workloads serve, cached once per checkout.

Training is not part of what the benchmark times, and it is the slowest
step of a run, so each model is trained once — in a child process, so
the training peak does not count in the serving process's peak RSS —
and saved with :func:`repro.core.checkpoint.save_system` under
``.perfbench_cache/`` at the checkout root.  The cache key hashes the
training recipe and the sources of the packages training runs through,
so a change to them retrains.

Weights use a fixed training seed per model: the benchmark seed picks
the evaluation frames, their order, the held-out τ slice and the link
seeds, so ``accuracy`` varies with the seed only by sampling and stays a
tight guard metric.

Run directly to train one model::

    python3 perfbench/models.py --train lenet-mnist --out model.npz
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CACHE_DIR = ROOT / ".perfbench_cache"

#: name → training recipe (fixed seeds; see the module doc).
RECIPES = {
    "lenet-mnist": {
        "network": "lenet", "dataset": "mnist", "train": 600, "calib": 300,
        "epochs": 4, "lr_main": 2e-3, "seed": 0,
    },
    "alexnet-cifar10": {
        "network": "alexnet", "dataset": "cifar10", "train": 800, "calib": 300,
        "epochs": 4, "lr_main": 2e-3, "seed": 0,
    },
}

#: Packages whose code decides the trained weights.
_TRAINING_SOURCES = ("nn", "core", "data")

TRAIN_TIMEOUT_S = 600


def _cache_path(name: str) -> Path:
    digest = hashlib.sha256(json.dumps(RECIPES[name], sort_keys=True).encode())
    for package in _TRAINING_SOURCES:
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return CACHE_DIR / f"{name}-{digest.hexdigest()[:16]}.npz"


def train(name: str, out: Path) -> None:
    from repro.core import LCRS, JointTrainingConfig
    from repro.core.checkpoint import save_system
    from repro.data import make_dataset

    recipe = RECIPES[name]
    train_set, calib_set = make_dataset(
        recipe["dataset"], recipe["train"], recipe["calib"], seed=recipe["seed"]
    )
    system = LCRS.build(
        recipe["network"],
        train_set,
        training_config=JointTrainingConfig(
            epochs=recipe["epochs"], batch_size=64,
            lr_main=recipe["lr_main"], seed=recipe["seed"],
        ),
        dataset_name=recipe["dataset"],
        seed=recipe["seed"],
    )
    system.fit(train_set)
    system.calibrate(calib_set)
    save_system(system, out)


def load_model(name: str):
    """The trained system for ``name``, training it first on a cache miss."""
    from repro.core.checkpoint import load_system

    path = _cache_path(name)
    if not path.exists():
        CACHE_DIR.mkdir(exist_ok=True)
        tmp = path.with_name(path.stem + ".partial.npz")
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--train", name, "--out", str(tmp)],
            check=True,
            timeout=TRAIN_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        tmp.replace(path)
    return load_system(path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train", choices=sorted(RECIPES), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    train(args.train, args.out)


if __name__ == "__main__":
    main()
