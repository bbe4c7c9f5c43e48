"""Write a fixed set of oodnet outputs and print the sha256 of each.

    python3 tools/output_hashes.py <dir>

Run it from two checkouts to show that a change keeps every output byte.
It imports oodnet from the ``src/`` next to this file and works inside
<dir> with relative paths, so the printed paths, and with them the
hashes of the captured stdout, do not depend on <dir>. It writes:

- ``synth/``: the one-cell sweep of ``synth_config`` in
  ``tests/test_cli.py`` (lambda 0, seed 0, 3 epochs, 12x12 blobs);
- ``staged/``: the same config through ``train``, ``calibrate``,
  ``train-head`` and ``eval``;
- ``cell28/``: one 28x28 cell shaped like the ``experiment-cell``
  workload, from ``write_cell_inputs(dir, 0, FULL_CELL)`` in
  ``perfbench/workloads.py`` (lambda 0.1);

and, for the sweep archive of ``synth`` and of ``cell28``, the stdout of
``eval``, of ``export-features`` and of ``score`` on 8 probe images
(``synth_blobs`` seed 21 in the main layout and seed 22 in the anomaly
layout, 4 images each). It prints one ``| output | sha256 |`` row per
file and per stdout.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from oodnet import cli, data  # noqa: E402

SYNTH_CONFIG = {
    "output_dir": "synth",
    "seeds": [0],
    "lambdas": [0.0],
    "train": {"epochs": 3, "batch_size": 32},
    "head_train": {"epochs": 8},
    "data": {
        "main": {"synthetic": {"n_classes": 3, "per_class_train": 120,
                               "per_class_test": 30, "side": 12,
                               "separation": 3.5, "seed": 0,
                               "layout_seed": 0}},
        "anomaly": {"synthetic": {"n_classes": 2, "per_class_train": 90,
                                  "per_class_test": 30, "side": 12,
                                  "separation": 2.5, "seed": 7,
                                  "layout_seed": 99}},
    },
}


def load_workloads():
    """perfbench/workloads.py, loaded by path; perfbench is not a package."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def run_cli(argv: list[str], stdout_path: str):
    """One in-process oodnet command; its stdout goes to stdout_path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"oodnet {' '.join(argv)} exited {code}")
    Path(stdout_path).write_text(out.getvalue())


def probe_images(path: str, side: int, main: dict, anomaly: dict) -> str:
    """4 main-like then 4 anomaly-like blob images as one IDX file."""
    images = [data.synth_blobs(2, 2, side=side, separation=src["separation"],
                               seed=seed, layout_seed=src["layout_seed"]).images
              for seed, src in ((21, main), (22, anomaly))]
    u8 = np.round(np.concatenate(images) * 255).astype(np.uint8)
    Path(path).write_bytes(data.serialize_idx(u8))
    return path


def sweep_and_query(name: str, config: dict, side: int, main: dict, anomaly: dict):
    """run-experiment, then eval, export-features and score on its archive."""
    os.makedirs(name, exist_ok=True)
    cfg = write_json(f"{name}.json", dict(config, output_dir=name))
    run_cli(["run-experiment", "--config", cfg], f"{name}/run-experiment.stdout")
    model, = sorted(Path(name).glob("model_*.oodn"))
    common = ["--config", cfg, "--model", str(model)]
    run_cli(["eval", *common, "--out", f"{name}/eval"], f"{name}/eval.stdout")
    run_cli(["export-features", *common, "--out", f"{name}/features"],
            f"{name}/export-features.stdout")
    probe = probe_images(f"{name}/probe.idx", side, main, anomaly)
    run_cli(["score", *common, probe], f"{name}/score.stdout")


def staged(name: str, config: dict):
    """The staged pipeline: train -> calibrate -> train-head -> eval."""
    os.makedirs(name, exist_ok=True)
    cfg = write_json(f"{name}.json", dict(config, output_dir=name))
    for command in ("train", "calibrate", "train-head", "eval"):
        run_cli([command, "--config", cfg], f"{name}/{command}.stdout")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    os.makedirs(args[0], exist_ok=True)
    os.chdir(args[0])

    src = SYNTH_CONFIG["data"]
    sweep_and_query("synth", SYNTH_CONFIG, 12, src["main"]["synthetic"],
                    src["anomaly"]["synthetic"])
    staged("staged", SYNTH_CONFIG)
    workloads = load_workloads()
    cell = workloads.write_cell_inputs("cell28", 0, workloads.FULL_CELL)
    sweep_and_query("cell28", cell, 28, workloads.MAIN, workloads.ANOMALY)

    print("| output | sha256 |")
    print("|---|---|")
    for top in ("synth", "staged", "cell28"):
        for path in sorted(Path(top).rglob("*")):
            if path.is_file() and path.suffix != ".idx":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"| `{path.as_posix()}` | `{digest}` |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
