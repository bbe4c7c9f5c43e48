"""The benchmark's workloads.

Every workload is a closed loop with one caller: callers of this package
wait for each result, so the next operation starts when the last one
ends. All inputs are generated from the workload seed; the program only
ever sees the generated images, IDX files, archives and configs.

Run-level figures are ratios of totals (work done over time spent), not
medians of per-operation samples: on a shared machine whose speed drifts
between levels over seconds, a median over one run's samples jumps
between the levels from run to run, while a ratio of totals moves
smoothly with the share of time spent at each level.

oodnet names are looked up through their modules at call time
(``nn.extract_features``, not a name imported into this file), so the
tracer in ``spans.py`` sees these calls too.
"""
from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np
from numpy.testing import assert_array_equal

from oodnet import archive, centerloss, cli, data, experiment, head, nn

MAIN = {"n_classes": 10, "side": 28, "separation": 6.0, "layout_seed": 0}
ANOMALY = {"n_classes": 2, "side": 28, "separation": 6.0, "layout_seed": 99}
CELL_LAMBDA = 0.1

# Lowest quality a full-shape cell may show. Over 20 workload seeds (0-4,
# 20-24, 100-109) the seed commit gives classification F1 >= 0.998,
# semi_auc 0.816-0.886 and sup_auc 0.985-0.991. The detectors' F1 scores
# move too much with the seed for a floor (semi_f1 0.47-0.74).
FLOORS = {"classification_f1": 0.98, "semi_auc": 0.78, "sup_auc": 0.95}
QUALITY = ["classification_f1", "semi_f1", "semi_auc", "sup_f1", "sup_auc"]


def derive(seed: int, k: int) -> int:
    """k-th data seed of a workload seed; distinct for distinct pairs."""
    return seed * 16 + k


class NullTracer:
    """Stands in for spans.Tracer when a run is not traced."""
    request = ""

    def begin_op(self, request):
        pass

    def count(self, name, n=1):
        pass


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}")

    @contextlib.contextmanager
    def operation(self, what: str):
        """Count an exception raised by the operation as its failure."""
        try:
            yield
        except Exception:  # the run goes on and reports the failure
            self.record(what, False, traceback.format_exc(limit=4))


def until(seconds: float, op) -> int:
    """Call op(k) for k = 0, 1, ... for about ``seconds``: at least once,
    and no new call once the last call's duration would overrun."""
    start = time.perf_counter()
    last, k = 0.0, 0
    while k == 0 or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        op(k)
        last = time.perf_counter() - t
        k += 1
    return k


def to_u8(images: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(images) * 255).astype(np.uint8)


def write_idx(path: str, array: np.ndarray) -> str:
    with open(path, "wb") as fh:
        fh.write(data.serialize_idx(array))
    return path


class Workload:
    """setup(directory, seed) -> state; measure(state, seconds, tally,
    tracer) runs operations for about ``seconds`` (one when 0) and returns
    its metrics; check(state, tally) runs the checks that are not part of
    an operation."""
    name = ""

    def check(self, st, tally):
        pass


@dataclass(frozen=True)
class CellShape:
    """Per-class sample counts of one experiment cell, and its head epochs."""
    main_train: int
    main_test: int
    anomaly_train: int
    anomaly_test: int
    head_epochs: int

    @property
    def distinct_samples(self) -> int:
        return (MAIN["n_classes"] * (self.main_train + self.main_test)
                + ANOMALY["n_classes"] * (self.anomaly_train + self.anomaly_test))


FULL_CELL = CellShape(400, 100, 1000, 250, head_epochs=5)
# The cell that builds score-stream's archive. 90 per class is the fewest
# the 84-d class fits accept (d + 1 = 85).
SMALL_CELL = CellShape(90, 10, 100, 25, head_epochs=1)


def write_cell_inputs(directory: str, seed: int, shape: CellShape) -> dict:
    """Write the cell's main and anomaly splits as IDX files, the format
    real MNIST data arrives in; return the run-experiment config."""
    os.makedirs(directory, exist_ok=True)
    sources = {}
    for k, (source, layout, per_class) in enumerate((
            ("main", MAIN, (shape.main_train, shape.main_test)),
            ("anomaly", ANOMALY, (shape.anomaly_train, shape.anomaly_test)))):
        paths = {}
        for j, (split, count) in enumerate(zip(("train", "test"), per_class)):
            ds = data.synth_blobs(per_class=count, seed=derive(seed, 2 * k + j), **layout)
            stem = os.path.join(directory, f"{source}-{split}")
            paths[f"{split}_images"] = write_idx(f"{stem}-images.idx", to_u8(ds.images))
            paths[f"{split}_labels"] = write_idx(f"{stem}-labels.idx",
                                                 ds.labels.astype(np.uint8))
        sources[source] = {"idx": paths}
    return {"output_dir": os.path.join(directory, "out"), "seeds": [seed],
            "lambdas": [CELL_LAMBDA], "train": {"epochs": 1},
            "head_train": {"epochs": shape.head_epochs}, "data": sources}


def run_cell(config: dict, tally: Tally, what: str):
    """One run_experiment call; checks its result. -> CellResult"""
    result = experiment.run_experiment(experiment.RunConfig.from_dict(config))[0]
    values = {k: getattr(result, k) for k in QUALITY}
    finite = all(v is not None and math.isfinite(v) for v in values.values())
    tally.record(f"{what} finite metrics", finite, str(values))
    low = {k: values[k] for k, floor in FLOORS.items() if not values[k] >= floor}
    tally.record(f"{what} quality floors", not low, f"below floor: {low}")
    return result


# ---------------------------------------------------------------------------
# train-lenet


class TrainLenet(Workload):
    """Stage-one training at batch 64, each phase from a fresh seeded
    Backbone: one lambda=0 phase and one lambda=1 phase."""
    name = "train-lenet"
    PER_CLASS = 200

    def setup(self, directory, seed):
        train = data.synth_blobs(per_class=self.PER_CLASS, seed=derive(seed, 0), **MAIN)
        pick = np.sort(np.random.default_rng(derive(seed, 1)).choice(
            len(train), 128, replace=False))
        small = data.LabeledDataset(train.images[pick].copy(), train.labels[pick].copy(),
                                    dict(train.class_map), train.role)
        model = nn.Backbone(MAIN["n_classes"], MAIN["side"], seed=seed)
        nn.train_epoch(model, centerloss.Centers(MAIN["n_classes"], model.feature_dim),
                       small, nn.TrainConfig(seed=seed, lam=1.0))
        return {"seed": seed, "train": train, "small": small, "pairs": 0}

    def measure(self, st, seconds, tally, tracer=NullTracer()):
        seed, train = st["seed"], st["train"]
        steps = math.ceil(len(train) / nn.TrainConfig.batch_size)
        runs = []
        for lam in (0.0, 1.0):
            model = nn.Backbone(MAIN["n_classes"], MAIN["side"], seed=seed)
            centers = centerloss.Centers(MAIN["n_classes"], model.feature_dim, seed=seed)
            cfg = nn.TrainConfig(seed=seed, lam=lam)
            runs.append((model, centers, cfg,
                         nn.SGD(model.parameters(), cfg.learning_rate, cfg.momentum)))
        samples, spent = {0.0: 0, 1.0: 0}, {0.0: 0.0, 1.0: 0.0}

        def epoch_pair(k):
            # the two phases alternate epoch by epoch, so both see the same
            # machine state over the run; pairs are numbered over the whole
            # run so that request ids are unique
            pair = st["pairs"]
            st["pairs"] += 1
            for model, centers, cfg, opt in runs:
                what = f"pair{pair}/lam{cfg.lam:g}/epoch{k}"
                tracer.begin_op(what)
                with tally.operation(what):
                    t = time.perf_counter()
                    rec = nn.train_epoch(model, centers, train, cfg, opt,
                                         epoch_seed=seed + k)
                    dt = time.perf_counter() - t
                    tally.record(what, math.isfinite(rec.loss), f"loss {rec.loss}")
                    samples[cfg.lam] += len(train)
                    spent[cfg.lam] += dt
        epochs = until(seconds, epoch_pair)
        step_ms = sum(spent.values()) * 1e3 / (2 * epochs * steps)
        return {
            "metrics": {"throughput_samples_per_s": sum(samples.values()) / sum(spent.values()),
                        "latency_mean_ms": step_ms},
            "named": [("train_lam0_samples_per_s", samples[0.0] / spent[0.0], "samples/s",
                       epochs),
                      ("train_lam1_samples_per_s", samples[1.0] / spent[1.0], "samples/s",
                       epochs),
                      ("train_step_mean_ms", step_ms, "ms", 2 * epochs * steps)],
        }

    def check(self, st, tally):
        """The same seed gives the same loss sequence and feature digest."""
        seed, small = st["seed"], st["small"]
        runs = []
        for _ in range(2):
            model = nn.Backbone(MAIN["n_classes"], MAIN["side"], seed=seed)
            centers = centerloss.Centers(MAIN["n_classes"], model.feature_dim, seed=seed)
            history = nn.train(model, centers, small,
                               nn.TrainConfig(seed=seed, lam=1.0, epochs=3))
            feats = nn.extract_features(model, small.images)
            runs.append(([r.loss for r in history],
                         hashlib.sha256(feats.tobytes()).hexdigest(),
                         bool(np.isfinite(feats).all())))
        tally.record("determinism", runs[0] == runs[1] and runs[0][2], str(runs))


# ---------------------------------------------------------------------------
# score-stream


class ScoreStream(Workload):
    """Score a seeded 50/50 mix of in-distribution and anomaly images
    through a calibrated archive with a head: (a) one image at a time,
    (b) all of them as an IDX file through ``oodnet score``, in rounds."""
    name = "score-stream"
    POOL = 2000
    WARM = 64

    def setup(self, directory, seed):
        config = write_cell_inputs(directory, seed, SMALL_CELL)
        experiment.run_experiment(experiment.RunConfig.from_dict(config))
        model_path, = glob.glob(os.path.join(config["output_dir"], "*.oodn"))
        st = {"seed": seed, "model_path": model_path, "rounds": 0}
        inside = data.synth_blobs(per_class=self.POOL // 2 // MAIN["n_classes"],
                                  seed=derive(seed, 4), **MAIN)
        outside = data.synth_blobs(per_class=self.POOL // 2 // ANOMALY["n_classes"],
                                   seed=derive(seed, 5), **ANOMALY)
        mixed = np.concatenate([inside.images, outside.images])
        mixed = to_u8(mixed[np.random.default_rng(derive(seed, 6)).permutation(len(mixed))])
        st["idx_path"] = write_idx(os.path.join(directory, "probe-images.idx"), mixed)
        warm_path = write_idx(os.path.join(directory, "warm-images.idx"), mixed[:self.WARM])
        st["images"] = data.normalize(mixed)   # the pixels the CLI will see
        st["config_path"] = os.path.join(directory, "score.json")
        with open(st["config_path"], "w") as fh:
            json.dump({"output_dir": directory, "seeds": [seed],
                       "data": {"main": {"synthetic": MAIN}}}, fh)
        state = archive.load_model(model_path)
        st["model"], st["det"], st["head"] = state.backbone, state.detector, state.head
        nn.extract_features(st["model"], st["images"][:256])
        for image in st["images"][:4]:
            self.score_one(st, image)
        self.score_cli(st, warm_path)   # the first call fills lazy caches
        return st

    @staticmethod
    def score_one(st, image):
        feature = nn.extract_features(st["model"], image)[0]
        normal = st["det"].is_normal(feature)
        score = st["det"].anomaly_score(feature)
        return feature, normal, score, head.classify_ood(st["head"], feature)

    @staticmethod
    def score_cli(st, idx_path):
        """``oodnet score`` in-process. -> (exit code, stdout lines)"""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["score", "--config", st["config_path"],
                             "--model", st["model_path"], idx_path])
        return code, out.getvalue().splitlines()

    def round(self, st, k, tally, tracer):
        """A quarter of the pool singly, then the whole pool through the
        CLI, then extract_features alone. The quarter rotates with k, so
        four rounds score every image singly; short rounds spread the CLI
        calls evenly over the run. -> (latencies s, cli s, embed s)"""
        prefix = f"round{k}/"
        images = st["images"]
        n = len(images)
        quarters = np.array_split(np.random.default_rng(derive(st["seed"], 7)).permutation(n), 4)
        order = np.random.default_rng([derive(st["seed"], 9), k]).permutation(quarters[k % 4])
        singles = {}
        latencies = []
        for i in order:
            tracer.request = f"{prefix}img{i}"
            t = time.perf_counter()
            result = self.score_one(st, images[i])
            latencies.append(time.perf_counter() - t)
            singles[i] = result

        tracer.request = f"{prefix}cli"
        tracer.count("cli.images", n)
        t = time.perf_counter()
        code, lines = self.score_cli(st, st["idx_path"])
        cli_s = time.perf_counter() - t
        tally.record(f"{prefix}cli", code == 0 and len(lines) == n,
                     f"exit {code}, {len(lines)} lines for {n} images")

        tracer.request = f"{prefix}embed"
        t = time.perf_counter()
        batched = nn.extract_features(st["model"], images)
        embed_s = time.perf_counter() - t
        tally.record(f"{prefix}embed", batched.shape[0] == n, str(batched.shape))

        for i, (feature, normal, score, head_verdict) in singles.items():
            fields = dict(f.split("=", 1) for f in lines[i].split()[1:]) \
                if i < len(lines) else {}
            problems = []
            try:
                assert_array_equal(feature, batched[i])
            except AssertionError:
                problems.append("batch-1 and batch-256 features differ")
            if not (np.isfinite(feature).all() and math.isfinite(score)):
                problems.append("non-finite feature or score")
            if fields.get("verdict") != ("normal" if normal else "ood") \
                    or fields.get("head_verdict") != head_verdict:
                problems.append(f"cli line {lines[i] if i < len(lines) else None!r} "
                                f"vs single {normal}, {head_verdict}")
            tally.record(f"{prefix}img{i}", not problems, "; ".join(problems))
        return latencies, cli_s, embed_s

    def measure(self, st, seconds, tally, tracer=NullTracer()):
        n = len(st["images"])
        latencies, cli_s, embed_s = [], [], []

        def one_round(_):
            # rounds are numbered over the whole run, so request ids are
            # unique and the quarters keep rotating from call to call
            k = st["rounds"]
            st["rounds"] += 1
            tracer.begin_op(f"round{k}")
            with tally.operation(f"round{k}"):
                lat, cli_t, embed_t = self.round(st, k, tally, tracer)
                latencies.extend(lat)
                cli_s.append(cli_t)
                embed_s.append(embed_t)
        rounds = until(seconds, one_round)
        mean_ms = statistics.fmean(latencies) * 1e3
        batch_rate = n * len(cli_s) / sum(cli_s)
        return {
            "metrics": {"throughput_samples_per_s": batch_rate,
                        "latency_mean_ms": mean_ms},
            "named": [("score_mean_ms", mean_ms, "ms", len(latencies)),
                      ("score_p50_ms", np.percentile(latencies, 50) * 1e3, "ms",
                       len(latencies)),
                      ("score_p99_ms", np.percentile(latencies, 99) * 1e3, "ms",
                       len(latencies)),
                      ("embed_samples_per_s", n * len(embed_s) / sum(embed_s),
                       "samples/s", rounds),
                      ("score_batch_samples_per_s", batch_rate, "samples/s", rounds)],
        }


# ---------------------------------------------------------------------------
# experiment-cell


class ExperimentCell(Workload):
    """One full run_experiment cell (lambda=0.1): train, calibrate, train
    the head, evaluate, project, write every report file."""
    name = "experiment-cell"

    def setup(self, directory, seed):
        config = write_cell_inputs(directory, seed, FULL_CELL)
        warm = data.synth_blobs(per_class=13, seed=derive(seed, 8), **MAIN)
        model = nn.Backbone(MAIN["n_classes"], MAIN["side"], seed=seed)
        nn.train_epoch(model, centerloss.Centers(MAIN["n_classes"], model.feature_dim),
                       warm, nn.TrainConfig(seed=seed, lam=CELL_LAMBDA))
        return {"seed": seed, "directory": directory, "config": config, "cells": 0}

    def measure(self, st, seconds, tally, tracer=NullTracer()):
        cell_s, results = [], []

        def one_cell(_):
            what = f"cell{st['cells']}"
            tracer.begin_op(what)
            config = dict(st["config"],
                          output_dir=os.path.join(st["directory"], f"out{st['cells']}"))
            st["cells"] += 1
            with tally.operation(what):
                t = time.perf_counter()
                results.append(run_cell(config, tally, what))
                cell_s.append(time.perf_counter() - t)
            shutil.rmtree(config["output_dir"], ignore_errors=True)
        until(seconds, one_cell)
        mean_s = statistics.fmean(cell_s)
        last = results[-1]
        return {
            "metrics": {"throughput_samples_per_s": FULL_CELL.distinct_samples / mean_s,
                        "latency_mean_ms": mean_s * 1e3},
            "named": [("cell_s", mean_s, "s", len(cell_s)),
                      ("semi_auc", last.semi_auc, "", len(results)),
                      ("sup_auc", last.sup_auc, "", len(results)),
                      ("classification_f1", last.classification_f1, "", len(results)),
                      ("semi_f1", last.semi_f1, "", len(results)),
                      ("sup_f1", last.sup_f1, "", len(results))],
        }


WORKLOADS = {w.name: w for w in (TrainLenet(), ScoreStream(), ExperimentCell())}

