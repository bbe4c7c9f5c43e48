"""Experiment orchestration: JSON config, staged pipeline
(train -> calibrate -> train-head -> evaluate), and the full sweep
over balancing coefficients and seeds."""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import data as datamod
from .archive import ModelState, save_model
from .centerloss import Centers
from .detector import DetectorModel, fit_stats
from .errors import ConfigError
from .evalkit import (confusion, f1, pca2, roc, write_median_csv,
                      write_metrics_csv, write_projection_csv, write_roc_csv)
from .head import HeadTrainConfig, OodHead, train_head_on_features
from .nn import Backbone, TrainConfig, embed, extract_features, train

# ---------------------------------------------------------------------------
# configuration

_TOP_KEYS = {"output_dir", "seeds", "lambdas", "percentile", "tau",
             "train", "head_train", "data"}
_TRAIN_KEYS = {"learning_rate", "batch_size", "epochs", "momentum",
               "center_rate"}
_HEAD_KEYS = {"learning_rate", "batch_size", "epochs", "momentum"}
_DATA_KEYS = {"main", "anomaly"}
_SOURCE_KEYS = {"idx", "synthetic", "keep_classes", "relabel"}
_IDX_KEYS = {"train_images", "train_labels", "test_images", "test_labels"}
_SYNTH_KEYS = {"n_classes", "per_class_train", "per_class_test", "side",
               "separation", "seed", "layout_seed"}


def _require_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


@dataclass
class SourceSpec:
    idx: dict | None = None
    synthetic: dict | None = None
    keep_classes: list | None = None
    relabel: bool = False


@dataclass
class RunConfig:
    output_dir: str
    seeds: list[int]
    lambdas: list[float]
    percentile: float = 0.975
    tau: float = 0.5
    train: dict = field(default_factory=dict)
    head_train: dict = field(default_factory=dict)
    main: SourceSpec = None
    anomaly: SourceSpec | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _require_keys(raw, _TOP_KEYS, "config")
        for key in ("output_dir", "seeds", "data"):
            if key not in raw:
                raise ConfigError(f"config: missing required key {key!r}")
        if not raw["seeds"]:
            raise ConfigError("config: seeds must be nonempty")
        lambdas = raw.get("lambdas", [0.0, 0.1, 1.0])
        if any(l < 0 for l in lambdas):
            raise ConfigError("config: lambdas must be >= 0")
        _require_keys(raw.get("train", {}), _TRAIN_KEYS, "train")
        _require_keys(raw.get("head_train", {}), _HEAD_KEYS, "head_train")
        _require_keys(raw["data"], _DATA_KEYS, "data")
        if "main" not in raw["data"]:
            raise ConfigError("data: missing 'main' source")
        main = cls._parse_source(raw["data"]["main"], "data.main")
        anomaly = None
        if "anomaly" in raw["data"]:
            anomaly = cls._parse_source(raw["data"]["anomaly"], "data.anomaly")
        return cls(output_dir=raw["output_dir"],
                   seeds=[int(s) for s in raw["seeds"]],
                   lambdas=[float(l) for l in lambdas],
                   percentile=float(raw.get("percentile", 0.975)),
                   tau=float(raw.get("tau", 0.5)),
                   train=dict(raw.get("train", {})),
                   head_train=dict(raw.get("head_train", {})),
                   main=main, anomaly=anomaly)

    @staticmethod
    def _parse_source(raw: dict, where: str) -> SourceSpec:
        _require_keys(raw, _SOURCE_KEYS, where)
        has_idx = "idx" in raw
        has_synth = "synthetic" in raw
        if has_idx == has_synth:
            raise ConfigError(f"{where}: exactly one of idx/synthetic required")
        if has_idx:
            _require_keys(raw["idx"], _IDX_KEYS, f"{where}.idx")
            for key in ("train_images", "train_labels", "test_images",
                        "test_labels"):
                if key not in raw["idx"]:
                    raise ConfigError(f"{where}.idx: missing {key!r}")
                if not os.path.exists(raw["idx"][key]):
                    raise ConfigError(
                        f"{where}.idx.{key}: no such file {raw['idx'][key]!r}")
        else:
            _require_keys(raw["synthetic"], _SYNTH_KEYS, f"{where}.synthetic")
        return SourceSpec(idx=raw.get("idx"), synthetic=raw.get("synthetic"),
                          keep_classes=raw.get("keep_classes"),
                          relabel=bool(raw.get("relabel", False)))


def _load_source(spec: SourceSpec, anomaly: bool):
    """-> (train dataset, test dataset); anomaly sources get anomaly role."""
    train_role = datamod.ROLE_ANOMALY if anomaly else datamod.ROLE_MAIN_TRAIN
    test_role = datamod.ROLE_ANOMALY if anomaly else datamod.ROLE_MAIN_TEST
    if spec.idx is not None:
        tr = datamod.load_idx_dataset(spec.idx["train_images"],
                                      spec.idx["train_labels"], train_role)
        te = datamod.load_idx_dataset(spec.idx["test_images"],
                                      spec.idx["test_labels"], test_role)
    else:
        s = dict(spec.synthetic)
        tr = datamod.synth_blobs(
            s.get("n_classes", 3), s.get("per_class_train", 150),
            side=s.get("side", 12), separation=s.get("separation", 3.0),
            seed=s.get("seed", 0), role=train_role,
            layout_seed=s.get("layout_seed", 0))
        te = datamod.synth_blobs(
            s.get("n_classes", 3), s.get("per_class_test", 50),
            side=s.get("side", 12), separation=s.get("separation", 3.0),
            seed=s.get("seed", 0) + 1, role=test_role,
            layout_seed=s.get("layout_seed", 0))
    if spec.keep_classes is not None:
        tr = datamod.split_classes(tr, spec.keep_classes, spec.relabel)
        te = datamod.split_classes(te, spec.keep_classes, spec.relabel)
    return tr, te


# ---------------------------------------------------------------------------
# pipeline stages


def run_stage_one(main_train, lam: float, seed: int, cfg: RunConfig):
    """Train backbone + centroids on the main training split."""
    tc = TrainConfig(seed=seed, lam=lam, **cfg.train)
    n = main_train.n_classes
    side = main_train.images.shape[1]
    model = Backbone(n, input_side=side, seed=seed)
    centers = Centers(n, model.feature_dim, rate=tc.center_rate, seed=seed)
    history = train(model, centers, main_train, tc)
    return model, centers, history


def run_calibration(model, main_train, percentile: float) -> DetectorModel:
    return calibrate_on_features(extract_features(model, main_train.images),
                                 main_train.labels, percentile)


def calibrate_on_features(feats, labels, percentile: float) -> DetectorModel:
    det = DetectorModel(fit_stats(feats, labels), percentile)
    det.calibrate(feats, labels)
    # float32-snapped so evaluation after an archive round trip is bit-equal
    return det.snap32()


def run_stage_two(feats_main, feats_anom, seed: int, cfg: RunConfig) -> OodHead:
    """Train the anomaly head on main-train and anomaly-train features."""
    hc = HeadTrainConfig(seed=seed, **cfg.head_train)
    head = OodHead(feats_main.shape[1], seed=seed, tau=cfg.tau)
    train_head_on_features(head, feats_main, feats_anom, hc)
    return head


@dataclass
class CellResult:
    """Metrics for one (lambda, seed) combination."""
    lam: float
    seed: int
    classification_f1: float
    semi_f1: float
    semi_auc: float
    semi_roc: object
    sup_f1: float | None = None
    sup_auc: float | None = None
    sup_roc: object = None

    def rows(self) -> list[dict]:
        """This cell's metrics.csv rows: classification, semi-supervised
        and, with a head, supervised."""
        rows = [("classification", self.classification_f1, None),
                ("semi-supervised", self.semi_f1, self.semi_auc)]
        if self.sup_roc is not None:
            rows.append(("supervised", self.sup_f1, self.sup_auc))
        return [{"lambda": self.lam, "seed": self.seed, "method": method,
                 "f1": f1_, "auc": auc} for method, f1_, auc in rows]


def evaluate(state: ModelState, main_test, anomaly_test, lam: float,
             seed: int) -> CellResult:
    return evaluate_on_features(
        state, *embed(state.backbone, main_test.images), main_test.labels,
        extract_features(state.backbone, anomaly_test.images), lam, seed)


def evaluate_on_features(state: ModelState, feats_in, logits_in, labels_in,
                         feats_out, lam: float, seed: int) -> CellResult:
    """Classification F1 on the main test split, and both detectors'
    F1 and ROC with the anomaly test split as the positive class."""
    n = state.backbone.n_classes
    cls_f1 = f1(confusion(labels_in, logits_in.argmax(axis=1), n), "macro")

    feats_all = np.concatenate([feats_in, feats_out])
    is_ood = np.concatenate([np.zeros(len(feats_in), dtype=bool),
                             np.ones(len(feats_out), dtype=bool)])

    det = state.detector
    accepted = det.is_normal_many(feats_all)
    ood_pred = (~accepted).astype(int)
    semi_counts = confusion(is_ood.astype(int), ood_pred, 2)
    semi_f1 = f1(semi_counts, "binary-positive", positive=1)
    scores = det.anomaly_score_many(feats_all)
    semi_roc = roc(scores, is_ood, higher_is_anomalous=True)

    result = CellResult(lam=lam, seed=seed, classification_f1=cls_f1,
                        semi_f1=semi_f1, semi_auc=semi_roc.auc,
                        semi_roc=semi_roc)
    if state.head is not None:
        p = state.head.forward_many(feats_all)
        sup_pred = (p < state.head.tau).astype(int)   # p >= tau -> normal
        sup_counts = confusion(is_ood.astype(int), sup_pred, 2)
        result.sup_f1 = f1(sup_counts, "binary-positive", positive=1)
        result.sup_roc = roc(p, is_ood, higher_is_anomalous=False)
        result.sup_auc = result.sup_roc.auc
    return result


# ---------------------------------------------------------------------------
# full sweep


def _tag(lam: float, seed: int) -> str:
    return f"lam{lam:g}_seed{seed}"


def run_experiment(cfg: RunConfig) -> list[CellResult]:
    """Train/calibrate/evaluate every (lambda, seed) cell and write the
    report files (metrics, ROC points, feature projections, archives)."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    main_train, main_test = _load_source(cfg.main, anomaly=False)
    anomaly_train = anomaly_test = None
    if cfg.anomaly is not None:
        anomaly_train, anomaly_test = _load_source(cfg.anomaly, anomaly=True)
    if anomaly_test is None:
        raise ConfigError("an anomaly source is required for evaluation")

    results = []
    metric_rows = []
    for seed in cfg.seeds:
        for lam in cfg.lambdas:
            model, centers, _ = run_stage_one(main_train, lam, seed, cfg)
            # each split is embedded once; every later stage reads features
            feats_train, _ = embed(model, main_train.images)
            feats_in, logits_in = embed(model, main_test.images)
            feats_out, _ = embed(model, anomaly_test.images)
            det = calibrate_on_features(feats_train, main_train.labels,
                                        cfg.percentile)
            state = ModelState(backbone=model, centers=centers, detector=det,
                               meta={"lambda": lam, "seed": seed,
                                     "trained_on": main_train.role})
            if anomaly_train is not None and len(anomaly_train):
                state.head = run_stage_two(
                    feats_train, embed(model, anomaly_train.images)[0], seed, cfg)
            cell = evaluate_on_features(state, feats_in, logits_in,
                                        main_test.labels, feats_out, lam, seed)
            results.append(cell)
            metric_rows.extend(cell.rows())

            tag = _tag(lam, seed)
            save_model(os.path.join(cfg.output_dir, f"model_{tag}.oodn"), state)
            write_roc_csv(cell.semi_roc,
                          os.path.join(cfg.output_dir, f"roc_semi_{tag}.csv"))
            if cell.sup_roc is not None:
                write_roc_csv(cell.sup_roc,
                              os.path.join(cfg.output_dir, f"roc_sup_{tag}.csv"))

            _, proj, _ = pca2(np.concatenate([feats_in, feats_out]),
                              centers.values)
            labels = np.concatenate([main_test.labels,
                                     np.full(len(feats_out), -1)])
            flags = np.concatenate([np.zeros(len(feats_in), dtype=int),
                                    np.ones(len(feats_out), dtype=int)])
            write_projection_csv(proj, labels, flags,
                                 os.path.join(cfg.output_dir, f"proj_{tag}.csv"))

    write_metrics_csv(metric_rows, os.path.join(cfg.output_dir, "metrics.csv"))
    write_median_csv(metric_rows,
                     os.path.join(cfg.output_dir, "metrics_median.csv"))
    return results
