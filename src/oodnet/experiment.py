"""Experiment orchestration: JSON config, staged pipeline
(train -> calibrate -> train-head -> evaluate), and the full sweep
over balancing coefficients and seeds. Every stage after training takes
features: the caller embeds each split once and hands them on."""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import data as datamod
from .archive import ModelState, save_model
from .centerloss import Centers
from .detector import (DEFAULT_PERCENTILE, DetectorModel, check_percentile,
                       fit_stats)
from .errors import ConfigError, DegenerateClass, json_list, json_value
from .evalkit import (confusion, f1, pca2, roc, write_median_csv,
                      write_metrics_csv, write_projection_csv, write_roc_csv)
from .head import HeadTrainConfig, OodHead, train_head_on_features
from .nn import Backbone, TrainConfig, bounded, embed, train

# ---------------------------------------------------------------------------
# configuration

_TOP_KEYS = {"output_dir", "seeds", "lambdas", "percentile", "tau",
             "train", "head_train", "data"}
_IDX_KEYS = ("train_images", "train_labels", "test_images", "test_labels")
_value = partial(json_value, error=ConfigError)
_list = partial(json_list, error=ConfigError)


def _require_keys(obj: dict, allowed, where: str, required=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj).difference(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")


def _section(cls, raw: dict, where: str, per_cell=frozenset()):
    """cls built from the JSON object raw. Its keys are cls's fields but
    the per-cell ones, which the sweep sets; each value has the kind of the
    field's default and is at least the field's declared least value
    (nn.bounded), which is checked here and nowhere else."""
    declared = {f.name: f for f in fields(cls)}
    _require_keys(raw, set(declared) - per_cell, where)
    for key, value in raw.items():
        _value(value, type(declared[key].default), f"{where}.{key}",
               least=declared[key].metadata.get("least"))
    return cls(**raw)


def _tag(lam: float, seed: int) -> str:
    return f"lam{lam:g}_seed{seed}"


def archive_path(output_dir: str, lam: float, seed: int) -> str:
    """Where the (lam, seed) cell's model archive is written and read."""
    return os.path.join(output_dir, f"model_{_tag(lam, seed)}.oodn")


@dataclass
class SynthSpec:
    """A synthetic source: synth_blobs of n_classes in one layout; the test
    split is drawn with seed + 1."""
    n_classes: int = bounded(3, 2)
    per_class_train: int = bounded(150, 1)
    per_class_test: int = bounded(50, 1)
    side: int = bounded(12, 1)
    separation: float = 3.0
    seed: int = bounded(0, 0)
    layout_seed: int = bounded(0, 0)


@dataclass
class SourceSpec:
    idx: dict | None = None
    synthetic: SynthSpec | None = None
    keep_classes: list | None = None


@dataclass
class RunConfig:
    output_dir: str
    seeds: list[int]
    lambdas: list[float]
    percentile: float = DEFAULT_PERCENTILE
    tau: float = 0.5
    train: TrainConfig = field(default_factory=TrainConfig)
    head_train: HeadTrainConfig = field(default_factory=HeadTrainConfig)
    main: SourceSpec = None
    anomaly: SourceSpec | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _require_keys(raw, _TOP_KEYS, "config",
                      required=("output_dir", "seeds", "data"))
        data = raw["data"]   # its keys are the sources: the fields not on top
        _require_keys(data, {f.name for f in fields(cls)} - _TOP_KEYS, "data",
                      required=("main",))
        cfg = cls(
            output_dir=_value(raw["output_dir"], str, "output_dir"),
            seeds=_list(raw["seeds"], int, "seeds", least=0),
            lambdas=[float(l) for l in _list(
                raw.get("lambdas", [0.0, 0.1, 1.0]), float, "lambdas", least=0)],
            train=_section(TrainConfig, raw.get("train", {}), "train",
                           {"seed", "lam"}),
            head_train=_section(HeadTrainConfig, raw.get("head_train", {}),
                                "head_train", {"seed"}),
            main=cls._parse_source(data["main"], "data.main"),
            anomaly=(cls._parse_source(data["anomaly"], "data.anomaly")
                     if "anomaly" in data else None),
            **{key: float(_value(raw[key], float, key))
               for key in ("percentile", "tau") if key in raw})
        for key in ("percentile", "tau"):
            check_percentile(getattr(cfg, key), ConfigError, key)
        for key, tags in (("lambdas", [_tag(lam, 0) for lam in cfg.lambdas]),
                          ("seeds", [_tag(0.0, seed) for seed in cfg.seeds])):
            if len(set(tags)) < len(tags):   # two cells would share files
                raise ConfigError(f"{key}: two values give one file name: {tags}")
        return cfg

    @staticmethod
    def _parse_source(raw: dict, where: str) -> SourceSpec:
        _require_keys(raw, {f.name for f in fields(SourceSpec)}, where)
        if ("idx" in raw) == ("synthetic" in raw):
            raise ConfigError(f"{where}: exactly one of idx/synthetic required")
        synthetic = None
        if "idx" in raw:
            _require_keys(raw["idx"], _IDX_KEYS, f"{where}.idx", required=_IDX_KEYS)
            for key, path in raw["idx"].items():
                if not os.path.isfile(_value(path, str, f"{where}.idx.{key}")):
                    raise ConfigError(f"{where}.idx.{key}: no such file {path!r}")
        else:
            synthetic = _section(SynthSpec, raw["synthetic"], f"{where}.synthetic")
        keep = raw.get("keep_classes")
        if keep is not None:
            _list(keep, int, f"{where}.keep_classes")
        return SourceSpec(idx=raw.get("idx"), synthetic=synthetic,
                          keep_classes=keep)


def _load_split(spec: SourceSpec | None, split: str, anomaly: bool):
    """Split "train" or "test" of a source, in the anomaly role for an anomaly
    source. No source (a config without data.anomaly) is a ConfigError, and
    a main train split with no sample of a class in 0..max DegenerateClass."""
    if spec is None:
        raise ConfigError("data: missing 'anomaly' source")
    role = (datamod.ROLE_ANOMALY if anomaly else datamod.ROLE_MAIN_TRAIN
            if split == "train" else datamod.ROLE_MAIN_TEST)
    if spec.idx is not None:
        ds = datamod.load_idx_dataset(spec.idx[f"{split}_images"],
                                      spec.idx[f"{split}_labels"], role)
    else:
        s = spec.synthetic
        ds = datamod.synth_blobs(
            s.n_classes, getattr(s, f"per_class_{split}"), side=s.side,
            separation=s.separation, seed=s.seed + (split == "test"),
            role=role, layout_seed=s.layout_seed)
    if spec.keep_classes is not None:
        ds = datamod.split_classes(ds, spec.keep_classes)
    if role == datamod.ROLE_MAIN_TRAIN:   # its labels index the classes
        empty = np.flatnonzero(np.bincount(ds.labels) == 0).tolist()
        if empty:
            raise DegenerateClass(f"data.main train split: no samples of classes {empty}")
    return ds


# ---------------------------------------------------------------------------
# pipeline stages


def run_stage_one(main_train, lam: float, seed: int, cfg: RunConfig):
    """Train backbone + centroids on the main training split."""
    tc = replace(cfg.train, seed=seed, lam=lam)
    n = main_train.n_classes
    side = main_train.images.shape[1]
    model = Backbone(n, input_side=side, seed=seed)
    centers = Centers(n, model.feature_dim, rate=tc.center_rate, seed=seed)
    history = train(model, centers, main_train, tc)
    return model, centers, history


def run_calibration(feats, labels, percentile: float) -> DetectorModel:
    det = DetectorModel(fit_stats(feats, labels), percentile)
    det.calibrate(feats, labels)
    # float32-snapped so evaluation after an archive round trip is bit-equal
    return det.snap32()


def run_stage_two(feats_main, feats_anom, seed: int, cfg: RunConfig) -> OodHead:
    """Train the anomaly head on main-train and anomaly-train features."""
    hc = replace(cfg.head_train, seed=seed)
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


def _ood_metrics(accepted, scores, is_ood, higher_is_anomalous: bool):
    """(F1 at the verdicts, AUC, ROC over the scores) of one OOD detector,
    with the anomalies (is_ood) as the positive class."""
    curve = roc(scores, is_ood, higher_is_anomalous)
    return f1(confusion(is_ood, ~accepted, 2), "binary-positive"), curve.auc, curve


def evaluate(state: ModelState, feats_in, logits_in, labels_in, feats_out,
             lam: float, seed: int) -> CellResult:
    """Classification F1 on the main test split, and both detectors'
    F1 and ROC with the anomaly test split as the positive class."""
    n = state.backbone.n_classes
    cls_f1 = f1(confusion(labels_in, logits_in.argmax(axis=1), n), "macro")
    feats_all = np.concatenate([feats_in, feats_out])
    is_ood = np.arange(len(feats_all)) >= len(feats_in)
    accepted, scores, p, head_accepted = state.judge(feats_all)
    semi = _ood_metrics(accepted, scores, is_ood, higher_is_anomalous=True)
    sup = () if p is None else _ood_metrics(head_accepted, p, is_ood,
                                            higher_is_anomalous=False)
    # CellResult's fields: semi_f1, semi_auc, semi_roc, then the sup_ ones
    return CellResult(lam, seed, cls_f1, *semi, *sup)


# ---------------------------------------------------------------------------
# full sweep


def run_experiment(cfg: RunConfig) -> list[CellResult]:
    """Train/calibrate/evaluate every (lambda, seed) cell and write the
    report files (metrics, ROC points, feature projections, archives)."""
    splits = ("train", "test")
    anomaly_train, anomaly_test = (_load_split(cfg.anomaly, s, True) for s in splits)
    main_train, main_test = (_load_split(cfg.main, s, False) for s in splits)

    results = []
    metric_rows = []
    for seed in cfg.seeds:
        for lam in cfg.lambdas:
            model, centers, _ = run_stage_one(main_train, lam, seed, cfg)
            # each split is embedded once; every later stage reads features
            feats_train, _ = embed(model, main_train.images)
            feats_in, logits_in = embed(model, main_test.images)
            feats_out, _ = embed(model, anomaly_test.images)
            det = run_calibration(feats_train, main_train.labels,
                                  cfg.percentile)
            state = ModelState(backbone=model, centers=centers, detector=det,
                               meta={"lambda": lam, "seed": seed,
                                     "trained_on": main_train.role})
            if len(anomaly_train):
                state.head = run_stage_two(
                    feats_train, embed(model, anomaly_train.images)[0], seed, cfg)
            cell = evaluate(state, feats_in, logits_in, main_test.labels,
                            feats_out, lam, seed)
            results.append(cell)
            metric_rows.extend(cell.rows())

            tag = _tag(lam, seed)
            save_model(archive_path(cfg.output_dir, lam, seed), state)
            write_roc_csv(cell.semi_roc,
                          os.path.join(cfg.output_dir, f"roc_semi_{tag}.csv"))
            if cell.sup_roc is not None:
                write_roc_csv(cell.sup_roc,
                              os.path.join(cfg.output_dir, f"roc_sup_{tag}.csv"))

            _, proj = pca2(np.concatenate([feats_in, feats_out]))
            labels = np.concatenate([main_test.labels,
                                     np.full(len(feats_out), -1)])
            flags = np.arange(len(labels)) >= len(feats_in)
            write_projection_csv(proj, labels, flags,
                                 os.path.join(cfg.output_dir, f"proj_{tag}.csv"))

    write_metrics_csv(metric_rows, os.path.join(cfg.output_dir, "metrics.csv"))
    write_median_csv(metric_rows,
                     os.path.join(cfg.output_dir, "metrics_median.csv"))
    return results
