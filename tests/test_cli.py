import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oodnet import data, nn, synth_blobs
from oodnet.archive import ModelState, _decode, load_model, save_model
from oodnet.centerloss import Centers
from oodnet.cli import main
from oodnet.data import load_idx_file, normalize, serialize_idx
from oodnet.detector import DetectorModel, fit_stats
from oodnet.errors import (BadMagic, ConfigError, CorruptLength,
                           OodnetError, VersionMismatch)
from oodnet.experiment import (RunConfig, _load_split, evaluate,
                               run_experiment)
from oodnet.head import OodHead, classify_ood
from oodnet.nn import Backbone, embed, extract_features


def full_state(seed=0):
    ds = synth_blobs(3, 90, side=12, separation=3.5, seed=seed)
    model = Backbone(3, input_side=12, seed=seed)
    feats = extract_features(model, ds.images)
    det = DetectorModel(fit_stats(feats, ds.labels))
    det.calibrate(feats, ds.labels)
    det.snap32()
    centers = Centers(3, model.feature_dim, seed=seed)
    head = OodHead(model.feature_dim, seed=seed)
    return ModelState(backbone=model, centers=centers, detector=det,
                      head=head, meta={"lambda": 0.5, "seed": seed})


def synth_config(tmp_path, seeds=(0,), lambdas=(0.0,), epochs=3):
    return {
        "output_dir": str(tmp_path / "out"),
        "seeds": list(seeds),
        "lambdas": list(lambdas),
        "train": {"epochs": epochs, "batch_size": 32},
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


def write_config(tmp_path, raw) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestArchive:
    def test_round_trip_bit_identical(self, tmp_path):
        state = full_state()
        path = tmp_path / "m.oodn"
        save_model(path, state)
        loaded = load_model(path)
        for a, b in zip(state.backbone.parameters(),
                        loaded.backbone.parameters()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.centers.values,
                                      loaded.centers.values)
        for sa, sb in zip(state.detector.stats, loaded.detector.stats):
            np.testing.assert_array_equal(sa.mean, sb.mean)
            np.testing.assert_array_equal(sa.cov, sb.cov)
            assert sa.count == sb.count
        np.testing.assert_array_equal(state.detector.thresholds,
                                      loaded.detector.thresholds)
        for a, b in zip(state.head.parameters(), loaded.head.parameters()):
            np.testing.assert_array_equal(a, b)
        assert loaded.meta == state.meta

    def test_double_round_trip_byte_identical(self, tmp_path):
        state = full_state()
        p1, p2 = tmp_path / "a.oodn", tmp_path / "b.oodn"
        save_model(p1, state)
        save_model(p2, load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_holds_one_copy_of_the_blob_bytes(self, tmp_path):
        """A 10-class 28x28 state with a head: the blobs are cast into the
        one buffer that is written, so the traced peak of a save stays
        near the file's size."""
        ds = synth_blobs(10, 90, side=28, seed=0)
        model = Backbone(10, input_side=28, seed=0)
        feats = extract_features(model, ds.images)
        det = DetectorModel(fit_stats(feats, ds.labels))
        det.calibrate(feats, ds.labels)
        state = ModelState(backbone=model,
                           centers=Centers(10, model.feature_dim, seed=0),
                           detector=det, head=OodHead(model.feature_dim, seed=0))
        path = tmp_path / "m.oodn"
        tracemalloc.start()
        try:
            save_model(path, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * path.stat().st_size

    def test_partial_state(self, tmp_path):
        state = ModelState(backbone=Backbone(3, input_side=12, seed=0))
        path = tmp_path / "partial.oodn"
        save_model(path, state)
        loaded = load_model(path)
        assert loaded.centers is None
        assert loaded.detector is None
        assert loaded.head is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagic):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_corrupt_length(self, tmp_path):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CorruptLength):
            load_model(path)


def rewrite_blob(path, name, keep=None):
    """Rewrite an archive in place with blob ``name`` dropped, or cut to
    its first ``keep`` values, and the header to match."""
    data = path.read_bytes()
    header_len, = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + header_len])
    offset, blobs = 16 + header_len, {}
    for entry in header["blobs"]:
        end = offset + 4 * int(np.prod(entry["shape"]))
        blobs[entry["name"]] = np.frombuffer(data[offset:end], dtype="<f4")
        offset = end
    if keep is None:
        del blobs[name]
    else:
        blobs[name] = blobs[name][:keep]
    shapes = {e["name"]: e["shape"] for e in header["blobs"]}
    header["blobs"] = [{"name": k, "shape": shapes[k] if k != name else [keep]}
                       for k in blobs]
    header_bytes = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(data[:8] + struct.pack("<Q", len(header_bytes))
                     + header_bytes + b"".join(b.tobytes() for b in blobs.values()))


def score_probe(tmp_path, model_path):
    """Exit code of ``oodnet score`` on four synthetic probe images."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(synth_config(tmp_path)))
    ds = synth_blobs(2, 2, side=12, separation=3.5, seed=11)
    img_path = tmp_path / "probe.idx"
    img_path.write_bytes(serialize_idx((ds.images * 255).astype(np.uint8)))
    return main(["score", "--config", str(cfg_path), "--model", str(model_path),
                 str(img_path)])


BROKEN_BLOBS = [("conv1.W", None), ("head2.W", None), ("head1.b", 1),
                ("centers", None), ("centers", 1),
                ("det.mean.1", None), ("det.mean.1", 5),
                ("det.cov_upper.2", None), ("det.cov_upper.2", 7),
                ("det.thresholds", None), ("det.thresholds", 1)]


class TestCheckedParameterLoading:
    @pytest.mark.parametrize("name,keep", BROKEN_BLOBS)
    def test_load_model_raises_typed_error(self, tmp_path, name, keep):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        rewrite_blob(path, name, keep)
        with pytest.raises(OodnetError, match=name):
            load_model(path)

    @pytest.mark.parametrize("name,keep", BROKEN_BLOBS)
    def test_score_exits_1(self, tmp_path, capsys, name, keep):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        rewrite_blob(path, name, keep)
        assert score_probe(tmp_path, path) == 1
        assert "error [score]" in capsys.readouterr().err


def overflowing_archive(tmp_path) -> Path:
    """An archive whose parameters are all finite but whose forward
    overflows: fc1.b = 3e38 makes every feature NaN or inf."""
    state = full_state()
    state.backbone.state()["fc1.b"][:] = 3e38
    path = tmp_path / "m.oodn"
    save_model(path, state)
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the overflow
class TestNonFiniteFeature:
    def test_score_exits_1_on_nan_parameter(self, tmp_path, capsys):
        # IDX pixels are uint8, and the loader refuses a non-finite
        # parameter, so an overflowing forward is the way from the CLI to
        # a non-finite feature
        path = overflowing_archive(tmp_path)
        assert score_probe(tmp_path, path) == 1
        assert "error [score]" in capsys.readouterr().err

    def test_export_features_exits_1_writing_no_csv(self, tmp_path, capsys):
        path = overflowing_archive(tmp_path)
        cfg_path = write_config(tmp_path, synth_config(tmp_path))
        assert main(["export-features", "--config", cfg_path,
                     "--model", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err == "error [export-features]: feature holds NaN or inf\n"
        assert not out and not (tmp_path / "out").exists()


@pytest.mark.parametrize("shape", [(40, 16, 16), (40,)])
def test_score_names_the_whole_file_in_a_shape_error(tmp_path, capsys, shape):
    """40 images of the wrong side, or a 40-entry labels file: more rows
    than one slice of embed's, and the error gives the file's shape."""
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    img_path = tmp_path / "probe.idx"
    img_path.write_bytes(serialize_idx(np.zeros(shape, dtype=np.uint8)))
    assert main(["score", "--config", write_config(tmp_path, synth_config(tmp_path)),
                 "--model", str(path), str(img_path)]) == 1
    assert f"got {shape}" in capsys.readouterr().err


def poison_blob(path, name, value):
    """Overwrite the first value of blob ``name`` of an archive in place."""
    data = bytearray(path.read_bytes())
    header_len, = struct.unpack("<Q", data[8:16])
    offset = 16 + header_len
    for entry in json.loads(data[16:16 + header_len])["blobs"]:
        if entry["name"] == name:
            data[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
            break
        offset += 4 * int(np.prod(entry["shape"]))
    path.write_bytes(bytes(data))


NON_FINITE_BLOBS = [(name, value)
                    for name in ("head1.b", "centers", "det.mean.0", "conv1.W")
                    for value in (np.nan, np.inf)]


class TestNonFiniteParameter:
    @pytest.mark.parametrize("name,value", NON_FINITE_BLOBS)
    def test_load_model_raises_corrupt_length(self, tmp_path, name, value):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        poison_blob(path, name, value)
        with pytest.raises(CorruptLength, match=name):
            load_model(path)

    @pytest.mark.parametrize("name,value", NON_FINITE_BLOBS)
    def test_score_exits_1(self, tmp_path, capsys, name, value):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        poison_blob(path, name, value)
        assert score_probe(tmp_path, path) == 1
        assert "error [score]" in capsys.readouterr().err


class TestRunConfig:
    def test_unknown_top_level_key(self, tmp_path):
        raw = synth_config(tmp_path)
        raw["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig.from_dict(raw)

    def test_unknown_nested_key(self, tmp_path):
        raw = synth_config(tmp_path)
        raw["train"]["optimizer"] = "adam"
        with pytest.raises(ConfigError, match="optimizer"):
            RunConfig.from_dict(raw)

    def test_missing_idx_file(self, tmp_path):
        raw = synth_config(tmp_path)
        raw["data"]["main"] = {"idx": {
            "train_images": str(tmp_path / "missing-train-images"),
            "train_labels": str(tmp_path / "l"),
            "test_images": str(tmp_path / "ti"),
            "test_labels": str(tmp_path / "tl")}}
        with pytest.raises(ConfigError, match="missing-train-images"):
            RunConfig.from_dict(raw)

    def test_both_sources_rejected(self, tmp_path):
        raw = synth_config(tmp_path)
        raw["data"]["main"]["idx"] = {}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)

    def test_empty_seeds_rejected(self, tmp_path):
        raw = synth_config(tmp_path)
        raw["seeds"] = []
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)


class TestRunExperiment:
    def test_metrics_rows_per_method(self, tmp_path):
        raw = synth_config(tmp_path, lambdas=(0.0, 0.1, 1.0), epochs=2)
        cfg = RunConfig.from_dict(raw)
        run_experiment(cfg)
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "lambda,seed,method,f1,auc"
        rows = [l.split(",") for l in lines[1:]]
        for method in ("classification", "semi-supervised", "supervised"):
            assert sum(r[2] == method for r in rows) == 3  # one per lambda

    def test_repeated_run_bit_identical(self, tmp_path):
        raw = synth_config(tmp_path, epochs=2)
        cfg = RunConfig.from_dict(raw)
        run_experiment(cfg)
        first = {p.name: p.read_bytes()
                 for p in (tmp_path / "out").glob("*.csv")}
        run_experiment(cfg)
        second = {p.name: p.read_bytes()
                  for p in (tmp_path / "out").glob("*.csv")}
        assert first == second

    def test_archive_reloads_to_identical_metrics(self, tmp_path):
        raw = synth_config(tmp_path, epochs=2)
        cfg = RunConfig.from_dict(raw)
        results = run_experiment(cfg)
        main_test = _load_split(cfg.main, "test", anomaly=False)
        anomaly_test = _load_split(cfg.anomaly, "test", anomaly=True)
        archive = tmp_path / "out" / "model_lam0_seed0.oodn"
        state = load_model(archive)
        cell = evaluate(state, *embed(state.backbone, main_test.images),
                        main_test.labels,
                        extract_features(state.backbone, anomaly_test.images),
                        0.0, 0)
        ref = results[0]
        assert cell.classification_f1 == ref.classification_f1
        assert cell.semi_f1 == ref.semi_f1
        assert cell.semi_auc == ref.semi_auc
        assert cell.sup_f1 == ref.sup_f1
        assert cell.sup_auc == ref.sup_auc


    def test_one_embedding_per_split(self, tmp_path, monkeypatch):
        cfg = RunConfig.from_dict(synth_config(tmp_path, epochs=1))
        depth, embedded = [0], []
        forward, train_epoch = nn.Backbone.forward, nn.train_epoch

        def counted_forward(model, images, tape=None):
            if not depth[0]:
                embedded.append(len(images))
            return forward(model, images, tape)

        def training(*args, **kwargs):
            depth[0] += 1
            try:
                return train_epoch(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(nn.Backbone, "forward", counted_forward)
        monkeypatch.setattr(nn, "train_epoch", training)
        run_experiment(cfg)
        splits = [_load_split(spec, split, anomaly)
                  for spec, anomaly in ((cfg.main, False), (cfg.anomaly, True))
                  for split in ("train", "test")]
        assert sum(embedded) == sum(len(ds) for ds in splits)

    def test_eval_writes_the_cells_metrics_rows(self, tmp_path):
        raw = synth_config(tmp_path, lambdas=(0.0, 0.1), epochs=1)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run-experiment", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert main(["eval", "--config", str(cfg_path), "--model",
                     str(out / "model_lam0.1_seed0.oodn"),
                     "--out", str(tmp_path / "eval")]) == 0
        sweep = (out / "metrics.csv").read_text().splitlines()
        cell = [sweep[0]] + [l for l in sweep[1:] if l.startswith("0.1,0,")]
        assert len(cell) == 4
        assert (tmp_path / "eval" / "eval_metrics.csv").read_text().splitlines() \
            == cell


class TestDetectEndToEnd:
    def test_detect_full_image_criterion(self):
        state = full_state()
        ds = synth_blobs(3, 90, side=12, separation=3.5, seed=0)
        verdicts = state.detector.is_normal_many(
            extract_features(state.backbone, ds.images[:30]))
        # calibration set itself: overwhelmingly accepted
        assert np.mean(verdicts) >= 0.9

    def test_distinct_anomalies_detected(self, tmp_path):
        cfg = RunConfig.from_dict(synth_config(tmp_path, epochs=4))
        results = run_experiment(cfg)
        assert results[0].semi_f1 >= 0.7
        assert results[0].semi_auc >= 0.9


class TestCliCommands:
    def test_staged_pipeline(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=2))
        assert main(["train", "--config", cfg_path]) == 0
        assert main(["calibrate", "--config", cfg_path]) == 0
        assert main(["train-head", "--config", cfg_path]) == 0
        assert main(["eval", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "classification" in out and "semi-supervised" in out
        assert (tmp_path / "out" / "eval_metrics.csv").exists()

    def test_train_makes_only_the_archive_directory(self, tmp_path):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=1))
        archive = tmp_path / "new" / "m.oodn"
        assert main(["train", "--config", cfg_path,
                     "--model", str(archive)]) == 0
        assert load_model(archive).centers is not None
        assert not (tmp_path / "out").exists()

    def test_score_command(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=2))
        main(["train", "--config", cfg_path])
        main(["calibrate", "--config", cfg_path])
        ds = synth_blobs(2, 2, side=12, separation=3.5, seed=11)
        img_path = tmp_path / "probe.idx"
        img_path.write_bytes(serialize_idx(
            (ds.images * 255).astype(np.uint8)))
        assert main(["score", "--config", cfg_path, str(img_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict=" in out

    def test_export_features(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=2))
        main(["train", "--config", cfg_path])
        assert main(["export-features", "--config", cfg_path]) == 0
        header = (tmp_path / "out" / "features.csv").read_text().splitlines()[0]
        assert header.startswith("f0,") and header.endswith(",label")

    def test_export_features_holds_no_python_rows_of_the_whole_split(
            self, tmp_path, capsys):
        """The split's rows are converted to Python floats one at a time:
        all at once they hold ~2.7 KB per 84-d row, and the traced peak on
        4N images came to 3.5 times the peak on N."""
        raw = synth_config(tmp_path, epochs=1)
        main(["train", "--config", write_config(tmp_path, raw)])
        peaks = {}
        for n in (120, 480):   # per class: 360 and 1440 images
            raw["data"]["main"]["synthetic"]["per_class_test"] = n
            cfg_path = write_config(tmp_path, raw)
            tracemalloc.start()
            try:
                assert main(["export-features", "--config", cfg_path]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[480] < 2.5 * peaks[120]
        assert (peaks[480] - peaks[120]) / (3 * 360) < 2000   # bytes per image
        assert "(1440 rows, 84 dims)" in capsys.readouterr().out

    def test_run_experiment_command(self, tmp_path):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=2))
        assert main(["run-experiment", "--config", cfg_path]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert (tmp_path / "out" / "metrics_median.csv").exists()

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        raw = synth_config(tmp_path)
        raw["bogus"] = True
        cfg_path = write_config(tmp_path, raw)
        assert main(["train", "--config", cfg_path]) == 1
        assert "error [train]" in capsys.readouterr().err

    def test_lambda_seed_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=1))
        assert main(["train", "--config", cfg_path,
                     "--lambda", "0.5", "--seed", "3"]) == 0
        assert (tmp_path / "out" / "model_lam0.5_seed3.oodn").exists()


def test_staged_commands_give_the_sweeps_archive(tmp_path, capsys):
    """train, calibrate and train-head leave the archive that run-experiment
    writes for the same config: the same blobs, bit for bit, and the same
    header but for meta.trained_on, which only the sweep records."""
    cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=2))
    for command in ("train", "calibrate", "train-head"):
        assert main([command, "--config", cfg_path]) == 0
    assert main(["run-experiment", "--config", cfg_path,
                 "--out", str(tmp_path / "sweep")]) == 0
    staged, swept = (tmp_path / d / "model_lam0_seed0.oodn" for d in ("out", "sweep"))
    (staged_header, staged_blobs), (swept_header, swept_blobs) = (
        _decode(path.read_bytes()) for path in (staged, swept))
    assert list(staged_blobs) == list(swept_blobs)
    for name, blob in staged_blobs.items():
        assert blob.tobytes() == swept_blobs[name].tobytes(), name
    assert swept_header["meta"].pop("trained_on") == "main-train"
    assert staged_header == swept_header
    capsys.readouterr()
    printed = []
    for path in (staged, swept):
        assert main(["eval", "--config", cfg_path, "--model", str(path),
                     "--out", str(tmp_path / "eval")]) == 0
        printed.append(capsys.readouterr().out.splitlines()[:-1])   # not "wrote"
    assert printed[0] == printed[1] and len(printed[0]) == 3


class TestOneSplitPerLoad:
    def test_each_command_builds_only_the_splits_it_reads(self, tmp_path,
                                                          monkeypatch):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=1))
        built, synth = [], data.synth_blobs

        def counted(n_classes, per_class, **kwargs):
            built.append((kwargs["role"], per_class))
            return synth(n_classes, per_class, **kwargs)

        monkeypatch.setattr(data, "synth_blobs", counted)
        splits = {}
        for command in ("train", "calibrate", "train-head", "eval",
                        "export-features", "run-experiment"):
            built.clear()
            assert main([command, "--config", cfg_path]) == 0
            splits[command] = list(built)
        main_train, main_test = ("main-train", 120), ("main-test", 30)
        anomaly_train, anomaly_test = ("anomaly", 90), ("anomaly", 30)
        assert splits == {
            "train": [main_train],
            "calibrate": [main_train],
            "train-head": [anomaly_train, main_train],
            "eval": [anomaly_test, main_test],
            "export-features": [main_test],
            "run-experiment": [anomaly_train, anomaly_test, main_train,
                               main_test],
        }


class TestScoreWithHead:
    def test_head_columns_match_the_library(self, tmp_path, capsys):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        assert score_probe(tmp_path, path) == 0
        lines = capsys.readouterr().out.splitlines()
        state = load_model(path)
        feats = extract_features(
            state.backbone, normalize(load_idx_file(tmp_path / "probe.idx")))
        p = state.head.forward_many(feats)
        assert len(lines) == len(feats) == 4
        for line, feat, p_i in zip(lines, feats, p):
            fields = dict(item.split("=") for item in line.split()[1:])
            assert fields["head_p"] == f"{p_i:.4f}"
            assert fields["head_verdict"] == classify_ood(state.head, feat)


class TestUncalibratedArchive:
    def test_eval_and_score_exit_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=1))
        assert main(["train", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path]) == 1
        assert "error [eval]" in capsys.readouterr().err
        assert score_probe(tmp_path,
                           tmp_path / "out" / "model_lam0_seed0.oodn") == 1
        assert "error [score]" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(config path, archive path) of a one-cell run-experiment sweep."""
    tmp = tmp_path_factory.mktemp("sweep")
    cfg_path = write_config(tmp, synth_config(tmp, epochs=1))
    assert main(["run-experiment", "--config", cfg_path]) == 0
    return cfg_path, str(tmp / "out" / "model_lam0_seed0.oodn")


class TestUnwritableOutput:
    """Every path below a regular file fails to be made or written, and
    each command reports it as its own error with exit code 1."""

    def afile(self, tmp_path) -> str:
        path = tmp_path / "afile"
        path.write_text("")
        return str(path)

    def assert_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert f"error [{argv[0]}]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,below", [("--out", "sub"),
                                            ("--model", "x.oodn")])
    def test_train(self, tmp_path, capsys, flag, below):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=1))
        self.assert_exits_1(capsys, ["train", "--config", cfg_path, flag,
                                     os.path.join(self.afile(tmp_path), below)])

    def test_run_experiment(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=1))
        self.assert_exits_1(capsys, [
            "run-experiment", "--config", cfg_path,
            "--out", os.path.join(self.afile(tmp_path), "sub")])

    @pytest.mark.parametrize("command", ["eval", "export-features"])
    def test_archive_commands(self, tmp_path, capsys, sweep, command):
        cfg_path, archive = sweep
        self.assert_exits_1(capsys, [
            command, "--config", cfg_path, "--model", archive,
            "--out", os.path.join(self.afile(tmp_path), "sub")])


FAILING_WRITE = """
import resource, signal, sys
from oodnet.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)   # a write past the limit: EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[2:]))
"""


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(config path, directory) of a one-cell sweep whose output directory
    also holds eval_metrics.csv and features.csv."""
    tmp = tmp_path_factory.mktemp("outputs")
    cfg_path = write_config(tmp, synth_config(tmp, epochs=1))
    for command in ("run-experiment", "eval", "export-features"):
        assert main([command, "--config", cfg_path]) == 0
    return cfg_path, tmp / "out"


def files_under(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command,limit", [
    ("train", 64), ("calibrate", 64), ("calibrate", 4096), ("train-head", 64),
    ("eval", 64), ("export-features", 64), ("run-experiment", 64)])
def test_a_write_that_fails_partway_leaves_every_file_as_it_was(
        outputs, tmp_path, command, limit):
    """The command runs in a child whose files may not grow past limit
    bytes (RLIMIT_FSIZE): each write it makes fails partway, the command
    exits 1, every file it would have replaced keeps its bytes, and no
    temporary file is left."""
    pytest.importorskip("resource")
    cfg_path, finished = outputs
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    before = files_under(out)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_WRITE, str(limit), command,
         "--config", cfg_path, "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error [{command}]: ")
    assert "File too large" in proc.stderr
    assert files_under(out) == before


class TestNoAnomalySource:
    def config(self, tmp_path) -> dict:
        raw = synth_config(tmp_path, epochs=1)
        del raw["data"]["anomaly"]
        return raw

    @pytest.mark.parametrize("command", ["train-head", "eval",
                                         "run-experiment"])
    def test_exits_1_before_any_output(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, self.config(tmp_path))
        assert main([command, "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert f"error [{command}]" in err and "anomaly" in err
        assert not (tmp_path / "out").exists()

    def test_run_experiment_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="anomaly"):
            run_experiment(RunConfig.from_dict(self.config(tmp_path)))
        assert not (tmp_path / "out").exists()


class TestNoAnomalyTrainImages:
    """An anomaly source whose train split holds no images: the sweep runs
    without the supervised head, and train-head has nothing to train on."""
    def config(self, tmp_path) -> dict:
        raw = synth_config(tmp_path, epochs=1)
        test = synth_blobs(2, 30, side=12, separation=2.5, seed=7,
                           layout_seed=99)
        files = {"train_images": np.zeros((0, 12, 12), dtype=np.uint8),
                 "train_labels": np.zeros(0, dtype=np.uint8),
                 "test_images": (test.images * 255).astype(np.uint8),
                 "test_labels": test.labels.astype(np.uint8)}
        for name, array in files.items():
            (tmp_path / name).write_bytes(serialize_idx(array))
        raw["data"]["anomaly"] = {
            "idx": {name: str(tmp_path / name) for name in files}}
        return raw

    def test_run_experiment_skips_the_head_and_train_head_exits_1(
            self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, self.config(tmp_path))
        assert main(["run-experiment", "--config", cfg_path]) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.csv", "metrics_median.csv", "model_lam0_seed0.oodn",
            "proj_lam0_seed0.csv", "roc_semi_lam0_seed0.csv"]
        methods = [line.split(",")[2] for line in
                   (out / "metrics.csv").read_text().splitlines()[1:]]
        assert methods == ["classification", "semi-supervised"]
        archive = out / "model_lam0_seed0.oodn"
        assert load_model(archive).head is None
        before = archive.read_bytes()
        capsys.readouterr()
        assert main(["train-head", "--config", cfg_path]) == 1
        assert capsys.readouterr().err.startswith("error [train-head]: ")
        assert archive.read_bytes() == before


def test_run_experiment_takes_no_model(tmp_path):
    cfg_path = write_config(tmp_path, synth_config(tmp_path))
    with pytest.raises(SystemExit) as info:
        main(["run-experiment", "--config", cfg_path, "--model", "x"])
    assert info.value.code == 2


def test_calibrate_through_a_symlinked_model_writes_the_file_it_points_to(
        tmp_path):
    """--model a symlink into another directory: the link stays a link,
    the file it points to holds the calibrated archive, and neither
    directory keeps a temporary file."""
    cfg_path = write_config(tmp_path, synth_config(tmp_path, epochs=1))
    store, links = tmp_path / "store", tmp_path / "links"
    store.mkdir()
    links.mkdir()
    target, link = store / "m.oodn", links / "m.oodn"
    assert main(["train", "--config", cfg_path, "--model", str(target)]) == 0
    link.symlink_to(target)
    assert main(["calibrate", "--config", cfg_path, "--model", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert load_model(target).detector.thresholds is not None
    assert [p.name for p in store.iterdir()] == ["m.oodn"]
    assert [p.name for p in links.iterdir()] == ["m.oodn"]


def test_the_cli_runs_as_a_process(tmp_path):
    """python -m oodnet.cli in a child process: --help exits 0, and score
    with a missing config exits 1 with its error on stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "oodnet.cli", *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path)

    shown = run("--help")
    assert shown.returncode == 0, shown.stderr
    assert shown.stdout.startswith("usage: oodnet")
    failed = run("score", "--config", "missing.json", "probe.idx")
    assert failed.returncode == 1
    assert failed.stderr.startswith("error [score]: ")
    assert "missing.json" in failed.stderr
