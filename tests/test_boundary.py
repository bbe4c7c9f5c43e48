"""Malformed input at the archive and config boundaries ends in a typed
OodnetError from the library and exit code 1 from the CLI."""
import csv
import functools
import json
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodnet import synth_blobs
from oodnet.archive import ModelState, _decode, load_model, save_model
from oodnet.data import serialize_idx
from oodnet.detector import DetectorModel
from oodnet.cli import main
from oodnet.errors import ConfigError, CorruptLength, OodnetError, ShapeMismatch
from oodnet.experiment import RunConfig, run_experiment
from test_cli import (full_state, rewrite_blob, score_probe, synth_config,
                      write_config)

# ---------------------------------------------------------------------------
# archive bytes


def header_of(data: bytes) -> dict:
    header_len, = struct.unpack("<Q", data[8:16])
    return json.loads(data[16:16 + header_len])


def with_header(data: bytes, header) -> bytes:
    """data with its header replaced by header: raw bytes, or a value to
    encode as JSON."""
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    header_len, = struct.unpack("<Q", data[8:16])
    return data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len:]


def edit_header(edit):
    """A fault that applies edit to the header object in place."""
    def fault(path):
        data = path.read_bytes()
        header = header_of(data)
        edit(header)
        path.write_bytes(with_header(data, header))
    return fault


def replace_header(raw):
    def fault(path):
        path.write_bytes(with_header(path.read_bytes(), raw))
    return fault


def cut_detector_to_one_class(path):
    rewrite_blob(path, "det.thresholds", 1)
    edit_header(lambda h: h["detector"].update(counts=h["detector"]["counts"][:1]))(path)


def list_clf_b_twice(path):
    """A second clf.b entry at the end of the blob table, its three values
    7.0 after the last blob: the bytes are all accounted for."""
    data = path.read_bytes()
    header = header_of(data)
    header["blobs"].append({"name": "clf.b", "shape": [3]})
    path.write_bytes(with_header(data, header) + np.full(3, 7.0, "<f4").tobytes())


ARCHIVE_FAULTS = [
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:12]), CorruptLength,
                 id="shorter-than-16-bytes"),
    pytest.param(replace_header(b"\xff\xfe{}"), CorruptLength,
                 id="header-not-utf8"),
    pytest.param(replace_header(b'{"arch": '), CorruptLength,
                 id="header-not-json"),
    pytest.param(replace_header([]), CorruptLength, id="header-is-array"),
    pytest.param(edit_header(lambda h: h.pop("arch")), CorruptLength,
                 id="header-without-arch"),
    pytest.param(edit_header(lambda h: h.pop("blobs")), CorruptLength,
                 id="header-without-blobs"),
    pytest.param(edit_header(lambda h: h.update(blobs={"name": "conv1.W"})),
                 CorruptLength, id="blobs-not-a-list"),
    pytest.param(edit_header(lambda h: h["arch"].update(n_classes=1)),
                 CorruptLength, id="one-class"),
    pytest.param(cut_detector_to_one_class, ShapeMismatch,
                 id="detector-cut-to-one-class"),
    pytest.param(list_clf_b_twice, CorruptLength, id="blob-listed-twice"),
    # no values, but a shape of more than 2**63 bytes: numpy cannot make it
    pytest.param(edit_header(lambda h: h["blobs"][0].update(
        shape=[0, 1_518_494_220, 1_518_506_280])), CorruptLength,
        id="empty-blob-past-int64"),
]


class TestArchiveFaults:
    @pytest.mark.parametrize("fault,error", ARCHIVE_FAULTS)
    def test_load_model_raises_typed_error(self, tmp_path, fault, error):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        fault(path)
        with pytest.raises(error):
            load_model(path)

    @pytest.mark.parametrize("fault,error", ARCHIVE_FAULTS)
    def test_score_exits_1(self, tmp_path, capsys, fault, error):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        fault(path)
        assert score_probe(tmp_path, path) == 1
        assert "error [score]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_missing_model_exits_1(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(synth_config(tmp_path)))
        argv = [command, "--config", str(cfg_path),
                "--model", str(tmp_path / "missing.oodn")]
        if command == "score":
            argv.append(str(tmp_path / "probe.idx"))
        assert main(argv) == 1
        assert f"error [{command}]" in capsys.readouterr().err


def test_bytes_after_the_last_blob_raise_corrupt_length(tmp_path):
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    path.write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(CorruptLength, match="trailing"):
        load_model(path)


def test_decoding_an_archive_copies_no_blob(tmp_path):
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    data = path.read_bytes()
    tracemalloc.start()
    try:
        _, blobs = _decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(blob.nbytes for blob in blobs.values()) > 0.9 * len(data)
    # what is left is the header's JSON and one blob's isfinite mask
    assert peak < 0.25 * len(data)


def set_literal(path, dotted: str, literal: str):
    """Rewrite the archive at path with the header value at dotted set to
    the JSON text literal (which may be NaN, Infinity or 1e999)."""
    data = path.read_bytes()
    header = header_of(data)
    set_key(header, dotted, "@@")
    text = json.dumps(header).replace('"@@"', literal)
    path.write_bytes(with_header(data, text.encode()))


PAST_FLOAT = 10**400   # an integer that no float holds

# header values the shared JSON rule rejects: a non-finite number, a count
# that is not an integer >= 0, an arch the blob shapes do not imply
BAD_HEADER_VALUES = [
    ("head_tau", "NaN"), ("head_tau", "Infinity"), ("head_tau", "-Infinity"),
    ("head_tau", "1e999"), ("center_rate", "NaN"),
    *(pytest.param(key, str(PAST_FLOAT), id=f"{key}-int_past_float")
      for key in ("head_tau", "center_rate")),
    ("detector.counts", '["x", null, true]'), ("detector.counts", "[-5, -5, -5]"),
    ("arch.n_classes", str(10**13)), ("arch.feature_dim", "85"),
    ("arch.input_side", "16"),
    ("detector.percentile", "0"), ("detector.percentile", "1.5"),
    ("head_tau", "0"), ("head_tau", "1.5"),
]


class TestBadHeaderValues:
    @pytest.mark.parametrize("key,literal", BAD_HEADER_VALUES)
    def test_load_model_raises_corrupt_length(self, tmp_path, key, literal):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        set_literal(path, key, literal)
        with pytest.raises(CorruptLength, match=key.split(".")[-1]):
            load_model(path)

    @pytest.mark.parametrize("key,literal", BAD_HEADER_VALUES)
    def test_score_exits_1(self, tmp_path, capsys, key, literal):
        path = tmp_path / "m.oodn"
        save_model(path, full_state())
        set_literal(path, key, literal)
        assert score_probe(tmp_path, path) == 1
        out, err = capsys.readouterr()
        assert "error [score]" in err and "verdict" not in out


@pytest.fixture(scope="module")
def sweep_archive(tmp_path_factory) -> bytes:
    """The archive of a one-cell run-experiment sweep of synth_config."""
    tmp = tmp_path_factory.mktemp("sweep")
    run_experiment(RunConfig.from_dict(synth_config(tmp, epochs=1)))
    return (tmp / "out" / "model_lam0_seed0.oodn").read_bytes()


@pytest.mark.parametrize("key", ["lambda", "seed"])
@pytest.mark.parametrize("literal", ["NaN", '{"a": 1}', "-1"])
def test_eval_of_a_bad_meta_value_exits_1_writing_nothing(
        tmp_path, capsys, sweep_archive, key, literal):
    path = tmp_path / "m.oodn"
    path.write_bytes(sweep_archive)
    set_literal(path, f"meta.{key}", literal)
    cfg_path = write_config(tmp_path, synth_config(tmp_path))
    assert main(["eval", "--config", cfg_path, "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert f"error [eval]: meta.{key}" in err and not out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["0.5", "1", "true", '"0.5"', "null", "NaN",
                                     "Infinity", "1e999", pytest.param(
                                         str(PAST_FLOAT), id="int_past_float")])
def test_tau_and_head_tau_accept_the_same_scalars(tmp_path, literal):
    """The config's tau and the archive header's head_tau are read by one
    rule: of these JSON scalars both accept 0.5 and 1, and nothing else."""
    text = json.dumps({**synth_config(tmp_path), "tau": "@@"})
    try:
        RunConfig.from_dict(json.loads(text.replace('"@@"', literal)))
        config_ok = True
    except ConfigError:
        config_ok = False
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    set_literal(path, "head_tau", literal)
    try:
        load_model(path)
        header_ok = True
    except CorruptLength:
        header_ok = False
    assert config_ok == header_ok == (literal in ("0.5", "1"))


@functools.lru_cache(maxsize=None)
def archive_bytes(tmp_dir) -> bytes:
    path = tmp_dir / "valid.oodn"
    save_model(path, full_state())
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_archive_loads_or_raises_typed_error(tmp_path_factory, data):
    """Any truncation or single-byte edit of a valid archive loads or
    raises an OodnetError. Half the edits land in the header."""
    tmp_dir = tmp_path_factory.getbasetemp()
    valid = archive_bytes(tmp_dir)
    header_end = 16 + struct.unpack("<Q", valid[8:16])[0]
    if data.draw(st.booleans(), label="truncate"):
        edited = valid[:data.draw(st.integers(0, len(valid) - 1), label="cut")]
    else:
        at = data.draw(st.integers(0, header_end - 1)
                       | st.integers(0, len(valid) - 1), label="at")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != valid[at]),
                         label="byte")
        edited = valid[:at] + bytes([byte]) + valid[at + 1:]
    path = tmp_dir / "edited.oodn"
    path.write_bytes(edited)
    try:
        load_model(path)
    except OodnetError:
        pass


def slots(obj, path=()):
    """Key paths of every value inside a JSON object or list."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from slots(value, path + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_header_loads_or_raises_typed_error(tmp_path_factory, data):
    """Any JSON value in place of any value of a valid archive's header
    (blob table, counts and arch included) loads or raises an
    OodnetError."""
    tmp_dir = tmp_path_factory.getbasetemp()
    valid = archive_bytes(tmp_dir)
    header = header_of(valid)
    *parents, last = data.draw(st.sampled_from(sorted(slots(header), key=str)),
                               label="slot")
    obj = header
    for key in parents:
        obj = obj[key]
    obj[last] = data.draw(JSON_VALUES, label="value")
    path = tmp_dir / "edited-header.oodn"
    path.write_bytes(with_header(valid, header))
    try:
        load_model(path)
    except OodnetError:
        pass


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=4))


@settings(max_examples=60, deadline=None)
@given(centers=st.booleans(),
       detector=st.sampled_from([None, "uncalibrated", "calibrated"]),
       head=st.booleans(),
       meta=st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3))
def test_partial_state_round_trips(tmp_path_factory, centers, detector, head,
                                   meta):
    """save -> load -> save of any mix of parts gives the same bytes, and
    the loaded state holds exactly the parts that were saved."""
    full = full_state()
    det = full.detector
    if detector == "uncalibrated":
        det = DetectorModel(det.stats, det.percentile)
    state = ModelState(backbone=full.backbone,
                       centers=full.centers if centers else None,
                       detector=det if detector else None,
                       head=full.head if head else None, meta=meta)
    first = tmp_path_factory.getbasetemp() / "first.oodn"
    again = tmp_path_factory.getbasetemp() / "again.oodn"
    save_model(first, state)
    loaded = load_model(first)
    save_model(again, loaded)
    assert first.read_bytes() == again.read_bytes()
    assert (loaded.centers is None) == (not centers)
    assert (loaded.head is None) == (not head)
    assert (loaded.detector is None) == (detector is None)
    if detector:
        assert (loaded.detector.thresholds is None) == (detector == "uncalibrated")
    assert loaded.meta == meta


# ---------------------------------------------------------------------------
# config


def set_key(raw: dict, dotted: str, value):
    *parents, last = dotted.split(".")
    for key in parents:
        raw = raw[key]
    raw[last] = value


CONFIG_FAULTS = [
    ("lambdas", ["0.1"]),
    ("seeds", ["0"]),
    ("tau", "0.5"),
    ("seeds", 3),
    ("percentile", 2.0),
    ("train.batch_size", 0),
    ("train.epochs", "3"),
    ("head_train.epochs", -1),
    ("data.main.relabel", "no"),   # an old config's relabel: an unknown key
    pytest.param("lambdas", [PAST_FLOAT], id="lambdas-int_past_float"),
    *(pytest.param(key, PAST_FLOAT, id=f"{key}-int_past_float") for key in
      ("percentile", "tau", "train.learning_rate", "train.momentum")),
    # one value below each declared least value
    ("train.learning_rate", -0.1),
    ("train.epochs", -1),
    ("head_train.batch_size", 0),
    ("data.main.synthetic.n_classes", 1),
    ("data.main.synthetic.per_class_train", 0),
    ("data.main.synthetic.per_class_test", 0),
    ("data.main.synthetic.side", 0),
    ("data.main.synthetic.seed", -1),
    ("data.main.synthetic.layout_seed", -1),
    # tau outside (0, 1], the percentile's range
    ("tau", 1.5),
    ("tau", 0),
]


class TestConfigFaults:
    @pytest.mark.parametrize("key,value", CONFIG_FAULTS)
    def test_from_dict_raises_config_error(self, tmp_path, key, value):
        raw = synth_config(tmp_path)
        set_key(raw, key, value)
        with pytest.raises(ConfigError) as info:
            RunConfig.from_dict(raw)
        assert all(part in str(info.value) for part in key.split("."))

    @pytest.mark.parametrize("key,value", CONFIG_FAULTS)
    def test_train_exits_1(self, tmp_path, capsys, key, value):
        raw = synth_config(tmp_path)
        set_key(raw, key, value)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "error [train]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [["--lambda", "-1"], ["--seed", "-1"],
                                          ["--lambda", "nan"]])
    def test_overrides_are_checked_like_the_file(self, tmp_path, capsys,
                                                 override):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(synth_config(tmp_path)))
        assert main(["train", "--config", str(cfg_path), *override]) == 1
        assert "error [train]" in capsys.readouterr().err


@pytest.mark.parametrize("keep", [[1, 2], [0, 2], [3, 0, 1, 2, 5]])
def test_main_classes_off_0_to_k_load(tmp_path, keep):
    raw = synth_config(tmp_path)
    raw["data"]["main"]["keep_classes"] = keep
    assert RunConfig.from_dict(raw).main.keep_classes == keep


def test_main_classes_off_0_to_k_train_on_dense_labels(tmp_path, capsys):
    """keep_classes renumbers: classes 1 and 2 train a two-class model
    whose exported rows are labelled 0 and 1."""
    raw = synth_config(tmp_path, epochs=1)
    raw["data"]["main"]["keep_classes"] = [1, 2]
    cfg_path = write_config(tmp_path, raw)
    assert main(["run-experiment", "--config", cfg_path]) == 0
    assert main(["export-features", "--config", cfg_path]) == 0
    assert load_model(tmp_path / "out" / "model_lam0_seed0.oodn"
                      ).backbone.n_classes == 2
    with open(tmp_path / "out" / "features.csv", newline="") as fh:
        labels = [row["label"] for row in csv.DictReader(fh)]
    assert len(labels) == 60 and set(labels) == {"0", "1"}


def test_classes_0_to_k_or_of_the_anomaly_source_need_no_relabel(tmp_path):
    """Only the main source's labels index classes."""
    raw = synth_config(tmp_path)
    raw["data"]["main"]["keep_classes"] = [2, 0, 1, 0]
    raw["data"]["anomaly"]["keep_classes"] = [1]
    RunConfig.from_dict(raw)


def without_key(tmp_path, dotted: str) -> dict:
    """synth_config with the key at dotted removed. For a key under
    data.main.idx the main source is first made an IDX source."""
    raw = synth_config(tmp_path)
    if ".idx." in dotted:
        raw["data"]["main"] = {"idx": {
            name: str(tmp_path / f"{name}.idx") for name in
            ("train_images", "train_labels", "test_images", "test_labels")}}
    *parents, last = dotted.split(".")
    obj = raw
    for key in parents:
        obj = obj[key]
    del obj[last]
    return raw


REQUIRED_KEYS = ["output_dir", "seeds", "data", "data.main",
                 "data.main.idx.train_labels"]


class TestMissingRequiredKeys:
    @pytest.mark.parametrize("key", REQUIRED_KEYS)
    def test_from_dict_raises_config_error(self, tmp_path, key):
        with pytest.raises(ConfigError, match="missing required keys") as info:
            RunConfig.from_dict(without_key(tmp_path, key))
        assert all(part in str(info.value) for part in key.split("."))

    @pytest.mark.parametrize("key", REQUIRED_KEYS)
    def test_train_exits_1_writing_nothing(self, tmp_path, capsys, key):
        cfg_path = write_config(tmp_path, without_key(tmp_path, key))
        assert main(["train", "--config", cfg_path]) == 1
        out, err = capsys.readouterr()
        assert "error [train]" in err and not out
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("key", ["per_class_train", "side"])
def test_a_synthetic_split_no_memory_holds_exits_1_writing_nothing(
        tmp_path, capsys, key):
    """10**12 per class of 12x12 images would be 1.53 PiB: the allocation is
    refused, and that refusal is a typed error, not a MemoryError."""
    raw = synth_config(tmp_path)
    raw["data"]["main"]["synthetic"][key] = 10**12
    assert main(["train", "--config", write_config(tmp_path, raw)]) == 1
    out, err = capsys.readouterr()
    assert "error [train]" in err and not out
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("key,values", [("lambdas", [1e-5, 1.000001e-5]),
                                        ("lambdas", [0.1, 0.1]),
                                        ("seeds", [0, 0])])
def test_cells_sharing_file_names_exit_1_writing_nothing(tmp_path, capsys, key,
                                                         values):
    """Each (lambda, seed) cell names its files with experiment._tag, which
    prints lambda with :g; no two cells may get the same name."""
    raw = {**synth_config(tmp_path, epochs=1), key: values}
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(raw)
    cfg_path = write_config(tmp_path, raw)
    assert main(["run-experiment", "--config", cfg_path]) == 1
    assert "error [run-experiment]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_with_a_non_finite_loss_exits_1_writing_nothing(tmp_path, capsys):
    cfg_path = write_config(tmp_path, synth_config(tmp_path, lambdas=(1e300,),
                                                   epochs=1))
    assert main(["train", "--config", cfg_path]) == 1
    out, err = capsys.readouterr()
    assert "error [train]: loss=nan" in err and not out
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_that_diverges_in_its_last_step_exits_1_writing_no_archive(
        tmp_path, capsys):
    """One SGD step at learning rate 1e300: every loss the run sees is
    finite, but the step leaves NaN or inf parameters, and save_model
    refuses what load_model would. An archive already at the path keeps
    its bytes."""
    raw = synth_config(tmp_path, epochs=1)
    raw["train"].update(learning_rate=1e300, batch_size=1000)
    cfg_path = write_config(tmp_path, raw)
    assert main(["train", "--config", cfg_path]) == 1
    out, err = capsys.readouterr()
    assert re.fullmatch(r"error \[train\]: blob \S+ holds NaN or inf\n", err)
    assert not out and not (tmp_path / "out").exists()
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    before = path.read_bytes()
    assert main(["train", "--config", cfg_path, "--model", str(path)]) == 1
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "m.oodn"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_loss_names_its_batch_and_epoch_seed(tmp_path, capsys):
    cfg_path = write_config(tmp_path, synth_config(
        tmp_path, seeds=(5,), lambdas=(1e300,), epochs=1))
    assert main(["train", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert re.search(r"batch \d+", err) and "seed 5" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_head_with_a_non_finite_loss_exits_1_leaving_the_archive(
        tmp_path, capsys):
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    before = path.read_bytes()
    raw = synth_config(tmp_path)
    raw["head_train"]["learning_rate"] = 1e30
    assert main(["train-head", "--config", write_config(tmp_path, raw),
                 "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert re.search(r"error \[train-head\]: head loss=nan on batch \d+ of "
                     r"epoch \d+", err) and not out
    assert path.read_bytes() == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_experiment_with_a_non_finite_head_loss_exits_1_writing_nothing(
        tmp_path, capsys):
    raw = synth_config(tmp_path, epochs=1)
    raw["head_train"]["learning_rate"] = 1e30
    assert main(["run-experiment", "--config", write_config(tmp_path, raw)]) == 1
    out, err = capsys.readouterr()
    assert "error [run-experiment]: head loss=nan" in err and not out
    assert not (tmp_path / "out").exists()


def test_calibrate_to_another_class_count_exits_1_leaving_the_archive(
        tmp_path, capsys):
    """The archive's backbone has 3 classes; the config keeps 2 of them."""
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    before = path.read_bytes()
    raw = synth_config(tmp_path)
    raw["data"]["main"].update(keep_classes=[0, 1])
    assert main(["calibrate", "--config", write_config(tmp_path, raw),
                 "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert ("error [calibrate]: detector.counts: 2 classes, arch.n_classes 3"
            in err and not out)
    assert path.read_bytes() == before


@pytest.mark.parametrize("top", ["[]", "3", "null", '"x"'])
def test_a_config_that_is_not_an_object_exits_1_writing_nothing(tmp_path,
                                                                capsys, top):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(top)
    assert main(["train", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert "error [train]: config: expected an object" in err and not out
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def leaves(obj, prefix=""):
    """Dotted paths of every value in a JSON object that is not an object."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=5)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_config_parses_or_raises_config_error(data):
    """Any JSON value in place of any value of a valid config parses or
    raises ConfigError."""
    raw = synth_config(Path("unused"))
    key = data.draw(st.sampled_from(sorted(leaves(raw))), label="key")
    set_key(raw, key, data.draw(JSON_VALUES, label="value"))
    try:
        RunConfig.from_dict(raw)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# IDX sources


def idx_config(tmp_path, fault) -> str:
    """Path of a synth_config file whose main source is four IDX files of
    3x30 training and 3x10 test blobs, after fault(files, source) edits
    the arrays (name -> uint8 array) or the source object."""
    train = synth_blobs(3, 30, side=12, separation=3.5, seed=0)
    test = synth_blobs(3, 10, side=12, separation=3.5, seed=1)
    files = {f"{split}_{part}": (getattr(ds, part) * scale).astype(np.uint8)
             for split, ds in (("train", train), ("test", test))
             for part, scale in (("images", 255), ("labels", 1))}
    source = {"idx": {name: str(tmp_path / f"{name}.idx") for name in files}}
    fault(files, source)
    for name, array in files.items():
        (tmp_path / f"{name}.idx").write_bytes(serialize_idx(array))
    raw = synth_config(tmp_path, epochs=1)
    raw["data"]["main"] = source
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    return str(cfg_path)


def labels_one_short(files, source):
    files["train_labels"] = files["train_labels"][:-1]


def labels_as_images(files, source):
    source["idx"]["train_images"] = source["idx"]["train_labels"]


def images_as_labels(files, source):
    source["idx"]["train_labels"] = source["idx"]["train_images"]


def one_class_after_relabel(files, source):
    source.update(keep_classes=[1])


def label_out_of_range(files, source):
    files["test_labels"][0] = 7


IDX_FAULTS = [(fault, command) for fault in (labels_one_short, labels_as_images,
                                             images_as_labels,
                                             one_class_after_relabel)
              for command in ("train", "run-experiment")] \
    + [(label_out_of_range, "run-experiment")]


@pytest.mark.parametrize("fault,command", IDX_FAULTS)
def test_malformed_idx_source_exits_1_writing_nothing(tmp_path, capsys, fault,
                                                      command):
    cfg_path = idx_config(tmp_path, fault)
    assert main([command, "--config", cfg_path]) == 1
    assert f"error [{command}]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def train_labels_skip_class_2(files, source):   # labels {0, 1, 3}
    labels = files["train_labels"]
    labels[labels == 2] = 3


def keep_a_class_no_label_has(files, source):   # dense class 0 is empty
    source.update(keep_classes=[-1, 0, 1])


@pytest.mark.parametrize("fault,empty", [(train_labels_skip_class_2, 2),
                                         (keep_a_class_no_label_has, 0)])
@pytest.mark.parametrize("command", ["train", "calibrate", "train-head",
                                     "run-experiment"])
def test_a_main_train_split_missing_a_class_exits_1_naming_it(
        tmp_path, capsys, fault, empty, command):
    """The main labels index the classes: a class without a training
    sample would train a backbone whose detector cannot fit it, so every
    command that reads the split stops before it trains or writes."""
    cfg_path = idx_config(tmp_path, fault)
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    before = path.read_bytes()
    model = [] if command == "run-experiment" else ["--model", str(path)]
    assert main([command, "--config", cfg_path, *model]) == 1
    assert (f"error [{command}]: data.main train split: no samples of "
            f"classes [{empty}]") in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and path.read_bytes() == before


def labels_one_short_in(split):
    def fault(files, source):
        files[f"{split}_labels"] = files[f"{split}_labels"][:-1]
    return fault


@pytest.mark.parametrize("command,unread", [
    ("train", "test"), ("eval", "train"), ("export-features", "train")])
def test_a_split_the_command_does_not_use_is_not_read(tmp_path, command,
                                                      unread):
    cfg_path = idx_config(tmp_path, labels_one_short_in(unread))
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    assert main([command, "--config", cfg_path, "--model", str(path)]) == 0


def test_export_features_of_images_named_as_labels_exits_1_writing_nothing(
        tmp_path, capsys):
    def images_as_test_labels(files, source):
        source["idx"]["test_labels"] = source["idx"]["test_images"]

    cfg_path = idx_config(tmp_path, images_as_test_labels)
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    assert main(["export-features", "--config", cfg_path,
                 "--model", str(path)]) == 1
    assert "error [export-features]: labels" in capsys.readouterr().err
    assert not (tmp_path / "out" / "features.csv").exists()


def test_score_of_unrepresentable_idx_dims_exits_1(tmp_path, capsys):
    path = tmp_path / "m.oodn"
    save_model(path, full_state())
    image_file = tmp_path / "probe.idx"
    image_file.write_bytes(struct.pack(">I3I", 0x803, 0, 2**32 - 1, 2**32 - 1))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(synth_config(tmp_path)))
    assert main(["score", "--config", str(cfg_path), "--model", str(path),
                 str(image_file)]) == 1
    out, err = capsys.readouterr()
    assert "error [score]" in err and not out


# ---------------------------------------------------------------------------
# metrics CSVs


def test_metric_cells_are_plain_numbers(tmp_path):
    """Every f1 and auc cell of the sweep's and eval's metrics files is
    empty or a float literal, at lambda 0 and 1."""
    raw = synth_config(tmp_path, lambdas=(0.0, 1.0), epochs=1)
    run_experiment(RunConfig.from_dict(raw))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["eval", "--config", str(cfg_path),
                 "--model", str(out / "model_lam1_seed0.oodn"),
                 "--out", str(tmp_path / "eval")]) == 0
    files = [out / "metrics.csv", out / "metrics_median.csv",
             tmp_path / "eval" / "eval_metrics.csv"]
    for path in files:
        rows = list(csv.DictReader(path.open()))
        assert rows
        for row in rows:
            for column, cell in row.items():
                if column.startswith(("f1", "auc")) and cell:
                    assert math.isfinite(float(cell)), (path.name, cell)
