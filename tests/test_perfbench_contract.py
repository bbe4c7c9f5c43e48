"""The names the benchmark's span tracer (perfbench/spans.py) wraps by
name must exist in oodnet with call signatures its batch functions
accept, and installing the tracer must leave oodnet as it found it."""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import oodnet.cli  # noqa: F401  (imports every other oodnet module)
from oodnet import detector, experiment, head, nn
from oodnet.centerloss import Centers
from oodnet.data import synth_blobs
from test_cli import synth_config

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, attr):
    target = importlib.import_module(f"oodnet.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_traced_names_resolve(spans):
    for module, attr, _, _ in spans.TRACED:
        assert callable(resolve(module, attr)), f"{module}.{attr}"
    for cls_name in spans.LAYER_CLASSES:
        for meth in ("forward", "backward"):
            assert callable(getattr(getattr(nn, cls_name), meth))
    assert callable(detector.cho_solve)


def test_backbone_layers_form_the_traced_groups(spans):
    model = nn.Backbone(3, input_side=12, seed=0)
    groups = spans.layer_groups(model)
    assert list(groups) == model.layers
    assert list(dict.fromkeys(groups.values())) == [
        "conv1", "pool1", "conv2", "pool2", "dense"]


def snapshot():
    """Every binding of every oodnet module and class namespace."""
    modules = {key: mod for key, mod in sys.modules.items()
               if key == "oodnet" or key.startswith("oodnet.")}
    out = {}
    for key, mod in modules.items():
        out[key] = dict(vars(mod))
        for name, value in vars(mod).items():
            if inspect.isclass(value) and value.__module__ == key:
                out[f"{key}.{name}"] = dict(vars(value))
    return out


def test_installed_tracer_records_and_restores(spans, tmp_path):
    before = snapshot()
    tracer = spans.Tracer()
    with tracer.installed():
        assert nn.Backbone.forward is not before["oodnet.nn.Backbone"]["forward"]
        tracer.begin_op("cell")
        experiment.run_experiment(
            experiment.RunConfig.from_dict(synth_config(tmp_path, epochs=1)))
    names = {s.name for s in tracer.spans}
    for name in ("experiment.run", "experiment.stage_one", "experiment.stage_two",
                 "nn.forward", "nn.backward", "nn.conv1.fwd", "nn.dense.bwd",
                 "detector.is_normal_many", "head.train",
                 "experiment.calibration", "experiment.evaluate"):
        assert name in names
    after = snapshot()
    assert after.keys() == before.keys()
    for key, bindings in before.items():
        assert after[key].keys() == bindings.keys(), key
        changed = [n for n, v in bindings.items() if after[key][n] is not v]
        assert not changed, f"{key}: {changed}"


def test_traced_training_derives_every_layer_metric(spans):
    """One batch-64 training step and one head training run, traced,
    give a time to every backbone layer group in both directions, the
    samples backpropagated and the head's training rate."""
    ds = synth_blobs(2, 32, side=12, seed=0)
    model = nn.Backbone(2, input_side=12, seed=0)
    centers = Centers(2, model.feature_dim, seed=0)
    feats = np.random.default_rng(0).random((40, model.feature_dim),
                                            dtype=np.float32)
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.begin_op("step")
        nn.train_epoch(model, centers, ds,
                       nn.TrainConfig(epochs=1, batch_size=64, lam=0.1))
        head.train_head_on_features(head.OodHead(model.feature_dim, seed=0),
                                    feats[:24], feats[24:],
                                    head.HeadTrainConfig(epochs=2))
    metrics = spans.layer_metrics(tracer)
    for group in ("conv1", "pool1", "conv2", "pool2", "dense"):
        for direction in ("fwd", "bwd"):
            assert metrics[f"nn.{group}.{direction}_ms"][0] > 0, (group, direction)
    assert metrics["nn.backward_samples"][0] == len(ds)
    assert metrics["head.train_samples_per_s"][0] > 0
