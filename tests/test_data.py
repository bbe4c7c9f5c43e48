import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import nearest_mean_accuracy
from oodnet import (Backbone, Centers, LabeledDataset, TrainConfig,
                    make_batches, normalize, parse_idx, serialize_idx,
                    split_classes, synth_blobs, train_epoch)
from oodnet.data import (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, ROLE_MAIN_TEST,
                         _class_layout, load_idx_dataset, load_idx_file)
from oodnet.errors import (DimMismatch, EmptySplit, OodnetError,
                           ShapeMismatch, TruncatedPayload, UnsupportedMagic)


def make_ds(labels, side=4, role="main-train"):
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(0)
    images = rng.random((len(labels), side, side)).astype(np.float32)
    return LabeledDataset(images, labels,
                          {int(c): int(c) for c in np.unique(labels)}, role)


class TestParseIdx:
    def test_label_vector(self):
        data = struct.pack(">II", 0x801, 3) + bytes([7, 2, 1])
        assert parse_idx(data).tolist() == [7, 2, 1]

    def test_image_tensor(self):
        data = struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(2 * 28 * 28)
        assert parse_idx(data).shape == (2, 28, 28)

    def test_unsupported_magic(self):
        with pytest.raises(UnsupportedMagic):
            parse_idx(struct.pack(">II", 0x802, 3) + bytes(3))

    def test_unrepresentable_dims(self):
        with pytest.raises(TruncatedPayload):
            parse_idx(struct.pack(">I3I", IDX_IMAGES_MAGIC, 0, 2**32 - 1,
                                  2**32 - 1))

    def test_truncated_payload(self):
        with pytest.raises(TruncatedPayload):
            parse_idx(struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(100))

    @given(st.binary(max_size=40) | st.builds(
        lambda magic, dims, payload: struct.pack(">I", magic) + dims + payload,
        st.sampled_from([IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC]),
        st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 4), max_size=4)
        .map(lambda dims: struct.pack(f">{len(dims)}I", *dims)),
        st.binary(max_size=40)))
    # dims whose product is 2**64: an int64 product wraps to 0
    @example(struct.pack(">4I", IDX_IMAGES_MAGIC, 2**31, 2**31, 4))
    # an empty payload whose other dims numpy cannot hold in one array
    @example(struct.pack(">I3I", IDX_IMAGES_MAGIC, 0, 2**32 - 1, 2**32 - 1))
    @example(b"\x00\x00\x08\x03\x00\x00\x00\x00\xad\x00\x00\x00\xbdi\x10H")
    def test_any_bytes_parse_or_raise_typed_error(self, raw):
        try:
            parse_idx(raw)
        except OodnetError:
            pass

    @pytest.mark.parametrize("array", [
        np.arange(10, dtype=np.uint8),
        np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3),
    ])
    def test_round_trip_byte_identical(self, array):
        encoded = serialize_idx(array)
        assert serialize_idx(parse_idx(encoded)) == encoded
        np.testing.assert_array_equal(parse_idx(encoded), array)

    def test_loading_a_file_holds_it_once(self, tmp_path):
        # the payload is a view of the bytes read, not a second copy
        path = tmp_path / "images.idx"
        path.write_bytes(serialize_idx(np.zeros((4000, 28, 28), np.uint8)))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            images = load_idx_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert images.shape == (4000, 28, 28)
        assert size <= peak < 1.1 * size


class TestSplitClasses:
    def test_keep_single_class(self):
        out = split_classes(make_ds([0, 1, 2, 0]), {0})
        assert len(out) == 2
        assert out.labels.tolist() == [0, 0]

    def test_relabel_dense_ascending(self):
        out = split_classes(make_ds([1, 5, 9]), set(range(1, 10)))
        assert out.labels.tolist() == [0, 4, 8]
        assert out.class_map == {k: k - 1 for k in range(1, 10)}

    def test_empty_keep(self):
        with pytest.raises(EmptySplit):
            split_classes(make_ds([0, 1]), set())

    def test_no_matching_samples(self):
        with pytest.raises(EmptySplit):
            split_classes(make_ds([0, 1]), {5})

    def test_keep_all_is_identity(self):
        ds = make_ds([0, 1, 2, 1])
        out = split_classes(ds, {0, 1, 2})
        np.testing.assert_array_equal(out.images, ds.images)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_class_map_invertible_on_kept(self):
        out = split_classes(make_ds([2, 4, 6]), {2, 4, 6})
        inverse = {v: k for k, v in out.class_map.items()}
        for orig in (2, 4, 6):
            assert inverse[out.class_map[orig]] == orig

    def test_kept_images_are_copied_once(self):
        """The zero-holdout split of IDX bytes (9 of 10 classes kept): the
        boolean index is the one copy, so the traced peak stays near the
        kept bytes, and the result shares no memory with its source."""
        labels = np.arange(6000, dtype=np.int64) % 10
        images = np.random.default_rng(0).integers(
            0, 256, (len(labels), 28, 28), dtype=np.uint8)
        ds = LabeledDataset(images, labels, {c: c for c in range(10)})
        tracemalloc.start()
        try:
            out = split_classes(ds, range(1, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 5400
        assert peak < 1.3 * out.images.nbytes
        assert not np.shares_memory(out.images, ds.images)
        assert not np.shares_memory(out.labels, ds.labels)


class TestNormalize:
    @pytest.mark.parametrize("raw,expected", [(0, 0.0), (255, 1.0), (51, 0.2)])
    def test_scaling(self, raw, expected):
        assert normalize(np.array([raw], dtype=np.uint8))[0] == pytest.approx(expected)

    def test_every_byte_keeps_the_bits_of_divide_after_cast(self):
        raw = np.arange(256, dtype=np.uint8).reshape(16, 4, 4)
        got = normalize(raw)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, np.asarray(raw, dtype=np.float32) / 255.0)

    def test_float32_input_is_left_unchanged(self):
        raw = np.arange(256, dtype=np.float32)
        out = normalize(raw)
        np.testing.assert_array_equal(raw, np.arange(256, dtype=np.float32))
        assert not np.shares_memory(out, raw)


class TestMakeBatches:
    def test_partition_sizes(self):
        batches = make_batches(make_ds(np.zeros(10, int) + [0]), 4, seed=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_same_seed_same_batches(self):
        ds = make_ds(np.arange(7) % 3)
        a = make_batches(ds, 3, seed=5)
        b = make_batches(ds, 3, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.images, y.images)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_checks_m_at_the_call_and_yields_lazily(self):
        ds = make_ds(np.arange(6) % 2)
        with pytest.raises(ValueError):
            make_batches(ds, 0)
        batches = make_batches(ds, 4)
        assert iter(batches) is batches

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_each_sample_exactly_once(self, seed):
        ds = make_ds(np.arange(11) % 3)
        batches = make_batches(ds, 4, seed=seed)
        got = np.concatenate([b.images for b in batches])
        assert sorted(map(tuple, got.reshape(len(got), -1))) == \
            sorted(map(tuple, ds.images.reshape(len(ds), -1)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_each_batch_is_a_read_only_dataset_copied_out_of_ds(self, dtype):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, (100, 12, 12)) if dtype == np.uint8 \
            else rng.random((100, 12, 12))
        ds = LabeledDataset(pixels.astype(dtype), np.arange(100) % 4,
                            {c + 5: c for c in range(4)})
        images, labels = ds.images.copy(), ds.labels.copy()
        order = np.arange(100)   # the order make_batches documents
        np.random.default_rng(9).shuffle(order)
        batches = list(make_batches(ds, 32, seed=9))
        assert [len(b) for b in batches] == [32, 32, 32, 4]
        for i, batch in zip(range(0, 100, 32), batches):
            assert isinstance(batch, LabeledDataset)
            for got, source in ((batch.images, ds.images),
                                (batch.labels, ds.labels)):
                want = source[order[i:i + 32]]
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
                assert not np.shares_memory(got, source)
            assert (batch.role, batch.class_map) == (ds.role, ds.class_map)
        assert ds.images.tobytes() == images.tobytes()
        np.testing.assert_array_equal(ds.labels, labels)
        record = train_epoch(Backbone(4, input_side=12, seed=0),
                             Centers(4, 84, seed=0), batches[0],
                             TrainConfig(batch_size=8, lam=0.1))
        assert np.isfinite(record.loss) and 0 <= record.accuracy <= 1


def test_an_idx_split_and_its_batches_stay_bytes(tmp_path):
    raw = np.random.default_rng(0).integers(0, 256, (7, 5, 6), dtype=np.uint8)
    labels = np.array([3, 1, 3, 0, 1, 1, 0], dtype=np.uint8)
    (tmp_path / "images").write_bytes(serialize_idx(raw))
    (tmp_path / "labels").write_bytes(serialize_idx(labels))
    ds = load_idx_dataset(tmp_path / "images", tmp_path / "labels", ROLE_MAIN_TEST)
    assert ds.images.dtype == np.uint8 and ds.images.nbytes == 7 * 5 * 6
    np.testing.assert_array_equal(ds.images, raw)
    np.testing.assert_array_equal(ds.labels, labels)
    batches = list(make_batches(ds, 3, seed=0))
    assert [b.images.dtype for b in batches] == [np.uint8] * 3


def synth_blobs_per_image(n_classes, per_class, side=12, separation=3.0,
                          seed=0, role="main-train", layout_seed=0):
    """The generator as one image at a time: the reference for its bits."""
    images = np.empty((n_classes * per_class, side, side), dtype=np.float32)
    labels = np.empty(n_classes * per_class, dtype=np.int64)
    rng = np.random.default_rng(seed)
    centers = _class_layout(n_classes, side, separation, layout_seed)
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float32)
    sigma, noise = 1.2, 0.05
    k = 0
    for cls in range(n_classes):
        for _ in range(per_class):
            jy, jx = centers[cls] + rng.normal(0, 0.5, size=2)
            img = np.exp(-((yy - jy) ** 2 + (xx - jx) ** 2) / (2 * sigma ** 2))
            img += rng.normal(0, noise, size=img.shape).astype(np.float32)
            images[k] = np.clip(img, 0.0, 1.0)
            labels[k] = cls
            k += 1
    class_map = {c: c for c in range(n_classes)}
    return LabeledDataset(images, labels, class_map, role)


class TestSynthBlobs:
    @pytest.mark.parametrize("side", [12, 16, 28, 32])
    @pytest.mark.parametrize("per_class", [1, 63, 64, 65, 129])
    def test_same_bits_as_one_image_at_a_time(self, per_class, side):
        for n_classes, seed, layout_seed, separation, role in [
                (2, 0, 0, 3.0, "main-train"), (3, 11, 5, 5.0, "anomaly"),
                (10, 2024, 1, 0.5, "main-test")]:
            args = (n_classes, per_class, side, separation, seed, role,
                    layout_seed)
            got, want = synth_blobs(*args), synth_blobs_per_image(*args)
            assert got.images.dtype == want.images.dtype
            assert got.images.tobytes() == want.images.tobytes()
            assert got.labels.dtype == np.int64
            np.testing.assert_array_equal(got.labels, want.labels)
            assert got.class_map == want.class_map
            assert got.role == want.role

    def test_balanced_labels(self):
        ds = synth_blobs(2, 5, side=10, seed=0)
        assert len(ds) == 10
        assert np.bincount(ds.labels).tolist() == [5, 5]

    def test_deterministic_per_seed(self):
        a = synth_blobs(3, 4, side=10, seed=9)
        b = synth_blobs(3, 4, side=10, seed=9)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_large_separation_nearest_mean_perfect(self):
        ds = synth_blobs(3, 30, side=16, separation=5.0, seed=2)
        assert nearest_mean_accuracy(ds) == 1.0

    def test_images_in_unit_interval(self):
        ds = synth_blobs(2, 10, side=10, seed=3)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestLabeledDatasetChecks:
    def test_the_callers_arrays_stay_writeable_and_the_datasets_do_not(self):
        images = np.zeros((2, 4, 4), dtype=np.float32)
        labels = np.array([0, 1])
        ds = LabeledDataset(images, labels)
        assert images.flags.writeable and labels.flags.writeable
        assert not ds.images.flags.writeable and not ds.labels.flags.writeable
        images[0, 0, 0], labels[1] = 1.0, 0   # views: no pixel was copied
        assert ds.images[0, 0, 0] == 1.0 and ds.labels[1] == 0
        with pytest.raises(ValueError, match="read-only"):
            ds.images[0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = 1

    def test_length_mismatch_is_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            LabeledDataset(np.zeros((3, 4, 4), dtype=np.float32),
                           np.zeros(2, dtype=np.int64))

    def test_labels_not_rank_1_is_shape_mismatch(self):
        """An images array given as labels, even with one label per image."""
        with pytest.raises(ShapeMismatch, match="labels"):
            LabeledDataset(np.zeros((3, 4, 4), dtype=np.float32),
                           np.zeros((3, 4, 4), dtype=np.int64))

    def test_images_not_rank_3_is_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            LabeledDataset(np.zeros(3, dtype=np.float32),
                           np.zeros(3, dtype=np.int64))
