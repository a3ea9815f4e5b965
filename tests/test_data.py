"""Datasets: synthetic blobs, CIFAR-10 binary ingestion, splits, batching."""

import tracemalloc

import numpy as np
import pytest

from labelattn.annotators import AnnotatorSpec, NoisyLabelSet
from labelattn.data import (CIFAR_RECORD_BYTES, LabeledDataset, SyntheticSpec,
                            attach_annotators, consensus_labels, load_cifar10,
                            load_dataset, minibatches, one_hot, save_dataset, split,
                            synth_blobs, take_subset)


class TestSynthBlobs:
    def test_deterministic_bitwise(self):
        spec = SyntheticSpec(n_classes=4, dim=6, samples_per_class=20, seed=3)
        a, b = synth_blobs(spec), synth_blobs(spec)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.clean_labels, b.clean_labels)

    def test_exact_class_counts(self):
        ds = synth_blobs(SyntheticSpec(n_classes=5, dim=3, samples_per_class=17, seed=0))
        counts = np.bincount(ds.clean_labels, minlength=5)
        assert np.array_equal(counts, np.full(5, 17))

    def test_well_separated_classes_admit_a_linear_probe(self):
        spec = SyntheticSpec(n_classes=2, dim=8, samples_per_class=400,
                             cluster_std=0.1, center_scale=10.0, seed=1)
        ds = synth_blobs(spec)
        targets = one_hot(ds.clean_labels, 2)
        aug = np.hstack([ds.features, np.ones((ds.n_samples, 1))])
        coef, *_ = np.linalg.lstsq(aug, targets, rcond=None)
        predicted = np.argmax(aug @ coef, axis=1)
        assert np.mean(predicted == ds.clean_labels) >= 0.999

    def test_test_stream_shares_centers_but_not_samples(self):
        spec = SyntheticSpec(n_classes=3, dim=4, samples_per_class=50, seed=2)
        train, test = synth_blobs(spec, "train"), synth_blobs(spec, "test")
        assert not np.array_equal(train.features, test.features)
        for c in range(3):
            mu_train = train.features[train.clean_labels == c].mean(axis=0)
            mu_test = test.features[test.clean_labels == c].mean(axis=0)
            assert np.linalg.norm(mu_train - mu_test) < 1.0

    def test_unknown_stream(self):
        with pytest.raises(ValueError, match="stream"):
            synth_blobs(SyntheticSpec(), "validation")


def traced(fn, *args, **kwargs):
    """``fn``'s result and the peak bytes it allocates on top of what is live
    when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def write_cifar_fixture(path, records):
    """records: list of (label, pixel_fill or bytes)"""
    blob = bytearray()
    for label, pixels in records:
        blob.append(label)
        if isinstance(pixels, int):
            blob.extend([pixels] * 3072)
        else:
            blob.extend(pixels)
    path.write_bytes(bytes(blob))


class TestLoadCifar10:
    def test_fixture_round_trip(self, tmp_path):
        path = tmp_path / "batch.bin"
        pixels = bytes(range(256)) * 12  # 3072 bytes with known pattern
        write_cifar_fixture(path, [(3, pixels), (9, 0)])
        ds = load_cifar10([path])
        assert ds.n_samples == 2 and ds.n_classes == 10
        assert np.array_equal(ds.clean_labels, [3, 9])
        expected = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
        assert np.array_equal(ds.features[0], expected)
        assert np.array_equal(ds.features[1], np.zeros(3072))

    def test_normalization_endpoints(self, tmp_path):
        path = tmp_path / "batch.bin"
        write_cifar_fixture(path, [(0, 255), (1, 0)])
        ds = load_cifar10([path])
        assert np.all(ds.features[0] == 1.0)
        assert np.all(ds.features[1] == 0.0)

    def test_truncated_file_names_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(CIFAR_RECORD_BYTES + 100))
        with pytest.raises(ValueError, match=f"byte offset {CIFAR_RECORD_BYTES}"):
            load_cifar10([path])

    def test_bad_label_byte(self, tmp_path):
        path = tmp_path / "bad.bin"
        write_cifar_fixture(path, [(10, 0)])
        with pytest.raises(ValueError, match="label byte 10"):
            load_cifar10([path])

    def test_multiple_files_concatenate(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_cifar_fixture(p1, [(1, 7)])
        write_cifar_fixture(p2, [(2, 8), (3, 9)])
        ds = load_cifar10([p1, p2])
        assert np.array_equal(ds.clean_labels, [1, 2, 3])

    def test_decodes_in_place_with_the_old_bits(self, tmp_path):
        rng = np.random.default_rng(11)
        paths, blocks = [], []
        for i in range(4):
            raw = rng.integers(0, 256, size=(40, CIFAR_RECORD_BYTES), dtype=np.uint8)
            raw[:, 0] %= 10
            paths.append(tmp_path / f"data_batch_{i}.bin")
            paths[-1].write_bytes(raw.tobytes())
            blocks.append(raw)
        ds, peak = traced(load_cifar10, paths)
        # the output plus the bytes of one file, not a decoded copy per file
        assert peak <= 1.1 * ds.features.nbytes
        expected = np.concatenate([b[:, 1:].astype(np.float64) / 255.0 for b in blocks])
        assert ds.features.tobytes() == expected.tobytes()
        assert np.array_equal(ds.clean_labels, np.concatenate([b[:, 0] for b in blocks]))


def blob_dataset(seed=0, per_class=40, n_classes=4):
    return synth_blobs(SyntheticSpec(n_classes=n_classes, dim=5,
                                     samples_per_class=per_class, seed=seed))


def with_aux(ds, aux):
    return LabeledDataset(features=ds.features, clean_labels=ds.clean_labels,
                          n_classes=ds.n_classes, label_sets=ds.label_sets, aux=aux)


class TestAttachAnnotators:
    def test_identity_annotator_matches_clean(self):
        ds = attach_annotators(blob_dataset(), [AnnotatorSpec("hammer_spammer", 0.0)],
                               seed=1)
        assert np.array_equal(ds.label_sets[0].labels, ds.clean_labels)

    def test_disagreement_rate_matches_noise(self):
        ds = blob_dataset(per_class=2500)  # 10k samples
        noisy = attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3)], seed=2)
        rate = np.mean(noisy.label_sets[0].labels != noisy.clean_labels)
        assert 0.28 <= rate <= 0.32

    def test_deterministic_and_stable_under_roster_growth(self):
        ds = blob_dataset()
        one = attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3)], seed=3)
        two = attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3),
                                     AnnotatorSpec("adversarial")], seed=3)
        assert np.array_equal(one.label_sets[0].labels, two.label_sets[0].labels)
        again = attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3)], seed=3)
        assert np.array_equal(one.label_sets[0].labels, again.label_sets[0].labels)

    def test_features_and_clean_labels_untouched(self):
        ds = blob_dataset()
        before = ds.features.tobytes()
        noisy = attach_annotators(ds, [AnnotatorSpec("adversarial")], seed=4)
        assert ds.features.tobytes() == before and ds.n_sets == 0
        assert noisy.features.tobytes() == before

    def test_average_uses_other_annotators(self):
        ds = attach_annotators(blob_dataset(n_classes=10),
                               [AnnotatorSpec("hammer_spammer", 0.3),
                                AnnotatorSpec("adversarial"),
                                AnnotatorSpec("average")], seed=5)
        assert ds.n_sets == 3

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            attach_annotators(blob_dataset(), [], seed=0)


class TestSplit:
    def test_floor_rounding(self):
        ds = blob_dataset(per_class=250)  # 1000 samples
        train, val, idx = split(ds, 0.2, seed=1)
        assert val.n_samples == 200 and train.n_samples == 800
        assert idx.fraction == 0.2

    def test_partition_exact(self):
        ds = blob_dataset()
        _, _, idx = split(ds, 0.25, seed=2)
        union = np.sort(np.concatenate([idx.train, idx.val]))
        assert np.array_equal(union, np.arange(ds.n_samples))
        assert np.intersect1d(idx.train, idx.val).size == 0

    def test_deterministic(self):
        ds = blob_dataset()
        _, _, a = split(ds, 0.2, seed=3)
        _, _, b = split(ds, 0.2, seed=3)
        assert np.array_equal(a.val, b.val)

    def test_label_sets_follow_the_split(self):
        ds = attach_annotators(blob_dataset(), [AnnotatorSpec("adversarial")], seed=6)
        train, val, idx = split(ds, 0.2, seed=4)
        assert np.array_equal(train.label_sets[0].labels,
                              ds.label_sets[0].labels[idx.train])
        assert np.array_equal(val.label_sets[0].labels,
                              ds.label_sets[0].labels[idx.val])

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="val_fraction"):
            split(blob_dataset(), 1.0, seed=0)

    def test_empty_validation_half_refused(self):
        pool = blob_dataset(per_class=2, n_classes=2)
        with pytest.raises(ValueError, match="pool of 4 samples at val_fraction 0.2"):
            split(pool, 0.2, seed=0)
        train, val, _ = split(pool, 0.25, seed=0)
        assert (train.n_samples, val.n_samples) == (3, 1)


class TestMinibatches:
    def make(self):
        ds = blob_dataset(per_class=25)  # 100 samples
        return attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3),
                                      AnnotatorSpec("adversarial")], seed=7)

    def test_batch_sizes(self):
        sizes = [b.x.shape[0] for b in minibatches(self.make(), 32, seed=0, epoch=0)]
        assert sizes == [32, 32, 32, 4]

    def test_each_sample_exactly_once(self):
        ds = self.make()
        seen = np.concatenate([b.indices for b in minibatches(ds, 32, seed=1, epoch=0)])
        assert np.array_equal(np.sort(seen), np.arange(ds.n_samples))

    def test_epoch_changes_order_but_runs_reproduce(self):
        ds = self.make()
        e0 = np.concatenate([b.indices for b in minibatches(ds, 32, seed=2, epoch=0)])
        e1 = np.concatenate([b.indices for b in minibatches(ds, 32, seed=2, epoch=1)])
        e0_again = np.concatenate([b.indices for b in minibatches(ds, 32, seed=2, epoch=0)])
        assert not np.array_equal(e0, e1)
        assert np.array_equal(e0, e0_again)

    def test_batches_carry_onehot_sets(self):
        ds = self.make()
        batch = next(minibatches(ds, 16, seed=3, epoch=0))
        assert batch.label_sets.shape == (2, 16, 4)
        assert np.all(batch.label_sets.sum(axis=2) == 1.0)
        expected = one_hot(ds.label_sets[1].labels[batch.indices], 4)
        assert np.array_equal(batch.label_sets[1], expected)


def eager(ds, rows):
    """The samples at ``rows`` of ``ds`` as a dataset holding its own copies."""
    return LabeledDataset(
        features=ds.features[rows].copy(), clean_labels=ds.clean_labels[rows].copy(),
        n_classes=ds.n_classes,
        label_sets=[NoisyLabelSet(ls.labels[rows].copy()) for ls in ds.label_sets],
        aux=None if ds.aux is None else ds.aux[rows].copy())


class TestRowView:
    def noisy(self, aux_dim=0):
        ds = blob_dataset(per_class=25)  # 100 samples
        if aux_dim:
            ds = with_aux(ds, np.random.default_rng(12).normal(size=(ds.n_samples, aux_dim)))
        return attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3),
                                      AnnotatorSpec("adversarial"),
                                      AnnotatorSpec("average")], seed=13)

    def assert_same(self, view, ref):
        assert view.n_samples == ref.n_samples
        assert view.features.tobytes() == ref.features.tobytes()
        assert (view.aux is None) == (ref.aux is None)
        if ref.aux is not None:
            assert view.aux.tobytes() == ref.aux.tobytes()
        assert view.clean_labels.tobytes() == ref.clean_labels.tobytes()
        for a, b in zip(view.label_sets, ref.label_sets, strict=True):
            assert a.labels.tobytes() == b.labels.tobytes()
        assert consensus_labels(view).tobytes() == consensus_labels(ref).tobytes()
        for epoch in range(2):
            for a, b in zip(minibatches(view, 16, seed=4, epoch=epoch),
                            minibatches(ref, 16, seed=4, epoch=epoch), strict=True):
                assert a.x.tobytes() == b.x.tobytes()
                assert a.label_sets.tobytes() == b.label_sets.tobytes()
                assert a.indices.tobytes() == b.indices.tobytes()
                assert (a.aux is None) == (b.aux is None)
                if b.aux is not None:
                    assert a.aux.tobytes() == b.aux.tobytes()

    @pytest.mark.parametrize("aux_dim", [0, 3])
    def test_split_halves_match_eager_copies(self, aux_dim):
        ds = self.noisy(aux_dim)
        train, val, idx = split(ds, 0.2, seed=5)
        self.assert_same(train, eager(ds, idx.train))
        self.assert_same(val, eager(ds, idx.val))
        self.assert_same(ds, eager(ds, np.arange(ds.n_samples)))

    @pytest.mark.parametrize("aux_dim", [0, 3])
    def test_subset_of_a_subset_composes_rows(self, aux_dim):
        ds = self.noisy(aux_dim)
        first = np.random.default_rng(6).permutation(ds.n_samples)[:70]
        second = np.array([69, 0, 5, 5, 33, 12, 40, 1, 2, 68, 3, 50, 51, 52, 17, 18, 19])
        twice = take_subset(take_subset(ds, first), second)
        assert np.array_equal(twice.rows, first[second])
        self.assert_same(twice, eager(ds, first[second]))
        # annotators attached to a view see the same rows
        again = attach_annotators(twice, [AnnotatorSpec("adversarial")], seed=2)
        assert np.shares_memory(again.rows, twice.rows) and again.n_sets == 4
        assert again.features.tobytes() == twice.features.tobytes()

    def test_subset_split_and_attach_share_the_features(self):
        wide = synth_blobs(SyntheticSpec(n_classes=4, dim=1024, samples_per_class=250, seed=7))
        budget = 0.05 * wide.features.nbytes
        specs = [AnnotatorSpec("hammer_spammer", 0.3), AnnotatorSpec("adversarial")]
        assert traced(attach_annotators, wide, specs, seed=1)[1] < budget
        noisy = attach_annotators(wide, specs, seed=1)
        assert traced(split, noisy, 0.2, seed=2)[1] < budget
        assert traced(take_subset, noisy, np.arange(0, 1000, 3))[1] < budget
        train, val, _ = split(noisy, 0.2, seed=2)
        for ds in (noisy, train, val, take_subset(train, np.arange(10))):
            assert np.shares_memory(ds._features, wide.features)

    def test_writes_through_a_dataset_raise(self):
        feats = np.zeros((6, 2))
        aux = np.ones((6, 1))
        ds = LabeledDataset(features=feats, clean_labels=[0, 1, 0, 1, 0, 1], n_classes=2,
                            aux=aux)
        noisy = attach_annotators(ds, [AnnotatorSpec("adversarial")], seed=0)
        for view in (ds, noisy):
            for array in (view.features, view.aux, view.clean_labels):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7
        # the caller's own arrays keep their flags and their values
        assert feats.flags.writeable and aux.flags.writeable
        assert not feats.any() and np.all(aux == 1.0)
        feats[0, 0] = 3.0
        assert ds.features[0, 0] == 3.0

    @pytest.mark.parametrize("rows, message", [
        (np.zeros((2, 2), dtype=np.int64), "1-D integer"),
        (np.array([0.0, 1.0]), "1-D integer"),
        (np.array([True, False, True]), "1-D integer"),
        (np.array([0, 3]), "out of range for 3 rows"),
        (np.array([-1, 0]), "out of range for 3 rows"),
    ])
    def test_bad_rows_refused(self, rows, message):
        ds = LabeledDataset(features=np.zeros((3, 2)), clean_labels=[0, 1, 0], n_classes=2)
        with pytest.raises(ValueError, match=message):
            take_subset(ds, rows)
        n = rows.shape[0]
        with pytest.raises(ValueError, match=message):
            LabeledDataset(features=ds.features, clean_labels=np.zeros(n, dtype=np.int64),
                           n_classes=2, rows=rows)


class TestOneHot:
    def test_example(self):
        row = one_hot(np.array([3]), 10)[0]
        assert np.array_equal(row, [0, 0, 0, 1, 0, 0, 0, 0, 0, 0])

    def test_round_trip(self):
        labels = np.random.default_rng(5).integers(0, 7, size=100)
        assert np.array_equal(np.argmax(one_hot(labels, 7), axis=1), labels)

    def test_row_sums(self):
        labels = np.random.default_rng(6).integers(0, 9, size=200)
        assert np.all(one_hot(labels, 9).sum(axis=1) == 1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            one_hot(np.array([5]), 5)


class TestConsensus:
    def test_plurality_vote(self):
        ds = blob_dataset(per_class=1, n_classes=4)
        from labelattn.annotators import NoisyLabelSet
        ds = LabeledDataset(features=ds.features, clean_labels=ds.clean_labels,
                            n_classes=4,
                            label_sets=[NoisyLabelSet(np.array([0, 1, 2, 3])),
                                        NoisyLabelSet(np.array([0, 1, 3, 2])),
                                        NoisyLabelSet(np.array([1, 1, 3, 1]))])
        assert np.array_equal(consensus_labels(ds), [0, 1, 3, 1])


class TestContainer:
    def test_round_trip(self, tmp_path):
        ds = attach_annotators(blob_dataset(), [AnnotatorSpec("hammer_spammer", 0.3),
                                                AnnotatorSpec("adversarial")], seed=8)
        ds = with_aux(ds, np.random.default_rng(9).normal(size=(ds.n_samples, 3)))
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.clean_labels, ds.clean_labels)
        assert back.n_classes == ds.n_classes and back.n_sets == 2
        for a, b in zip(back.label_sets, ds.label_sets):
            assert np.array_equal(a.labels, b.labels)
        assert back.aux.tobytes() == ds.aux.tobytes()

    def test_labels_beyond_uint8_rejected(self, tmp_path):
        wide = LabeledDataset(features=np.zeros((2, 1)), clean_labels=[0, 299], n_classes=300)
        path = tmp_path / "ds.bin"
        with pytest.raises(ValueError, match="300 classes"):
            save_dataset(wide, path)
        assert not path.exists()
        edge = LabeledDataset(features=np.zeros((2, 1)), clean_labels=[0, 255], n_classes=256)
        save_dataset(edge, path)
        assert np.array_equal(load_dataset(path).clean_labels, [0, 255])

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="clean label"):
            LabeledDataset(features=np.zeros((2, 1)), clean_labels=[0, -1], n_classes=2)
        with pytest.raises(ValueError, match="noisy label"):
            LabeledDataset(features=np.zeros((2, 1)), clean_labels=[0, 1], n_classes=2,
                           label_sets=[NoisyLabelSet(np.array([-1, 0]))])

    def test_empty_dataset_refused(self, tmp_path):
        path = tmp_path / "ds.bin"
        empty = LabeledDataset(features=np.zeros((0, 1)), clean_labels=[], n_classes=2)
        with pytest.raises(ValueError, match="no samples"):
            save_dataset(empty, path)
        assert not path.exists()
        # zero samples leave the label-set count unbounded by the file length
        path.write_bytes(np.array([0, 1, 1, 200_000, 0], dtype=np.int64).tobytes())
        with pytest.raises(ValueError, match="no samples"):
            load_dataset(path)

    @pytest.mark.parametrize("cut", ["header", "short", "trailing"])
    def test_length_mismatch_rejected(self, tmp_path, cut):
        ds = attach_annotators(blob_dataset(), [AnnotatorSpec("hammer_spammer", 0.3)], seed=8)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes({"header": raw[:20], "short": raw[:-1], "trailing": raw + b"\0"}[cut])
        with pytest.raises(ValueError, match="bytes"):
            load_dataset(path)

    @pytest.mark.parametrize("where, bad", [("features", np.nan), ("features", np.inf),
                                            ("aux", np.nan), ("aux", -np.inf)])
    def test_non_finite_features_rejected(self, tmp_path, where, bad):
        ds = attach_annotators(blob_dataset(), [AnnotatorSpec("hammer_spammer", 0.3)], seed=8)
        arrays = {"features": ds.features.copy(),
                  "aux": np.random.default_rng(9).normal(size=(ds.n_samples, 2))}
        arrays[where][3, 1] = bad
        ds = LabeledDataset(features=arrays["features"], clean_labels=ds.clean_labels,
                            n_classes=ds.n_classes, label_sets=ds.label_sets,
                            aux=arrays["aux"])
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        with pytest.raises(ValueError, match="non-finite"):
            load_dataset(path)
