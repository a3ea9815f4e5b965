"""Datasets: synthetic blobs, CIFAR-10 binary ingestion, splits, batching."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from labelattn import data
from labelattn.annotators import AnnotatorSpec, build_cm
from labelattn.data import (CIFAR_RECORD_BYTES, LabeledDataset, SyntheticSpec,
                            attach_annotators, consensus_labels, load_cifar10, minibatches,
                            one_hot, split, synth_blobs, take_subset)

TABLE2_ROSTER = (AnnotatorSpec("hammer_spammer", 0.3), AnnotatorSpec("structured_flips", 0.4),
                 AnnotatorSpec("ordered_confusion", 0.5), AnnotatorSpec("adversarial"),
                 AnnotatorSpec("average"))


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

    @pytest.mark.parametrize("stream", ["train", "test"])
    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n_classes=1, dim=5, samples_per_class=7, seed=4),
        SyntheticSpec(n_classes=6, dim=3, samples_per_class=1, seed=5),
        SyntheticSpec(n_classes=4, dim=1, samples_per_class=9, seed=6),
        SyntheticSpec(n_classes=3, dim=4, samples_per_class=5, cluster_std=0.37,
                      center_scale=1.9, seed=7),
        SyntheticSpec(n_classes=1, dim=1, samples_per_class=1, cluster_std=2.5, seed=8),
    ] + [SyntheticSpec(n_classes=int(r.integers(1, 12)), dim=int(r.integers(1, 40)),
                       samples_per_class=int(r.integers(1, 30)),
                       cluster_std=float(r.uniform(0.05, 4.0)),
                       center_scale=float(r.uniform(0.1, 6.0)), seed=int(r.integers(1000)))
         for r in [np.random.default_rng(31)] for _ in range(12)])
    def test_matches_the_per_class_loop_bitwise(self, spec, stream):
        got, want = synth_blobs(spec, stream), per_class_blobs(spec, stream)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.clean_labels.dtype == np.int64
        assert np.array_equal(got.clean_labels, want.clean_labels)

    def test_allocates_little_beyond_its_features(self):
        synth_blobs(SyntheticSpec(n_classes=1, dim=1, samples_per_class=1))  # imports numpy.random
        ds, peak = traced(synth_blobs, SyntheticSpec(n_classes=4, dim=1024,
                                                     samples_per_class=250, seed=9))
        assert peak <= 1.05 * ds.features.nbytes


def per_class_blobs(spec, stream):
    """The per-class draw loop that ``synth_blobs`` replaces: the reference
    for its bits."""
    tag = {"train": 1002, "test": 1003}[stream]
    centers = np.random.default_rng([spec.seed, 1001]).standard_normal(
        (spec.n_classes, spec.dim)) * spec.center_scale
    rng = np.random.default_rng([spec.seed, tag])
    spc = spec.samples_per_class
    feats = np.empty((spec.n_classes * spc, spec.dim))
    labels = np.empty(spec.n_classes * spc, dtype=np.int64)
    for c in range(spec.n_classes):
        feats[c * spc:(c + 1) * spc] = centers[c] + spec.cluster_std * rng.standard_normal(
            (spc, spec.dim))
        labels[c * spc:(c + 1) * spc] = c
    return LabeledDataset(features=feats, clean_labels=labels, n_classes=spec.n_classes)


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

    @pytest.mark.parametrize("keep", [1, 40, 41, 500])
    def test_keep_decodes_the_first_records_with_the_old_bits(self, tmp_path, keep):
        # the first `keep` rows of the whole decode, across file boundaries
        rng = np.random.default_rng(12)
        paths = []
        for i in range(4):
            raw = rng.integers(0, 256, size=(40, CIFAR_RECORD_BYTES), dtype=np.uint8)
            raw[:, 0] %= 10
            paths.append(tmp_path / f"data_batch_{i}.bin")
            paths[-1].write_bytes(raw.tobytes())
        whole = load_cifar10(paths)
        ds = load_cifar10(paths, keep)
        assert ds.n_samples == min(keep, 160) and ds.rows is None
        assert ds.features.tobytes() == whole.features[:keep].tobytes()
        assert np.array_equal(ds.clean_labels, whole.clean_labels[:keep])


def blob_dataset(seed=0, per_class=40, n_classes=4):
    return synth_blobs(SyntheticSpec(n_classes=n_classes, dim=5,
                                     samples_per_class=per_class, seed=seed))


class TestAttachAnnotators:
    def test_identity_annotator_matches_clean(self):
        ds = attach_annotators(blob_dataset(), [AnnotatorSpec("hammer_spammer", 0.0)],
                               seed=1)
        assert np.array_equal(ds.label_sets[0], ds.clean_labels)

    def test_disagreement_rate_matches_noise(self):
        ds = blob_dataset(per_class=2500)  # 10k samples
        noisy = attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3)], seed=2)
        rate = np.mean(noisy.label_sets[0] != noisy.clean_labels)
        assert 0.28 <= rate <= 0.32

    def test_deterministic_and_stable_under_roster_growth(self):
        ds = blob_dataset()
        one = attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3)], seed=3)
        two = attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3),
                                     AnnotatorSpec("adversarial")], seed=3)
        assert np.array_equal(one.label_sets[0], two.label_sets[0])
        again = attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3)], seed=3)
        assert np.array_equal(one.label_sets[0], again.label_sets[0])

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
        train, val, _ = split(ds, 0.2, seed=1)
        assert val.n_samples == 200 and train.n_samples == 800

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
        assert np.array_equal(train.label_sets[0],
                              ds.label_sets[0][idx.train])
        assert np.array_equal(val.label_sets[0],
                              ds.label_sets[0][idx.val])

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
        expected = one_hot(ds.label_sets[1][batch.indices], 4)
        assert np.array_equal(batch.label_sets[1], expected)
        # every batch of a whole epoch, from a row view with M = 3 sets
        three = attach_annotators(blob_dataset(per_class=25, n_classes=5),
                                  [AnnotatorSpec("hammer_spammer", 0.3),
                                   AnnotatorSpec("adversarial"),
                                   AnnotatorSpec("average")], seed=8)
        train, _, _ = split(three, 0.2, seed=1)
        batches = list(minibatches(train, 16, seed=3, epoch=1))
        assert len(batches) == 7 and batches[-1].label_sets.shape == (3, 4, 5)
        for batch in batches:
            expected = one_hot(train.label_sets[:, batch.indices], 5)
            assert batch.label_sets.dtype == expected.dtype
            assert batch.label_sets.shape == expected.shape
            assert batch.label_sets.tobytes() == expected.tobytes()

    def test_an_epoch_allocates_less_than_one_hot_label_matrix(self):
        # the label sets are one-hot per batch: no [M, S, N] array is built
        ds = attach_annotators(blob_dataset(per_class=250, n_classes=10),
                               [AnnotatorSpec("hammer_spammer", 0.3),
                                AnnotatorSpec("adversarial"),
                                AnnotatorSpec("average")], seed=7)
        train, _, _ = split(ds, 0.2, seed=0)
        whole = 8 * train.n_sets * train.n_samples * train.n_classes

        def epoch():
            return sum(1 for _ in minibatches(train, 32, seed=0, epoch=0))

        count, peak = traced(epoch)
        assert count == 63
        assert peak < whole, (peak, whole)


def eager(ds, rows):
    """The samples at ``rows`` of ``ds`` as a dataset holding its own copies."""
    return LabeledDataset(
        features=ds.features[rows].copy(), clean_labels=ds.clean_labels[rows].copy(),
        n_classes=ds.n_classes,
        label_sets=ds.label_sets[:, rows])


class TestRowView:
    def noisy(self):
        ds = blob_dataset(per_class=25)  # 100 samples
        return attach_annotators(ds, [AnnotatorSpec("hammer_spammer", 0.3),
                                      AnnotatorSpec("adversarial"),
                                      AnnotatorSpec("average")], seed=13)

    def assert_same(self, view, ref):
        assert view.n_samples == ref.n_samples
        assert view.features.tobytes() == ref.features.tobytes()
        assert view.clean_labels.tobytes() == ref.clean_labels.tobytes()
        assert view.label_sets.shape == ref.label_sets.shape
        assert view.label_sets.tobytes() == ref.label_sets.tobytes()
        assert consensus_labels(view).tobytes() == consensus_labels(ref).tobytes()
        for epoch in range(2):
            for a, b in zip(minibatches(view, 16, seed=4, epoch=epoch),
                            minibatches(ref, 16, seed=4, epoch=epoch), strict=True):
                assert a.x.tobytes() == b.x.tobytes()
                assert a.label_sets.tobytes() == b.label_sets.tobytes()
                assert a.indices.tobytes() == b.indices.tobytes()

    def test_split_halves_match_eager_copies(self):
        ds = self.noisy()
        train, val, idx = split(ds, 0.2, seed=5)
        self.assert_same(train, eager(ds, idx.train))
        self.assert_same(val, eager(ds, idx.val))
        self.assert_same(ds, eager(ds, np.arange(ds.n_samples)))

    def test_subset_of_a_subset_composes_rows(self):
        ds = self.noisy()
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
        ds = LabeledDataset(features=feats, clean_labels=[0, 1, 0, 1, 0, 1], n_classes=2)
        noisy = attach_annotators(ds, [AnnotatorSpec("adversarial")], seed=0)
        for view in (ds, noisy):
            for array in (view.features, view.clean_labels):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7
        # the caller's own array keeps its flags and its values
        assert feats.flags.writeable
        assert not feats.any()
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

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError, match="got 0.7"):
            one_hot([0.7, 1.9], 3)
        assert np.array_equal(one_hot([0.0, 2.0], 3), one_hot([0, 2], 3))


class TestConsensus:
    def test_plurality_vote(self):
        ds = blob_dataset(per_class=1, n_classes=4)
        ds = LabeledDataset(features=ds.features, clean_labels=ds.clean_labels,
                            n_classes=4,
                            label_sets=[[0, 1, 2, 3], [0, 1, 3, 2], [1, 1, 3, 1]])
        assert np.array_equal(consensus_labels(ds), [0, 1, 3, 1])

    def test_no_label_sets_refused(self):
        with pytest.raises(ValueError, match="no label sets"):
            consensus_labels(blob_dataset())

    def test_ties_go_to_the_lowest_index(self):
        ds = LabeledDataset(np.zeros((4, 1)), [0, 0, 0, 0], 4,
                            label_sets=[[3, 2, 1, 0], [1, 3, 3, 2], [0, 0, 2, 1],
                                        [2, 1, 0, 3]])
        assert consensus_labels(ds).tolist() == [0, 0, 0, 0]
        ds = LabeledDataset(np.zeros((3, 1)), [0, 0, 0], 3,
                            label_sets=[[2, 1, 2], [1, 2, 0]])
        assert consensus_labels(ds).tolist() == [1, 1, 0]

    @pytest.mark.parametrize("n_sets, n_classes", [(1, 2), (2, 3), (4, 3), (5, 10), (6, 4)])
    def test_equals_the_argmax_of_summed_one_hot_sets(self, n_sets, n_classes):
        # the vote as a sum of one-hot rows, ties included (even M on few
        # classes ties often), on a row view
        rng = np.random.default_rng(n_sets * 100 + n_classes)
        sets = rng.integers(0, n_classes, size=(n_sets, 300))
        ds = LabeledDataset(np.zeros((400, 1)), np.zeros(300, np.int64), n_classes,
                            label_sets=sets, rows=rng.permutation(400)[:300])
        expected = np.argmax(one_hot(sets, n_classes).sum(axis=0), axis=1)
        got = consensus_labels(ds)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestContainer:
    def test_non_integer_clean_labels_rejected(self):
        with pytest.raises(ValueError, match="got 0.5"):
            LabeledDataset(np.zeros((2, 3)), [0.5, 1.2], 3)
        ds = LabeledDataset(np.zeros((2, 3)), np.array([0.0, 2.0]), 3)
        assert ds.clean_labels.dtype == np.int64 and ds.clean_labels.tolist() == [0, 2]

    def test_clean_labels_are_the_datasets_own_copy(self):
        clean = np.array([0, 1, 2])
        ds = LabeledDataset(np.zeros((3, 2)), clean, 3)
        clean[0] = 99
        assert ds.clean_labels.tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match="read-only"):
            ds.clean_labels[0] = 1
        assert clean.flags.writeable

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="clean label"):
            LabeledDataset(features=np.zeros((2, 1)), clean_labels=[0, -1], n_classes=2)
        with pytest.raises(ValueError, match="noisy label"):
            LabeledDataset(features=np.zeros((2, 1)), clean_labels=[0, 1], n_classes=2,
                           label_sets=[[-1, 0]])


class TestLabelMatrix:
    """The noisy labels are one read-only int64 [M, S] matrix, checked once."""

    def test_matrix_of_the_roster(self):
        ds = TestMinibatches().make()
        assert ds.label_sets.dtype == np.int64 and ds.label_sets.shape == (2, 100)
        assert ds.n_sets == 2
        assert np.array_equal(ds.label_sets[1], (ds.clean_labels + 1) % 4)  # adversarial
        empty = blob_dataset(per_class=3)
        assert empty.label_sets.shape == (0, 12) and empty.n_sets == 0
        batch = next(minibatches(empty, 5, seed=0, epoch=0))
        assert batch.label_sets.shape == (0, 5, 4)

    def test_writes_raise_and_the_callers_array_is_untouched(self):
        sets = np.array([[0, 1, 2], [2, 1, 0]])
        ds = LabeledDataset(np.zeros((3, 2)), [0, 1, 2], 3, label_sets=sets)
        for write in (lambda: ds.label_sets.__setitem__((0, 0), 2),
                      lambda: ds.label_sets[0].__setitem__(0, 2),
                      lambda: ds.label_sets.fill(0)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        for view in (take_subset(ds, [2, 0]), attach_annotators(ds, [AnnotatorSpec(
                "adversarial")], seed=0), split(ds, 0.34, seed=0)[0]):
            with pytest.raises(ValueError, match="read-only"):
                view.label_sets[0, 0] = 1
        assert sets.flags.writeable and sets.tolist() == [[0, 1, 2], [2, 1, 0]]
        # the dataset keeps its own copy: a later write by the caller, which
        # would otherwise stale the one-hot sets and skip the range check,
        # does not reach it
        before = consensus_labels(ds).copy()
        sets[:] = 99
        assert ds.label_sets.tolist() == [[0, 1, 2], [2, 1, 0]]
        assert np.array_equal(consensus_labels(ds), before)

    @pytest.mark.parametrize("sets, message", [
        (np.array([0, 1, 2]), r"\[sets, 3\] matrix, got shape \(3,\)"),
        (np.zeros((2, 4), dtype=np.int64), r"\[sets, 3\] matrix, got shape \(2, 4\)"),
        (np.zeros((1, 1, 3), dtype=np.int64), r"\[sets, 3\] matrix"),
        ([[0, 1, 3]], "noisy label index out of range"),
        ([[0, -1, 2]], "noisy label index out of range"),
        ([[0.0, np.nan, 2.0]], "got nan"),
        ([[0.0, 1.5, 2.0]], "got 1.5"),
        (np.array([["a", "b", "c"]]), "integer class indices"),
    ])
    def test_bad_matrix_refused_at_construction(self, sets, message):
        with pytest.raises(ValueError, match=message):
            LabeledDataset(np.zeros((3, 2)), [0, 1, 2], 3, label_sets=sets)

    def test_integral_float_labels_cast(self):
        ds = LabeledDataset(np.zeros((3, 2)), [0, 1, 2], 3, label_sets=[[0.0, 2.0, 1.0]])
        assert ds.label_sets.dtype == np.int64 and ds.label_sets.tolist() == [[0, 2, 1]]

    def test_table2_roster_bytes_are_pinned(self):
        # the bytes training reads (two epochs of one-hot batches, the
        # plurality votes), pinned so that how the sets are stored cannot
        # change them
        clean = synth_blobs(SyntheticSpec(n_classes=10, dim=4, samples_per_class=12, seed=3))
        pool = attach_annotators(clean, TABLE2_ROSTER, seed=3)
        train, val, _ = split(pool, 0.25, seed=1)
        digest = hashlib.sha256()
        for epoch in range(2):
            for batch in minibatches(train, 16, seed=2, epoch=epoch):
                digest.update(batch.label_sets.tobytes())
        assert digest.hexdigest() == \
            "0903304cb38fa895ba562fb41359599cec40c9eb37bc5fcdf40eb994b3a70bdc"
        votes = [hashlib.sha256(consensus_labels(ds).tobytes()).hexdigest()
                 for ds in (pool, train, val)]
        assert votes == ["46d16d98decac39d603578160e6cf9611c42083da9ca97af04b227ed30ce56b4",
                         "8968920dc2888f6143ce57294b64e5dac5eaa34582111fae67f27858dcc26978",
                         "7fd584af3c22dd2a1fcc6f0b9a16eb71eaab8f15dfcf2c48329bd167bfb39884"]

    def test_each_confusion_matrix_built_once(self, monkeypatch):
        built = []

        def counting_build_cm(spec, n, roster=None):
            built.append(spec.kind)
            return build_cm(spec, n, roster=roster)

        monkeypatch.setattr(data, "build_cm", counting_build_cm)
        clean = synth_blobs(SyntheticSpec(n_classes=10, dim=4, samples_per_class=12, seed=3))
        attach_annotators(clean, TABLE2_ROSTER, seed=3)
        assert sorted(built) == sorted(spec.kind for spec in TABLE2_ROSTER)

    def test_average_without_a_companion_refused(self):
        clean = synth_blobs(SyntheticSpec(n_classes=3, dim=2, samples_per_class=4))
        with pytest.raises(ValueError, match="non-average companion"):
            attach_annotators(clean, [AnnotatorSpec("average")], seed=0)
