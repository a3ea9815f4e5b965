"""Confusion-matrix builders, corruption sampling and their oracles."""

import hashlib

import numpy as np
import pytest

from labelattn.annotators import (ADVERSARIAL, AVERAGE, CIFAR10_FLIP_PAIRS, HAMMER_SPAMMER,
                                  KINDS, ORDERED_CONFUSION, STRUCTURED_FLIPS, AnnotatorSpec,
                                  ConfusionMatrix, as_labels, build_cm, check_fits,
                                  check_roster, corrupt, confusion_pairs,
                                  empirical_cm, noise_level_of)
from labelattn.data import SyntheticSpec, attach_annotators, synth_blobs


def assert_row_stochastic(cm, tol=1e-12):
    assert np.all(cm.rows >= 0) and np.all(cm.rows <= 1)
    assert np.all(np.abs(cm.rows.sum(axis=1) - 1.0) <= tol)


# the non-average specs of the Table-2 roster
TABLE2_SPECS = (AnnotatorSpec(HAMMER_SPAMMER, 0.3), AnnotatorSpec(STRUCTURED_FLIPS, 0.4),
                AnnotatorSpec(ORDERED_CONFUSION, 0.5), AnnotatorSpec(ADVERSARIAL))


def spec_of(kind, level=0.3):
    """A spec of ``kind`` at ``level`` if the kind takes a level, else at 0."""
    return AnnotatorSpec(kind, level if KINDS[kind].levelled else 0.0)


class TestHammerSpammer:
    def test_table_values(self):
        cm = build_cm(AnnotatorSpec(HAMMER_SPAMMER, 0.3), 10)
        assert np.allclose(np.diag(cm.rows), 0.7)
        off = cm.rows[~np.eye(10, dtype=bool)]
        assert np.allclose(off, 0.3 / 9)
        assert_row_stochastic(cm)

    def test_noise_level_exact(self):
        for lv in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            assert noise_level_of(build_cm(AnnotatorSpec(HAMMER_SPAMMER, lv), 10)) == lv

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_cm(AnnotatorSpec(HAMMER_SPAMMER, 0.3), 1)


class TestStructuredFlips:
    def test_paired_row(self):
        # off CIFAR-10's ten classes the pairs are consecutive: 0->1, 2->3
        cm = build_cm(AnnotatorSpec(STRUCTURED_FLIPS, 0.4), 5)
        assert cm.rows[2, 2] == pytest.approx(0.6)
        assert cm.rows[2, 3] == pytest.approx(0.4)
        assert np.allclose(cm.rows[4], [0.1, 0.1, 0.1, 0.1, 0.6])
        assert_row_stochastic(cm)

    def test_default_cifar_pairs(self):
        cm = build_cm(AnnotatorSpec(STRUCTURED_FLIPS, 0.4), 10)
        for src, dst in CIFAR10_FLIP_PAIRS:
            assert cm.rows[src, dst] == pytest.approx(0.4)
        # unpaired classes keep the hammer-spammer row at the same rate
        for unpaired in (1, 2, 5, 6):
            assert cm.rows[unpaired, unpaired] == pytest.approx(0.6)
            others = [cm.rows[unpaired, j] for j in range(10) if j != unpaired]
            assert np.allclose(others, 0.4 / 9)
        assert noise_level_of(cm) == 0.4

    def test_row_sums_for_random_class_counts(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            spec = AnnotatorSpec(STRUCTURED_FLIPS, float(rng.uniform(0, 1)))
            assert_row_stochastic(build_cm(spec, n))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_rows_equal_the_definition_bitwise(self, n):
        # a pair's source keeps 1 - level and sends level to its target; every
        # other class (the last one at odd n) is correct with 1 - level and
        # spreads level / (n - 1) over the others
        pairs = dict(CIFAR10_FLIP_PAIRS if n == 10 else
                     ((i, i + 1) for i in range(0, n - 1, 2)))
        levels = [0.0, 1.0, *np.random.default_rng(n).uniform(0.0, 1.0, size=8)]
        for level in levels:
            expected = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    if j == i:
                        expected[i, j] = 1.0 - level
                    elif i in pairs:
                        expected[i, j] = level if j == pairs[i] else 0.0
                    else:
                        expected[i, j] = level / (n - 1)
            rows = build_cm(AnnotatorSpec(STRUCTURED_FLIPS, float(level)), n).rows
            assert rows.tobytes() == expected.tobytes(), (n, level)

    def test_pairs_fit_every_class_count(self):
        # each source flips to another class inside the n, and has one target
        for n in range(2, 41):
            pairs = confusion_pairs(n)
            sources = [src for src, _ in pairs]
            assert all(0 <= src < n and 0 <= dst < n and src != dst for src, dst in pairs)
            assert len(set(sources)) == len(sources)


class TestOrderedConfusion:
    def test_table_values(self):
        cm = build_cm(AnnotatorSpec(ORDERED_CONFUSION, 0.5), 10)
        for i in range(10):
            assert cm.rows[i, i] == pytest.approx(0.5)
            assert cm.rows[i, (i - 1) % 10] == pytest.approx(0.25)
            assert cm.rows[i, (i + 1) % 10] == pytest.approx(0.25)
        assert noise_level_of(cm) == 0.5

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 3"):
            build_cm(AnnotatorSpec(ORDERED_CONFUSION, 0.5), 2)

    def test_monte_carlo_reproduces_matrix(self):
        # 10k per class: worst-entry std is 0.005, so allow 4 sigma here; the
        # acceptance suite runs the tight +-0.01 check at 100k per class
        cm = build_cm(AnnotatorSpec(ORDERED_CONFUSION, 0.5), 10)
        clean = np.repeat(np.arange(10), 10_000)
        noisy = corrupt(clean, cm, np.random.default_rng(7))
        emp = empirical_cm(clean, noisy)
        assert np.max(np.abs(emp.rows - cm.rows)) < 0.02


@pytest.mark.parametrize("kind, n", [(HAMMER_SPAMMER, 5), (STRUCTURED_FLIPS, 10),
                                     (ORDERED_CONFUSION, 10)])
def test_zero_noise_is_identity(kind, n):
    assert np.array_equal(build_cm(AnnotatorSpec(kind, 0.0), n).rows, np.eye(n))


class TestAdversarial:
    def test_always_wrong(self):
        cm = build_cm(AnnotatorSpec(ADVERSARIAL), 10)
        assert np.all(np.diag(cm.rows) == 0.0)
        assert noise_level_of(cm) == 1.0

    def test_cycle_length(self):
        cm = build_cm(AnnotatorSpec(ADVERSARIAL), 10)
        labels = np.arange(10)
        out = labels.copy()
        for _ in range(10):
            out = np.argmax(cm.rows[out], axis=1)
        assert np.array_equal(out, labels)

    def test_zero_agreement_with_clean(self):
        cm = build_cm(AnnotatorSpec(ADVERSARIAL), 7)
        clean = np.repeat(np.arange(7), 20)
        noisy = corrupt(clean, cm, np.random.default_rng(0))
        assert np.all(noisy != clean)
        assert np.array_equal(noisy, (clean + 1) % 7)


class TestAverage:
    """``build_cm`` of an AVERAGE spec: the entrywise mean of its roster."""

    @staticmethod
    def average(roster):
        return build_cm(AnnotatorSpec(AVERAGE), roster[0].n_classes, roster=roster)

    def test_identical_matrices(self):
        cm = build_cm(AnnotatorSpec(HAMMER_SPAMMER, 0.3), 10)
        avg = self.average([cm, cm, cm, cm])
        assert np.array_equal(avg.rows, cm.rows)

    def test_table2_roster_noise_level(self):
        avg = self.average([build_cm(spec, 10) for spec in TABLE2_SPECS])
        # mean of the four stated levels; the figure's 45% is not reproducible
        # from the defined matrices, so the measured level is exposed instead
        assert noise_level_of(avg) == pytest.approx(0.55, abs=1e-12)
        assert_row_stochastic(avg)

    def test_random_stochastic_matrices_stay_stochastic(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            parts = [ConfusionMatrix(6, rng.dirichlet(np.ones(6), size=6))
                     for _ in range(int(rng.integers(1, 5)))]
            assert_row_stochastic(self.average(parts))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^an average annotator on 4 classes got a "
                                             "roster matrix on 5 classes$"):
            self.average([build_cm(AnnotatorSpec(ADVERSARIAL), n) for n in (4, 5)])

    def test_build_cm_refuses_a_roster_on_other_classes(self):
        # every matrix of the roster agrees with the others, but not with n
        roster = [build_cm(AnnotatorSpec(ADVERSARIAL), 10)]
        with pytest.raises(ValueError, match="^an average annotator on 3 classes got a "
                                             "roster matrix on 10 classes$"):
            build_cm(AnnotatorSpec(AVERAGE), 3, roster=roster)
        assert build_cm(AnnotatorSpec(AVERAGE), 10, roster=roster).n_classes == 10


class TestNoiseLevelOf:
    def test_identity_and_adversarial(self):
        assert noise_level_of(ConfusionMatrix(10, np.eye(10))) == 0.0
        assert noise_level_of(build_cm(AnnotatorSpec(ADVERSARIAL), 10)) == 1.0

    def test_hammer_spammer_exact(self):
        assert noise_level_of(build_cm(AnnotatorSpec(HAMMER_SPAMMER, 0.3), 10)) == 0.3


class TestCorrupt:
    def test_identity_matrix_keeps_labels(self):
        clean = np.random.default_rng(3).integers(0, 10, size=500)
        out = corrupt(clean, ConfusionMatrix(10, np.eye(10)), np.random.default_rng(4))
        assert out.dtype == np.int64 and np.array_equal(out, clean)

    def test_deterministic_under_seed(self):
        cm = build_cm(AnnotatorSpec(HAMMER_SPAMMER, 0.3), 10)
        clean = np.random.default_rng(5).integers(0, 10, size=1000)
        a = corrupt(clean, cm, np.random.default_rng(99))
        b = corrupt(clean, cm, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="out of range"):
            corrupt(np.array([0, 11]), build_cm(AnnotatorSpec(HAMMER_SPAMMER, 0.3), 10),
                    np.random.default_rng(0))

    def test_empirical_distribution_matches(self):
        cm = build_cm(AnnotatorSpec(HAMMER_SPAMMER, 0.3), 10)
        clean = np.repeat(np.arange(10), 10_000)
        noisy = corrupt(clean, cm, np.random.default_rng(6))
        emp = empirical_cm(clean, noisy)
        assert np.max(np.abs(emp.rows - cm.rows)) < 0.02

    def test_error_shrinks_with_sample_count(self):
        cm = build_cm(AnnotatorSpec(ORDERED_CONFUSION, 0.5), 10)
        errs = []
        for count in (1_000, 100_000):
            clean = np.repeat(np.arange(10), count)
            noisy = corrupt(clean, cm, np.random.default_rng(8))
            errs.append(np.max(np.abs(empirical_cm(clean, noisy).rows - cm.rows)))
        assert errs[1] < errs[0]

    def test_draw_at_last_cumulative_sum_takes_last_class(self):
        class EdgeDraws:
            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        # ten 0.1 entries sum cumulatively to just below 1, so every row's
        # last sum equals the draw and the count of sums at or below it is 10
        cm = ConfusionMatrix(10, np.full((10, 10), 0.1))
        assert np.all(np.cumsum(cm.rows, axis=1)[:, -1] == np.nextafter(1.0, 0.0))
        noisy = corrupt(np.arange(10), cm, EdgeDraws())
        assert np.array_equal(noisy, np.full(10, 9))


def corrupt_row_sums(clean, cm, rng):
    """The sample-major form of ``corrupt``, kept as its oracle: one [S, N]
    gather of cumulative rows, counted along each sample's row."""
    cum = np.cumsum(cm.rows, axis=1)
    uniforms = rng.random(clean.size)
    idx = np.sum(cum[clean] <= uniforms[:, None], axis=1)
    return np.minimum(idx, cm.n_classes - 1).astype(np.int64)


class TestCorruptAgainstRowSums:
    def test_random_rosters_with_zero_entries(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(2, 13))
            rows = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            rows[np.arange(n), rng.integers(0, n, n)] += 0.05  # no all-zero row
            cm = ConfusionMatrix(n, rows / rows.sum(axis=1, keepdims=True))
            clean = rng.integers(0, n, size=int(rng.integers(0, 3001)))
            got = corrupt(clean, cm, np.random.default_rng(trial))
            want = corrupt_row_sums(clean, cm, np.random.default_rng(trial))
            assert got.dtype == np.int64 and got.shape == clean.shape
            assert np.array_equal(got, want), trial

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 12])
    def test_every_kind_build_cm_makes(self, n):
        parts = [build_cm(spec_of(kind, 0.35), n) for kind in KINDS
                 if kind != AVERAGE and n >= KINDS[kind].min_classes]
        cms = [*parts, build_cm(AnnotatorSpec(AVERAGE), n, roster=parts)]
        clean = np.random.default_rng(n).integers(0, n, size=2000)
        for seed, cm in enumerate(cms):
            assert np.array_equal(corrupt(clean, cm, np.random.default_rng(seed)),
                                  corrupt_row_sums(clean, cm, np.random.default_rng(seed)))

    def test_table2_label_sets_are_pinned(self):
        # the acceptance suite's pool (dataset seed 7), so that a change in
        # draw order or counting shows without running the benchmark
        clean = synth_blobs(SyntheticSpec(n_classes=10, dim=32, samples_per_class=500, seed=7))
        sets = attach_annotators(clean, [*TABLE2_SPECS, AnnotatorSpec(AVERAGE)], seed=7).label_sets
        assert sets.shape == (5, 5000) and sets.dtype == np.int64
        assert hashlib.sha256(sets.tobytes()).hexdigest() == \
            "390f7aee878d8b2411e73338e5efe245df26d0056d9008112698094d876b876f"


class TestEmpiricalCm:
    def test_identity_when_equal(self):
        labels = np.repeat(np.arange(5), 3)
        assert np.array_equal(empirical_cm(labels, labels).rows, np.eye(5))

    def test_cyclic_shift_gives_permutation(self):
        clean = np.repeat(np.arange(5), 4)
        noisy = (clean + 1) % 5
        expected = np.zeros((5, 5))
        expected[np.arange(5), (np.arange(5) + 1) % 5] = 1.0
        assert np.array_equal(empirical_cm(clean, noisy).rows, expected)

    def test_absent_class_named(self):
        with pytest.raises(ValueError, match="class 1"):
            empirical_cm(np.array([0, 0, 2]), np.array([0, 1, 2]))

    @pytest.mark.parametrize("clean, noisy", [([0, 1, -1], [0, 1, 1]),
                                              ([0, 1, 1], [0, 1, -1]),
                                              ([-1, 0, 1], [-2, 0, 1])])
    def test_negative_label_rejected(self, clean, noisy):
        # np.add.at would count -1 as the last class
        with pytest.raises(ValueError, match="negative label index"):
            empirical_cm(np.array(clean), np.array(noisy))

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            empirical_cm(np.array([], dtype=np.int64), np.array([], dtype=np.int64))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            empirical_cm(np.array([0, 1]), np.array([0, 1, 1]))


# Label arrays that are not class indices: each used to be truncated or
# wrapped by a cast to int64.
NOT_LABELS = {"fractions": [0.5, 1.7], "nan": [0.0, np.nan], "inf": [1.0, np.inf],
              "beyond_int64": [0.0, 1e300], "bool": [True, False], "strings": ["0", "1"]}


class TestLabelCheck:
    @pytest.mark.parametrize("bad", NOT_LABELS.values(), ids=NOT_LABELS.keys())
    def test_refuses_what_is_not_a_class_index(self, bad):
        with pytest.raises(ValueError, match="labels must be"):
            as_labels(np.array(bad))

    def test_integers_pass_and_integral_floats_are_cast(self):
        for labels in (np.array([0, 2], dtype=np.uint8), [0, 2], np.array([0.0, 2.0]), [-0.0, 2.0]):
            out = as_labels(labels)
            assert out.dtype == np.int64 and np.array_equal(out, [0, 2])
        assert as_labels([]).dtype == np.int64

    def test_corrupt_refuses_non_integer_labels(self):
        cm, rng = build_cm(AnnotatorSpec(HAMMER_SPAMMER, 0.2), 3), np.random.default_rng(0)
        with pytest.raises(ValueError, match="got 0.5"):
            corrupt(np.array([0.5, 1.7]), cm, rng)
        assert corrupt(np.array([0.0, 2.0]), ConfusionMatrix(3, np.eye(3)),
                       rng).tolist() == [0, 2]

    @pytest.mark.parametrize("clean, noisy", [([0.9, 1.5], [0.2, 1.0]), ([0, 1], [0.0, 1.5]),
                                              ([0.0, np.nan], [0, 1])])
    def test_empirical_cm_refuses_non_integer_labels(self, clean, noisy):
        with pytest.raises(ValueError, match="labels must be"):
            empirical_cm(np.array(clean), np.array(noisy))
        assert np.array_equal(empirical_cm([0.0, 1.0], [1.0, 0.0]).rows, [[0, 1], [1, 0]])


class TestSpecAndSerialization:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown annotator kind"):
            AnnotatorSpec(kind="oracle")
        with pytest.raises(ValueError, match="unknown annotator kind"):
            AnnotatorSpec(kind=["hammer_spammer"])
        with pytest.raises(ValueError, match="noise_level"):
            AnnotatorSpec(kind="hammer_spammer", noise_level=1.5)

    @pytest.mark.parametrize("kind", ["adversarial", "average"])
    def test_level_refused_on_the_kinds_that_take_none(self, kind):
        # the level would draw the same labels, yet change the config hash
        assert not KINDS[kind].levelled
        for level in (0.2, 1.0):
            with pytest.raises(ValueError, match=f"'{kind}' takes no noise_level"):
                AnnotatorSpec(kind, level)
        assert AnnotatorSpec(kind) == AnnotatorSpec(kind, 0.0)

    @pytest.mark.parametrize("kind", ["adversarial", "average"])
    def test_zero_level_written_any_way_is_the_float_zero(self, kind):
        # 0 and -0.0 would draw the same labels as 0.0 under other hashes
        for level in (0, -0.0, 0.0):
            stored = AnnotatorSpec(kind, level).noise_level
            assert type(stored) is float and str(stored) == "0.0"
        # a kind that takes a level keeps it as written
        assert type(AnnotatorSpec(HAMMER_SPAMMER, 0).noise_level) is int

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ConfusionMatrix(2, np.array([[0.5, 0.4], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ConfusionMatrix(2, np.array([[1.5, -0.5], [0.0, 1.0]]))


class TestCheckFits:
    # n = 10 takes CIFAR-10's flip pairs; a level of 1 moves a whole row
    @pytest.mark.parametrize("n", [*range(0, 7), 10])
    @pytest.mark.parametrize("spec", [
        *(spec_of(kind) for kind in KINDS if kind != AVERAGE),
        *(AnnotatorSpec(kind, 1.0) for kind in KINDS if KINDS[kind].levelled),
    ], ids=lambda spec: f"{spec.kind}-{spec.noise_level:g}")
    def test_build_cm_refuses_exactly_below_the_fewest_classes(self, spec, n):
        least = KINDS[spec.kind].min_classes
        if n < least:
            with pytest.raises(ValueError, match=f"^{spec.kind} needs n >= {least}$"):
                build_cm(spec, n)
        else:
            cm = build_cm(spec, n)
            assert cm.rows.shape == (n, n)
            assert noise_level_of(cm) == pytest.approx(
                spec.noise_level if KINDS[spec.kind].levelled else 1.0, abs=1e-12)

    def test_huge_class_count_needs_no_matrix(self):
        # 10**6 classes would be an 8 TB matrix; the check never forms it
        for kind in KINDS:
            check_fits(spec_of(kind), 10**6)
        check_roster([spec_of(kind) for kind in KINDS], 10**6)


class TestCheckRoster:
    def test_names_the_entry_and_the_class_count(self):
        roster = [AnnotatorSpec(HAMMER_SPAMMER, 0.3), AnnotatorSpec(ORDERED_CONFUSION, 0.3)]
        check_roster(roster, 3)
        with pytest.raises(ValueError, match="^annotators\\[1\\] does not fit 2 classes: "
                                             "ordered_confusion needs n >= 3$"):
            check_roster(roster, 2)

    def test_all_average_refused_before_the_fit(self):
        for n in (1, 10):
            with pytest.raises(ValueError, match="^annotators cannot all be 'average'$"):
                check_roster([AnnotatorSpec(AVERAGE)] * 2, n)
        check_roster([AnnotatorSpec(ADVERSARIAL), AnnotatorSpec(AVERAGE)], 2)
