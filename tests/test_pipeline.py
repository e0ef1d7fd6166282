"""Ingestion, resampling, windowing, normalization, augmentation, synthetic
data, and the dataset split."""

import dataclasses
import json
import tracemalloc
import types

import numpy as np
import pytest

from scatternet import engine, pipeline
from scatternet.engine import DataError, ShapeError
from scatternet.loss import (WeightMatrix, identity_weight_matrix,
                             merge_identical_classes, save_weight_matrix)
from scatternet.pipeline import (AugmentConfig, Record, augment, aux_features,
                                 center_crop_pad, disabled_augment,
                                 filter_and_split, load_dataset,
                                 make_synthetic_dataset, make_window,
                                 normalize_arctan, piece_offsets,
                                 prepare_pieces, random_crop_pad,
                                 resample_to_500, split_windows,
                                 synthetic_weight_matrix, target_vector,
                                 write_dataset)


@pytest.fixture(autouse=True)
def _reset():
    engine.seed(0)
    yield


def make_record(signal, fs=500.0, labels=("c00",), rec_id="r0", age=50,
                sex="male"):
    return Record(id=rec_id, signal=np.asarray(signal, dtype=np.float32),
                  fs=fs, labels=list(labels), age=age, sex=sex)


def sine_record(freq, fs, seconds, amp=1.0):
    # endpoint sample included so the 500 Hz grid never lands past the input
    t = np.arange(int(seconds * fs) + 1) / fs
    sig = np.tile(amp * np.sin(2 * np.pi * freq * t), (12, 1)).astype(np.float32)
    return make_record(sig, fs=fs)


class TestResample:
    def test_identity_at_500(self):
        rec = make_record(np.random.default_rng(0).standard_normal((12, 777)))
        out = resample_to_500(rec)
        assert out.fs == 500.0
        np.testing.assert_array_equal(out.signal, rec.signal)

    def test_constant_at_250(self):
        rec = make_record(np.full((12, 1000), 3.0), fs=250.0)
        out = resample_to_500(rec)
        assert out.fs == 500.0
        assert abs(out.signal.shape[1] - 2000) <= 1
        np.testing.assert_allclose(out.signal, 3.0, atol=1e-6)

    def test_slow_sinusoid_from_1000(self):
        rec = sine_record(freq=2.0, fs=1000.0, seconds=4.0)
        out = resample_to_500(rec)
        t = np.arange(out.signal.shape[1]) / 500.0
        want = np.sin(2 * np.pi * 2.0 * t)
        assert np.abs(out.signal[0] - want).max() < 1e-3

    def test_duration_preserved(self):
        rec = sine_record(freq=1.0, fs=300.0, seconds=2.5)
        out = resample_to_500(rec)
        dur_in = (rec.signal.shape[1] - 1) / rec.fs
        dur_out = (out.signal.shape[1] - 1) / 500.0
        assert abs(dur_in - dur_out) <= 1.0 / 500.0


class TestSplitWindows:
    def test_exact_multiple(self):
        rec = make_record(np.zeros((12, 20480)))
        pieces = split_windows(rec)
        assert len(pieces) == 2
        assert all(p.signal.shape == (12, 10240) for p in pieces)
        assert [p.origin_offset for p in pieces] == [0, 10240]

    def test_short_record_single_piece(self):
        rec = make_record(np.zeros((12, 8000)))
        pieces = split_windows(rec)
        assert len(pieces) == 1
        assert pieces[0].signal.shape == (12, 8000)

    def test_overlapping_tail(self):
        assert piece_offsets(15000, 10240) == [0, 4760]
        rec = make_record(np.arange(15000 * 12, dtype=np.float32).reshape(12, 15000))
        pieces = split_windows(rec)
        assert len(pieces) == 2
        np.testing.assert_array_equal(pieces[0].signal, rec.signal[:, :10240])
        np.testing.assert_array_equal(pieces[1].signal, rec.signal[:, 4760:])

    def test_pieces_cover_source(self):
        for n in (10240, 10241, 25000, 30720):
            offs = piece_offsets(n, 10240)
            covered = np.zeros(n, dtype=bool)
            for o in offs:
                covered[o:o + 10240] = True
            assert covered.all(), n

    def test_labels_copied(self):
        rec = make_record(np.zeros((12, 20480)), labels=("a", "b"))
        for p in split_windows(rec):
            assert tuple(p.labels) == ("a", "b")

    def test_requires_500hz(self):
        rec = make_record(np.zeros((12, 100)), fs=250.0)
        with pytest.raises(DataError):
            split_windows(rec)


class TestNormalize:
    def test_constant_lead_zero(self):
        x = np.full((12, 100), 7.0, dtype=np.float32)
        np.testing.assert_array_equal(normalize_arctan(x), np.zeros((12, 100)))

    def test_two_point_lead(self):
        x = np.tile(np.array([-1.0, 1.0], dtype=np.float32), (12, 1))
        out = normalize_arctan(x)
        np.testing.assert_allclose(out[0], [-np.pi / 4, np.pi / 4], rtol=1e-6)

    def test_spike_compression(self):
        x = np.zeros((12, 1000), dtype=np.float32)
        x[:, ::100] = 50.0  # strong spike train
        std = x[0].std()
        standardized_peak = (50.0 - x[0].mean()) / std
        assert standardized_peak > 5.0
        out = normalize_arctan(x)
        assert np.abs(out).max() < np.pi / 2

    def test_bounded_output(self):
        rng = np.random.default_rng(1)
        x = (rng.standard_normal((12, 500)) * 1e6).astype(np.float32)
        out = normalize_arctan(x)
        assert out.max() < np.pi / 2 and out.min() > -np.pi / 2

    def test_rank_validated(self):
        with pytest.raises(ShapeError):
            normalize_arctan(np.zeros(100, dtype=np.float32))


def normalize_with_std(x):
    """The formula normalize_arctan computes, written with x.std."""
    x = np.asarray(x, dtype=np.float32)
    mean = x.mean(axis=1, keepdims=True)
    std = np.maximum(x.std(axis=1, keepdims=True), pipeline.EPS_STD)
    return np.arctan((x - mean) / std).astype(np.float32)


class TestNormalizeBytes:
    """normalize_arctan takes the mean once and writes in place, with the
    bits of the x.std formula."""

    @staticmethod
    def _assert_same_bytes(x):
        want = normalize_with_std(x)
        before = np.array(x, copy=True)
        got = normalize_arctan(x)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(x, before)  # the input is not written

    def test_random_leads(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 3000))
            scale = 10.0 ** rng.uniform(-6, 4)
            x = rng.normal(rng.uniform(-5, 5), scale, size=(12, n)).astype(np.float32)
            self._assert_same_bytes(x)

    def test_constant_and_zero_leads(self):
        x = np.random.default_rng(18).normal(size=(12, 700)).astype(np.float32)
        x[2] = 3.25
        x[7] = 0.0
        self._assert_same_bytes(x)
        self._assert_same_bytes(np.zeros((12, 50), dtype=np.float32))

    def test_two_sample_leads(self):
        x = np.random.default_rng(19).normal(size=(12, 2)).astype(np.float32)
        x[4] = (1.0, 1.0)
        self._assert_same_bytes(x)

    def test_float64_input(self):
        self._assert_same_bytes(np.random.default_rng(20).normal(3.0, 7.0, size=(12, 999)))

    def test_strided_view(self):
        # split_windows hands pieces over as column slices of the record
        x = np.random.default_rng(21).normal(size=(12, 4000)).astype(np.float32)
        self._assert_same_bytes(x[:, 1000:3500])


class TestCropPad:
    def test_identity_at_target_length(self):
        x = np.random.default_rng(2).standard_normal((12, 5120)).astype(np.float32)
        np.testing.assert_array_equal(random_crop_pad(x), x)

    def test_symmetric_padding(self):
        x = np.ones((12, 5000), dtype=np.float32)
        out = random_crop_pad(x)
        assert out.shape == (12, 5120)
        np.testing.assert_array_equal(out[:, :60], 0.0)
        np.testing.assert_array_equal(out[:, -60:], 0.0)
        np.testing.assert_array_equal(out[:, 60:-60], 1.0)

    def test_uniform_starts(self):
        x = np.tile(np.arange(10240, dtype=np.float32), (12, 1))
        rng = engine.derived_rng(0, "crop-test")
        starts = []
        for _ in range(10_000):
            out = random_crop_pad(x, rng=rng)
            starts.append(int(out[0, 0]))
        starts = np.asarray(starts)
        assert starts.min() >= 0 and starts.max() <= 5120
        # chi-square over 16 equal bins of [0, 5120]
        counts, _ = np.histogram(starts, bins=16, range=(0, 5121))
        expected = len(starts) / 16
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # df=15, p>0.01 cutoff is 30.58
        assert chi2 < 30.58

    def test_center_crop_deterministic(self):
        x = np.tile(np.arange(10240, dtype=np.float32), (12, 1))
        a = center_crop_pad(x)
        b = center_crop_pad(x)
        np.testing.assert_array_equal(a, b)
        assert a[0, 0] == (10240 - 5120) // 2


class TestAugment:
    def test_all_probabilities_zero_is_identity(self):
        x = np.random.default_rng(3).standard_normal((12, 5120)).astype(np.float32)
        rng = engine.derived_rng(0, "aug")
        out = augment(x, rng, disabled_augment())
        np.testing.assert_array_equal(out, x)

    def test_gaussian_moments(self):
        cfg = AugmentConfig(power_prob=0.0, gauss_prob=1.0, drift_prob=0.0)
        x = np.zeros((12, 100_000), dtype=np.float32)
        rng = engine.derived_rng(1, "aug")
        out = augment(x, rng, cfg)
        added = out - x
        assert abs(added.mean()) < 0.001
        assert abs(added.std() - 0.08) < 0.002

    def test_power_noise_spectral_peak(self):
        cfg = AugmentConfig(power_prob=1.0, gauss_prob=0.0, drift_prob=0.0)
        x = np.zeros((12, 5120), dtype=np.float32)
        rng = engine.derived_rng(2, "aug")
        out = augment(x, rng, cfg)
        diff = out[0] - x[0]
        spectrum = np.abs(np.fft.rfft(diff))
        freqs = np.fft.rfftfreq(5120, d=1.0 / 500.0)
        peak = freqs[spectrum.argmax()]
        assert 49.4 <= peak <= 50.6

    def test_power_noise_common_across_leads(self):
        cfg = AugmentConfig(power_prob=1.0, gauss_prob=0.0, drift_prob=0.0)
        x = np.zeros((12, 5120), dtype=np.float32)
        out = augment(x, engine.derived_rng(3, "aug"), cfg)
        for lead in range(1, 12):
            np.testing.assert_array_equal(out[lead], out[0])

    def test_drift_distinct_per_lead(self):
        cfg = AugmentConfig(power_prob=0.0, gauss_prob=0.0, drift_prob=1.0)
        x = np.zeros((12, 5120), dtype=np.float32)
        out = augment(x, engine.derived_rng(4, "aug"), cfg)
        assert not np.array_equal(out[0], out[1])
        # drift is slow: dominant frequency under 1 Hz
        spectrum = np.abs(np.fft.rfft(out[0]))
        freqs = np.fft.rfftfreq(5120, d=1.0 / 500.0)
        assert freqs[spectrum.argmax()] <= 1.0

    def test_deterministic_given_rng_seed(self):
        cfg = AugmentConfig()
        x = np.random.default_rng(5).standard_normal((12, 5120)).astype(np.float32)
        a = augment(x, engine.derived_rng(6, "aug"), cfg)
        b = augment(x, engine.derived_rng(6, "aug"), cfg)
        np.testing.assert_array_equal(a, b)


class TestAuxFeatures:
    @staticmethod
    def feat(age, sex):
        return aux_features(make_record(np.zeros((12, 10)), age=age, sex=sex))

    def test_age_normalized(self):
        assert self.feat(50, "male")[0] == pytest.approx(0.5)
        assert self.feat(120, "male")[0] == 1.0  # clipped
        assert self.feat(None, "male")[0] == 0.5

    def test_sex_codes(self):
        assert self.feat(40, "female")[1] == 0.0
        assert self.feat(40, "unknown")[1] == 0.5
        assert self.feat(40, "male")[1] == 1.0
        assert self.feat(40, None)[1] == 0.0

    def test_invalid_sex(self):
        with pytest.raises(DataError):
            self.feat(40, "other")

    def test_dtype_and_shape(self):
        v = self.feat(30, "female")
        assert v.shape == (2,) and v.dtype == np.float32


class TestSyntheticData:
    def test_deterministic_and_class_coverage(self):
        recs_a = make_synthetic_dataset(64, 4, engine.derived_rng(7, "synth"))
        recs_b = make_synthetic_dataset(64, 4, engine.derived_rng(7, "synth"))
        assert len(recs_a) == 64
        for a, b in zip(recs_a, recs_b):
            assert a.id == b.id and a.labels == b.labels
            np.testing.assert_array_equal(a.signal, b.signal)
        counts = {f"c{k:02d}": 0 for k in range(4)}
        for rec in recs_a:
            for lab in rec.labels:
                counts[lab] += 1
        assert all(v >= 8 for v in counts.values())

    def test_record_format(self):
        recs = make_synthetic_dataset(5, 3, engine.derived_rng(8, "synth"))
        for rec in recs:
            assert rec.signal.shape == (12, 10240)
            assert rec.fs == 500.0
            assert 1 <= len(rec.labels) <= 3
            assert all(lab in ("c00", "c01", "c02") for lab in rec.labels)

    def test_target_vectors_valid(self):
        recs = make_synthetic_dataset(10, 4, engine.derived_rng(9, "synth"))
        wm = synthetic_weight_matrix(4)
        merged, table = merge_identical_classes(wm)
        for rec in recs:
            t = target_vector(rec.labels, table, merged.k)
            assert t.shape == (4,)
            assert set(np.unique(t)) <= {0.0, 1.0}
            assert t.sum() >= 1

    def test_write_load_round_trip(self, tmp_path):
        recs = make_synthetic_dataset(6, 3, engine.derived_rng(10, "synth"))
        wm = synthetic_weight_matrix(3)
        out = tmp_path / "ds"
        write_dataset(out, recs, wm)
        loaded, wm2 = load_dataset(out)
        assert wm2.labels == wm.labels
        assert len(loaded) == 6
        by_id = {r.id: r for r in loaded}
        for rec in recs:
            other = by_id[rec.id]
            np.testing.assert_array_equal(other.signal, rec.signal)
            assert other.labels == rec.labels
            assert other.age == rec.age and other.sex == rec.sex

    def test_load_rejects_corrupt_payload(self, tmp_path):
        recs = make_synthetic_dataset(2, 2, engine.derived_rng(11, "synth"))
        wm = synthetic_weight_matrix(2)
        out = tmp_path / "ds"
        write_dataset(out, recs, wm)
        payload = next(out.glob("*.f32"))
        payload.write_bytes(payload.read_bytes()[:-8])
        with pytest.raises(DataError):
            load_dataset(out)

    def test_load_rejects_bad_manifest(self, tmp_path):
        recs = make_synthetic_dataset(2, 2, engine.derived_rng(12, "synth"))
        wm = synthetic_weight_matrix(2)
        out = tmp_path / "ds"
        write_dataset(out, recs, wm)
        manifest = next(out.glob("*.json"))
        blob = json.loads(manifest.read_text())
        del blob["fs"]
        manifest.write_text(json.dumps(blob))
        with pytest.raises(DataError):
            load_dataset(out)


class TestFilterAndSplit:
    def test_unscored_records_dropped(self):
        wm = identity_weight_matrix(["a", "b"])
        merged, _ = merge_identical_classes(wm)
        recs = [
            make_record(np.zeros((12, 100)), labels=("a",), rec_id="keep"),
            make_record(np.zeros((12, 100)), labels=("zz",), rec_id="drop"),
        ]
        splits = filter_and_split(recs, merged, seed=0)
        kept = [r.id for part in splits.values() for r in part]
        assert kept == ["keep"]

    def test_split_sizes(self):
        recs = make_synthetic_dataset(1000, 4, engine.derived_rng(13, "synth"))
        wm = synthetic_weight_matrix(4)
        merged, _ = merge_identical_classes(wm)
        splits = filter_and_split(recs, merged, seed=0)
        assert abs(len(splits["train"]) - 900) <= 2
        assert abs(len(splits["val"]) - 90) <= 2
        assert abs(len(splits["holdout"]) - 10) <= 2
        ids = [r.id for part in splits.values() for r in part]
        assert len(set(ids)) == 1000

    def test_deterministic(self):
        recs = make_synthetic_dataset(50, 3, engine.derived_rng(14, "synth"))
        wm = synthetic_weight_matrix(3)
        merged, _ = merge_identical_classes(wm)
        a = filter_and_split(recs, merged, seed=5)
        b = filter_and_split(recs, merged, seed=5)
        for part in ("train", "val", "holdout"):
            assert [r.id for r in a[part]] == [r.id for r in b[part]]

    def test_seed_changes_split(self):
        recs = make_synthetic_dataset(200, 3, engine.derived_rng(15, "synth"))
        wm = synthetic_weight_matrix(3)
        merged, _ = merge_identical_classes(wm)
        a = filter_and_split(recs, merged, seed=0)
        b = filter_and_split(recs, merged, seed=1)
        assert [r.id for r in a["train"]] != [r.id for r in b["train"]]

    def test_no_scored_records(self):
        wm = identity_weight_matrix(["a"])
        merged, _ = merge_identical_classes(wm)
        recs = [make_record(np.zeros((12, 10)), labels=("zz",))]
        with pytest.raises(DataError, match="no scored records"):
            filter_and_split(recs, merged, seed=0)


class TestPreparePiecesAndWindows:
    def test_pieces_are_normalized(self):
        rec = make_record(np.random.default_rng(16).standard_normal((12, 12000)).astype(np.float32) * 40)
        pieces = prepare_pieces([rec])
        assert len(pieces) == 2
        for p in pieces:
            assert np.abs(p.signal).max() < np.pi / 2

    def test_make_window_center_mode(self):
        rec = make_record(np.random.default_rng(17).standard_normal((12, 10240)).astype(np.float32))
        pieces = prepare_pieces([rec])
        wm = identity_weight_matrix(["c00"])
        merged, table = merge_identical_classes(wm)
        w1 = make_window(pieces[0], table, merged.k, out_len=5120)
        w2 = make_window(pieces[0], table, merged.k, out_len=5120)
        np.testing.assert_array_equal(w1.data, w2.data)
        assert w1.data.shape == (12, 5120)
        assert w1.target.shape == (1,)
        assert w1.record_id == rec.id

    def test_make_window_random_mode_uses_rng(self):
        rec = make_record(np.random.default_rng(18).standard_normal((12, 10240)).astype(np.float32))
        pieces = prepare_pieces([rec])
        wm = identity_weight_matrix(["c00"])
        merged, table = merge_identical_classes(wm)
        rng = engine.derived_rng(0, "win")
        w1 = make_window(pieces[0], table, merged.k, out_len=5120, rng=rng,
                         aug=disabled_augment())
        rng = engine.derived_rng(0, "win")
        w2 = make_window(pieces[0], table, merged.k, out_len=5120, rng=rng,
                         aug=disabled_augment())
        np.testing.assert_array_equal(w1.data, w2.data)

    def test_record_validation(self):
        with pytest.raises(DataError):
            make_record(np.zeros((3, 100)))  # not 12 leads
        with pytest.raises(DataError):
            make_record(np.full((12, 10), np.nan))
        with pytest.raises(DataError):
            make_record(np.zeros((12, 10)), fs=0.0)

    @pytest.mark.parametrize("fs", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_is_a_data_error(self, fs):
        with pytest.raises(DataError, match="^record r0: fs must be a finite number > 0$"):
            make_record(np.zeros((12, 10)), fs=fs)


class TestDatasetDirectory:
    def _write(self, tmp_path):
        out = tmp_path / "ds"
        write_dataset(out, make_synthetic_dataset(2, 2, engine.derived_rng(13, "synth")),
                      synthetic_weight_matrix(2))
        return out

    def test_non_json_files_are_ignored(self, tmp_path):
        out = self._write(tmp_path)
        (out / "notes.txt").write_text("not a record", encoding="utf-8")
        records, _ = load_dataset(out)
        assert len(records) == 2

    def test_manifest_without_age_and_sex(self, tmp_path):
        out = self._write(tmp_path)
        path = sorted(out.glob("*.json"))[0]
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["age"], manifest["sex"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        by_id = {r.id: r for r in load_dataset(out)[0]}
        assert by_id[manifest["id"]].age is None and by_id[manifest["id"]].sex is None

    def test_weight_matrix_written_atomically(self, tmp_path):
        # a write that fails part way leaves the old file and no temporary
        path = tmp_path / "classes.csv"
        path.write_text("keep", encoding="utf-8")
        broken = types.SimpleNamespace(labels=("a", "b"), w=[[1.0, 0.0], [object(), 1.0]])
        with pytest.raises(TypeError):
            save_weight_matrix(path, broken)
        assert path.read_text(encoding="utf-8") == "keep"
        assert list(tmp_path.iterdir()) == [path]

    def test_records_written_atomically(self, tmp_path):
        # a record that fails part way leaves its old manifest and payload
        # and no temporary file
        out = self._write(tmp_path)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rec = load_dataset(out)[0][0]
        with pytest.raises(TypeError):
            write_dataset(out, [dataclasses.replace(rec, age=object())],
                          synthetic_weight_matrix(2))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_manifest_named_after_another_record_is_a_data_error(self, tmp_path):
        # a copy of syn0000.json under another name would load syn0000 twice
        out = self._write(tmp_path)
        (out / "zzz.json").write_bytes((out / "syn0000.json").read_bytes())
        with pytest.raises(DataError, match="^manifest zzz.json: id 'syn0000' does "
                                            "not match its file name$"):
            load_dataset(out)


class TestRecordLengthCap:
    """A record longer than one hour at 500 Hz is a data error, raised
    before resample_to_500 allocates anything."""

    def test_cap_is_one_hour_at_500(self):
        assert pipeline.MAX_SPAN_500 == 3600 * 500

    @pytest.mark.parametrize("fs", [1e-300, 5e-324, 0.001])
    def test_tiny_rate_is_a_data_error(self, fs):
        rec = make_record(np.zeros((12, 10)), fs=fs, rec_id="slow")
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="^record slow: .*3600 s limit$"):
                resample_to_500(rec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_SPAN_500", 1000)
        # 500 steps at 250 Hz are 1000 steps at 500 Hz
        assert resample_to_500(make_record(np.zeros((12, 501)), fs=250.0)
                               ).signal.shape == (12, 1001)
        with pytest.raises(DataError, match="^record r0: "):
            resample_to_500(make_record(np.zeros((12, 502)), fs=250.0))
        # a record already at 500 Hz is held to the same limit
        assert resample_to_500(make_record(np.zeros((12, 1001)))).signal.shape == (12, 1001)
        with pytest.raises(DataError, match="^record r0: "):
            prepare_pieces([make_record(np.zeros((12, 1002)))])


class TestTooShortToNormalize:
    @pytest.mark.parametrize("fs,n", [(500.0, 1), (1e300, 10)])
    def test_one_sample_at_500_is_a_data_error(self, fs, n):
        rec = make_record(np.ones((12, n)), fs=fs, rec_id="short")
        with pytest.raises(DataError, match="^record short: 1 sample at 500 Hz"):
            prepare_pieces([rec])


class TestDatasetWrittenWhole:
    """write_dataset makes every manifest's text before it writes any file."""

    def test_unserializable_record_leaves_every_file(self, tmp_path):
        out = tmp_path / "ds"
        write_dataset(out, make_synthetic_dataset(2, 2, engine.derived_rng(13, "synth")),
                      synthetic_weight_matrix(2))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        new = make_synthetic_dataset(2, 3, engine.derived_rng(14, "synth"))
        new[1] = dataclasses.replace(new[1], age=object())
        with pytest.raises(TypeError):
            write_dataset(out, new, synthetic_weight_matrix(3))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestSexVocabulary:
    """Manifests and aux_features read one table of sex values."""

    def _write(self, tmp_path, sex):
        out = tmp_path / "ds"
        write_dataset(out, make_synthetic_dataset(2, 2, engine.derived_rng(13, "synth")),
                      synthetic_weight_matrix(2))
        path = out / "syn0000.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["sex"] = sex
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return out

    @pytest.mark.parametrize("sex", ["M", "", "Male", ["male"], 1])
    def test_value_outside_the_table_is_a_data_error(self, tmp_path, sex):
        out = self._write(tmp_path, sex)
        with pytest.raises(DataError, match="^manifest syn0000.json: field 'sex' must "
                                            "be female, male, unknown or null, got "):
            load_dataset(out)

    @pytest.mark.parametrize("sex", ["female", "unknown", "male", None])
    def test_value_in_the_table_loads_and_codes(self, tmp_path, sex):
        out = self._write(tmp_path, sex)
        rec = {r.id: r for r in load_dataset(out)[0]}["syn0000"]
        assert rec.sex == sex
        assert aux_features(rec)[1] == np.float32(pipeline.SEX_CODES.get(sex, 0.0))


class TestRecordOwnsTheSexRule:
    """A Record rejects a sex outside SEX_CODES when it is built, so a record
    made in code fails before any model is built, as a manifest does."""

    @pytest.mark.parametrize("sex", ["M", "", "Male", ["male"], 1])
    def test_value_outside_the_table_is_a_one_line_data_error(self, sex):
        with pytest.raises(DataError) as err:
            make_record(np.zeros((12, 10)), rec_id="syn0001", sex=sex)
        assert str(err.value) == "record syn0001: sex must be female/male/unknown"


class TestAuxAgeRule:
    """aux_features takes a finite real age or None; anything else is a
    DataError that names the record, not a nan feature or a TypeError."""

    @pytest.mark.parametrize("age", [float("nan"), float("inf"), float("-inf"),
                                     np.float32("nan"), np.float64("inf"),
                                     object(), "50", True])
    def test_bad_age_is_a_one_line_data_error(self, age):
        rec = make_record(np.zeros((12, 10)), rec_id="syn0002", age=age)
        with pytest.raises(DataError) as err:
            aux_features(rec)
        assert str(err.value) == "record syn0002: age must be a finite number"

    @pytest.mark.parametrize("age", [50, 50.0, np.float32(50), np.float64(50),
                                     np.int64(50), np.int16(50)])
    def test_finite_python_and_numpy_numbers_pass(self, age):
        feat = aux_features(make_record(np.zeros((12, 10)), age=age))
        assert feat[0] == np.float32(0.5) and feat.dtype == np.float32


class TestSplitOfMergedMatrix:
    """filter_and_split keeps the same records for a weight matrix and for its
    merged form, whose ids are joined with '|'."""

    def test_same_records_for_a_matrix_and_its_merged_form(self):
        w = np.eye(4)
        w[1] = w[0]
        w[:, 1] = w[:, 0]
        wm = WeightMatrix(("a", "b", "c", "d"), w)
        merged, _ = merge_identical_classes(wm)
        assert merged.labels == ("a|b", "c", "d")
        rng = np.random.default_rng(5)
        names = ["a", "b", "c", "d", "x", "y"]
        recs = [make_record(np.zeros((12, 10)), rec_id=f"r{i:03d}",
                            labels=tuple(rng.choice(names, size=rng.integers(1, 3))))
                for i in range(120)]
        ids = {kind: [[r.id for r in part] for part in
                      filter_and_split(recs, m, seed=4).values()]
               for kind, m in (("raw", wm), ("merged", merged),
                               ("twice", merge_identical_classes(merged)[0]))}
        assert ids["raw"] == ids["merged"] == ids["twice"]
        kept = {i for part in ids["raw"] for i in part}
        assert kept == {r.id for r in recs if set(r.labels) & {"a", "b", "c", "d"}}
