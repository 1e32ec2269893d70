import gzip
import math
import struct

import numpy as np
import pytest

from lhc.data import (LHF1_MAX_CLASSES, BatchIterator, DataFormatError, LabeledDataset,
                      PlantedHierarchySpec, generate_planted, load_features,
                      load_mnist, one_hot, save_features, train_test_split)


def write_idx_pair(directory, split, images, labels, image_magic=0x00000803,
                   label_magic=0x00000801, gz=False):
    img_name = f"{split}-images-idx3-ubyte"
    lab_name = f"{split}-labels-idx1-ubyte"
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    lab_bytes = struct.pack(">II", label_magic, labels.shape[0]) + labels.tobytes()
    if gz:
        (directory / (img_name + ".gz")).write_bytes(gzip.compress(img_bytes))
        (directory / (lab_name + ".gz")).write_bytes(gzip.compress(lab_bytes))
    else:
        (directory / img_name).write_bytes(img_bytes)
        (directory / lab_name).write_bytes(lab_bytes)


# A damaged .gz IDX file, from its intact bytes: each raises something other
# than DataFormatError inside gzip (EOFError, zlib.error, gzip.BadGzipFile)
GZ_DAMAGE = {"truncated": lambda gz: gz[:-20],
             "corrupt deflate": lambda gz: gz[:10] + b"\xff" * 4 + gz[14:],  # a reserved block type
             "not gzip": gzip.decompress}


@pytest.fixture
def mnist_dir(tmp_path):
    rng = np.random.default_rng(0)
    train_images = rng.integers(0, 256, size=(40, 28, 28), dtype=np.uint8)
    train_labels = rng.integers(0, 10, size=40, dtype=np.uint8)
    test_images = rng.integers(0, 256, size=(12, 28, 28), dtype=np.uint8)
    test_labels = rng.integers(0, 10, size=12, dtype=np.uint8)
    write_idx_pair(tmp_path, "train", train_images, train_labels)
    write_idx_pair(tmp_path, "t10k", test_images, test_labels)
    return tmp_path


class TestMnistLoader:
    def test_loads_and_scales(self, mnist_dir):
        train, test = load_mnist(mnist_dir, "train"), load_mnist(mnist_dir, "test")
        assert train.features.shape == (40, 784)
        assert test.features.shape == (12, 784)
        assert train.features.min() >= 0.0 and train.features.max() <= 1.0
        assert set(np.unique(train.labels)) <= set(range(10))
        assert train.class_names == [str(d) for d in range(10)]

    def test_gzip_variant(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5, dtype=np.uint8)
        write_idx_pair(tmp_path, "train", images, labels, gz=True)
        write_idx_pair(tmp_path, "t10k", images, labels, gz=True)
        assert len(load_mnist(tmp_path, "train")) == len(load_mnist(tmp_path, "test")) == 5

    def test_bit_deterministic(self, mnist_dir):
        a = load_mnist(mnist_dir, "train")
        b = load_mnist(mnist_dir, "train")
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_bad_image_magic_names_file(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=3, dtype=np.uint8)
        write_idx_pair(tmp_path, "train", images, labels, image_magic=0x00000802)
        write_idx_pair(tmp_path, "t10k", images, labels)
        with pytest.raises(DataFormatError) as exc:
            load_mnist(tmp_path, "train")
        assert "train-images-idx3-ubyte" in str(exc.value)
        assert "0x00000802" in str(exc.value)

    def test_bad_label_magic(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=3, dtype=np.uint8)
        write_idx_pair(tmp_path, "train", images, labels, label_magic=0x00000803)
        write_idx_pair(tmp_path, "t10k", images, labels)
        with pytest.raises(DataFormatError, match="label magic"):
            load_mnist(tmp_path, "train")

    def test_truncated_images_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=3, dtype=np.uint8)
        write_idx_pair(tmp_path, "train", images, labels)
        write_idx_pair(tmp_path, "t10k", images, labels)
        path = tmp_path / "train-images-idx3-ubyte"
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(DataFormatError, match="image bytes"):
            load_mnist(tmp_path, "train")

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("claim", [(60000, 65536, 65536), (2**32 - 1,) * 3],
                             ids=["60000x65536x65536", "2^32-1 each"])
    def test_a_damaged_header_is_a_format_error_not_an_allocation(self, tmp_path, claim, gz):
        # the header's sizes are checked against the bytes read, never used to size a read
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
        write_idx_pair(tmp_path, "train", images, rng.integers(0, 10, size=3, dtype=np.uint8),
                       gz=gz)
        body = struct.pack(">IIII", 0x00000803, *claim) + images.tobytes()
        path = tmp_path / ("train-images-idx3-ubyte" + (".gz" if gz else ""))
        path.write_bytes(gzip.compress(body) if gz else body)
        with pytest.raises(DataFormatError, match="train-images-idx3-ubyte"):
            load_mnist(tmp_path, "train")

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("name", ["train-images-idx3-ubyte", "train-labels-idx1-ubyte"])
    def test_bytes_after_the_payload_are_rejected(self, tmp_path, name, gz):
        rng = np.random.default_rng(6)
        write_idx_pair(tmp_path, "train", rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8),
                       rng.integers(0, 10, size=3, dtype=np.uint8))
        path = tmp_path / name
        body = path.read_bytes() + b"\0"
        if gz:
            path.unlink()
            path = tmp_path / (name + ".gz")
        path.write_bytes(gzip.compress(body) if gz else body)
        with pytest.raises(DataFormatError, match=name):
            load_mnist(tmp_path, "train")

    @pytest.mark.parametrize("damage", sorted(GZ_DAMAGE))
    @pytest.mark.parametrize("name", ["train-images-idx3-ubyte", "train-labels-idx1-ubyte"])
    def test_a_damaged_gz_file_is_a_format_error_naming_it(self, tmp_path, name, damage):
        rng = np.random.default_rng(7)
        write_idx_pair(tmp_path, "train", rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8),
                       rng.integers(0, 10, size=3, dtype=np.uint8), gz=True)
        path = tmp_path / (name + ".gz")
        path.write_bytes(GZ_DAMAGE[damage](path.read_bytes()))
        with pytest.raises(DataFormatError, match=f"{name}.gz: damaged gzip data"):
            load_mnist(tmp_path, "train")

    def test_count_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
        write_idx_pair(tmp_path, "train", images, rng.integers(0, 10, size=4, dtype=np.uint8))
        write_idx_pair(tmp_path, "t10k", images, rng.integers(0, 10, size=4, dtype=np.uint8))
        lab = tmp_path / "train-labels-idx1-ubyte"
        lab.write_bytes(struct.pack(">II", 0x00000801, 3)
                        + rng.integers(0, 10, size=3, dtype=np.uint8).tobytes())
        with pytest.raises(DataFormatError, match="images but"):
            load_mnist(tmp_path, "train")

    def test_a_split_reads_only_its_own_files(self, mnist_dir):
        for path in mnist_dir.glob("train-*"):
            path.unlink()
        assert len(load_mnist(mnist_dir, "test")) == 12
        with pytest.raises(DataFormatError, match="train-images-idx3-ubyte"):
            load_mnist(mnist_dir, "train")

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(DataFormatError, match="missing"):
            load_mnist(tmp_path, "train")


class TestPlanted:
    def test_same_seed_bitwise_identical(self):
        spec = PlantedHierarchySpec(depth=2, feature_dim=8, seed=11)
        ds1, tree1 = generate_planted(spec)
        ds2, tree2 = generate_planted(spec)
        assert ds1.features.tobytes() == ds2.features.tobytes()
        assert tree1.class_to_string == tree2.class_to_string

    @pytest.mark.parametrize("depth, sigma_within, seed", [(2, 0.1, 0), (3, 3.0, 7)])
    def test_each_class_is_its_mean_plus_sigma_within_times_its_own_draws(self, depth,
                                                                          sigma_within, seed):
        # the means' random walk, then each class's (n, D) block, all from one seeded stream
        spec = PlantedHierarchySpec(depth=depth, feature_dim=5, sigma_within=sigma_within,
                                    samples_per_class=6, seed=seed)
        rng = np.random.default_rng(seed)
        means, prefixes = {"": np.zeros(5)}, [""]
        for _ in range(depth):
            prefixes = [p + bit for p in prefixes for bit in "01"]
            for child in prefixes:
                means[child] = means[child[:-1]] + spec.sigma_level * rng.standard_normal(5)
        expected = np.concatenate([means[format(c, f"0{depth}b")]
                                   + sigma_within * rng.standard_normal((6, 5))
                                   for c in range(2 ** depth)])
        ds, _ = generate_planted(spec)
        assert ds.features.tobytes() == expected.tobytes()
        assert ds.labels.tobytes() == np.repeat(np.arange(2 ** depth), 6).tobytes()

    def test_tree_leaves_cover_all_classes_at_depth(self):
        spec = PlantedHierarchySpec(depth=3, feature_dim=4, seed=0)
        _, tree = generate_planted(spec)
        assert tree.class_to_string == {c: format(c, "03b") for c in range(8)}
        assert tree.string_length == 3

    def nearest_mean_accuracy(self, ds):
        means = np.stack([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(ds.num_classes)])
        d2 = ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        return float((d2.argmin(axis=1) == ds.labels).mean())

    def test_vanishing_noise_gives_point_clusters(self):
        spec = PlantedHierarchySpec(depth=2, feature_dim=8, sigma_within=1e-9,
                                    samples_per_class=20, seed=5)
        ds, _ = generate_planted(spec)
        assert self.nearest_mean_accuracy(ds) == 1.0

    def test_reference_spec_is_nearest_mean_separable(self):
        spec = PlantedHierarchySpec(depth=3, feature_dim=16, sigma_level=1.0,
                                    sigma_within=0.1, samples_per_class=200, seed=0)
        ds, _ = generate_planted(spec)
        assert self.nearest_mean_accuracy(ds) >= 0.99

    def test_sibling_means_closer_than_non_siblings(self):
        hits = 0
        for seed in range(10):
            spec = PlantedHierarchySpec(depth=3, feature_dim=16, sigma_level=1.0,
                                        sigma_within=0.1, samples_per_class=10, seed=seed)
            ds, _ = generate_planted(spec)
            means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(8)])
            sib, non = [], []
            for a in range(8):
                for b in range(a + 1, 8):
                    dist = np.linalg.norm(means[a] - means[b])
                    (sib if a // 2 == b // 2 else non).append(dist)
            hits += np.mean(sib) < np.mean(non)
        assert hits >= 9

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PlantedHierarchySpec(depth=0, feature_dim=4)
        with pytest.raises(ValueError):
            PlantedHierarchySpec(depth=2, feature_dim=4, sigma_level=0.0)

    @pytest.mark.parametrize("field, value", [
        ("depth", 2.5), ("depth", True), ("feature_dim", 4.0), ("samples_per_class", 3.5),
        ("seed", 1.5), ("seed", -1), ("sigma_within", math.nan), ("sigma_level", math.inf),
        ("sigma_within", -math.inf), ("sigma_level", "1.0"), ("sigma_within", True)])
    def test_ill_typed_or_non_finite_fields_rejected_before_any_draw(self, field, value):
        fields = {"depth": 2, "feature_dim": 4, **{field: value}}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            PlantedHierarchySpec(**fields)


class TestFeatureFiles:
    def dataset(self):
        rng = np.random.default_rng(8)
        return LabeledDataset(rng.standard_normal((100, 512)),
                              rng.integers(0, 7, size=100), num_classes=7)

    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = self.dataset()
        path = tmp_path / "feats.lhf1"
        save_features(path, ds)
        loaded = load_features(path)
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert loaded.labels.tolist() == ds.labels.tolist()
        assert loaded.num_classes == 7

    def test_header_shape_matches_payload(self, tmp_path):
        path = tmp_path / "feats.lhf1"
        save_features(path, self.dataset())
        raw = path.read_bytes()
        n, d, c = struct.unpack("<III", raw[4:16])
        assert (n, d, c) == (100, 512, 7)
        assert len(raw) == 16 + n * d * 8 + n * 2

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "feats.lhf1"
        save_features(path, self.dataset())
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            load_features(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "feats.lhf1"
        save_features(path, self.dataset())
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataFormatError, match="expected"):
            load_features(path)

    def test_payload_longer_than_the_header_says_rejected(self, tmp_path):
        path = tmp_path / "feats.lhf1"
        save_features(path, self.dataset())
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DataFormatError, match="expected"):
            load_features(path)

    def test_huge_header_over_a_small_file_raises_before_allocating(self, tmp_path,
                                                                    peak_traced_bytes):
        # N = D = 2^32 - 1 would be a 147-exabyte matrix: the size check must
        # come first, so the error is DataFormatError and not MemoryError
        path = tmp_path / "feats.lhf1"
        path.write_bytes(b"LHF1" + struct.pack("<III", 2**32 - 1, 2**32 - 1, 2) + bytes(24))

        def load():
            with pytest.raises(DataFormatError, match="expected"):
                load_features(path)

        _, peak = peak_traced_bytes(load)
        assert peak < 1 << 20

    def test_a_class_count_past_the_u16_labels_is_rejected_on_read(self, tmp_path):
        # save_features refuses such a count; read, C = 2^32 - 1 would size a train_base
        # FC head of 64 GiB
        path = tmp_path / "feats.lhf1"
        payload = np.arange(2.0).astype("<f8").tobytes() + np.array([0, 1], "<u2").tobytes()

        def write(num_classes):
            path.write_bytes(b"LHF1" + struct.pack("<III", 2, 1, num_classes) + payload)

        write(LHF1_MAX_CLASSES)
        assert load_features(path).num_classes == LHF1_MAX_CLASSES
        write(LHF1_MAX_CLASSES + 1)
        with pytest.raises(DataFormatError, match=r"C=65536 classes.* at most 65535"):
            load_features(path)

    def test_nan_payload_reports_row(self, tmp_path):
        path = tmp_path / "feats.lhf1"
        n, d = 4, 3
        feats = np.arange(12, dtype="<f8").reshape(n, d)
        feats[2, 1] = np.nan
        blob = (b"LHF1" + struct.pack("<III", n, d, 2) + feats.tobytes()
                + np.zeros(n, dtype="<u2").tobytes())
        path.write_bytes(blob)
        with pytest.raises(DataFormatError, match="row 2") as exc:
            load_features(path)
        assert str(exc.value).startswith(f"{path}: ")

    def large_dataset(self):
        rng = np.random.default_rng(3)
        return LabeledDataset(rng.standard_normal((20000, 64)),
                              rng.integers(0, 7, size=20000), num_classes=7)

    def test_save_makes_no_copy_of_the_features(self, tmp_path, peak_traced_bytes):
        ds = self.large_dataset()
        _, peak = peak_traced_bytes(lambda: save_features(tmp_path / "feats.lhf1", ds))
        assert peak < 0.05 * ds.features.nbytes

    def test_load_allocates_the_features_once(self, tmp_path, peak_traced_bytes):
        ds = self.large_dataset()
        path = tmp_path / "feats.lhf1"
        save_features(path, ds)
        loaded, peak = peak_traced_bytes(lambda: load_features(path))
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert loaded.labels.tolist() == ds.labels.tolist()
        assert peak < 1.1 * ds.features.nbytes


class TestBatching:
    def dataset(self, n=10, num_classes=5):
        rng = np.random.default_rng(0)
        return LabeledDataset(rng.standard_normal((n, 3)),
                              np.arange(n) % num_classes, num_classes=num_classes)

    def test_final_partial_batch_kept(self):
        sizes = [x.shape[0] for x, _ in BatchIterator(self.dataset(), 4, seed=0).epoch(1)]
        assert sizes == [4, 4, 2]

    def test_one_hot_matches_labels(self):
        vec = one_hot(np.array([3]), 10)
        assert vec.shape == (1, 10)
        assert vec[0, 3] == 1.0 and vec.sum() == 1.0

    def test_epochs_reshuffle_but_cover_everything(self):
        it = BatchIterator(self.dataset(), 4, seed=7)
        p1, p2 = it.permutation(1), it.permutation(2)
        assert sorted(p1) == sorted(p2) == list(range(10))
        assert p1.tolist() != p2.tolist()

    def test_permutation_is_deterministic_in_seed_and_epoch(self):
        a = BatchIterator(self.dataset(), 4, seed=7).permutation(3)
        b = BatchIterator(self.dataset(), 4, seed=7).permutation(3)
        assert a.tolist() == b.tolist()

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchIterator(self.dataset(), 11, seed=0)


class TestSplitting:
    def test_stratified_and_deterministic(self):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(rng.standard_normal((40, 2)),
                            np.repeat(np.arange(4), 10), num_classes=4)
        train, test = train_test_split(ds, 0.25, seed=3)
        # ceil(0.25 * 10) = 3 rows per class go to test
        assert len(train) == 28 and len(test) == 12
        assert all((test.labels == c).sum() == 3 for c in range(4))
        train2, test2 = train_test_split(ds, 0.25, seed=3)
        assert test.features.tobytes() == test2.features.tobytes()


class TestLabeledDatasetValidation:
    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DataFormatError, match="labels outside"):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), num_classes=3)

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_rejects_class_names_of_the_wrong_length(self, names):
        with pytest.raises(DataFormatError, match="class names for 2 classes"):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), num_classes=2, class_names=names)

    def test_rejects_a_str_given_as_class_names(self):
        # "ab" has two str items, but it is one name, not a list of two
        with pytest.raises(DataFormatError, match="list or tuple of str, got 'ab'"):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), num_classes=2, class_names="ab")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_rows(self, value):
        feats = np.zeros((3, 2))
        feats[1, 0] = value
        with pytest.raises(DataFormatError, match="row 1"):
            LabeledDataset(feats, np.zeros(3, dtype=int), num_classes=2)

    def test_finite_check_of_a_finite_matrix_allocates_no_mask(self, peak_traced_bytes):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((20000, 64))
        labels = rng.integers(0, 7, size=20000)
        _, peak = peak_traced_bytes(lambda: LabeledDataset(feats, labels, num_classes=7))
        assert peak < 0.05 * feats.nbytes
