"""Tests for the dataset container and the LibSVM reader."""

import numpy as np
import pytest

from dmaxopt.core import ParameterError
from dmaxopt.problems import LabeledDataset, load_libsvm


def test_dataset_validation():
    feats = np.zeros((3, 2))
    LabeledDataset(feats, [1, -1, 1])
    with pytest.raises(ParameterError):
        LabeledDataset(feats, [1, -1])          # length mismatch
    with pytest.raises(ParameterError):
        LabeledDataset(feats, [1, 0, 1])        # label not in {-1, +1}
    with pytest.raises(ParameterError):
        LabeledDataset(np.zeros(3), [1, -1, 1])  # not 2-D
    with pytest.raises(ParameterError):
        LabeledDataset(feats, [1, -1, 1], sensitive=[1, 2, 1])


def test_dataset_counts_and_subset():
    ds = LabeledDataset(np.arange(8.0).reshape(4, 2), [1, -1, 1, 1],
                        sensitive=[1, 1, -1, -1])
    assert len(ds) == 4
    assert ds.dimension == 2
    assert ds.n_pos == 3 and ds.n_neg == 1
    sub = ds.subset(ds.labels == 1)
    assert len(sub) == 3
    assert np.array_equal(sub.sensitive, [1, -1, -1])
    assert np.array_equal(sub.features[0], [0.0, 1.0])


def _write(tmp_path, text, name="data.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_libsvm_round_trip(tmp_path):
    p = _write(tmp_path, "\n".join([
        "# header comment",
        "+1 1:0.5 3:-2.0",
        "",
        "-1 2:1.25",
        "3.0 1:1 2:2 3:3",
    ]) + "\n")
    ds = load_libsvm(p)
    assert ds.features.shape == (3, 3)
    assert np.allclose(ds.features, [[0.5, 0.0, -2.0],
                                     [0.0, 1.25, 0.0],
                                     [1.0, 2.0, 3.0]])
    assert np.array_equal(ds.labels, [1, -1, 1])  # sign mapping


def test_load_libsvm_label_sign_mapping(tmp_path):
    p = _write(tmp_path, "0.5 1:1\n-0.5 1:1\n-3 1:1\n2 1:1\n0 1:1\n")
    ds = load_libsvm(p)
    # zero and negative labels map to -1, positive to +1
    assert np.array_equal(ds.labels, [1, -1, -1, 1, -1])


def test_load_libsvm_dimension_override(tmp_path):
    p = _write(tmp_path, "+1 2:1.0\n")
    ds = load_libsvm(p, dimension=5)
    assert ds.features.shape == (1, 5)
    assert ds.features[0, 1] == 1.0
    with pytest.raises(ParameterError):
        load_libsvm(p, dimension=1)  # below the largest index seen


def test_load_libsvm_normalize(tmp_path):
    p = _write(tmp_path, "+1 1:4.0 2:-8.0\n-1 1:2.0\n")
    ds = load_libsvm(p, normalize=True)
    assert np.abs(ds.features).max() == pytest.approx(1.0)
    assert ds.features[0, 1] == pytest.approx(-1.0)
    assert ds.features[1, 0] == pytest.approx(0.25)


def test_load_libsvm_parse_errors_name_the_line(tmp_path):
    cases = [
        ("+1 1:0.5\nBAD 1:1\n", "line 2"),
        ("+1 nonsense\n", "line 1"),
        ("+1 1:x\n", "line 1"),
        ("# ok\n\n+1 0:1.0\n", "line 3"),
        # a NaN label was read as -1, non-finite values were kept, and a
        # repeated index kept its last value
        ("+1 1:0.5\nnan 1:1\n", "line 2: bad label 'nan'"),
        ("inf 1:1\n", "line 1: bad label"),
        ("+1 1:inf\n", "line 1: non-finite value"),
        ("+1 1:0.5\n-1 2:nan\n", "line 2: non-finite value"),
        ("-1 1:-Infinity\n", "line 1: non-finite value"),
        ("+1 1:0.5 2:1 1:0.7\n", "line 1: feature index 1 repeated"),
    ]
    for text, needle in cases:
        p = _write(tmp_path, text)
        with pytest.raises(ValueError, match=needle):
            load_libsvm(p)


def test_load_libsvm_empty_file(tmp_path):
    p = _write(tmp_path, "# nothing here\n\n")
    ds = load_libsvm(p)
    assert len(ds) == 0
    assert ds.features.shape == (0, 0)


def test_load_libsvm_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_libsvm(tmp_path / "absent.txt")
