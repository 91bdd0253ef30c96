"""Dataset container and a small LibSVM-format reader.

The on-disk format is one example per line, ``<label> <index>:<value> ...``
with 1-based feature indices, blank lines ignored, and full-line comments
starting with ``#``.  Labels are mapped to {-1, +1} by sign.  Parse
problems (also a non-finite label or value, or a feature index repeated
on one line) raise ``ValueError`` naming the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import ParameterError

__all__ = ["LabeledDataset", "load_libsvm"]


@dataclass
class LabeledDataset:
    """Dense feature matrix with {-1,+1} labels and optional {-1,+1}
    sensitive attributes."""

    features: np.ndarray
    labels: np.ndarray
    sensitive: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ParameterError("features must be a 2-D array")
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.labels.shape != (self.features.shape[0],):
            raise ParameterError("labels length must match feature rows")
        if self.labels.size and not np.isin(self.labels, (-1, 1)).all():
            raise ParameterError("labels must be -1 or +1")
        if self.sensitive is not None:
            self.sensitive = np.asarray(self.sensitive, dtype=np.int8)
            if self.sensitive.shape != self.labels.shape:
                raise ParameterError("sensitive length must match labels")
            if self.sensitive.size and not np.isin(self.sensitive,
                                                   (-1, 1)).all():
                raise ParameterError("sensitive attributes must be -1 or +1")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.labels == 1))

    @property
    def n_neg(self) -> int:
        return int(np.count_nonzero(self.labels == -1))

    def subset(self, mask) -> "LabeledDataset":
        mask = np.asarray(mask)
        sens = self.sensitive[mask] if self.sensitive is not None else None
        return LabeledDataset(self.features[mask], self.labels[mask], sens)


def _parse_error(path, lineno: int, what: str) -> ValueError:
    return ValueError(f"{path}: parse error at line {lineno}: {what}")


def load_libsvm(path, dimension: Optional[int] = None,
                normalize: bool = False) -> LabeledDataset:
    """Read a LibSVM-format file into a dense :class:`LabeledDataset`.

    ``dimension`` overrides the inferred feature count (it must be at least
    the largest index seen).  ``normalize=True`` scales the whole matrix by
    its largest absolute entry so ``max |x_ij| <= 1``.
    """
    rows: list[dict] = []
    labels: list[int] = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            try:
                raw_label = float(tokens[0])
            except ValueError:
                raw_label = math.nan
            if not math.isfinite(raw_label):
                raise _parse_error(path, lineno, f"bad label {tokens[0]!r}")
            entries: dict = {}
            for tok in tokens[1:]:
                idx_str, sep, val_str = tok.partition(":")
                if not sep:
                    raise _parse_error(path, lineno,
                                       f"expected index:value, got {tok!r}")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise _parse_error(path, lineno,
                                       f"bad pair {tok!r}") from None
                if idx < 1:
                    raise _parse_error(path, lineno,
                                       f"feature index {idx} is not >= 1")
                if not math.isfinite(val):
                    raise _parse_error(path, lineno,
                                       f"non-finite value in {tok!r}")
                if idx in entries:
                    raise _parse_error(path, lineno,
                                       f"feature index {idx} repeated")
                entries[idx] = val
                max_index = max(max_index, idx)
            rows.append(entries)
            labels.append(1 if raw_label > 0 else -1)

    if dimension is None:
        dimension = max_index
    elif dimension < max_index:
        raise ParameterError(
            f"dimension override {dimension} is below the largest "
            f"feature index {max_index}")
    feats = np.zeros((len(rows), dimension))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            feats[i, idx - 1] = val
    if normalize and feats.size:
        scale = float(np.abs(feats).max())
        if scale > 0:
            feats /= scale
    return LabeledDataset(feats, np.asarray(labels, dtype=np.int8))
