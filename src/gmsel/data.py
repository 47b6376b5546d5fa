"""Dataset representation, KEEL/CSV ingestion, min-max scaling and 5x2 fold planning.

Numeric attribute values are stored as float64; nominal values are stored as
integer codes into the attribute's category list, so the whole data matrix is
a single 2-D float array.  The minority class is always designated positive.
A KEEL ``[lo, hi]`` range is checked but not kept: scaling reads each training
half's own min and max.  A fold plan is a plain tuple of index-array pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Attribute",
    "Dataset",
    "Scaler",
    "KeelParseError",
    "KeelValidationError",
    "parse_keel",
    "parse_csv",
    "stratified_two_fold",
    "fit_scaler",
    "apply_scaler",
]


class KeelParseError(ValueError):
    """Malformed KEEL header or data row; carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class KeelValidationError(ValueError):
    """Structurally valid file that fails a dataset-level requirement."""


@dataclass(frozen=True)
class Attribute:
    """One column of the schema: numeric, or nominal with its categories."""

    name: str
    kind: str  # "numeric" | "nominal"
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == "nominal":
            if not self.categories:
                raise ValueError(f"attribute {self.name}: empty category list")
            if len(set(self.categories)) != len(self.categories):
                raise ValueError(f"attribute {self.name}: duplicate categories")
        elif self.kind != "numeric":
            raise ValueError(f"attribute {self.name}: unknown kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Two-class dataset with the minority class designated positive.

    ``X[i, j]`` holds the value of attribute ``j`` for instance ``i`` (category
    code for nominal attributes).  ``y[i]`` is 1 for the positive (minority)
    class and 0 for the negative class.
    """

    name: str
    schema: tuple[Attribute, ...]
    X: np.ndarray
    y: np.ndarray
    positive_label: str
    negative_label: str

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y length mismatch")
        if self.X.shape[1] != len(self.schema):
            raise ValueError("value count does not match schema length")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("non-finite attribute value")
        if self.n_pos < 1 or self.n_neg < 1:
            raise KeelValidationError("both classes must be represented")
        if self.n_pos > self.n_neg:
            raise ValueError("positive class must be the minority")

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.y == 0))

    @property
    def imbalance_ratio(self) -> float:
        return self.n_neg / self.n_pos

    @property
    def nominal_mask(self) -> np.ndarray:
        return np.array([a.kind == "nominal" for a in self.schema], dtype=bool)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.name == other.name
            and self.schema == other.schema
            and self.positive_label == other.positive_label
            and self.negative_label == other.negative_label
            and np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
        )


@dataclass(frozen=True)
class Scaler:
    """Per-numeric-attribute training min and max for [0, 1] scaling."""

    mins: np.ndarray
    maxs: np.ndarray
    nominal_mask: np.ndarray


# ---------------------------------------------------------------------------
# KEEL format

_KEYWORD_RE = re.compile(r"^@(\w+)\s*(.*)$")
_ATTR_NUMERIC_RE = re.compile(
    r"^(\S+)\s+(?:real|integer|numeric)\s*(?:\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\])?\s*$",
    re.IGNORECASE,
)
_ATTR_NOMINAL_RE = re.compile(r"^(\S+)\s*\{(.*)\}\s*$")


def _parse_attribute(body: str, line_no: int) -> Attribute:
    m = _ATTR_NOMINAL_RE.match(body)
    if m:
        cats = tuple(c.strip() for c in m.group(2).split(","))
        if any(not c for c in cats):
            raise KeelParseError("empty category name", line_no)
        try:
            return Attribute(name=m.group(1), kind="nominal", categories=cats)
        except ValueError as exc:
            raise KeelParseError(str(exc), line_no) from exc
    m = _ATTR_NUMERIC_RE.match(body)
    if m:
        name, lo, hi = m.groups()
        if lo is not None:
            try:
                lo_f, hi_f = float(lo), float(hi)
            except ValueError as exc:
                raise KeelParseError(f"bad numeric range in attribute {name}", line_no) from exc
            if lo_f > hi_f:
                raise KeelParseError(f"attribute {name}: declared min > max", line_no)
        return Attribute(name=name, kind="numeric")
    raise KeelParseError(f"cannot parse attribute declaration: {body!r}", line_no)


def parse_keel(text) -> Dataset:
    """Parse the text of a KEEL ``.dat`` file into a :class:`Dataset`.

    Exactly one output attribute with exactly two classes is required, and
    ``@inputs``, when given, must name every other attribute.  The smaller
    class becomes positive (ties broken by the lexicographically
    smaller label).  Missing values (``?``) are rejected.
    """
    lines = text.splitlines()

    relation = None
    attributes: list[Attribute] = []
    outputs: list[str] | None = None
    inputs: list[str] | None = None
    data_start = None
    for idx, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        m = _KEYWORD_RE.match(line)
        if not m:
            raise KeelParseError(f"expected @keyword, got {line!r}", idx + 1)
        keyword = m.group(1).lower()
        body = m.group(2).strip()
        if keyword == "relation":
            relation = body
        elif keyword == "attribute":
            attributes.append(_parse_attribute(body, idx + 1))
        elif keyword == "inputs":
            inputs = [s.strip() for s in body.split(",") if s.strip()]
        elif keyword == "outputs":
            outputs = [s.strip() for s in body.split(",") if s.strip()]
        elif keyword == "data":
            data_start = idx + 1
            break
        else:
            raise KeelParseError(f"unknown keyword @{keyword}", idx + 1)

    if relation is None:
        raise KeelParseError("missing @relation declaration")
    if not attributes:
        raise KeelParseError("missing @attribute declarations")
    if data_start is None:
        raise KeelParseError("missing @data section")

    by_name = {a.name: a for a in attributes}
    if outputs is not None:
        if len(outputs) != 1:
            raise KeelValidationError("exactly one output attribute is required")
        if outputs[0] not in by_name:
            raise KeelParseError(f"unknown output attribute {outputs[0]!r}")
        class_attr = by_name[outputs[0]]
    else:
        class_attr = attributes[-1]
    feature_attrs = tuple(a for a in attributes if a is not class_attr)
    if inputs is not None:
        unknown = [n for n in inputs if n not in by_name]
        if unknown:
            raise KeelParseError(f"unknown input attribute {unknown[0]!r}")
        differ = set(inputs) ^ {a.name for a in feature_attrs}
        if differ:
            raise KeelValidationError("@inputs must list the non-output attributes; "
                                      f"it differs from them by {sorted(differ)}")
    if class_attr.kind != "nominal" or len(class_attr.categories) != 2:
        raise KeelValidationError("output attribute must be nominal with exactly two classes")

    class_col = attributes.index(class_attr)

    rows = []
    labels = []
    for idx in range(data_start, len(lines)):
        line = lines[idx].strip()
        if not line or line.startswith("%"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(attributes):
            raise KeelParseError(
                f"expected {len(attributes)} values, got {len(fields)}", idx + 1
            )
        if "?" in fields:
            raise KeelParseError("missing values are not supported", idx + 1)
        labels.append(fields.pop(class_col))
        row = np.empty(len(feature_attrs))
        for j, (attr, value) in enumerate(zip(feature_attrs, fields)):
            if attr.kind == "numeric":
                try:
                    row[j] = number = float(value)
                    if not abs(number) < np.inf:  # nan or +-inf
                        raise ValueError(value)
                except ValueError as exc:
                    raise KeelParseError(
                        f"bad numeric value {value!r} for {attr.name}", idx + 1
                    ) from exc
            else:
                try:
                    row[j] = attr.categories.index(value)
                except ValueError as exc:
                    raise KeelParseError(
                        f"unknown nominal value {value!r} for {attr.name}", idx + 1
                    ) from exc
        rows.append(row)

    if not rows:
        raise KeelValidationError("empty @data section")

    return _build_dataset(relation, feature_attrs, np.vstack(rows), labels, class_attr)


def _build_dataset(name, schema, X, labels, class_attr) -> Dataset:
    counts = {c: 0 for c in class_attr.categories}
    for lab in labels:
        if lab not in counts:
            raise KeelValidationError(f"label {lab!r} is not a declared class")
        counts[lab] += 1
    # Minority class is positive; exact tie broken by lexicographic order.
    pos_label = min(counts, key=lambda c: (counts[c], c))
    neg_label = next(c for c in class_attr.categories if c != pos_label)
    y = np.array([1 if lab == pos_label else 0 for lab in labels], dtype=np.int8)
    return Dataset(
        name=name,
        schema=tuple(schema),
        X=np.asarray(X, dtype=float),
        y=y,
        positive_label=pos_label,
        negative_label=neg_label,
    )


def parse_csv(text, name="csv") -> Dataset:
    """CSV fallback: header row, last column is the class label.

    Columns whose values all parse as floats are numeric; the rest nominal
    (categories in order of first appearance).
    """
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(numbered) < 2:
        raise KeelValidationError("CSV needs a header and at least one row")
    line_no, lines = zip(*numbered)  # errors name a row by its line in the text
    header = [h.strip() for h in lines[0].split(",")]
    raw = [[f.strip() for f in ln.split(",")] for ln in lines[1:]]
    for i, row in enumerate(raw):
        if len(row) != len(header):
            raise KeelParseError(f"expected {len(header)} fields", line_no[i + 1])
    columns = list(zip(*raw))
    labels = list(columns[-1])
    class_cats = tuple(dict.fromkeys(labels))
    if len(class_cats) != 2:
        raise KeelValidationError("CSV class column must have exactly two labels")
    class_attr = Attribute(name=header[-1], kind="nominal", categories=class_cats)

    schema = []
    data_cols = []
    for col_name, col in zip(header[:-1], columns[:-1]):
        try:
            vals = np.array([float(v) for v in col])
            schema.append(Attribute(name=col_name, kind="numeric"))
        except ValueError:
            cats = tuple(dict.fromkeys(col))
            schema.append(Attribute(name=col_name, kind="nominal", categories=cats))
            vals = np.array([cats.index(v) for v in col], dtype=float)
        bad = np.flatnonzero(~np.isfinite(vals)).tolist()  # nan, inf: codes are finite
        if bad:
            raise KeelParseError(f"bad numeric value {col[bad[0]]!r} for {col_name}",
                                 line_no[bad[0] + 1])
        data_cols.append(vals)
    X = np.column_stack(data_cols) if data_cols else np.empty((len(raw), 0))
    return _build_dataset(name, tuple(schema), X, labels, class_attr)


# ---------------------------------------------------------------------------
# Fold planning

def _split_class(indices: np.ndarray, rng: np.random.Generator):
    perm = rng.permutation(indices)
    half = (len(perm) + 1) // 2  # odd count: surplus to the first half
    return perm[:half], perm[half:]


def stratified_two_fold(ds: Dataset, seed: int,
                        repetitions: int = 5) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Plan ``repetitions`` stratified two-fold splits of ``ds``.

    Returns a tuple of ``repetitions`` pairs ``(half1, half2)``: sorted,
    disjoint index arrays that together cover ``ds``.  Each class is shuffled
    and halved independently so the imbalance ratio is mirrored in both
    halves; odd class counts put the extra instance in the first half.  The
    plan is a pure function of ``(ds, seed, repetitions)``.
    """
    if ds.n_pos < 2 or ds.n_neg < 2:
        raise KeelValidationError("need at least 2 instances per class to stratify")
    rng = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(ds.y == 1)
    neg_idx = np.flatnonzero(ds.y == 0)
    reps = []
    for _ in range(repetitions):
        p1, p2 = _split_class(pos_idx, rng)
        n1, n2 = _split_class(neg_idx, rng)
        half1 = np.sort(np.concatenate([p1, n1]))
        half2 = np.sort(np.concatenate([p2, n2]))
        reps.append((half1, half2))
    return tuple(reps)


# ---------------------------------------------------------------------------
# Scaling

def fit_scaler(ds: Dataset, indices=None) -> Scaler:
    """Fit per-attribute min/max on ``ds`` (restricted to ``indices`` if given)."""
    X = ds.X if indices is None else ds.X[np.asarray(indices)]
    if X.shape[0] == 0:
        raise ValueError("cannot fit a scaler on an empty selection")
    return Scaler(
        mins=X.min(axis=0),
        maxs=X.max(axis=0),
        nominal_mask=ds.nominal_mask,
    )


def apply_scaler(scaler: Scaler, X: np.ndarray) -> np.ndarray:
    """Map numeric attributes through (v - min)/(max - min); nominal pass through.

    Constant training attributes map to 0; values outside the training range
    extrapolate linearly (no clipping).  Accepts a single row or a matrix.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != scaler.mins.shape[0]:
        raise ValueError("schema mismatch between scaler and data")
    span = scaler.maxs - scaler.mins
    out = X.copy()
    numeric = ~scaler.nominal_mask
    const = numeric & (span == 0)
    varying = numeric & (span != 0)
    out[:, varying] = (X[:, varying] - scaler.mins[varying]) / span[varying]
    out[:, const] = 0.0
    return out
