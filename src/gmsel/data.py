"""Dataset representation, KEEL/CSV ingestion and the checks on other outside
values, min-max scaling and 5x2 fold planning.

Numeric attribute values are stored as float64; nominal values are stored as
integer codes into the attribute's category list, so the whole data matrix is
a single 2-D float array.  The minority class is always designated positive.
A KEEL ``[lo, hi]`` range is checked but not kept: scaling reads each training
half's own min and max.  KEEL and CSV rows are split by one reader and their
cells read by another; :func:`_check_count` checks every library count, and
:func:`_read_yaml` reads every config file.  A fold plan is a tuple of index-array pairs.
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

    numbered = [(i, ln) for i, ln in enumerate(lines[data_start:], data_start + 1)
                if ln.strip() and not ln.strip().startswith("%")]
    if not numbered:
        raise KeelValidationError("empty @data section")
    columns = list(zip(*_rows(numbered, len(attributes))))
    columns.append(columns.pop(attributes.index(class_attr)))
    return _parsed(relation, feature_attrs, columns, numbered, class_attr)


def parse_csv(text, name="csv") -> Dataset:
    """CSV fallback: header row, last column is the class label.

    Columns whose values all parse as floats are numeric; the rest nominal
    (categories in order of first appearance).  Rows are read as KEEL's are:
    a missing value (``?``) is rejected.
    """
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(numbered) < 2:
        raise KeelValidationError("CSV needs a header and at least one row")
    header = [h.strip() for h in numbered[0][1].split(",")]
    columns = list(zip(*_rows(numbered[1:], len(header))))
    class_cats = tuple(dict.fromkeys(columns[-1]))
    if len(class_cats) != 2:
        raise KeelValidationError("CSV class column must have exactly two labels")
    schema = []
    for col_name, cells in zip(header, columns[:-1]):
        try:
            list(map(float, cells))
            schema.append(Attribute(col_name, "numeric"))
        except ValueError:
            schema.append(Attribute(col_name, "nominal", tuple(dict.fromkeys(cells))))
    return _parsed(name, tuple(schema), columns, numbered[1:],
                   Attribute(header[-1], "nominal", class_cats))


def _rows(numbered_lines, width) -> list[list[str]]:
    """The stripped comma-separated fields of each ``(line_no, line)``.  A row
    of another width, or with a missing value, is a KeelParseError naming its line."""
    rows = []
    for line_no, line in numbered_lines:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != width:
            raise KeelParseError(f"expected {width} fields, got {len(fields)}", line_no)
        if "?" in fields:
            raise KeelParseError("missing values are not supported", line_no)
        rows.append(fields)
    return rows


def _values(attribute, cells, line_numbers) -> list:
    """The text ``cells`` of ``attribute`` as numbers: a finite float, or the
    code of one of its categories.  A bad cell is a KeelParseError naming its line."""
    numeric = attribute.kind == "numeric"
    values = []
    for cell, line_no in zip(cells, line_numbers):
        try:
            values.append(float(cell) if numeric else attribute.categories.index(cell))
            if not abs(values[-1]) < np.inf:  # nan or +-inf
                raise ValueError(cell)
        except ValueError:
            what = "bad numeric" if numeric else "unknown nominal"
            raise KeelParseError(f"{what} value {cell!r} for {attribute.name}", line_no) from None
    return values


def _parsed(name, schema, columns, numbered_lines, class_attr) -> Dataset:
    """The Dataset of the text ``columns`` of ``schema``'s attributes, then labels."""
    line_numbers = [i for i, _ in numbered_lines]
    X = np.empty((len(line_numbers), len(schema)))
    for j, attribute in enumerate(schema):
        X[:, j] = _values(attribute, columns[j], line_numbers)
    return _build_dataset(name, schema, X, columns[-1], class_attr)


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


# ---------------------------------------------------------------------------
# Counts and config files

def _check_count(name, value, low):
    """ValueError naming ``name`` unless ``value`` is an integer, not a bool, >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _read_yaml(path):
    """The document in the YAML file ``path``; bad YAML is a ValueError naming the file."""
    import yaml  # here, so that importing gmsel loads it only to read a config

    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:  # its own text spans several lines
            raise ValueError(f"{path} is not valid YAML: {' '.join(str(exc).split())}")


def _known_keys(section, prefix, known, required=()) -> dict:
    """``section`` of a config file, checked: a ValueError names a key not in
    ``known`` or one of ``required`` that is missing (after ``prefix``)."""
    if not isinstance(section, dict):
        raise ValueError(f"config section {prefix.rstrip('.') or 'top level'} "
                         "must be a mapping")
    for key in section:
        if key not in known:
            raise ValueError(f"unknown config key {prefix + str(key)!r}")
    for key in required:
        if key not in section:
            raise ValueError(f"missing config key {prefix + key!r}")
    return section


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
