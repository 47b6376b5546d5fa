import re

import numpy as np
import pytest

from gmsel.data import (
    Attribute,
    Dataset,
    KeelParseError,
    KeelValidationError,
    apply_scaler,
    fit_scaler,
    parse_csv,
    parse_keel,
    stratified_two_fold,
)

KEEL_SMALL = """\
@relation toy
@attribute height real [0.0, 2.0]
@attribute colour {red, green, blue}
@attribute class {yes, no}
@inputs height, colour
@outputs class
@data
0.5, red, yes
1.5, green, no
1.0, blue, no
0.7, red, no
"""


def make_keel(rows, classes=("yes", "no")):
    head = (
        "@relation toy\n@attribute x real [0.0, 10.0]\n"
        f"@attribute class {{{', '.join(classes)}}}\n@data\n"
    )
    return head + "\n".join(rows) + "\n"


class TestParseKeel:
    def test_small_file(self):
        ds = parse_keel(KEEL_SMALL)
        assert ds.name == "toy"
        assert ds.n_instances == 4
        assert [a.kind for a in ds.schema] == ["numeric", "nominal"]
        assert ds.positive_label == "yes"
        assert ds.n_pos == 1 and ds.n_neg == 3
        assert ds.imbalance_ratio == 3.0

    def test_empty_data_section(self):
        text = KEEL_SMALL.split("@data")[0] + "@data\n"
        with pytest.raises(KeelValidationError):
            parse_keel(text)

    def test_two_instances_ir_one(self):
        ds = parse_keel(make_keel(["1.0, yes", "2.0, no"]))
        assert ds.imbalance_ratio == 1.0
        # exact tie: lexicographically smaller label is positive
        assert ds.positive_label == "no"

    def test_single_class_rejected(self):
        with pytest.raises(KeelValidationError):
            parse_keel(make_keel(["1.0, yes", "2.0, yes"]))

    def test_unknown_nominal_value(self):
        with pytest.raises(KeelParseError) as exc:
            parse_keel(KEEL_SMALL.replace("0.5, red", "0.5, purple"))
        assert exc.value.line_no is not None

    def test_malformed_header_has_line_number(self):
        with pytest.raises(KeelParseError) as exc:
            parse_keel("@relation t\n@attribute broken\n@data\n")
        assert exc.value.line_no == 2

    def test_missing_values_rejected(self):
        with pytest.raises(KeelParseError):
            parse_keel(make_keel(["?, yes", "2.0, no"]))

    def test_case_insensitive_keywords(self):
        ds = parse_keel(make_keel(["1.0, yes", "2.0, no"]).replace("@data", "@DATA"))
        assert ds.n_instances == 2

    def test_wrong_field_count(self):
        with pytest.raises(KeelParseError):
            parse_keel(make_keel(["1.0, 2.0, yes", "2.0, no"]))

    def test_inputs_in_another_order(self):
        ds = parse_keel(KEEL_SMALL.replace("@inputs height, colour",
                                           "@inputs colour, height"))
        assert ds == parse_keel(KEEL_SMALL)
        assert [a.name for a in ds.schema] == ["height", "colour"]

    @pytest.mark.parametrize("inputs, differ", [
        ("height", r"\['colour'\]"),
        ("height, colour, class", r"\['class'\]"),
    ])
    def test_inputs_must_be_the_non_output_attributes(self, inputs, differ):
        with pytest.raises(KeelValidationError, match=differ):
            parse_keel(KEEL_SMALL.replace("@inputs height, colour", f"@inputs {inputs}"))

    def test_round_trip(self):
        # the file as written back from its Dataset: declared bounds as reprs,
        # values as reprs and categories, the class last
        ds = parse_keel(KEEL_SMALL)
        rows = zip(ds.X, np.where(ds.y == 1, ds.positive_label, ds.negative_label))
        text = (
            "@relation toy\n@attribute height real [0.0, 2.0]\n"
            "@attribute colour {red, green, blue}\n@attribute class {yes, no}\n"
            "@inputs height, colour\n@outputs class\n@data\n"
            + "".join(f"{float(h)!r}, {ds.schema[1].categories[int(c)]}, {lab}\n"
                      for (h, c), lab in rows)
        )
        assert text.splitlines()[-4:] == ["0.5, red, yes", "1.5, green, no",
                                          "1.0, blue, no", "0.7, red, no"]
        assert parse_keel(text) == ds

    def test_round_trip_integer_attribute(self):
        text = (
            "@relation t\n@attribute n integer [0, 9]\n"
            "@attribute class {a, b}\n@data\n3, a\n7, b\n"
        )
        ds = parse_keel(text)
        assert ds.X[:, 0].tolist() == [3.0, 7.0]
        written = "".join(f"{int(v)}, {lab}\n" for v, lab in zip(
            ds.X[:, 0], np.where(ds.y == 1, ds.positive_label, ds.negative_label)))
        assert parse_keel(text.split("@data\n")[0] + "@data\n" + written) == ds


def _dataset(X, y):
    """A one-attribute Dataset built directly, not parsed."""
    return Dataset("d", (Attribute("x", "numeric"),), X, np.array(y), "p", "n")


def _keel_with(old, new):
    assert old in KEEL_SMALL
    return lambda: parse_keel(KEEL_SMALL.replace(old, new))


@pytest.mark.parametrize("call, exc_type, fragment, line_no", [
    pytest.param(_keel_with("@inputs", "inputs"), KeelParseError,
                 "expected @keyword", 5, id="no-at-sign"),
    pytest.param(_keel_with("@inputs", "@input"), KeelParseError,
                 "unknown keyword @input", 5, id="unknown-keyword"),
    pytest.param(_keel_with("@relation toy\n", ""), KeelParseError,
                 "missing @relation", None, id="no-relation"),
    pytest.param(lambda: parse_keel("@relation t\n@data\n1, a\n"), KeelParseError,
                 "missing @attribute", None, id="no-attribute"),
    pytest.param(lambda: parse_keel(KEEL_SMALL.split("@data")[0]), KeelParseError,
                 "missing @data", None, id="no-data"),
    pytest.param(_keel_with("{red, green, blue}", "{red, , blue}"), KeelParseError,
                 "empty category name", 3, id="empty-category"),
    pytest.param(_keel_with("{red, green, blue}", "{red, green, red}"), KeelParseError,
                 "attribute colour: duplicate categories", 3, id="duplicate-category"),
    pytest.param(_keel_with("[0.0, 2.0]", "[a, 2.0]"), KeelParseError,
                 "bad numeric range in attribute height", 2, id="range-not-a-number"),
    pytest.param(_keel_with("[0.0, 2.0]", "[5, 1]"), KeelParseError,
                 "attribute height: declared min > max", 2, id="range-reversed"),
    pytest.param(_keel_with("@outputs class", "@outputs class, colour"), KeelValidationError,
                 "exactly one output attribute", None, id="two-outputs"),
    pytest.param(_keel_with("@outputs class", "@outputs klass"), KeelParseError,
                 "unknown output attribute 'klass'", None, id="unknown-output"),
    pytest.param(_keel_with("@inputs height, colour", "@inputs height, shade"), KeelParseError,
                 "unknown input attribute 'shade'", None, id="unknown-input"),
    pytest.param(_keel_with("{yes, no}", "{yes, no, maybe}"), KeelValidationError,
                 "output attribute must be nominal with exactly two classes", None,
                 id="three-classes"),
    pytest.param(_keel_with("1.5, green", "1.5x, green"), KeelParseError,
                 "bad numeric value '1.5x' for height", 9, id="bad-number"),
    pytest.param(_keel_with("1.5, green, no", "1.5, green"), KeelParseError,
                 "expected 3 fields, got 2", 9, id="field-count"),
    pytest.param(_keel_with("1.5, green", "?, green"), KeelParseError,
                 "missing values are not supported", 9, id="missing-value"),
    pytest.param(_keel_with("1.5, green", "1.5, purple"), KeelParseError,
                 "unknown nominal value 'purple' for colour", 9, id="unknown-category"),
    pytest.param(_keel_with("1.0, blue, no", "1.0, blue, maybe"), KeelValidationError,
                 "label 'maybe' is not a declared class", None, id="undeclared-label"),
    pytest.param(_keel_with("0.5, red, yes", "0.5, red, no"), KeelValidationError,
                 "both classes must be represented", None, id="one-class"),
    pytest.param(lambda: parse_csv("x,label\n"), KeelValidationError,
                 "CSV needs a header and at least one row", None, id="csv-header-only"),
    pytest.param(lambda: parse_csv("x,label\n1,a\n2,b,c\n"), KeelParseError,
                 "expected 2 fields, got 3", 3, id="csv-field-count"),
    # read as a nominal column with the categories '1', '?' and '2'
    pytest.param(lambda: parse_csv("x,label\n1,a\n?,b\n2,b\n"), KeelParseError,
                 "missing values are not supported", 3, id="csv-missing-value"),
    pytest.param(lambda: fit_scaler(parse_keel(KEEL_SMALL), np.arange(0)), ValueError,
                 "cannot fit a scaler on an empty selection", None, id="scaler-empty"),
    # a non-finite value failed in Dataset, without its line
    pytest.param(_keel_with("1.5, green", "nan, green"), KeelParseError,
                 "bad numeric value 'nan' for height", 9, id="nan"),
    pytest.param(_keel_with("1.0, blue", "inf, blue"), KeelParseError,
                 "bad numeric value 'inf' for height", 10, id="inf"),
    pytest.param(lambda: parse_csv("x,label\n1,a\ninf,b\n2,b\n"), KeelParseError,
                 "bad numeric value 'inf' for x", 3, id="csv-inf"),
    # a blank line above a bad row moved its line number up one
    pytest.param(lambda: parse_csv("x,label\n1,a\n\ninf,b\n2,b\n"), KeelParseError,
                 "bad numeric value 'inf' for x", 4, id="csv-inf-after-blank"),
    pytest.param(lambda: parse_csv("x,label\n\n1,a\n2,b,c\n"), KeelParseError,
                 "expected 2 fields", 4, id="csv-field-count-after-blank"),
    # a Dataset built directly
    pytest.param(lambda: _dataset(np.zeros((3, 1)), [1, 0]), ValueError,
                 "X and y length mismatch", None, id="dataset-length"),
    pytest.param(lambda: _dataset(np.zeros((3, 2)), [1, 0, 0]), ValueError,
                 "value count does not match schema length", None, id="dataset-width"),
    pytest.param(lambda: _dataset(np.full((3, 1), np.nan), [1, 0, 0]), ValueError,
                 "non-finite attribute value", None, id="dataset-non-finite"),
    pytest.param(lambda: _dataset(np.zeros((3, 1)), [1, 1, 0]), ValueError,
                 "positive class must be the minority", None, id="dataset-minority"),
])
def test_rejection(call, exc_type, fragment, line_no):
    with pytest.raises(exc_type, match=re.escape(fragment)) as exc:
        call()
    assert type(exc.value) is exc_type
    if exc_type is KeelParseError:
        assert exc.value.line_no == line_no
        assert str(exc.value).startswith("" if line_no is None else f"line {line_no}: ")


class TestParseCsv:
    def test_basic(self):
        ds = parse_csv("x,y,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,b\n")
        assert ds.n_instances == 3
        assert ds.positive_label == "a"
        assert all(a.kind == "numeric" for a in ds.schema)

    def test_nominal_column_detected(self):
        ds = parse_csv("x,c,label\n1.0,u,a\n2.0,v,b\n")
        assert ds.schema[1].kind == "nominal"

    def test_three_labels_rejected(self):
        with pytest.raises(KeelValidationError):
            parse_csv("x,label\n1,a\n2,b\n3,c\n")

    def test_same_table_as_keel(self):
        # one row reader and one cell reader serve both formats
        rows = "0.5, red, yes\n1.5, green, no\n\n1e-3, blue, no\n-2, red, no\n"
        keel = parse_keel("@relation t\n@attribute h real\n@attribute c {red, green, blue}\n"
                          "@attribute class {yes, no}\n@data\n" + rows)
        csv = parse_csv("h, c, class\n" + rows)
        assert csv.schema == keel.schema
        assert np.array_equal(csv.X, keel.X) and np.array_equal(csv.y, keel.y)
        assert csv.X.tolist() == [[0.5, 0.0], [1.5, 1.0], [1e-3, 2.0], [-2.0, 0.0]]


class TestStratifiedTwoFold:
    @staticmethod
    def dataset(n_pos, n_neg):
        rows = [f"{i}.0, yes" for i in range(n_pos)]
        rows += [f"{100 + i}.0, no" for i in range(n_neg)]
        return parse_keel(make_keel(rows))

    def test_even_counts_split_exactly(self):
        ds = self.dataset(10, 90)
        plan = stratified_two_fold(ds, seed=0)
        for half1, half2 in plan:
            assert np.sum(ds.y[half1] == 1) == 5
            assert np.sum(ds.y[half2] == 1) == 5
            assert len(half1) == len(half2) == 50

    def test_odd_count_surplus_to_first_half(self):
        ds = self.dataset(7, 20)
        plan = stratified_two_fold(ds, seed=1)
        for half1, half2 in plan:
            assert np.sum(ds.y[half1] == 1) == 4
            assert np.sum(ds.y[half2] == 1) == 3

    def test_partition_invariant(self):
        ds = self.dataset(9, 31)
        plan = stratified_two_fold(ds, seed=5)
        full = set(range(ds.n_instances))
        for half1, half2 in plan:
            assert set(half1) | set(half2) == full
            assert set(half1) & set(half2) == set()

    def test_deterministic(self):
        ds = self.dataset(6, 14)
        a = stratified_two_fold(ds, seed=42)
        b = stratified_two_fold(ds, seed=42)
        for (a1, a2), (b1, b2) in zip(a, b):
            assert np.array_equal(a1, b1) and np.array_equal(a2, b2)

    def test_too_few_per_class(self):
        ds = self.dataset(1, 5)
        with pytest.raises(KeelValidationError):
            stratified_two_fold(ds, seed=0)


class TestScaler:
    def test_training_min_maps_to_zero(self):
        ds = parse_keel(make_keel(["1.0, yes", "4.0, no", "3.0, no"]))
        s = fit_scaler(ds)
        out = apply_scaler(s, ds.X)
        assert out[0, 0] == 0.0
        assert out[1, 0] == 1.0
        assert np.all((out >= 0) & (out <= 1))

    def test_constant_feature_maps_to_zero(self):
        ds = parse_keel(make_keel(["2.0, yes", "2.0, no"]))
        out = apply_scaler(fit_scaler(ds), ds.X)
        assert np.all(out == 0.0)

    def test_extrapolates_beyond_training_max(self):
        ds = parse_keel(make_keel(["0.0, yes", "2.0, no"]))
        out = apply_scaler(fit_scaler(ds), np.array([[3.0]]))
        assert out[0, 0] == pytest.approx(1.5)

    def test_nominal_passthrough(self):
        ds = parse_keel(KEEL_SMALL)
        out = apply_scaler(fit_scaler(ds), ds.X)
        assert np.array_equal(out[:, 1], ds.X[:, 1])

    def test_schema_mismatch(self):
        ds = parse_keel(make_keel(["0.0, yes", "2.0, no"]))
        with pytest.raises(ValueError):
            apply_scaler(fit_scaler(ds), np.zeros((1, 3)))

    def test_fit_on_training_half_only(self):
        ds = parse_keel(make_keel(["0.0, yes", "5.0, no", "10.0, no", "1.0, yes"]))
        s = fit_scaler(ds, indices=[0, 1])
        assert s.maxs[0] == 5.0
