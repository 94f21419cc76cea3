import codecs
import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rlselect.baselines import information_gain
from rlselect.dataset import (
    CATEGORY_PREFIXES,
    CsvFormatError,
    FeatureDictionary,
    SampleMatrix,
    SchemaError,
    SplitError,
    SplitKind,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    project,
    save_csv,
    stratified_split,
)

from conftest import matrix_from_rows


class TestLoadCsv:
    def test_minimal_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1,label\n1,0,1\n")
        m = load_csv(path)
        assert m.n_features == 2
        assert m.n_samples == 1
        assert m.X.tolist() == [[1, 0]]
        assert m.y.tolist() == [1]

    @pytest.mark.parametrize("header, body", [
        ("perm:android.permission.SEND_SMS,ngram:ab,label", "1,0,1\r\n0,1,0\r\n"),
        # a quoted cell sends the body through the record loop, which reads the header again:
        # a quoted first name spanning two lines is one header record only once the BOM is skipped
        ('"perm:android.permission.SEND_SMS\r\nX",ngram:ab,label', '1,0,1\r\n"0",1,0\r\n'),
    ], ids=["plain", "record-loop"])
    def test_byte_order_mark_is_not_read_as_data(self, tmp_path, header, body):
        text = (header + "\r\n" + body).encode("utf-8")
        (tmp_path / "plain.csv").write_bytes(text)
        (tmp_path / "marked.csv").write_bytes(codecs.BOM_UTF8 + text)
        plain, marked = load_csv(tmp_path / "plain.csv"), load_csv(tmp_path / "marked.csv")
        assert marked.dictionary == plain.dictionary
        assert marked.dictionary.categories[0] == "permission"
        assert np.array_equal(marked.X, plain.X) and np.array_equal(marked.y, plain.y)
        for name, matrix in (("plain", plain), ("marked", marked)):
            save_csv(matrix, tmp_path / f"{name}.out.csv")
        assert (tmp_path / "marked.out.csv").read_bytes() == (tmp_path / "plain.out.csv").read_bytes()

    def test_empty_body_is_valid(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1,label\n")
        m = load_csv(path)
        assert m.n_samples == 0
        assert len(m.dictionary) == 2

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1,label\n2,0,1\n")
        with pytest.raises(CsvFormatError, match=r"row 1.*f0"):
            load_csv(path)

    def test_duplicate_feature_name(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f0,label\n0,0,0\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1\n0,0\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_category_prefixes_round_trip(self, tmp_path):
        dictionary = FeatureDictionary(
            ("android.permission.SEND_SMS", "android.intent.action.MAIN", "MRV", "x"),
            ("permission", "intent", "ngram", "synthetic"),
        )
        m = SampleMatrix(dictionary, np.array([[1, 0, 1, 0]]), np.array([1]))
        path = tmp_path / "m.csv"
        save_csv(m, path)
        header = path.read_text().splitlines()[0]
        assert header == "perm:android.permission.SEND_SMS,intent:android.intent.action.MAIN,ngram:MRV,x,label"
        back = load_csv(path)
        assert back.dictionary == dictionary
        assert np.array_equal(back.X, m.X) and np.array_equal(back.y, m.y)

    def test_failed_save_csv_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "m.csv"
        save_csv(SampleMatrix(FeatureDictionary.from_names(("a", "b")), np.array([[1, 0]]), np.array([1])), path)
        earlier = path.read_bytes()
        unwritable = FeatureDictionary.from_names(("a", "\ud800"))  # a lone surrogate encodes in no codec
        with pytest.raises(UnicodeEncodeError):
            save_csv(SampleMatrix(unwritable, np.array([[0, 1]]), np.array([0])), path)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_save_csv_bytes_equal_csv_writer(self, tmp_path_factory, data):
        n_rows = data.draw(st.integers(0, 6))
        n_cols = data.draw(st.integers(0, 5))
        X = data.draw(arrays(np.uint8, (n_rows, n_cols), elements=st.integers(0, 1)))
        y = data.draw(arrays(np.uint8, (n_rows,), elements=st.integers(0, 1)))
        # names that csv.writer must quote: commas, quotes, spaces
        names = tuple(f'f{j},"q" {j}' for j in range(n_cols))
        matrix = SampleMatrix(FeatureDictionary.from_names(names), X, y)
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        save_csv(matrix, path)
        expected = tmp_path_factory.mktemp("ref") / "m.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(names) + ["label"])
            for bits, label in zip(X, y):
                writer.writerow([int(b) for b in bits] + [int(label)])
        assert path.read_bytes() == expected.read_bytes()
        back = load_csv(path)
        assert back.dictionary == matrix.dictionary
        assert np.array_equal(back.X, X) and np.array_equal(back.y, y)


def reference_load_csv(path):
    """The record-by-record loader: every body cell checked by a Python loop over ``csv.reader``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, expected a header row") from None
        if not header or header[-1] != "label":
            raise SchemaError(f"{path}: last header column must be 'label'")
        parsed = []
        for col in header[:-1]:
            prefix = next((p for p in CATEGORY_PREFIXES if col.startswith(p)), None)
            parsed.append((col[len(prefix):], CATEGORY_PREFIXES[prefix]) if prefix else (col, "synthetic"))
        dictionary = FeatureDictionary(tuple(n for n, _ in parsed), tuple(c for _, c in parsed))
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise CsvFormatError(f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}")
            for col, cell in enumerate(row):
                if cell not in ("0", "1"):
                    raise CsvFormatError(f"{path}: bad cell {cell!r} at (row {lineno}, col {header[col]})")
            rows.append([int(c) for c in row[:-1]])
            labels.append(int(row[-1]))
    X = np.array(rows, dtype=np.uint8).reshape(len(rows), len(dictionary))
    return SampleMatrix(dictionary, X, np.array(labels, dtype=np.uint8))


def outcome(load, path):
    """(dictionary, X, y) as lists, or (exception type, message)."""
    try:
        m = load(path)
    except Exception as exc:  # the exact exception is the outcome being compared
        return type(exc), str(exc)
    return m.dictionary, m.X.tolist(), m.y.tolist()


@st.composite
def csv_bytes(draw):
    """A file save_csv writes, then maybe edited: LF line ends, a quoted cell,
    a cell added or dropped, one byte replaced, or trailing blank lines."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(0, 6))
    X = draw(arrays(np.uint8, (n_rows, n_cols), elements=st.integers(0, 1)))
    y = draw(arrays(np.uint8, (n_rows,), elements=st.integers(0, 1)))
    names = tuple(draw(st.sampled_from(["f", "perm:p", "intent:i", "ngram:MRV"])) + str(j) for j in range(n_cols))
    header = ",".join(names + ("label",)) + "\r\n"
    lines = [",".join(str(int(v)) for v in row) + f",{int(label)}\r\n" for row, label in zip(X, y)]
    data = header + "".join(lines)
    edit = draw(st.sampled_from(["none", "lf", "quote", "add", "drop", "byte", "byte", "blank", "no-final-end"]))
    if edit == "lf":
        data = data.replace("\r\n", "\n")
    elif edit == "blank":
        data += draw(st.sampled_from(["\r\n", "\n", "\r\n\r\n"]))
    elif edit == "no-final-end":
        data = data.rstrip("\r\n")
    elif edit in ("quote", "add", "drop") and n_rows:
        i = draw(st.integers(0, n_rows - 1))
        cells = lines[i].rstrip("\r\n").split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if edit == "quote":
            cells[j] = f'"{cells[j]}"'
        elif edit == "add":
            cells.insert(j, draw(st.sampled_from(["0", "1", ""])))
        else:
            del cells[j]
        lines[i] = ",".join(cells) + "\r\n"
        data = header + "".join(lines)
    elif edit == "byte":
        # mostly in the body, which is where the two loaders differ
        i = draw(st.integers(len(header) if n_rows and draw(st.booleans()) else 0, len(data) - 1))
        data = data[:i] + draw(st.sampled_from(list('012, "\r\nx\t'))) + data[i + 1:]
    return data.encode("ascii")


class TestLoadCsvEqualsRecordLoop:
    @settings(max_examples=400, deadline=None)
    @given(csv_bytes())
    def test_same_matrix_or_same_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(data)
        assert outcome(load_csv, path) == outcome(reference_load_csv, path)

    def test_non_ascii_body_goes_through_the_record_loop(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("f0,label\r\n0,1\r\n\u00e9,0\r\n".encode("utf-8"))
        assert outcome(load_csv, path) == outcome(reference_load_csv, path)


class TestSynthetic:
    def test_q_one_forces_equality(self):
        spec = SyntheticSpec(n_samples=200, n_features=5, informative=(0,), q=1.0, seed=3)
        m = generate_synthetic(spec)
        assert np.array_equal(m.X[:, 0], m.y)

    def test_agreement_rate_matches_q(self):
        # Monte Carlo estimate of P(bit == label) for the planted feature
        spec = SyntheticSpec(n_samples=10_000, n_features=6, informative=(3,), q=0.8, seed=11)
        m = generate_synthetic(spec)
        agree = float(np.mean(m.X[:, 3] == m.y))
        assert agree == pytest.approx(0.8, abs=0.02)

    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(n_samples=50, n_features=8, informative=(1, 2), q=0.7, seed=9)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_rejects_uninformative_q(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, n_features=4, informative=(0,), q=0.5, seed=0)

    def test_informative_features_carry_signal(self):
        # informative columns must dominate noise columns by mutual information
        spec = SyntheticSpec(n_samples=2000, n_features=20, informative=(2, 7, 11), q=0.7, seed=5)
        m = generate_synthetic(spec)
        scores = information_gain(m).scores
        info = scores[list(spec.informative)]
        noise = np.delete(scores, list(spec.informative))
        assert info.min() > noise.max()


class TestStratifiedSplit:
    def test_kfold_is_stratified_partition(self):
        spec = SyntheticSpec(n_samples=1000, n_features=3, informative=(), q=0.9, seed=2)
        m = generate_synthetic(spec)
        plan = stratified_split(m, SplitKind.kfold(10), seed=4)
        seen = np.zeros(m.n_samples, dtype=int)
        c0, c1 = m.class_counts()
        for fold in range(10):
            idx = plan.fold_indices(fold)
            seen[idx] += 1
            fold_c1 = int(m.y[idx].sum())
            assert abs(fold_c1 - c1 / 10) <= 1
            assert abs((idx.size - fold_c1) - c0 / 10) <= 1
        assert np.all(seen == 1)

    def test_holdout_sizes(self):
        m = matrix_from_rows(np.zeros((100, 2)), [0] * 50 + [1] * 50)
        plan = stratified_split(m, SplitKind.holdout(0.2), seed=0)
        fit_idx, test_idx = plan.train_test()
        assert test_idx.size == 20
        assert fit_idx.size == 80

    def test_deterministic(self):
        m = matrix_from_rows(np.zeros((40, 2)), [0, 1] * 20)
        a = stratified_split(m, SplitKind.kfold(4), seed=7)
        b = stratified_split(m, SplitKind.kfold(4), seed=7)
        assert np.array_equal(a.assignments, b.assignments)

    def test_too_few_samples(self):
        m = matrix_from_rows(np.zeros((10, 2)), [0] * 5 + [1] * 5)
        with pytest.raises(SplitError):
            stratified_split(m, SplitKind.kfold(10), seed=0)

    @pytest.mark.parametrize("kwargs", [{}, {"k": 0}, {"k": 1}], ids=["default-k", "k0", "k1"])
    def test_kfold_below_two_folds_rejected_when_built(self, kwargs):
        # unchecked, k = 0 divides by zero in the split and gives a plan with no folds
        with pytest.raises(ValueError, match="k >= 2"):
            SplitKind("kfold", **kwargs)
        if "k" in kwargs:
            with pytest.raises(ValueError, match="k >= 2"):
                SplitKind.kfold(kwargs["k"])

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2])
    def test_holdout_fraction_outside_zero_one_rejected_when_built(self, fraction):
        # unchecked, a fraction of 1.5 holds every row out and leaves an empty fit part
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            SplitKind("holdout", fraction=fraction)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            SplitKind.holdout(fraction)

    def test_unknown_method_rejected_when_built(self):
        with pytest.raises(ValueError, match="unknown split method"):
            SplitKind("loo")

    def test_factories_build_the_checked_kinds(self):
        assert SplitKind.kfold(2) == SplitKind("kfold", k=2)
        assert SplitKind.holdout(0.25) == SplitKind("holdout", fraction=0.25)


class TestProject:
    def test_identity(self):
        m = matrix_from_rows([[1, 0, 1], [0, 1, 1]], [0, 1])
        p = project(m, [0, 1, 2])
        assert np.array_equal(p.X, m.X)
        assert p.dictionary.names == m.dictionary.names

    def test_single_column(self):
        m = matrix_from_rows([[1, 0, 1]], [1])
        p = project(m, [2])
        assert p.X.tolist() == [[1]]
        assert p.dictionary.names == ("f2",)

    def test_duplicate_index_rejected(self):
        m = matrix_from_rows([[1, 0]], [1])
        with pytest.raises(ValueError):
            project(m, [1, 1])

    def test_out_of_range_rejected(self):
        m = matrix_from_rows([[1, 0]], [1])
        with pytest.raises(ValueError):
            project(m, [0, 5])

    def test_projection_is_compositional(self):
        rng = np.random.default_rng(0)
        m = matrix_from_rows(rng.integers(0, 2, size=(20, 8)), rng.integers(0, 2, size=20))
        s1 = [1, 4, 6]
        union = [1, 2, 4, 6, 7]
        direct = project(m, s1)
        # restrict the union projection back down to s1's positions within it
        positions = [union.index(i) for i in s1]
        via_union = project(project(m, union), positions)
        assert np.array_equal(direct.X, via_union.X)
        assert direct.dictionary.names == via_union.dictionary.names


class TestFeatureDictionary:
    def test_duplicate_name_same_category_rejected(self):
        with pytest.raises(SchemaError):
            FeatureDictionary(("a", "a"), ("synthetic", "synthetic"))

    def test_same_name_across_categories_allowed(self):
        d = FeatureDictionary(("a", "a"), ("permission", "intent"))
        assert dict(d.category_slots("permission")) == {"a": 0}
        assert dict(d.category_slots("intent")) == {"a": 0}

    def test_category_slots_built_once_and_read_only(self):
        d = FeatureDictionary(("a", "b", "c", "d"), ("ngram", "permission", "ngram", "intent"))
        assert dict(d.category_slots("ngram")) == {"a": 0, "c": 1}
        assert dict(d.category_slots("permission")) == {"b": 0}
        assert d.category_slots("ngram") is d.category_slots("ngram")
        assert dict(d.category_slots("synthetic")) == {}
        fresh = FeatureDictionary(d.names, d.categories)
        assert d == fresh and hash(d) == hash(fresh)
        with pytest.raises(TypeError):
            d.category_slots("ngram")["z"] = 5
        with pytest.raises(ValueError, match="unknown feature category"):
            d.category_slots("opcode")

