"""The CSV writer, fdiab.csvtable: every table it writes, through the "%"
pass or the number kernel, in any chunking, is what csv.writer writes over each
column kind's formatting rule."""

import csv
import io
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import SCENARIO, read, throughput_rows

from fdiab import csvtable
from fdiab.cli import main
from fdiab.csvtable import write_columns
from fdiab.scenario import apply_overrides, scenario_from_dict, scenario_to_dict
from fdiab.system import ALL_MODES, default_scenario, run_drop

# csv.writer over the formatting rule of each column kind: the reference that
# write_columns must reproduce byte for byte.


def reference_cells(values):
    if values.dtype.kind == "f":
        return ["" if np.isnan(v) else format(float(v), ".12g") for v in values]
    if values.dtype.kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    return [str(v) for v in values.tolist()]


def reference_csv(columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*map(reference_cells, columns.values())))
    return buf.getvalue().encode()


SPECIAL_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.5e-310,
    1e300, -1e-300, 1e12, 123456789012.5, 0.1,
]
FLOATS = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL_FLOATS))
# Quoting triggers, NUL, and non-ASCII characters of 2, 3 and 4 UTF-8 bytes.
TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n-0.\x00é€\U0001f600')), max_size=6)


def column_of(elements, dtype):
    """n independent draws of elements, as a numpy column of dtype."""
    return lambda n: st.lists(elements, min_size=n, max_size=n).map(lambda v: np.array(v, dtype))


def spanned(lo, hi, dtype):
    """Integers within 30 of a base in [lo, hi - 29], drawn once per column:
    columns that repeat their values, next to the limits of their type."""
    return lambda n: st.integers(lo, hi - 29).flatmap(
        lambda base: column_of(st.integers(base, base + 29), dtype)(n)
    )


def runs(elements, dtype):
    """Each drawn value repeated 1-4 times, in drawn order or sorted: the
    writer reduces a column whose runs at least halve it to the runs' first
    values."""

    @st.composite
    def column(draw, n):
        k = draw(st.integers(1, 4))
        values = draw(st.lists(elements, min_size=-(-n // k), max_size=-(-n // k)))
        out = np.repeat(np.array(values, dtype), k)[:n]
        return np.sort(out) if draw(st.booleans()) else out

    return column


COLUMN_KINDS = {
    "float": column_of(FLOATS, float),
    "int": column_of(st.integers(-(2**63), 2**63 - 1), np.int64),
    "uint64": column_of(st.integers(0, 2**64 - 1), np.uint64),
    "bool": column_of(st.booleans(), bool),
    "str": column_of(TEXT, str),
    # Small ranges: negative ones, and uint64 ones up against 2**64.
    "int-span": spanned(-(2**63), 2**63 - 1, np.int64),
    "int-span-negative": spanned(-(2**63), -1, np.int64),
    "uint64-span": spanned(2**64 - 2**16, 2**64 - 1, np.uint64),
    # Runs, sorted or repeated, with NaN and -0.0 among the floats.
    "float-runs": runs(FLOATS, float),
    "int-runs": runs(st.integers(-(2**63), 2**63 - 1), np.int64),
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 25))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4))
    return {f"c{i}": draw(COLUMN_KINDS[kind](n)) for i, kind in enumerate(kinds)}


CHUNK_ROWS = st.one_of(st.integers(1, 30), st.just(csvtable.CSV_CHUNK_ROWS))


def through_the_kernel():
    """The writer's crossover at 0: every number column, however short, takes the kernel."""
    return mock.patch.object(csvtable, "CROSSOVER", 0)


def assert_matches_csv_writer(columns, chunk_rows):
    # Small chunks put chunk edges inside the table.
    chunks = mock.patch.object(csvtable, "CSV_CHUNK_ROWS", chunk_rows)
    with chunks, tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_columns(path, dict(columns))
        assert read(path) == reference_csv(columns)


class TestWriteColumns:
    @settings(max_examples=300, deadline=None)
    @given(columns=tables(), chunk_rows=CHUNK_ROWS)
    def test_matches_csv_writer(self, columns, chunk_rows):
        assert_matches_csv_writer(columns, chunk_rows)

    @settings(max_examples=300, deadline=None)
    @given(columns=tables(), chunk_rows=CHUNK_ROWS)
    def test_matches_csv_writer_through_the_kernel(self, columns, chunk_rows):
        with through_the_kernel():
            assert_matches_csv_writer(columns, chunk_rows)

    @pytest.mark.parametrize(
        "values",
        [np.array(["", "a", "", "", "", "b,", ""]),
         np.array([np.nan, 2.0, np.nan, np.nan, np.nan, -0.0, np.nan]),
         (np.array(["", "a,"]), np.array([0, 1, 0, 0, 0, 1, 0])),
         (np.array([np.nan, -0.0]), np.array([0, 1, 0, 0, 0, 1, 0]))],
    )
    def test_lone_empty_fields_across_chunk_edges(self, tmp_path, monkeypatch, values):
        monkeypatch.setattr(csvtable, "CSV_CHUNK_ROWS", 3)
        write_columns(tmp_path / "t.csv", {"only": values})
        plain = values[0][values[1]] if isinstance(values, tuple) else values
        assert read(tmp_path / "t.csv") == reference_csv({"only": plain})

    @pytest.mark.parametrize(
        "values, got",
        [
            ([None, 1.5, None, None, "", None, None], "got list"),
            (np.array([None, 1.5, True, "a"], dtype=object), "got dtype object"),
            (np.array([0.1, 1 / 3], dtype=object), "got dtype object"),
            (np.array([1 + 2j]), "got dtype complex128"),
            (np.array([b"a"]), "got dtype |S1"),
            (np.array(["2020-01-01"], dtype="datetime64[D]"), "got dtype datetime64[D]"),
        ],
    )
    def test_rejects_all_but_numpy_bool_int_float_str(self, tmp_path, values, got):
        # Through csv, an object column's float would come out in repr form,
        # not ".12g": the writer takes numpy columns of the kinds it formats.
        columns = {"ok": np.arange(len(values)), "bad": values}
        with pytest.raises(TypeError, match=f"^column 'bad': .*{re.escape(got)}$"):
            write_columns(tmp_path / "t.csv", columns)
        assert not (tmp_path / "t.csv").exists()

    def test_drop_sized_table_is_written_in_bounded_memory(self, tmp_path):
        # A 101x101 drop over 5 modes: 51,005 rows of throughput.csv's kinds.
        # Its text is about 4 MiB; the writer holds one chunk of rows at a
        # time, and a block for the whole table would take about 19 MiB.
        rng = np.random.default_rng(0)
        n_ue, n = 10201, 51005
        columns = {
            "mode": np.repeat(["fibered", "ideal_fd", "fd_full", "fd_prop_only", "hd"], n_ue),
            "ue_id": np.tile(np.arange(n_ue), 5),
            "serving_cell": rng.integers(0, 3, n),
            "beam": rng.integers(0, 16, n),
            "access_snr_db": np.tile(rng.normal(20.0, 10.0, n_ue), 5),
            "access_sinr_db": rng.normal(20.0, 10.0, n),
            "backhaul_sinr_db": np.where(rng.random(n) < 0.3, np.nan, rng.normal(0.0, 10.0, n)),
            "dli_power_dbm": np.tile(rng.normal(-80.0, 10.0, n_ue), 5),
            "throughput_bps": rng.choice([0.0, 1.5e8, 3.2e8, 6.6e8], n),
        }
        tracemalloc.start()
        try:
            write_columns(tmp_path / "t.csv", dict(columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        head = read(tmp_path / "t.csv")[:4096].decode().splitlines()[:3]
        first_rows = reference_csv({k: v[:2] for k, v in columns.items()}).decode().splitlines()
        assert head == first_rows

    def test_owned_drop_is_let_go_column_by_column(self, tmp_path):
        # The writer owns the dict it is given and pops each column once its
        # cell table exists, so the columns' bytes go as the tables come. On the
        # plain mode-major columns of a 101x101 drop (5.45 MiB) it peaks 0.3 MiB
        # above what was traced at the call; holding them to the end took 4.8 MiB.
        data = apply_overrides(
            scenario_to_dict(default_scenario()), ["ue_grid.nx=101", "ue_grid.ny=101"]
        )
        scenario = scenario_from_dict(data)
        tracemalloc.start()
        try:
            columns = throughput_rows(run_drop(scenario, 0), ALL_MODES)  # their only reference
            total = sum(values.nbytes for values in columns.values())
            at_call = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_columns(tmp_path / "t.csv", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert columns == {}
        assert peak - at_call < total / 4

        # system-sim hands the drop over as lookups and keeps none of its
        # arrays while it writes. Each write of a 101x101 call peaks below what
        # plain mode-major columns took: 7.21 MiB traced for throughput.csv and
        # 5.12 MiB for cdf.csv. Now 5.17 and 2.80 at seed 0; holding the drop's
        # arrays through the writes took them to 6.88 and 5.10.
        peaks, write = {}, csvtable.write_columns

        def traced_write(path, columns):
            tracemalloc.reset_peak()
            write(path, columns)
            peaks[os.path.basename(path)] = tracemalloc.get_traced_memory()[1]

        argv = ["system-sim", "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "o"),
                "--set", "ue_grid.nx=101", "--set", "ue_grid.ny=101"]
        tracemalloc.start()
        try:
            with mock.patch.object(csvtable, "write_columns", traced_write):
                assert main(argv) == 0
        finally:
            tracemalloc.stop()
        assert peaks["throughput.csv"] <= 6.0 * 2**20 and peaks["cdf.csv"] <= 3.5 * 2**20

    def test_runs_of_strings_and_repeated_floats(self, tmp_path):
        columns = {
            "mode": np.repeat(["hd", "fibered", "hd"], [3, 2, 4]),
            "x": np.tile([1.5, -0.0, np.nan], 3),
        }
        write_columns(tmp_path / "t.csv", dict(columns))
        assert read(tmp_path / "t.csv") == reference_csv(columns)


# Lookup columns: (values, rows) writes values[rows].

LOOKUP_VALUES = {
    "bool": column_of(st.booleans(), bool),
    "int8": column_of(st.integers(-(2**7), 2**7 - 1), np.int8),
    "int64": column_of(st.integers(-(2**63), 2**63 - 1), np.int64),
    "uint8": column_of(st.integers(0, 2**8 - 1), np.uint8),
    "uint64": column_of(st.integers(0, 2**64 - 1), np.uint64),
    "float": column_of(FLOATS, float),
    "str": column_of(TEXT, str),
}
ROW_DTYPES = [np.int8, np.int32, np.int64, np.uint16, np.uint64]


@st.composite
def lookup_tables(draw):
    """(columns, their plain expansion): n rows over one to three values
    objects of m values each, every column a lookup into one of them or its
    expansion. Columns may share an object, the last one included."""
    n = draw(st.integers(0, 25))
    m = draw(st.integers(0 if n == 0 else 1, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(LOOKUP_VALUES)), min_size=1, max_size=3))
    objects = [draw(LOOKUP_VALUES[kind](m)) for kind in kinds]
    columns, plain = {}, {}
    for i in range(draw(st.integers(1, 4))):
        values = objects[draw(st.integers(0, len(objects) - 1))]
        row_dtype = draw(st.sampled_from(ROW_DTYPES))
        rows = draw(column_of(st.integers(0, max(m - 1, 0)), row_dtype)(n))
        plain[f"c{i}"] = values[rows]
        columns[f"c{i}"] = (values, rows) if draw(st.booleans()) else values[rows]
    return columns, plain


def assert_lookup_writes_its_expansion(columns, plain, chunk_rows):
    chunks = mock.patch.object(csvtable, "CSV_CHUNK_ROWS", chunk_rows)
    with chunks, tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("lookup.csv", "plain.csv")]
        write_columns(paths[0], dict(columns))
        write_columns(paths[1], dict(plain))
        assert read(paths[0]) == read(paths[1]) == reference_csv(plain)


class TestLookupColumns:
    @settings(max_examples=200, deadline=None)
    @given(drawn=lookup_tables(), chunk_rows=CHUNK_ROWS)
    def test_lookup_writes_its_expansion(self, drawn, chunk_rows):
        assert_lookup_writes_its_expansion(*drawn, chunk_rows)

    @settings(max_examples=200, deadline=None)
    @given(drawn=lookup_tables(), chunk_rows=CHUNK_ROWS)
    def test_lookup_writes_its_expansion_through_the_kernel(self, drawn, chunk_rows):
        with through_the_kernel():
            assert_lookup_writes_its_expansion(*drawn, chunk_rows)

    def test_lookups_of_one_values_object_share_its_cells(self, tmp_path):
        values = np.array([1.5, -0.0, np.nan, 1e300])
        rows = np.array([0, 1, 2, 3, 1]), np.array([3, 3, 0, 2, 1])
        columns = {"a": (values, rows[0]), "b": (values, rows[1]), "c": (values, rows[0])}
        seps, real = [], csvtable._column_cells

        def counted(values, sep):
            seps.append(sep)
            return real(values, sep)

        with mock.patch.object(csvtable, "_column_cells", counted):
            write_columns(tmp_path / "t.csv", dict(columns))
        assert seps == [b",", b"\n"]  # a and b share one table; c ends the row
        plain = {name: v[r] for name, (v, r) in columns.items()}
        assert read(tmp_path / "t.csv") == reference_csv(plain)

    @pytest.mark.parametrize(
        "columns, bad",
        [
            ({"a": np.arange(2), "b": np.arange(3)}, "b"),
            ({"a": np.arange(3), "b": np.arange(2)}, "b"),
            ({"a": np.arange(4), "b": np.arange(4).reshape(2, 2)}, "b"),
            ({"a": np.arange(4).reshape(2, 2), "b": np.arange(2)}, "a"),
            ({"a": np.array(1.0)}, "a"),
            ({"a": np.arange(2), "b": (np.arange(3.0), np.array([0, 1, 2]))}, "b"),
            ({"a": np.arange(2), "b": (np.arange(3.0), np.array([0, 3]))}, "b"),
            ({"a": np.arange(2), "b": (np.arange(3.0), np.array([-1, 0]))}, "b"),
            ({"a": np.arange(2), "b": (np.arange(3.0), np.array([0.0, 1.0]))}, "b"),
            ({"a": np.arange(2), "b": (np.arange(3.0), [0, 1])}, "b"),
            ({"a": np.arange(4), "b": (np.arange(3.0), np.zeros((2, 2), int))}, "b"),
            ({"a": (np.zeros((2, 3)), np.array([0, 1])), "b": np.arange(2)}, "a"),
            ({"a": np.arange(0), "b": (np.arange(0.0), np.array([0]))}, "b"),
        ],
    )
    def test_rejects_a_bad_shape_or_row_before_opening_the_file(self, tmp_path, columns, bad):
        with pytest.raises(ValueError, match=f"^column {bad!r}: "):
            write_columns(tmp_path / "t.csv", columns)
        assert not (tmp_path / "t.csv").exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_distinct_matches_np_unique(self, data):
        kinds = {**COLUMN_KINDS, **LOOKUP_VALUES}
        kind = data.draw(st.sampled_from(sorted(kinds)))
        keys = data.draw(kinds[kind](data.draw(st.integers(0, 40))))
        uniq, index = csvtable._distinct(keys)
        bits = (lambda a: a.view(np.uint64)) if keys.dtype.kind == "f" else (lambda a: a)
        want, inverse = np.unique(bits(keys), return_inverse=True)
        assert uniq.dtype == keys.dtype and index.dtype == np.int32
        assert np.array_equal(bits(uniq), want) and np.array_equal(index, inverse)



# The number kernel: the cells of a column's distinct values, with PAD dropped,
# read as format(v, ".12g") (NaN empty) and str(v).

# Short decimals, ties at the 12th digit among them, and values next to the
# fixed notation's edges.
DECIMALS = st.builds(lambda m, k: m / 10.0**k, st.integers(-(10**13), 10**13), st.integers(0, 17))
KERNEL_FLOATS = st.one_of(
    FLOATS, st.floats(1e-5, 1e12), st.floats(-1e12, -1e-5), DECIMALS,
    st.integers(-19, 15).map(lambda k: float(f"1e{k}")).flatmap(
        lambda p: st.sampled_from([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
    ),
)
KERNEL_INTS = st.one_of(
    st.integers(-(10**12), 10**12), st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0, -1, 9, 10, -10, 99, 100, 10**12, -(10**12), 10**12 + 1, -(10**12) - 1]),
)


def kernel_text(values):
    """Each value's cell from _column_cells with the kernel's crossover at 0."""
    with through_the_kernel():
        cells, index = csvtable._column_cells(values, b",")
    assert cells.shape[0] == 0 or (cells[:, -1] == ord(",")).all()
    text = cells.tobytes().translate(None, bytes([csvtable.PAD])).decode().split(",")[:-1]
    return [text[i] for i in index]


class TestNumberCells:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(KERNEL_FLOATS, max_size=40).map(lambda v: np.array(v, float)))
    def test_floats_read_as_format_12g(self, values):
        assert kernel_text(values) == reference_cells(values)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(KERNEL_INTS, max_size=40).map(lambda v: np.array(v, np.int64)),
            st.lists(st.integers(0, 2**64 - 1), max_size=10).map(lambda v: np.array(v, np.uint64)),
            st.lists(st.integers(0, 10**12 + 1), max_size=10).map(lambda v: np.array(v, np.uint64)),
        )
    )
    def test_ints_read_as_str(self, values):
        assert kernel_text(values) == reference_cells(values)

    @pytest.mark.parametrize(
        "value",
        [float(f"1e{k}") for k in range(-5, 14)]
        + [9.999999999995, 999999999999.5, 99999.99999995, 123456789012.5, 9.99999999999951e-05],
    )
    def test_edges(self, value):
        # The value, its neighbours, and their negatives: powers of ten cross
        # the fixed/scientific edges, the others carry into a 13th digit, tie
        # or round up to 1e-4.
        near = [value, np.nextafter(value, 0), np.nextafter(value, np.inf)]
        values = np.array(near + [-v for v in near])
        assert kernel_text(values) == reference_cells(values)

    def test_only_unproved_values_go_through_percent(self):
        # Ties and values within GUARD of one, zeros, subnormals, NaN, inf and
        # the scientific range are the "%" pass's; fixed notation is the
        # kernel's, with values that carry into the next power of ten
        # (9.99999999999951e-05 rounds to 0.0001) among it.
        kernel = [1.5, -0.001, 9.99999999999951e-05, 99999.9999999996, 123.456, 0.1]
        percent = [123456789012.5, 99999.99999995, 0.0, -0.0, 5e-324, np.nan, np.inf, 1e12, 9.9e-5]
        values = np.array(kernel + percent)
        seen, real = [], csvtable._percent_cells

        def recorded(uniq, sep):
            seen.extend(uniq.tolist())
            return real(uniq, sep)

        with mock.patch.object(csvtable, "_percent_cells", recorded):
            assert kernel_text(values) == reference_cells(values)
        assert sorted(map(repr, seen)) == sorted(map(repr, percent))

    def test_columns_below_the_crossover_take_percent(self):
        values = np.arange(csvtable.CROSSOVER - 1, dtype=float) / 7
        with mock.patch.object(csvtable, "_float_cells") as kernel:
            csvtable._column_cells(values, b",")
        kernel.assert_not_called()

    @pytest.mark.parametrize(
        "values", [[], [np.nan], [np.nan] * 3, [np.nan, -1.5], [1e-300, np.nan, 2.0]]
    )
    def test_percent_cells_end_at_the_widest_text(self, values):
        # The "%" pass of a float kernel column most often gets no value or
        # only NaN, whose cells are then the separator alone.
        values = np.array(values, float)
        cells = csvtable._percent_cells(values, b",")
        text = reference_cells(values)
        assert cells.shape == (len(values), max(map(len, text), default=0) + 1)
        assert [bytes(c).replace(csvtable._PADS, b"").decode() for c in cells] == [
            t + "," for t in text
        ]
