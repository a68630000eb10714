"""Tests for repro.catalog.table."""

import numpy as np
import pytest

from repro.catalog.schema import Field, Schema
from repro.catalog.table import SPARSE_SHARE, ObjectTable, take_columns, take_records

SCHEMA = Schema(
    "test_rows",
    [
        Field("objid", "i8"),
        Field("cx", "f8"),
        Field("cy", "f8"),
        Field("cz", "f8"),
        Field("value", "f4"),
        Field("vec", "f4", shape=(3,)),
    ],
)


@pytest.fixture()
def table(rng):
    n = 100
    xyz = rng.normal(size=(n, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    return ObjectTable.from_columns(
        SCHEMA,
        {
            "objid": np.arange(n, dtype=np.int64),
            "cx": xyz[:, 0],
            "cy": xyz[:, 1],
            "cz": xyz[:, 2],
            "value": rng.normal(size=n).astype(np.float32),
            "vec": rng.normal(size=(n, 3)).astype(np.float32),
        },
    )


class TestConstruction:
    def test_empty_table(self):
        table = ObjectTable(SCHEMA)
        assert len(table) == 0
        assert table.nbytes() == 0

    def test_from_columns_missing(self):
        with pytest.raises(KeyError):
            ObjectTable.from_columns(SCHEMA, {"objid": [1]})

    def test_from_columns_ragged(self):
        columns = {f.name: np.zeros(3) for f in SCHEMA}
        columns["vec"] = np.zeros((3, 3))
        columns["objid"] = np.zeros(4)
        with pytest.raises(ValueError):
            ObjectTable.from_columns(SCHEMA, columns)

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ObjectTable(SCHEMA, np.zeros(3, dtype=[("x", "f8")]))

    def test_schema_type_checked(self):
        with pytest.raises(TypeError):
            ObjectTable("not a schema")


class TestAccess:
    def test_column_access(self, table):
        np.testing.assert_array_equal(table["objid"], np.arange(100))
        np.testing.assert_array_equal(table.column("objid"), table["objid"])

    def test_positions_shape(self, table):
        xyz = table.positions_xyz()
        assert xyz.shape == (100, 3)
        np.testing.assert_allclose(np.linalg.norm(xyz, axis=1), 1.0)

    def test_nbytes(self, table):
        assert table.nbytes() == 100 * SCHEMA.record_nbytes()


class TestTransforms:
    @pytest.mark.parametrize(
        "rows", [np.array([0, 1, 2]), slice(3)], ids=["index", "slice"]
    )
    def test_take_copies(self, table, rows):
        subset = table.take(rows)
        subset.data["value"][:] = -999.0
        assert len(subset) == 3
        assert not np.any(table["value"][:3] == -999.0)

    def test_select_mask(self, table):
        mask = np.asarray(table["value"]) > 0
        subset = table.select(mask)
        assert len(subset) == int(mask.sum())
        assert bool((subset["value"] > 0).all())

    def test_project(self, table):
        projected = table.project(["objid", "value"])
        assert projected.schema.field_names() == ["objid", "value"]
        np.testing.assert_array_equal(projected["objid"], table["objid"])

    def test_concat(self, table):
        doubled = table.concat(table)
        assert len(doubled) == 200

    def test_concat_incompatible(self, table):
        other_schema = Schema("other", [Field("objid", "i8")])
        other = ObjectTable(other_schema)
        with pytest.raises(ValueError):
            table.concat(other)

    def test_sort_by(self, table):
        ordered = table.sort_by("value")
        values = np.asarray(ordered["value"])
        assert bool(np.all(np.diff(values) >= 0))

    def test_sort_descending(self, table):
        ordered = table.sort_by("value", descending=True)
        values = np.asarray(ordered["value"])
        assert bool(np.all(np.diff(values) <= 0))

    def test_iter_chunks(self, table):
        chunks = list(table.iter_chunks(30))
        assert [len(c) for c in chunks] == [30, 30, 30, 10]
        rebuilt = ObjectTable.concat_all(chunks)
        np.testing.assert_array_equal(rebuilt["objid"], table["objid"])

    def test_iter_chunks_invalid(self, table):
        with pytest.raises(ValueError):
            list(table.iter_chunks(0))

    def test_concat_all_empty(self):
        with pytest.raises(ValueError):
            ObjectTable.concat_all([])

    @pytest.mark.parametrize(
        "pieces",
        [
            pytest.param(lambda d: [d[:30], d[30:31], d[31:]], id="contiguous"),
            pytest.param(lambda d: [d[::2], d[1::3], d[5:9]], id="strided"),
            pytest.param(lambda d: [d[:0], d[10:20], d[20:20], d[:0]], id="empty"),
            pytest.param(lambda d: [d[:0], d[:0]], id="all-empty"),
            pytest.param(lambda d: [d[::-1]], id="single"),
        ],
    )
    def test_concat_all_is_bit_identical_to_np_concatenate(self, table, pieces):
        arrays = pieces(table.data)
        got = ObjectTable.concat_all([ObjectTable(SCHEMA, a) for a in arrays])
        expected = np.concatenate(arrays)
        assert got.data.dtype == expected.dtype
        assert got.data.tobytes() == expected.tobytes()


#: a record with a subarray field, a bytes field and an odd itemsize
MIXED = np.dtype([("objid", "i8"), ("vec", "f4", (3,)), ("name", "S5"), ("flag", "u1")])


def _mixed_records(n=40):
    data = np.zeros(n, dtype=MIXED)
    data["objid"] = np.arange(n)
    data["vec"] = np.arange(3 * n, dtype=np.float32).reshape(n, 3)
    data["name"] = [f"o{i}".encode() for i in range(n)]
    data["flag"] = np.arange(n) % 7
    return data


def _read_only(d):
    d = d.copy()
    d.flags.writeable = False
    return d


class TestTakeRecords:
    @pytest.mark.parametrize("records", ["schema", "mixed"])
    @pytest.mark.parametrize(
        "source",
        [
            pytest.param(lambda d: d, id="contiguous"),
            pytest.param(lambda d: d[::3], id="strided"),
            pytest.param(lambda d: d[::-1], id="reversed"),
            pytest.param(_read_only, id="read-only"),
        ],
    )
    @pytest.mark.parametrize(
        "index",
        [
            pytest.param(lambda n: np.ones(n, dtype=bool), id="mask-all"),
            pytest.param(lambda n: np.zeros(n, dtype=bool), id="mask-none"),
            pytest.param(lambda n: np.arange(n) % 3 != 1, id="mask-mixed"),
            pytest.param(lambda n: np.array([n - 1, 0, n // 2, 2]), id="unsorted"),
            pytest.param(lambda n: np.array([1, 1, 0, 1, 0]), id="repeated"),
            pytest.param(lambda n: np.array([-1, -n, 0]), id="negative"),
            pytest.param(lambda n: np.empty(0, dtype=np.int64), id="empty"),
            pytest.param(lambda n: slice(2, n - 1), id="slice"),
            pytest.param(lambda n: slice(None, None, -2), id="slice-stepped"),
        ],
    )
    def test_is_bit_identical_to_structured_indexing(
        self, table, records, source, index
    ):
        data = source(table.data if records == "schema" else _mixed_records())
        where = index(len(data))
        got = take_records(data, where)
        expected = data[where]
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert got.flags.writeable
        assert not np.shares_memory(got, data)

    def test_out_of_range_index_raises(self):
        with pytest.raises(IndexError):
            take_records(_mixed_records(10), np.array([0, 10]))

    def test_wrong_length_mask_raises(self):
        with pytest.raises(IndexError):
            take_records(_mixed_records(10), np.ones(9, dtype=bool))


class TestTakeColumns:
    #: objid, the subarray field and the one-byte field of MIXED, packed
    KEPT = np.dtype([("objid", "i8"), ("vec", "f4", (3,)), ("flag", "u1")])

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param(lambda d: d, id="contiguous"),
            pytest.param(lambda d: d[::2], id="strided"),
        ],
    )
    @pytest.mark.parametrize("kept", ["none", "one", "few", "most", "all"])
    def test_is_bit_identical_to_the_masked_fields(self, source, kept):
        data = source(_mixed_records(160))
        n = len(data)
        rows = {
            "none": [],
            "one": [n // 2],
            "few": [1, 5, 6, n - 1],
            "most": [i for i in range(n) if i % 9],
            "all": range(n),
        }[kept]
        mask = np.zeros(n, dtype=bool)
        mask[list(rows)] = True
        # "few" takes the sparse gather, "most" np.take
        assert (len(rows) < n * SPARSE_SHARE) == (kept in ("none", "one", "few"))
        expected = np.empty(len(rows), self.KEPT)
        for name in self.KEPT.names:
            expected[name] = data[name][mask]
        got = take_columns(data, mask, self.KEPT)
        assert got.dtype == self.KEPT
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, data)

