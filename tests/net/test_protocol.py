"""Wire-format round trips: frames, tables, schemas, reports, errors."""

import socket

import numpy as np
import pytest

from repro.distributed.routing import ShardFanoutReport
from repro.net.protocol import (
    ConnectionClosed,
    ProtocolError,
    RemoteArchiveError,
    error_to_wire,
    jsonable,
    plan_from_wire,
    plan_to_wire,
    raise_from_wire,
    recv_frame,
    report_from_wire,
    report_to_wire,
    schema_from_wire,
    schema_to_wire,
    send_frame,
    table_from_wire,
    table_to_wire,
)
from repro.query.errors import ExecutionError, ParseError
from repro.session.plan import PlanTree
from repro.storage import DuplicateKeyError


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_header_and_body_round_trip(self, pair):
        left, right = pair
        send_frame(left, {"op": "test", "n": 3}, b"\x00\x01payload")
        header, body = recv_frame(right)
        assert header == {"op": "test", "n": 3}
        assert body == b"\x00\x01payload"

    def test_sequential_frames_do_not_bleed(self, pair):
        left, right = pair
        send_frame(left, {"op": "a"}, b"x" * 10_000)
        send_frame(left, {"op": "b"})
        first, body = recv_frame(right)
        second, empty = recv_frame(right)
        assert (first["op"], second["op"]) == ("a", "b")
        assert len(body) == 10_000 and empty == b""

    def test_eof_is_connection_closed(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_numpy_values_are_jsonable(self, pair):
        left, right = pair
        send_frame(
            left,
            {"i": np.int64(7), "f": np.float32(1.5), "seq": (np.int32(1), 2)},
        )
        header, _ = recv_frame(right)
        assert header == {"i": 7, "f": 1.5, "seq": [1, 2]}

    def test_jsonable_degrades_unknown_objects_to_str(self):
        class Odd:
            def __repr__(self):
                return "odd-object"

        assert jsonable({"x": Odd()}) == {"x": "odd-object"}


class TestTables:
    def test_full_record_round_trip(self, photo):
        """Subarray fields (radial profiles) and every dtype survive."""
        table = photo.take(np.arange(17))
        header, body = table_to_wire(table)
        back = table_from_wire(header, body)
        assert back.data.dtype == table.data.dtype
        assert np.array_equal(back.data, table.data)

    def test_empty_table_keeps_schema(self, photo):
        table = photo.take(np.arange(0))
        header, body = table_to_wire(table)
        back = table_from_wire(header, body)
        assert len(back) == 0
        assert back.data.dtype == table.data.dtype

    def test_length_mismatch_is_rejected(self, photo):
        header, body = table_to_wire(photo.take(np.arange(4)))
        with pytest.raises(ProtocolError):
            table_from_wire(header, body[:-1])

    def test_schema_round_trip_dtype_identity(self, photo):
        wire = schema_to_wire(photo.schema)
        back = schema_from_wire(wire)
        assert back.numpy_dtype() == photo.schema.numpy_dtype()
        assert back.field_names() == photo.schema.field_names()
        assert schema_from_wire(schema_to_wire(None)) is None


class TestReportsAndPlans:
    def test_report_round_trip(self):
        report = ShardFanoutReport(
            source="photo",
            servers_total=5,
            touched_server_ids=[0, 3],
            pruned_server_ids=[1, 2, 4],
            estimated_bytes_per_server={0: 1024, 3: 2048},
            simulated_seconds_per_server={0: 0.5, 3: 1.25},
            simulated_seconds=1.25,
            simulated_seconds_single_server=1.75,
        )
        back = report_from_wire(jsonable(report_to_wire(report)))
        assert back == report

    def test_plan_round_trip(self):
        tree = PlanTree(
            "merge_sort",
            {"fanout": 2, "descending": [True]},
            [PlanTree("scan", {"source": "photo"}), PlanTree("scan", {})],
        )
        back = plan_from_wire(jsonable(plan_to_wire(tree)))
        assert back.kind == "merge_sort"
        assert back.detail == {"fanout": 2, "descending": [True]}
        assert [c.kind for c in back.children] == ["scan", "scan"]
        assert plan_from_wire(plan_to_wire(None)) is None


class TestErrors:
    def test_original_class_re_raised(self):
        header = error_to_wire(ParseError("bad token"))
        with pytest.raises(ParseError, match="bad token"):
            raise_from_wire(header)

    def test_execution_error_re_raised(self):
        with pytest.raises(ExecutionError, match="boom"):
            raise_from_wire(error_to_wire(ExecutionError("boom")))

    def test_duplicate_key_error_re_raised(self):
        sent = DuplicateKeyError.refusing("mydb.b", [14, 15, 16, 17, 18, 19])
        with pytest.raises(DuplicateKeyError) as excinfo:
            raise_from_wire(jsonable(error_to_wire(sent)))
        assert str(excinfo.value) == str(sent)
        assert "objid [14, 15, 16, 17, 18] and 1 more already held" in str(sent)

    def test_untrusted_module_degrades(self):
        header = {
            "op": "error",
            "error_class": "SomethingEvil",
            "error_module": "os.path",
            "message": "nope",
        }
        with pytest.raises(RemoteArchiveError, match="SomethingEvil"):
            raise_from_wire(header)

    def test_unknown_class_degrades(self):
        header = {
            "op": "error",
            "error_class": "NoSuchError",
            "error_module": "repro.query.errors",
            "message": "m",
        }
        with pytest.raises(RemoteArchiveError, match="NoSuchError"):
            raise_from_wire(header)
