"""The bytes of a frame header: ``send_frame`` encodes it in one pass, and
what it writes must be ``json.dumps(jsonable(header), separators=(",",
":"))`` exactly — for constructed values and for the real headers a
remote query and a cluster query send."""

import json
import math
import struct

import numpy as np
import pytest

import repro.net.server
from repro.net import ArchiveServer
from repro.net.protocol import jsonable, send_frame
from repro.session import Archive
from repro.storage import DistributedArchive

TOP_K = (
    "SELECT objid, mag_r FROM photo WHERE mag_r < 21 ORDER BY mag_r, objid LIMIT 20"
)


class _Capture:
    """A socket stand-in that keeps what ``sendall`` is given."""

    def __init__(self):
        self.sent = b""

    def sendall(self, data):
        self.sent += bytes(data)


def written_header(header, body=b""):
    """The header bytes ``send_frame`` writes for ``header``."""
    capture = _Capture()
    send_frame(capture, header, body)
    (header_len,) = struct.unpack("!I", capture.sent[4:8])
    return capture.sent[8 : 8 + header_len]


def reference_header(header):
    return json.dumps(jsonable(header), separators=(",", ":")).encode("utf-8")


class Odd:
    def __repr__(self):
        return "odd-object"


CONSTRUCTED = [
    {"op": "test", "n": 3},
    {"i": np.int64(7), "f": np.float32(1.5), "d": np.float64(0.1), "b": np.bool_(True)},
    {"u": np.uint8(255), "big": np.int64(np.iinfo(np.int64).min), "h": np.float16(2.5)},
    {"seq": (np.int32(1), 2, (3.5, "x")), "nested": [{"t": (1, 2)}, []]},
    {"set": {3, 1, 2}, "empty_set": set(), "frozen": frozenset({1})},
    {"nan": math.nan, "np_nan": np.float64("nan"), "inf": [math.inf, -np.inf]},
    {"odd": Odd(), "array": np.arange(3), "bytes": b"\x00", "none": None},
    {"unicode": "zwölf ☃", "int_key": {1: "a", 2: np.int16(4)}},
    {np.int64(5): "a numpy key", "x": 1},  # refused by the encoder
]


@pytest.mark.parametrize("header", CONSTRUCTED, ids=range(len(CONSTRUCTED)))
def test_constructed_headers_are_spelled_as_jsonable_spells_them(header):
    assert written_header(header) == reference_header(header)


@pytest.fixture()
def recorded_frames(monkeypatch):
    """Every header a server sends, as its op (``batches+done`` for the
    frame that ends a query and carries its statistics) and whether its
    written bytes equal the reference spelling, checked when sent (some
    headers are built up in place)."""
    frames = []

    def recording_send_frame(sock, header, body=b""):
        op = header.get("op")
        if op == "batches" and header.get("done"):
            op += "+done"
        frames.append((op, written_header(header, body) == reference_header(header)))
        send_frame(sock, header, body)

    monkeypatch.setattr(repro.net.server, "send_frame", recording_send_frame)
    return frames


def assert_all_match(frames, ops):
    seen = {op for op, _ok in frames}
    assert ops <= seen, seen
    assert [op for op, ok in frames if not ok] == []


def test_remote_query_headers(engine, recorded_frames):
    with ArchiveServer(backend=engine) as server:
        with Archive.connect(server.url) as session:
            session.executor.hello()
            assert len(session.query_table(TOP_K)) == 20
            session.executor.stats()
    assert_all_match(
        recorded_frames, {"hello", "accepted", "batches+done", "batch", "stats"}
    )


def test_cluster_query_headers(photo, tags, recorded_frames):
    halves = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    halves.attach_source("tag", tags)
    servers = [ArchiveServer(stores=node.stores()).start() for node in halves.servers]
    try:
        with Archive.connect([s.url for s in servers]) as cluster:
            assert len(cluster.query_table(TOP_K)) == 20
            cluster.query_table(
                "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype"
            )
    finally:
        for server in servers:
            server.stop()
    assert_all_match(recorded_frames, {"hello", "accepted", "batches+done", "batch"})
