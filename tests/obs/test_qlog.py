"""The query log: one JSON line per terminal job, slow-query threshold."""

import io
import json

import pytest

from repro.obs import QueryLog
from repro.session import Archive


def parse_lines(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestConstruction:
    def test_path_and_stream_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            QueryLog(path=tmp_path / "q.log", stream=io.StringIO())

    def test_negative_threshold_refused(self):
        with pytest.raises(ValueError):
            QueryLog(slow_ms=-1.0)

    def test_path_log_appends_jsonl(self, tmp_path, engine):
        path = tmp_path / "queries.jsonl"
        with Archive.connect(engine, query_log=str(path)) as session:
            session.execute("SELECT objid FROM photo WHERE mag_r < 14").fetchall()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["state"] == "DONE"


class TestObserve:
    def test_done_job_record_shape(self, engine):
        stream = io.StringIO()
        qlog = QueryLog(stream=stream)
        with Archive.connect(engine, query_log=qlog) as session:
            cursor = session.execute(
                "SELECT objid FROM photo WHERE mag_r < 14"
            )
            rows = cursor.fetchall()
        records = parse_lines(stream)
        assert len(records) == 1
        record = records[0]
        assert record["state"] == "DONE"
        assert record["rows"] == len(rows)
        assert record["trace_id"] == cursor.trace_id
        assert record["time_to_completion_ms"] >= 0.0
        assert record["io"]["containers_read"] >= 0
        assert qlog.entries_written == 1

    def test_slow_threshold_skips_fast_done_jobs(self, engine):
        stream = io.StringIO()
        qlog = QueryLog(stream=stream, slow_ms=60_000.0)
        with Archive.connect(engine, query_log=qlog) as session:
            session.execute("SELECT objid FROM photo WHERE mag_r < 14").fetchall()
        assert parse_lines(stream) == []
        assert qlog.entries_skipped == 1

    def test_failed_job_logs_despite_threshold(self):
        class _State:
            name = "FAILED"

        class _FailedJob:
            job_id = "job-9"
            trace_id = "abc123"
            user = "ann"
            query_class = "interactive"
            state = _State()
            text = "SELECT broken"
            rows = 0
            time_to_first_row = None
            time_to_completion = 0.001  # far under the threshold
            cache_hit = False
            error = RuntimeError("store exploded")

            def node_stats(self):
                return {}

            def metrics(self):
                return {"job.containers_read": 0}

        stream = io.StringIO()
        qlog = QueryLog(stream=stream, slow_ms=60_000.0)
        qlog.observe(_FailedJob())
        records = parse_lines(stream)
        assert len(records) == 1
        assert records[0]["state"] == "FAILED"
        assert records[0]["error"] == "RuntimeError: store exploded"

    def test_each_job_logged_once(self, engine):
        stream = io.StringIO()
        qlog = QueryLog(stream=stream)
        with Archive.connect(engine, query_log=qlog) as session:
            job = session.submit("SELECT objid FROM photo WHERE mag_r < 14")
            job.cursor.fetchall()
            job.join()
            job.join()  # a second join must not re-log
        assert len(parse_lines(stream)) == 1

    def test_io_block_totals_every_summed_counter(self, engine):
        """Regression: the log asked the job for ``predicate_evals``
        under a name the job never carried, so the documented counter
        was silently absent from every record.  The block now lists
        what the NodeStats declaration sums — no more, no less — and
        ``attempts`` / ``failovers`` stay a remote-job matter."""
        stream = io.StringIO()
        with Archive.connect(engine, query_log=QueryLog(stream=stream)) as session:
            cursor = session.execute("SELECT objid FROM photo WHERE mag_r < 19")
            cursor.fetchall()
            passes = sum(s.predicate_evals for s in cursor.node_stats().values())
        (record,) = parse_lines(stream)
        assert passes > 0
        assert record["io"]["predicate_evals"] == passes
        assert sorted(record["io"]) == [
            "containers_from_pool",
            "containers_read",
            "containers_skipped",
            "predicate_evals",
            "rows_copied",
        ]
