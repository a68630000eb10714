"""Per-server sweep admission: distributed queries and the machine scheduler.

The paper's policy — "the scan machine will be interactively scheduled"
— extends to the fleet: each partition server runs one shared sweep
machine (``sweep:<server_id>``), every distributed query admits one job
per *touched* server on that server's sweep, and sweep jobs overlap
freely while hash/river batch jobs still serialize.
"""

import pytest

from repro.machines.scheduler import Job, MachineScheduler
from repro.session import Archive


class TestScanMachineNaming:
    def test_per_server_names_are_sweep_class(self):
        assert MachineScheduler.is_scan_machine("sweep")
        assert MachineScheduler.is_scan_machine("sweep:0")
        assert MachineScheduler.is_scan_machine("sweep:photo")
        assert not MachineScheduler.is_scan_machine("hash")
        assert not MachineScheduler.is_scan_machine("river")

    @pytest.mark.parametrize("machine", ["scan", "scan:17"])
    def test_removed_scan_aliases_fail_like_any_unknown_machine(self, machine):
        assert not MachineScheduler.is_scan_machine(machine)
        with pytest.raises(ValueError, match="unknown machine"):
            MachineScheduler().admit(Job("q", machine, duration=1.0))

    def test_per_server_sweep_jobs_overlap(self):
        scheduler = MachineScheduler()
        jobs = scheduler.run(
            [
                Job("q1", "sweep:0", duration=10.0, arrival_time=0.0),
                Job("q2", "sweep:0", duration=10.0, arrival_time=1.0),
            ]
        )
        # Interactive admission: the second job does not wait for the
        # first — both queries ride the same shared sweep.
        assert jobs[1].started_at == 1.0

    def test_batch_machines_still_serialize(self):
        scheduler = MachineScheduler()
        jobs = scheduler.run(
            [
                Job("h1", "hash", duration=10.0, arrival_time=0.0),
                Job("h2", "hash", duration=10.0, arrival_time=1.0),
            ]
        )
        assert jobs[1].started_at == 10.0


class TestDistributedAdmission:
    @pytest.fixture()
    def scheduled_session(self, archives):
        scheduler = MachineScheduler()
        with Archive.connect(archive=archives[5], scheduler=scheduler) as session:
            yield session, scheduler

    def test_one_job_per_touched_server(self, scheduled_session):
        session, scheduler = scheduled_session
        job = session.submit("SELECT objid FROM photo WHERE CIRCLE(40, 30, 2)")
        job.cursor.to_table()
        (report,) = job.reports
        machines = sorted(admitted.machine for admitted in scheduler.completed)
        assert machines == sorted(
            f"sweep:{server_id}" for server_id in report.touched_server_ids
        )
        for machine_job in scheduler.completed:
            assert machine_job.completed_at is not None

    def test_full_scan_admits_every_server(self, scheduled_session):
        session, scheduler = scheduled_session
        session.query_table("SELECT objid FROM photo")
        assert len(scheduler.completed) == len(session.executor.archive.servers)

    def test_durations_follow_resident_bytes(self, scheduled_session):
        session, scheduler = scheduled_session
        job = session.submit("SELECT objid FROM photo")
        job.cursor.to_table()
        (report,) = job.reports
        for machine_job in scheduler.completed:
            server_id = int(machine_job.machine.split(":", 1)[1])
            expected = report.simulated_seconds_per_server[server_id]
            assert machine_job.duration == expected
        assert report.simulated_seconds == max(
            machine_job.duration for machine_job in scheduler.completed
        )
        # Shared-nothing parallelism: the fan-out beats one big server.
        assert report.parallel_speedup() > 1.0
