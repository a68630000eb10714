"""Tests for repro.archive (products, flow, operational)."""

import numpy as np
import pytest

from repro.archive.flow import (
    PAPER_LATENCY_DAYS,
    ArchiveStage,
    DataFlowSimulator,
)
from repro.archive.operational import AccessDenied, Calibration, OperationalArchive
from repro.archive.products import PAPER_TABLE1, ProductModel


class TestProductModel:
    def test_table1_same_order_as_paper(self):
        rows = ProductModel().table1()
        assert [r["product"] for r in rows] == [name for name, _i, _b in PAPER_TABLE1]

    def test_modeled_sizes_within_factor_two(self):
        # The reproduction target: same order of magnitude per product.
        for row in ProductModel().table1():
            assert 0.3 <= row["ratio"] <= 3.0, row

    def test_total_published_is_terabytes(self):
        # "As shown in Table 1, these products are about 3 TB."
        total = ProductModel().total_published_bytes()
        assert 1.5e12 <= total <= 5e12

    def test_measured_record_bytes_match_schema(self, photo):
        measured = ProductModel.measured_bytes_per_record(photo)
        assert measured == photo.schema.record_nbytes()

    def test_measured_requires_rows(self):
        from repro.catalog.schema import PHOTO_SCHEMA
        from repro.catalog.table import ObjectTable

        with pytest.raises(ValueError):
            ProductModel.measured_bytes_per_record(ObjectTable(PHOTO_SCHEMA))

    def test_custom_scale(self):
        small = ProductModel(catalog_rows=10**6)
        big = ProductModel(catalog_rows=3 * 10**8)
        small_catalog = small.table1()[-1]["modeled_bytes"]
        big_catalog = big.table1()[-1]["modeled_bytes"]
        assert big_catalog == pytest.approx(300 * small_catalog, rel=1e-9)


class TestDataFlow:
    def test_paper_latencies_ordered(self):
        values = [PAPER_LATENCY_DAYS[s] for s in ArchiveStage]
        assert values == sorted(values)
        assert PAPER_LATENCY_DAYS[ArchiveStage.PUBLIC] >= 365  # "1-2 years"

    def test_chunk_advances_through_stages(self):
        flow = DataFlowSimulator()
        flow.observe(1)
        chunk = flow.chunks[0]
        assert chunk.stage_on_day(0) == ArchiveStage.TELESCOPE
        assert chunk.stage_on_day(1) == ArchiveStage.OPERATIONAL
        assert chunk.stage_on_day(14) == ArchiveStage.MASTER_SCIENCE
        assert chunk.stage_on_day(28) == ArchiveStage.LOCAL
        assert chunk.stage_on_day(600) == ArchiveStage.PUBLIC

    def test_days_to_public(self):
        flow = DataFlowSimulator()
        flow.observe(3)
        for chunk in flow.chunks:
            assert chunk.days_to_public() == PAPER_LATENCY_DAYS[ArchiveStage.PUBLIC]

    def test_bytes_conserved_across_stages(self):
        flow = DataFlowSimulator(daily_bytes=10)
        flow.observe(100)
        totals = flow.bytes_per_stage(50)
        assert sum(totals.values()) == 10 * 51  # days 0..50 observed

    def test_public_fraction_monotone(self):
        flow = DataFlowSimulator()
        flow.observe(800)
        fractions = [flow.public_fraction(day) for day in (100, 548, 700, 1500)]
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0
        assert fractions[-1] > 0.5

    def test_latency_series_shape(self):
        series = DataFlowSimulator().latency_series()
        assert series[0] == ("T", 0)
        assert series[-1][0] == "PA"

    def test_latency_overrides_validated(self):
        bad = dict(PAPER_LATENCY_DAYS)
        bad[ArchiveStage.LOCAL] = 1  # earlier than MSA: not a flow
        with pytest.raises(ValueError):
            DataFlowSimulator(latency_days=bad)

    def test_one_year_verification_ablation(self):
        fast = dict(PAPER_LATENCY_DAYS)
        fast[ArchiveStage.PUBLIC] = 365
        flow = DataFlowSimulator(latency_days=fast)
        flow.observe(400)
        assert flow.chunks[0].days_to_public() == 365


class TestOperationalArchive:
    def make_archive(self):
        return OperationalArchive(Calibration(version=1, zero_points={"r": 0.05}))

    def test_firewall(self, photo):
        archive = self.make_archive()
        archive.ingest(0, photo)
        with pytest.raises(AccessDenied):
            archive.ingest(1, photo, principal="astronomer")
        with pytest.raises(AccessDenied):
            archive.publish(0, principal="public")

    def test_calibration_applied_without_mutating_raw(self, photo):
        archive = self.make_archive()
        archive.ingest(0, photo)
        before = np.asarray(photo["mag_r"]).copy()
        published = archive.publish(0)
        np.testing.assert_allclose(
            published["mag_r"], before + np.float32(0.05), rtol=1e-6
        )
        np.testing.assert_array_equal(photo["mag_r"], before)

    def test_duplicate_ingest_rejected(self, photo):
        archive = self.make_archive()
        archive.ingest(0, photo)
        with pytest.raises(ValueError):
            archive.ingest(0, photo)

    def test_recalibration_republishes(self, photo):
        archive = self.make_archive()
        archive.ingest(0, photo)
        archive.ingest(1, photo)
        archive.publish(0)
        republished = archive.recalibrate(
            Calibration(version=2, zero_points={"r": -0.02})
        )
        # Only the already-published chunk is republished.
        assert [cid for cid, _t in republished] == [0]
        new_table = republished[0][1]
        np.testing.assert_allclose(
            new_table["mag_r"], np.asarray(photo["mag_r"]) + np.float32(-0.02),
            rtol=1e-6,
        )

    def test_recalibration_version_must_increase(self, photo):
        archive = self.make_archive()
        with pytest.raises(ValueError):
            archive.recalibrate(Calibration(version=1, zero_points={}))

    def test_publication_log(self, photo):
        archive = self.make_archive()
        archive.ingest(0, photo)
        archive.publish(0)
        assert archive.publication_log == [(0, 1)]
