"""Tests for repro.catalog.atlas."""

import numpy as np
import pytest

from repro.catalog.atlas import AtlasStore, render_cutout


class TestRenderCutout:
    def test_shape_and_dtype(self):
        stamp = render_cutout(100.0, 2.0, size_pix=24, rng=0)
        assert stamp.shape == (24, 24)
        assert stamp.dtype == np.float32

    def test_flux_concentrated_at_center(self):
        stamp = render_cutout(5000.0, 1.5, size_pix=25, rng=1)
        center = stamp[12, 12]
        corner = stamp[0, 0]
        assert center > 5 * corner

    def test_bigger_objects_are_more_extended(self):
        compact = render_cutout(1000.0, 0.8, size_pix=25, rng=2)
        extended = render_cutout(1000.0, 6.0, size_pix=25, rng=2)
        # Fraction of flux in the central 5x5 is larger for the compact one.
        def central_fraction(stamp):
            inner = stamp[10:15, 10:15].sum()
            return inner / stamp.sum()

        assert central_fraction(compact) > central_fraction(extended)

    def test_total_flux_scales(self):
        faint = render_cutout(10.0, 2.0, size_pix=16, sky_level=0.0, rng=3)
        bright = render_cutout(1000.0, 2.0, size_pix=16, sky_level=0.0, rng=3)
        assert bright.sum() > 50 * faint.sum()

    def test_size_validated(self):
        with pytest.raises(ValueError):
            render_cutout(1.0, 1.0, size_pix=2)


class TestAtlasStore:
    def test_roundtrip_within_quantization(self):
        store = AtlasStore(size_pix=16)
        stamp = render_cutout(500.0, 2.0, size_pix=16, rng=4)
        store.put(42, "r", stamp)
        recovered = store.get(42, "r")
        # 16-bit quantization: relative error bounded by span / 65535.
        span = float(stamp.max() - stamp.min())
        assert float(np.abs(recovered - stamp).max()) <= span / 65535.0 * 1.01

    def test_missing_key(self):
        store = AtlasStore()
        with pytest.raises(KeyError):
            store.get(1, "r")

    def test_contains_and_len(self):
        store = AtlasStore(size_pix=8)
        store.put(1, "g", np.zeros((8, 8), dtype=np.float32))
        assert (1, "g") in store
        assert (1, "r") not in store
        assert len(store) == 1

    def test_overwrite_accounting(self):
        store = AtlasStore(size_pix=8)
        stamp = render_cutout(10.0, 1.0, size_pix=8, rng=5)
        store.put(1, "g", stamp)
        store.put(1, "g", stamp)
        assert store.stats.cutouts == 1

    def test_wrong_shape_rejected(self):
        store = AtlasStore(size_pix=8)
        with pytest.raises(ValueError):
            store.put(1, "r", np.zeros((9, 9)))

    def test_ingest_table_all_bands(self, photo):
        subset = photo.take(np.arange(40))
        store = AtlasStore(size_pix=16)
        stats = store.ingest_table(subset)
        assert stats.cutouts == 40 * 5
        assert len(store) == 200
        # Every (objid, band) retrievable.
        first_objid = int(subset["objid"][0])
        for band in "ugriz":
            assert store.get(first_objid, band).shape == (16, 16)

    def test_compression_wins(self, photo):
        subset = photo.take(np.arange(30))
        store = AtlasStore(size_pix=24)
        stats = store.ingest_table(subset, bands=("r",))
        assert stats.raw_bytes > 1.5 * stats.compressed_bytes

    def test_bytes_per_cutout_scale(self, photo):
        # Table 1 implies ~1.5 kB per cutout; our default stamps must be
        # the same order of magnitude.
        subset = photo.take(np.arange(30))
        store = AtlasStore()
        stats = store.ingest_table(subset, bands=("r",))
        assert 100 <= stats.bytes_per_cutout() <= 5000
