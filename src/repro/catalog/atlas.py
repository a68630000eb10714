"""Atlas images: per-object postage-stamp cutouts.

*"Each object will have an associated image cutout ('atlas image') for
each of the five filters."*  Table 1 budgets 1.5 TB for 10^9 cutouts —
about 1.5 kB per compressed stamp.

Real pixels are unavailable offline, so stamps are *rendered* from the
catalog's own photometric model: a circular exponential profile with the
object's half-light radius and total flux, plus Poisson-ish sky noise —
enough structure for the compression and serving machinery to be
realistic.  :class:`AtlasStore` keeps zlib-compressed stamps keyed by
(objid, band) and reports the bytes-per-cutout that Table 1's arithmetic
relies on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.catalog.schema import BANDS

__all__ = ["render_cutout", "AtlasStore", "AtlasStats"]

#: Default stamp edge length in pixels (SDSS atlas cutouts are small).
DEFAULT_SIZE_PIX = 24

#: SDSS pixel scale in arcsec/pixel.
PIXEL_SCALE_ARCSEC = 0.4


def render_cutout(total_flux, half_light_radius_arcsec, size_pix=DEFAULT_SIZE_PIX,
                  sky_level=1.0, rng=None):
    """Render one stamp: exponential profile + sky noise.

    ``total_flux`` is in arbitrary linear units (nanomaggies);
    ``half_light_radius_arcsec`` sets the exponential scale length
    (``r50 = 1.678 * scale`` for an exponential disk).  Returns a
    ``(size, size)`` float32 array.
    """
    if size_pix < 4:
        raise ValueError("stamps need at least 4x4 pixels")
    rng = np.random.default_rng(rng)
    scale_pix = max(
        half_light_radius_arcsec / 1.678 / PIXEL_SCALE_ARCSEC, 0.5
    )
    center = (size_pix - 1) / 2.0
    yy, xx = np.mgrid[0:size_pix, 0:size_pix]
    radius = np.hypot(xx - center, yy - center)
    profile = np.exp(-radius / scale_pix)
    profile *= total_flux / profile.sum()
    noise = rng.normal(0.0, np.sqrt(sky_level), size=(size_pix, size_pix))
    return (profile + sky_level + noise).astype(np.float32)


@dataclass
class AtlasStats:
    """Storage accounting of an atlas store."""

    cutouts: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0

    def bytes_per_cutout(self):
        """Mean stored bytes per stamp (Table 1 expects ~1.5 kB)."""
        if self.cutouts == 0:
            return 0.0
        return self.compressed_bytes / self.cutouts


class AtlasStore:
    """Compressed postage stamps keyed by (objid, band)."""

    def __init__(self, size_pix=DEFAULT_SIZE_PIX, compression_level=6):
        self.size_pix = int(size_pix)
        self.compression_level = int(compression_level)
        self._stamps = {}
        self.stats = AtlasStats()

    def ingest_table(self, photo_table, bands=BANDS, seed=0):
        """Render and store cutouts for every object and band.

        Flux comes from the band magnitude, size from ``petro_r50``.
        Quantizes pixels to 16-bit before compression, as survey
        pipelines do, which is where most of the compression comes from.
        """
        rng = np.random.default_rng(seed)
        objids = np.asarray(photo_table["objid"], dtype=np.int64)
        r50 = np.asarray(photo_table["petro_r50"], dtype=np.float64)
        for band in bands:
            mags = np.asarray(photo_table[f"mag_{band}"], dtype=np.float64)
            fluxes = np.power(10.0, (22.5 - mags) / 2.5)
            for k in range(objids.shape[0]):
                stamp = render_cutout(
                    fluxes[k], r50[k], self.size_pix, rng=rng
                )
                self.put(int(objids[k]), band, stamp)
        return self.stats

    def put(self, objid, band, stamp):
        """Store one stamp (16-bit quantized, zlib compressed)."""
        stamp = np.asarray(stamp, dtype=np.float32)
        if stamp.shape != (self.size_pix, self.size_pix):
            raise ValueError(
                f"stamp must be {self.size_pix}x{self.size_pix}, got {stamp.shape}"
            )
        lo = float(stamp.min())
        hi = float(stamp.max())
        span = max(hi - lo, 1e-12)
        quantized = np.round((stamp - lo) / span * 65535.0).astype(np.uint16)
        payload = zlib.compress(quantized.tobytes(), self.compression_level)
        key = (int(objid), str(band))
        if key in self._stamps:
            old_payload, _old_lo, _old_span = self._stamps[key]
            self.stats.compressed_bytes -= len(old_payload)
            self.stats.raw_bytes -= stamp.nbytes
            self.stats.cutouts -= 1
        self._stamps[key] = (payload, lo, span)
        self.stats.cutouts += 1
        self.stats.raw_bytes += stamp.nbytes
        self.stats.compressed_bytes += len(payload)

    def get(self, objid, band):
        """Decompress and return one stamp (float32, dequantized)."""
        key = (int(objid), str(band))
        if key not in self._stamps:
            raise KeyError(f"no atlas image for objid={objid} band={band!r}")
        payload, lo, span = self._stamps[key]
        quantized = np.frombuffer(zlib.decompress(payload), dtype=np.uint16)
        stamp = quantized.astype(np.float32) / 65535.0 * span + lo
        return stamp.reshape(self.size_pix, self.size_pix)

    def __contains__(self, key):
        objid, band = key
        return (int(objid), str(band)) in self._stamps

    def __len__(self):
        return len(self._stamps)
