"""The Operational Archive: calibration and publication.

*"Observational data from the telescopes is shipped on tapes to Fermi
National Laboratory (FNAL) where it is reduced and stored in the
Operational Archive (OA), protected by a firewall, accessible only to
personnel working on the data processing.  Data in the operational
archive is reduced and calibrated via method functions.  Within two weeks
the calibrated data is published to the Science Archive."*

:class:`OperationalArchive` stores raw chunks behind an access check,
applies versioned :class:`Calibration` method functions, and publishes
calibrated chunks.  Recalibration (the "1-2 years of science
verification, and recalibration (if necessary)") republishes a chunk with
a bumped version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Calibration", "OperationalArchive", "AccessDenied"]


class AccessDenied(PermissionError):
    """Raised when a non-operations principal touches the firewalled OA."""


@dataclass(frozen=True)
class Calibration:
    """A versioned calibration: per-band zero-point offsets.

    The method-function form of calibration in the real archive adjusts
    fluxes as sensor models improve; the archive-relevant behaviour is
    that re-running with a new version changes published values and bumps
    chunk versions, which we reproduce with simple zero points.
    """

    version: int
    zero_points: dict

    def apply(self, table):
        """Return a calibrated copy of a photometric chunk."""
        calibrated = table.take(np.arange(len(table)))
        for band, offset in self.zero_points.items():
            column = f"mag_{band}"
            if column in calibrated.schema:
                calibrated.data[column] = calibrated.data[column] + offset
        return calibrated


@dataclass
class _StoredChunk:
    chunk_id: int
    raw: object
    published_version: int = None


class OperationalArchive:
    """Firewalled staging archive with publish/recalibrate operations."""

    OPERATIONS_PRINCIPALS = frozenset({"operations", "pipeline"})

    def __init__(self, calibration):
        self.calibration = calibration
        self._chunks = {}
        self.publication_log = []

    def _check_access(self, principal):
        if principal not in self.OPERATIONS_PRINCIPALS:
            raise AccessDenied(
                f"principal {principal!r} may not access the Operational Archive"
            )

    def ingest(self, chunk_id, raw_table, principal="pipeline"):
        """Store a raw chunk (tape arrival)."""
        self._check_access(principal)
        chunk_id = int(chunk_id)
        if chunk_id in self._chunks:
            raise ValueError(f"chunk {chunk_id} already ingested")
        self._chunks[chunk_id] = _StoredChunk(chunk_id, raw_table)

    def publish(self, chunk_id, principal="pipeline"):
        """Calibrate and release one chunk to the Science Archive.

        Returns the calibrated table; records the publication and its
        calibration version.
        """
        self._check_access(principal)
        stored = self._chunks[int(chunk_id)]
        calibrated = self.calibration.apply(stored.raw)
        stored.published_version = self.calibration.version
        self.publication_log.append((stored.chunk_id, self.calibration.version))
        return calibrated

    def recalibrate(self, new_calibration, principal="pipeline"):
        """Install a new calibration and republish every published chunk.

        Returns the list of (chunk_id, table) republications.
        """
        self._check_access(principal)
        if new_calibration.version <= self.calibration.version:
            raise ValueError("new calibration version must increase")
        self.calibration = new_calibration
        republished = []
        for stored in self._chunks.values():
            if stored.published_version is not None:
                republished.append((stored.chunk_id, self.publish(stored.chunk_id)))
        return republished
