"""Zoned disk geometry: cylinders, heads, tracks, sectors, LBA mapping.

Modern drives record more sectors on outer tracks (zoned bit recording,
§2.1.1); the resulting ~2x media-rate spread between outer and inner zones
is one of the performance-variation sources the experiments exercise.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

SECTOR_BYTES = 512


@dataclass(frozen=True)
class Zone:
    """A contiguous range of cylinders sharing one track format.

    Attributes
    ----------
    cyl_lo, cyl_hi:
        Inclusive cylinder range.
    sectors_per_track:
        Track capacity inside this zone.
    """

    cyl_lo: int
    cyl_hi: int
    sectors_per_track: int

    @property
    def cylinders(self) -> int:
        return self.cyl_hi - self.cyl_lo + 1


class DiskGeometry:
    """Maps logical block addresses to physical positions.

    Parameters
    ----------
    zones:
        Zones ordered outer (fastest) to inner, covering 0..C-1 contiguously.
    heads:
        Number of recording surfaces (tracks per cylinder).
    """

    def __init__(self, zones: list[Zone], heads: int = 4) -> None:
        if heads < 1:
            raise ValueError("heads must be >= 1")
        if not zones:
            raise ValueError("at least one zone required")
        expect = 0
        for z in zones:
            if z.cyl_lo != expect:
                raise ValueError(f"zones must tile cylinders; gap at {expect}")
            if z.sectors_per_track < 1:
                raise ValueError("sectors_per_track must be >= 1")
            expect = z.cyl_hi + 1
        self.zones = list(zones)
        self.heads = heads
        self.cylinders = expect
        # Cumulative sector count at the start of each zone.
        starts = [0]
        for z in zones:
            starts.append(starts[-1] + z.cylinders * heads * z.sectors_per_track)
        self._zone_sector_starts = np.array(starts, dtype=np.int64)
        self._zone_cyl_los = np.array([z.cyl_lo for z in zones], dtype=np.int64)
        self._zone_spts = np.array([z.sectors_per_track for z in zones], dtype=np.int64)
        # Plain-list twins for the scalar lookups: one LBA per call is the
        # event engine's shape, where numpy's per-call cost dominates.
        self._sector_starts = [int(s) for s in starts]
        self._cyl_los = [int(z.cyl_lo) for z in zones]
        self._sectors_per_cyl = [int(heads * z.sectors_per_track) for z in zones]

    @property
    def total_sectors(self) -> int:
        return self._sector_starts[-1]

    @property
    def capacity_bytes(self) -> int:
        return self.total_sectors * SECTOR_BYTES

    def zone_index_of_lba(self, lba) -> np.ndarray:
        """Zone index for each LBA (vectorised)."""
        lba = np.asarray(lba, dtype=np.int64)
        if np.any((lba < 0) | (lba >= self.total_sectors)):
            raise ValueError("LBA out of range")
        return np.searchsorted(self._zone_sector_starts, lba, side="right") - 1

    def _zone_of(self, lba: int) -> int:
        """Zone index of one LBA (the scalar form of :meth:`zone_index_of_lba`)."""
        if lba < 0 or lba >= self._sector_starts[-1]:
            raise ValueError("LBA out of range")
        return bisect_right(self._sector_starts, lba) - 1

    def cylinder_of(self, lba: int) -> int:
        """Cylinder holding one LBA (the scalar form of :meth:`cylinder_of_lba`)."""
        zi = self._zone_of(lba)
        return self._cyl_los[zi] + (lba - self._sector_starts[zi]) // self._sectors_per_cyl[zi]

    def cylinder_of_lba(self, lba) -> np.ndarray:
        """Cylinder holding each LBA (vectorised)."""
        lba = np.asarray(lba, dtype=np.int64)
        zi = self.zone_index_of_lba(lba)
        off = lba - self._zone_sector_starts[zi]
        per_cyl = self.heads * self._zone_spts[zi]
        return self._zone_cyl_los[zi] + off // per_cyl

    def spt_of_lba(self, lba) -> np.ndarray:
        """Sectors-per-track at each LBA's zone (vectorised)."""
        return self._zone_spts[self.zone_index_of_lba(lba)]

    def spt_at_cylinder(self, cylinder: int) -> int:
        for z in self.zones:
            if z.cyl_lo <= cylinder <= z.cyl_hi:
                return z.sectors_per_track
        raise ValueError(f"cylinder {cylinder} out of range")

    def locate(self, lba: int) -> tuple[int, int, int]:
        """Return (cylinder, head, sector-in-track) for a single LBA."""
        lba = int(lba)
        zi = self._zone_of(lba)
        z = self.zones[zi]
        off = lba - self._sector_starts[zi]
        per_cyl = self.heads * z.sectors_per_track
        cyl = z.cyl_lo + off // per_cyl
        rem = off % per_cyl
        head = rem // z.sectors_per_track
        sector = rem % z.sectors_per_track
        return cyl, head, sector

    def track_crossings(self, lba: int, sectors: int) -> int:
        """Number of track boundaries crossed by a contiguous transfer."""
        if sectors <= 0:
            return 0
        lba = int(lba)
        zi = self._zone_of(lba)
        spt = self.zones[zi].sectors_per_track
        off = lba - self._sector_starts[zi]
        first = off // spt
        last = (off + sectors - 1) // spt
        return int(last - first)


def default_geometry() -> DiskGeometry:
    """~110 GB, 7200 rpm class geometry (IBM Deskstar 7K400 era, §6.2.5).

    Eight zones, 60 000 cylinders, 4 heads, sectors per track falling from
    1200 (outer) to 620 (inner): a ~1.9x media-rate spread.
    """
    spts = [1200, 1110, 1030, 950, 870, 790, 705, 620]
    per_zone = 60_000 // len(spts)
    zones = []
    lo = 0
    for spt in spts:
        zones.append(Zone(lo, lo + per_zone - 1, spt))
        lo += per_zone
    return DiskGeometry(zones, heads=4)
