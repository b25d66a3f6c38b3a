"""Per-operation I/O provenance — the fix for cross-engine attribution.

The old engine booked ``disk_served`` by diffing the
*shared* ``store.stats`` counters around each lookup, so any other
reader of the same store (a second engine, the soundness auditor, an
index-maintenance fetch) had its I/O silently attributed to whichever
query happened to be in flight.  A :class:`ReadReceipt` inverts the
flow: the caller that wants attribution passes its own receipt down
the storage stack, and each layer records the provenance of exactly
the reads *this* operation performed.  Shared global counters keep
measuring physical totals; receipts carry the scoped story.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReadReceipt"]


@dataclass
class ReadReceipt:
    """Read provenance of one logical storage operation."""

    disk_reads: int = 0
    bytes_read: int = 0

    def count_disk_read(self, nbytes: int = 0) -> None:
        self.disk_reads += 1
        self.bytes_read += nbytes

    def count_disk_reads(self, n: int, nbytes: int = 0) -> None:
        """Bulk variant: ``n`` physical reads booked at once."""
        self.disk_reads += n
        self.bytes_read += nbytes

    def merge(self, other: "ReadReceipt") -> None:
        """Fold a sub-operation's provenance into this receipt."""
        self.disk_reads += other.disk_reads
        self.bytes_read += other.bytes_read

    @classmethod
    def merged(cls, receipts) -> "ReadReceipt":
        """One receipt folding a collection of sub-operation receipts.

        This is how the shard-parallel engine keeps attribution exact
        under concurrency: every pool task carries its own private
        receipt (no shared mutable counters between threads), and the
        coordinator merges them after the join barrier.
        """
        total = cls()
        for receipt in receipts:
            total.merge(receipt)
        return total
