"""Checksummed JSONL result files — the store's import/export format.

:class:`ResultStore` reads and writes the interchange shape of a campaign:
one checksummed JSON record per line.  No campaign streams into it any
more — the SQLite :class:`~repro.store.database.CampaignStore` is the one
live results backend — but ``repro migrate`` imports JSONL files into a
store and exports store campaigns back out, round-tripping byte-identical
files, and CI artifacts stay diffable with plain text tools.

Each line carries an injected ``_checksum`` field (CRC-32 of the record
without it), so every line stays plain JSON while :meth:`ResultStore.load`
can tell a *trusted* record from a corrupted one.  The files come from
outside the program (older runs, other machines, hand edits), so loading
checks them: a torn or checksum-failing **final** line is the shape of a
writer killed mid-append and is skipped (counted in
:attr:`ResultStore.torn_records_skipped`); the same damage **mid-file**
means the file cannot be trusted as a whole and raises
:class:`~repro.errors.ResultStoreError` with the line number, byte offset
and (when parseable) the cell id.  Every append is flushed and fsynced.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Any, Dict, List, Set, Union

from repro.errors import ResultStoreError


class ResultStore:
    """A checksummed JSONL file of campaign cell records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: torn trailing records dropped by the most recent :meth:`load`.
        self.torn_records_skipped = 0

    #: Lines are written as ``{"_checksum": "xxxxxxxx", <canonical body>`` so
    #: :meth:`load` can verify them with one crc32 over the stored bytes
    #: instead of re-serialising every record.
    _CHECKSUM_PREFIX = '{"_checksum": "'
    _CHECKSUM_HEAD = len(_CHECKSUM_PREFIX) + 8 + len('", ')

    @staticmethod
    def checksum(record: Dict[str, Any]) -> str:
        """CRC-32 (hex) over the canonical JSON of a record sans ``_checksum``."""
        canonical = json.dumps(
            {k: v for k, v in record.items() if k != "_checksum"}, sort_keys=True
        )
        return format(zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF, "08x")

    def append(self, record: Dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(record, sort_keys=True)
        crc = format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")
        line = f'{self._CHECKSUM_PREFIX}{crc}", {body[1:]}' if len(body) > 2 else body
        with self.path.open("a") as stream:
            stream.write(line)
            stream.write("\n")
            stream.flush()
            os.fsync(stream.fileno())

    def truncate(self) -> None:
        """Start the file over (an export writes a whole campaign)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")

    def load(self) -> List[Dict[str, Any]]:
        """Every trusted record in the file (a torn final line is dropped).

        The injected ``_checksum`` field is verified and stripped, so the
        returned records compare equal to the in-memory records that
        produced them.  Records written before the checksum protocol (no
        ``_checksum`` field) are accepted unverified.
        """
        self.torn_records_skipped = 0
        if not self.path.exists():
            return []
        records: List[Dict[str, Any]] = []
        lines = self.path.read_text().split("\n")
        last_content = max(
            (i for i, line in enumerate(lines) if line.strip()), default=-1
        )
        offset = 0
        for number, line in enumerate(lines):
            stripped = line.strip()
            if stripped:
                try:
                    record = json.loads(stripped)
                    if not isinstance(record, dict):
                        raise ValueError("record is not a JSON object")
                    stored = record.pop("_checksum", None)
                    if stored is not None:
                        if stripped.startswith(self._CHECKSUM_PREFIX) and (
                            stripped[self._CHECKSUM_HEAD - 3 : self._CHECKSUM_HEAD]
                            == '", '
                        ):
                            # Our own line layout: verify the stored bytes
                            # directly, no re-serialisation needed.
                            body = "{" + stripped[self._CHECKSUM_HEAD :]
                            computed = format(
                                zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x"
                            )
                        else:
                            computed = self.checksum(record)
                        if stored != computed:
                            raise ValueError(
                                f"checksum mismatch (stored {stored},"
                                f" computed {computed})"
                            )
                except ValueError as exc:
                    if number == last_content:
                        # The shape of a writer killed mid-append: the
                        # record never finished, so it is not imported.
                        self.torn_records_skipped += 1
                    else:
                        match = re.search(r'"cell_id"\s*:\s*"([^"]+)"', stripped)
                        cell = f", cell {match.group(1)}" if match else ""
                        raise ResultStoreError(
                            f"corrupt record in {self.path} at line {number + 1}"
                            f" (byte offset {offset}){cell}: {exc}"
                        )
                else:
                    records.append(record)
            offset += len(line.encode("utf-8")) + 1
        return records

    def completed_cell_ids(self) -> Set[str]:
        return {record["cell_id"] for record in self.load() if "cell_id" in record}
