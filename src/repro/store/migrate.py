"""JSONL ↔ SQLite conversion — ``repro migrate``.

The checksummed JSONL format (:mod:`repro.store.jsonl`) is the store's
import/export shape — and the format campaigns streamed into before the
store became the one live backend, so those files import (and resume) as
store campaigns.  These functions convert a campaign either direction
and round-trip **byte-identical** files.  That works because both backends
keep every record in the same canonical serialisation
(``json.dumps(record, sort_keys=True)``): importing strips nothing but the
line checksums (which are pure functions of the canonical bytes), and
exporting regenerates them, so ``jsonl -> sqlite -> jsonl`` reproduces the
original file exactly (modulo a repaired torn tail, which by definition was
never a trusted record).

Sidecars ride along: the ``.telemetry.json`` manifest lands in the store's
``telemetry`` table and the ``.quarantine.jsonl`` entries in its
``quarantine`` table, and both come back out on export.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ExperimentError
from repro.store.database import CampaignStore, is_store_path
from repro.store.jsonl import ResultStore
from repro.telemetry import merge as telemetry_merge


def _quarantine_path_for(results_path: Path) -> Path:
    """The quarantine sidecar of a JSONL results file.

    ``campaign.jsonl`` -> ``campaign.quarantine.jsonl``; other names get
    ``.quarantine.jsonl`` appended, mirroring the telemetry sidecar naming.
    """
    if results_path.suffix == ".jsonl":
        return results_path.with_name(results_path.stem + ".quarantine.jsonl")
    return results_path.with_name(results_path.name + ".quarantine.jsonl")


def derive_campaign_id(
    records: list, manifest: Optional[Dict[str, Any]] = None
) -> str:
    """The campaign id of an imported JSONL file.

    The telemetry manifest records the real spec hash; without one the id
    is derived deterministically from the cell ids, so re-importing the
    same file lands on the same campaign.
    """
    if manifest is not None:
        spec_hash = manifest.get("campaign", {}).get("spec_hash")
        if spec_hash:
            return str(spec_hash)
    digest = hashlib.sha256()
    for record in records:
        digest.update(str(record.get("cell_id", "")).encode("utf-8"))
        digest.update(b"\n")
    return "import-" + digest.hexdigest()[:16]


def import_jsonl(
    jsonl_path: Union[str, Path],
    store_path: Union[str, Path],
    campaign_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Import a JSONL campaign (plus sidecars) into a SQLite store.

    Returns a summary dictionary (``campaign_id``, ``records``,
    ``manifest``, ``quarantined``).  The campaign replaces any existing
    campaign with the same id in the store.
    """
    jsonl_path = Path(jsonl_path)
    if not jsonl_path.exists():
        raise ExperimentError(f"no results file at {jsonl_path}")
    source = ResultStore(jsonl_path)
    records = source.load()

    manifest: Optional[Dict[str, Any]] = None
    manifest_path = telemetry_merge.manifest_path_for(jsonl_path)
    if manifest_path.exists():
        manifest = telemetry_merge.load_manifest(manifest_path)

    quarantined: list = []
    quarantine_path = _quarantine_path_for(jsonl_path)
    if quarantine_path.exists():
        quarantined = ResultStore(quarantine_path).load()

    if campaign_id is None:
        campaign_id = derive_campaign_id(records, manifest)

    run = (manifest or {}).get("run", {})
    with CampaignStore(store_path) as store:
        store.begin_campaign(
            campaign_id,
            cells=(manifest or {}).get("campaign", {}).get("cells", len(records)),
            workers=run.get("workers"),
        )
        for record in records:
            store.append_record(campaign_id, record)
        if manifest is not None:
            store.put_manifest(campaign_id, manifest)
        if quarantined:
            store.put_quarantine(campaign_id, quarantined)
        store.finish_campaign(
            campaign_id,
            executed=run.get("executed", len(records)),
            skipped=run.get("skipped", 0),
            elapsed_s=run.get("elapsed_s", 0.0),
            status="imported",
        )
    return {
        "direction": "jsonl->sqlite",
        "campaign_id": campaign_id,
        "records": len(records),
        "manifest": manifest is not None,
        "quarantined": len(quarantined),
        "torn_records_skipped": source.torn_records_skipped,
    }


def export_jsonl(
    store_path: Union[str, Path],
    jsonl_path: Union[str, Path],
    campaign_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Export one campaign of a store back to checksummed JSONL (+sidecars).

    ``campaign_id`` may be a full id or a unique prefix; ``None`` exports
    the most recently started campaign.
    """
    store_path = Path(store_path)
    if not store_path.exists():
        raise ExperimentError(f"no results store at {store_path}")
    jsonl_path = Path(jsonl_path)
    with CampaignStore(store_path) as store:
        campaigns = store.campaigns()
        if not campaigns:
            raise ExperimentError(f"store {store_path} holds no campaigns")
        if campaign_id is None:
            resolved = campaigns[-1]["campaign_id"]
        else:
            matches = [
                row["campaign_id"]
                for row in campaigns
                if str(row["campaign_id"]).startswith(campaign_id)
            ]
            if not matches:
                raise ExperimentError(
                    f"no campaign in {store_path} matches {campaign_id!r}"
                )
            if len(matches) > 1:
                raise ExperimentError(
                    f"campaign prefix {campaign_id!r} is ambiguous in"
                    f" {store_path}: {', '.join(matches)}"
                )
            resolved = matches[0]
        records = store.load_records(resolved)
        manifest = store.get_manifest(resolved)
        quarantined = store.load_quarantine(resolved)

    target = ResultStore(jsonl_path)
    target.truncate()
    for record in records:
        target.append(record)
    manifest_written = None
    if manifest is not None:
        manifest_written = telemetry_merge.write_manifest(
            manifest, telemetry_merge.manifest_path_for(jsonl_path)
        )
    quarantine_written = None
    if quarantined:
        quarantine_store = ResultStore(_quarantine_path_for(jsonl_path))
        quarantine_store.truncate()
        for entry in quarantined:
            quarantine_store.append(entry)
        quarantine_written = quarantine_store.path
    return {
        "direction": "sqlite->jsonl",
        "campaign_id": resolved,
        "records": len(records),
        "manifest": str(manifest_written) if manifest_written else None,
        "quarantine": str(quarantine_written) if quarantine_written else None,
    }


def migrate(
    source: Union[str, Path],
    destination: Union[str, Path],
    campaign_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Convert results between backends, direction inferred from suffixes."""
    src_is_store = is_store_path(source)
    dst_is_store = is_store_path(destination)
    if src_is_store and not dst_is_store:
        return export_jsonl(source, destination, campaign_id)
    if dst_is_store and not src_is_store:
        return import_jsonl(source, destination, campaign_id)
    raise ExperimentError(
        "migrate needs exactly one SQLite side (suffix .sqlite/.sqlite3/.db)"
        f" and one JSONL side; got {source} -> {destination}"
    )
