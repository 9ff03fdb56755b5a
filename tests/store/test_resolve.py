"""resolve_results: the one results-argument resolver the CLI shares."""

import pytest

from repro.errors import ExperimentError
from repro.runner.executor import run_campaign
from repro.store.resolve import classify_results_path, resolve_results
from repro.telemetry import merge as telemetry

from tests.store.conftest import pair_spec


class TestClassification:
    @pytest.mark.parametrize("name,kind", [
        ("c.sqlite", "store"),
        ("c.sqlite3", "store"),
        ("c.db", "store"),
        ("c.telemetry.json", "manifest"),
        ("manifest.json", "manifest"),
    ])
    def test_suffix_classification(self, name, kind):
        assert classify_results_path(name) == kind

    @pytest.mark.parametrize("name", ["c.jsonl", "results.out"])
    def test_other_paths_are_refused_naming_migrate(self, name):
        with pytest.raises(ExperimentError, match="repro migrate"):
            classify_results_path(name)

    def test_missing_file_errors_by_default(self, tmp_path):
        with pytest.raises(ExperimentError, match="no such"):
            resolve_results(tmp_path / "absent.sqlite")
        resolved = resolve_results(tmp_path / "absent.sqlite", must_exist=False)
        assert resolved.kind == "store"


class TestResolvedViews:
    def test_store_records_and_manifest(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        result = run_campaign(pair_spec(), workers=1, results=store_path)
        with resolve_results(store_path) as resolved:
            assert resolved.kind == "store"
            assert len(resolved.records("campaign:last1")) == 4
            assert resolved.manifest()["campaign"]["spec_hash"] == result.campaign_id
            [row] = resolved.campaigns()
            assert row["campaign_id"] == result.campaign_id

    def test_store_manifest_rebuilt_without_a_stored_one(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        result = run_campaign(pair_spec(), workers=1, results=store_path)
        result.store.conn.execute("DELETE FROM telemetry")
        with resolve_results(store_path) as resolved:
            # rebuilt from records: no campaign identity, but full counters
            manifest = resolved.manifest()
            assert manifest["records"]["total"] == 4
            assert manifest["counters"]["cells/executed"] == 4

    def test_manifest_file_directly(self, tmp_path):
        result = run_campaign(pair_spec(), workers=1)
        sidecar = telemetry.write_manifest(
            result.telemetry(), tmp_path / "c.telemetry.json"
        )
        with resolve_results(sidecar) as resolved:
            assert resolved.kind == "manifest"
            assert resolved.manifest()["campaign"]["cells"] == 4
            assert resolved.campaigns() == []
            with pytest.raises(ExperimentError):
                resolved.records()

    def test_jsonl_store_property_refused(self, tmp_path):
        """A JSONL file is refused at resolution; a manifest has no store."""
        results = tmp_path / "c.jsonl"
        results.write_text("")
        with pytest.raises(ExperimentError, match="repro migrate"):
            resolve_results(results)
        sidecar = telemetry.write_manifest({}, tmp_path / "c.telemetry.json")
        with resolve_results(sidecar) as resolved:
            with pytest.raises(ExperimentError, match="not a SQLite"):
                resolved.store
