"""JSONL <-> SQLite migration: round trips must be byte-identical."""

import filecmp
import shutil
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.errors import ExperimentError
from repro.runner import faults
from repro.runner.executor import run_campaign
from repro.runner.faults import parse_plan
from repro.runner.policy import ExecutionPolicy
from repro.runner.spec import CampaignSpec, ScenarioSpec
from repro.store.database import CampaignStore
from repro.store.migrate import _quarantine_path_for, export_jsonl, import_jsonl, migrate
from repro.telemetry import merge as telemetry

from tests.store.conftest import deterministic_part, pair_spec

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reload_from_env()
    yield
    faults.reload_from_env()


def round_trip(tmp_path, jsonl_path):
    """jsonl -> sqlite -> jsonl again; return the re-exported path."""
    store_path = tmp_path / "migrated.sqlite"
    imported = import_jsonl(jsonl_path, store_path)
    back = tmp_path / "back.jsonl"
    export_jsonl(store_path, back, campaign_id=imported["campaign_id"])
    return back


def jsonl_campaign(tmp_path, spec, workers=1, policy=None):
    """Run ``spec`` into a store and export it as ``c.jsonl`` (+ sidecars)."""
    store_path = tmp_path / "origin.sqlite"
    run_campaign(spec, workers=workers, results=store_path, policy=policy)
    results = tmp_path / "c.jsonl"
    export_jsonl(store_path, results)
    return results


class TestRoundTrips:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "parallel"])
    def test_fresh_campaign_round_trips_byte_identical(self, tmp_path, workers):
        results = jsonl_campaign(tmp_path, pair_spec(), workers=workers)
        back = round_trip(tmp_path, results)
        assert filecmp.cmp(results, back, shallow=False)
        # the telemetry sidecar rides along, also byte-identical
        assert filecmp.cmp(
            telemetry.manifest_path_for(results),
            telemetry.manifest_path_for(back),
            shallow=False,
        )

    def test_resumed_campaign_round_trips_byte_identical(self, tmp_path):
        store_path = tmp_path / "origin.sqlite"
        spec = pair_spec()
        # interrupt after two cells, then resume to completion
        faults.install(parse_plan("site=cell-body,kind=exception,skip=2"))
        policy = ExecutionPolicy(on_error="fail")
        with pytest.raises(Exception):
            run_campaign(spec, workers=1, results=store_path, policy=policy)
        faults.reload_from_env()
        resumed = run_campaign(spec, workers=1, results=store_path, resume=True)
        assert resumed.skipped == 2
        results = tmp_path / "c.jsonl"
        export_jsonl(store_path, results)
        back = round_trip(tmp_path, results)
        assert filecmp.cmp(results, back, shallow=False)

    def test_quarantined_campaign_round_trips_byte_identical(self, tmp_path):
        spec = pair_spec()
        target = spec.cells()[0].cell_id[:12]
        faults.install(
            parse_plan(f"site=cell-body,kind=exception,cells={target}")
        )
        policy = ExecutionPolicy(
            on_error="quarantine", backoff_base_s=0.001, backoff_cap_s=0.01
        )
        results = jsonl_campaign(tmp_path, spec, policy=policy)
        back = round_trip(tmp_path, results)
        assert filecmp.cmp(results, back, shallow=False)
        assert filecmp.cmp(
            _quarantine_path_for(results), _quarantine_path_for(back), shallow=False
        )

    def test_sqlite_origin_round_trips_byte_identical(self, tmp_path):
        """store -> jsonl -> store -> jsonl: the two exports must agree."""
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        first = tmp_path / "out.jsonl"
        export_jsonl(store_path, first)
        second_store = tmp_path / "again.sqlite"
        import_jsonl(first, second_store)
        second = tmp_path / "out2.jsonl"
        export_jsonl(second_store, second)
        assert filecmp.cmp(first, second, shallow=False)


class TestImportExport:
    def test_import_summary(self, tmp_path):
        results = jsonl_campaign(tmp_path, pair_spec())
        summary = import_jsonl(results, tmp_path / "c.sqlite")
        assert summary["direction"] == "jsonl->sqlite"
        assert summary["records"] == 4
        assert summary["manifest"] is True
        with CampaignStore(tmp_path / "c.sqlite") as store:
            [row] = store.campaigns()
            assert row["status"] == "imported"
            assert row["campaign_id"] == summary["campaign_id"]

    def test_import_without_sidecars_derives_an_id(self, tmp_path):
        results = jsonl_campaign(tmp_path, pair_spec())
        telemetry.manifest_path_for(results).unlink()
        summary = import_jsonl(results, tmp_path / "c.sqlite")
        assert summary["campaign_id"].startswith("import-")
        assert summary["manifest"] is False

    def test_export_defaults_to_latest_campaign(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        latest = run_campaign(
            pair_spec(schemes=("reconvergence",)), workers=1, results=store_path
        )
        summary = export_jsonl(store_path, tmp_path / "out.jsonl")
        assert summary["campaign_id"] == latest.campaign_id
        assert summary["records"] == 2

    def test_export_by_unique_prefix(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        result = run_campaign(pair_spec(), workers=1, results=store_path)
        summary = export_jsonl(
            store_path, tmp_path / "out.jsonl", campaign_id=result.campaign_id[:6]
        )
        assert summary["campaign_id"] == result.campaign_id

    def test_export_unknown_campaign_errors(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        with pytest.raises(ExperimentError):
            export_jsonl(store_path, tmp_path / "out.jsonl", campaign_id="zzzz")

    def test_quarantine_path_naming(self):
        assert _quarantine_path_for(Path("out/run.jsonl")) == Path(
            "out/run.quarantine.jsonl"
        )
        assert _quarantine_path_for(Path("run.results")) == Path(
            "run.results.quarantine.jsonl"
        )


class TestDirectionDetection:
    def test_migrate_dispatches_on_suffix(self, tmp_path):
        results = jsonl_campaign(tmp_path, pair_spec())
        forward = migrate(results, tmp_path / "c.sqlite")
        assert forward["direction"] == "jsonl->sqlite"
        backward = migrate(tmp_path / "c.sqlite", tmp_path / "out.jsonl")
        assert backward["direction"] == "sqlite->jsonl"

    def test_same_kind_on_both_sides_errors(self, tmp_path):
        with pytest.raises(ExperimentError):
            migrate(tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        with pytest.raises(ExperimentError):
            migrate(tmp_path / "a.sqlite", tmp_path / "b.sqlite")


def golden_spec():
    """The spec the committed golden campaign ran."""
    return CampaignSpec(
        topologies=("fig1-example",),
        schemes=("reconvergence", "fcp", "lfa"),
        scenarios=(ScenarioSpec("single-link"),),
    )


class TestGoldenImport:
    """``tests/store/data/golden.*`` were written by the live JSONL writer
    campaigns used before the SQLite store became the only one (a
    ``results=golden.jsonl`` run with ``on_error="quarantine"`` and the
    second cell quarantined).  Such files must still import, export and
    resume."""

    NAMES = ("golden.jsonl", "golden.telemetry.json", "golden.quarantine.jsonl")

    def test_import_then_export_reproduces_every_file(self, tmp_path, capsys):
        store_path = tmp_path / "golden.sqlite"
        assert repro_main(["migrate", str(DATA / "golden.jsonl"), str(store_path)]) == 0
        exported = tmp_path / "golden.jsonl"
        assert repro_main(["migrate", str(store_path), str(exported)]) == 0
        capsys.readouterr()
        for name in self.NAMES:
            assert filecmp.cmp(DATA / name, tmp_path / name, shallow=False), name

    def test_resume_on_the_imported_store_skips_every_recorded_cell(self, tmp_path):
        for name in self.NAMES:
            shutil.copy(DATA / name, tmp_path / name)
        store_path = tmp_path / "golden.sqlite"
        imported = import_jsonl(tmp_path / "golden.jsonl", store_path)
        spec = golden_spec()
        assert imported["campaign_id"] == spec.spec_hash()
        assert imported["records"] == 2
        assert imported["quarantined"] == 1
        with CampaignStore(store_path) as store:
            recorded = store.load_records(spec.spec_hash())

        resumed = run_campaign(spec, workers=1, results=store_path, resume=True)
        resumed.store.close()
        assert resumed.skipped == 2
        assert resumed.executed == 1
        [rerun] = resumed.executed_cell_ids
        assert rerun == spec.cells()[1].cell_id  # the quarantined cell
        assert [r for r in resumed.records if r["cell_id"] != rerun] == recorded
        clean = run_campaign(spec, workers=1)
        assert deterministic_part(resumed.records) == deterministic_part(clean.records)
