"""Tests for fanning sweep grids through the simulation service."""

import pytest

from repro.errors import ModelError
from repro.service import ServiceClient
from repro.service.http import ThreadedServer
from repro.store import ResultStore
from repro.sweeps import Sweep, SweepSpec


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("service_store")
    with ThreadedServer(store_path=store, procs=0, queue_limit=64) as hosted:
        yield hosted


@pytest.fixture()
def spec():
    return SweepSpec(experiments=["a4", "x3"], seeds=[0, 1])


class TestRunViaService:
    def test_cold_run_executes_and_mirrors_locally(
        self, server, spec, tmp_path
    ):
        store = ResultStore(tmp_path / "local")
        report = Sweep(spec, store).run_via_service(server.url, n_procs=2)
        assert report.total == 4
        assert report.executed == 4
        assert report.cached == 0
        assert report.passed
        # records mirrored into the local store, identical keys
        local = ResultStore(tmp_path / "local").load()
        for point in spec.points():
            assert local.get(point.cache_key()) is not None

    def test_second_run_is_local_cache_hits(self, server, spec, tmp_path):
        store = ResultStore(tmp_path / "local")
        sweep = Sweep(spec, store)
        sweep.run_via_service(server.url)
        report = sweep.run_via_service(server.url)
        assert (report.executed, report.cached) == (0, 4)
        statuses = {status for _, status in report.outcomes}
        assert statuses == {"cached"}

    def test_fresh_local_store_hits_service_cache(
        self, server, spec, tmp_path
    ):
        Sweep(spec, ResultStore(tmp_path / "one")).run_via_service(server.url)
        report = Sweep(spec, ResultStore(tmp_path / "two")).run_via_service(
            server.url
        )
        # all answered by the service's cache: cached, not executed
        assert (report.executed, report.cached) == (0, 4)

    def test_accepts_a_client_instance(self, server, spec, tmp_path):
        client = ServiceClient(server.url)
        report = Sweep(spec, ResultStore(tmp_path / "via_client")).run_via_service(
            client
        )
        assert report.total == 4
        client.close()

    def test_progress_callback_and_outcomes(self, server, spec, tmp_path):
        seen = []
        Sweep(spec, ResultStore(tmp_path / "progress")).run_via_service(
            server.url,
            progress=lambda point, status: seen.append(
                (point.experiment_id, status)
            ),
        )
        assert len(seen) == 4

    def test_neyman_budget_total_rejected(self, tmp_path):
        spec = SweepSpec(
            experiments=["e01"],
            precision={"rel_hw": 0.5, "budget": 500, "budget_total": 2000},
        )
        sweep = Sweep(spec, ResultStore(tmp_path / "neyman"))
        with pytest.raises(ModelError, match="budget_total"):
            # rejected before any request: the URL is never contacted
            sweep.run_via_service("http://127.0.0.1:1")

    def test_bad_n_procs_rejected(self, spec, tmp_path):
        sweep = Sweep(spec, ResultStore(tmp_path / "bad"))
        with pytest.raises(ModelError, match="n_procs"):
            sweep.run_via_service("http://127.0.0.1:1", n_procs=0)


class TestViaServiceCli:
    def test_sweep_cli_via_service(self, server, tmp_path, capsys):
        import json

        from repro.experiments.__main__ import main

        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps({"sweep": {"experiments": ["a5"], "seeds": [0, 1]}})
        )
        out = tmp_path / "results"
        code = main(
            [
                "sweep",
                "--grid",
                str(grid),
                "--out",
                str(out),
                "--via-service",
                server.url,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "2 points" in captured.out
        code = main(
            [
                "sweep",
                "--grid",
                str(grid),
                "--out",
                str(out),
                "--via-service",
                server.url,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "2 cached" in captured.out
