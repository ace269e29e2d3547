"""Tests for the CLI experiment runner."""

import io
import json
import re

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for exp_id in (
            "fig1", "fig4", "fig8", "e9", "e10", "e11", "e12", "e23", "e26",
        ):
            assert exp_id in output


class TestServe:
    BUILD = "n_racks=3,servers_per_rack=3,n_ops=4,seed=0,vms_per_service=3"

    def _serve(self, monkeypatch, argv, lines):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(line + "\n" for line in lines))
        )
        return main(["serve", *argv])

    def test_serve_round_trip(self, capsys, monkeypatch, tmp_path):
        state = tmp_path / "state"
        code = self._serve(
            monkeypatch,
            ["--state", str(state), "--build", self.BUILD],
            [
                json.dumps(
                    {
                        "op": "provision",
                        "chain": ["firewall", "nat"],
                        "service": "web",
                    }
                ),
                "not json at all",
                json.dumps({"op": "teardown", "chain_id": "chain-0"}),
            ],
        )
        assert code == 0
        responses = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        # Parse errors are reported as soon as the line is read, so
        # they interleave with in-flight responses; admitted requests
        # themselves respond in submission order.
        admitted = [r for r in responses if r.get("id") is not None]
        errors = [r for r in responses if r.get("id") is None]
        assert [r["ok"] for r in admitted] == [True, True]
        assert admitted[0]["op"] == "provision"
        assert admitted[0]["detail"]["chain_id"] == "chain-0"
        assert admitted[1]["detail"] == {"chain_id": "chain-0"}
        assert len(errors) == 1 and "bad request" in errors[0]["error"]
        assert (state / "journal.alvc").exists()

    def test_serve_restores_existing_state(
        self, capsys, monkeypatch, tmp_path
    ):
        state = tmp_path / "state"
        assert (
            self._serve(
                monkeypatch,
                [
                    "--state",
                    str(state),
                    "--build",
                    self.BUILD,
                    "--snapshot-on-exit",
                ],
                [
                    json.dumps(
                        {
                            "op": "provision",
                            "chain": ["dpi"],
                            "service": "backup",
                        }
                    )
                ],
            )
            == 0
        )
        assert (state / "snapshot.alvc").exists()
        capsys.readouterr()
        # Restart against the same directory: the chain survived and
        # can be torn down through the restored service.
        code = self._serve(
            monkeypatch,
            ["--state", str(state)],
            [json.dumps({"op": "teardown", "chain_id": "chain-0"})],
        )
        assert code == 0
        response = json.loads(capsys.readouterr().out.splitlines()[0])
        assert response["ok"] is True

    def test_serve_rejects_build_args_on_existing_journal(
        self, capsys, monkeypatch, tmp_path
    ):
        state = tmp_path / "state"
        assert (
            self._serve(
                monkeypatch,
                ["--state", str(state), "--build", self.BUILD],
                [],
            )
            == 0
        )
        capsys.readouterr()
        code = self._serve(
            monkeypatch,
            ["--state", str(state), "--build", "n_racks=9"],
            [],
        )
        assert code == 2
        assert "already has a journal" in capsys.readouterr().err

    def test_serve_rejects_malformed_build_spec(
        self, capsys, monkeypatch, tmp_path
    ):
        code = self._serve(
            monkeypatch,
            ["--state", str(tmp_path / "state"), "--build", "nonsense"],
            [],
        )
        assert code == 2
        assert "bad --build entry" in capsys.readouterr().err


class TestRun:
    def test_run_fig4(self, capsys):
        assert main(["run", "fig4"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 4 — worked example" in output
        assert "ops-0,ops-2" in output

    def test_run_fig8(self, capsys):
        assert main(["run", "fig8"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 8 — worked example" in output
        assert "nat->firewall->dpi" in output

    def test_export_dir(self, capsys, tmp_path):
        target = tmp_path / "results"
        assert main(["run", "e11", "--export-dir", str(target)]) == 0
        exports = list(target.glob("e11-*.csv"))
        assert len(exports) == 1
        content = exports[0].read_text()
        assert content.startswith("servers,")

    def test_run_multiple(self, capsys):
        assert main(["run", "fig3", "e10"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 3" in output
        assert "E10" in output

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["run", "bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_mixed_known_unknown_rejected_before_running(self, capsys):
        assert main(["run", "fig4", "bogus"]) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        # Nothing ran.
        assert "Fig. 4" not in captured.out


class TestParser:
    def test_run_help_names_the_sharded_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        (listed,) = re.findall(r"shard the seeded sweeps \(([^)]*)\)", text)
        assert listed.split(", ") == [
            "fig4", "e9", "e11", "e20", "e21", "e24", "e25",
        ]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiments(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report"]) == 0
        output = capsys.readouterr().out
        assert "# AL-VC reproduction report" in output
        assert "fig4" in output
        assert "| --- |" in output

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "REPORT.md"
        assert main(["report", str(target)]) == 0
        text = target.read_text()
        assert "fig8" in text
        assert "worked example" in text.lower()
