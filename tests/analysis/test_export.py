"""Tests for experiment-row export."""

import pytest

from repro.analysis.export import (
    load_rows,
    rows_to_csv,
    rows_to_json,
    save_rows,
)

ROWS = [
    {"strategy": "greedy", "al_size": 3, "gap": 1.15},
    {"strategy": "random", "al_size": 5, "gap": 1.4},
]


class TestCsv:
    def test_header_and_rows(self):
        text = rows_to_csv(ROWS)
        lines = text.strip().splitlines()
        assert lines[0] == "strategy,al_size,gap"
        assert lines[1] == "greedy,3,1.15"
        assert len(lines) == 3

    def test_empty(self):
        assert rows_to_csv([]) == ""

    def test_union_of_columns(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        lines = rows_to_csv(rows).strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,"


class TestJson:
    def test_roundtrip_via_loads(self):
        import json

        assert json.loads(rows_to_json(ROWS)) == ROWS

    def test_non_serializable_values_stringified(self):
        rows = [{"value": frozenset({"x"})}]
        text = rows_to_json(rows)
        assert "x" in text


class TestFiles:
    def test_save_and_load_json(self, tmp_path):
        path = save_rows(ROWS, tmp_path / "out.json")
        assert load_rows(path) == ROWS

    def test_save_and_load_csv(self, tmp_path):
        path = save_rows(ROWS, tmp_path / "out.csv")
        loaded = load_rows(path)
        # CSV is typeless: values come back as strings.
        assert loaded[0] == {"strategy": "greedy", "al_size": "3",
                             "gap": "1.15"}

    def test_unsupported_extension_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_rows(ROWS, tmp_path / "out.xlsx")
        with pytest.raises(ValueError):
            load_rows(tmp_path / "out.parquet")

    def test_experiment_rows_export(self, tmp_path):
        from repro.analysis.experiments import experiment_e11_scalability

        rows = experiment_e11_scalability(scales=((4, 8, 4),))
        path = save_rows(rows, tmp_path / "e11.csv")
        assert len(load_rows(path)) == len(rows)


class TestReportGeneration:
    def test_subset_report(self):
        from repro.analysis.report import generate_report

        text = generate_report(include=("e11",))
        assert "e11" in text
        assert "servers" in text
        assert "fig4" not in text

    def test_run_experiment_calls_each_procedure_once(self, monkeypatch):
        from repro.analysis import report

        calls = []

        def split(*, size):
            calls.append(size)
            return {"a": [{"n": size}], "b": []}

        def sweep(*, size, workers=1):
            return [{"n": size, "workers": workers}]

        toy = report.Experiment(
            "toy",
            report.Table("A", split, "a"),
            report.Table("B", split, "b"),
            report.Table("C", sweep),
            size=3,
        )
        monkeypatch.setitem(report.EXPERIMENTS, "toy", toy)
        assert report.run_experiment("toy", workers=2) == {
            "A": [{"n": 3}],
            "B": [],
            "C": [{"n": 3, "workers": 2}],
        }
        assert calls == [3]
        assert "toy" in report.sharded_experiments()

    def test_unknown_id_rejected(self):
        from repro.analysis.report import generate_report

        with pytest.raises(ValueError):
            generate_report(include=("nope",))

    def test_write_report(self, tmp_path):
        from repro.analysis.report import write_report

        target = write_report(tmp_path / "r.md", include=("e16",))
        assert "core_layout" in target.read_text()
