"""``benchmarks/gates.py`` passes the committed records and fails each
single mutation of them.

Every case copies a committed ``BENCH_e2x.json`` (or a synthetic
pair of pytest-benchmark files for the telemetry-overhead gate) into a
baseline and a candidate, changes one thing, and runs the gate's entry
point on the pair: a cleared flag, a value just under its floor, a
drop just past the regression bound, a drifted E25 field, an E26
checksum off by one, a soak outside its envelope, and E24's
certificate, gap and node checks.  A case just inside each bound
passes, so the bounds sit where they are declared.
"""

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from repro.analysis.report import EXPERIMENTS

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def _gates_module():
    """``gates.py`` loaded by path; registered first, as its
    dataclasses resolve their annotations through ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "bench_gates", BENCH_DIR / "gates.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gates = _gates_module()

RECORDS = {
    name: json.loads((BENCH_DIR / f"BENCH_{name}.json").read_text())
    for name in ("e21", "e22", "e23", "e24", "e25", "e26")
}


def _pytest_benchmark(median: float, name: str = "bench_fig4") -> dict:
    return {"benchmarks": [{"fullname": name, "stats": {"median": median}}]}


def _set(key, base_value, cand_value):
    def mutate(baseline, candidate):
        baseline[key] = base_value
        candidate[key] = cand_value

    return mutate


def _unset_flag(flag):
    def mutate(baseline, candidate):
        candidate[flag] = False

    return mutate


def _floor_cases(record, gate):
    cases = []
    for flag in gate.flags:
        cases.append((f"{record}-{flag}-cleared", _unset_flag(flag), 1))
    for key, floor in gate.floors.items():
        high = 4 * floor
        cases += [
            (f"{record}-{key}-at-floor", _set(key, floor, floor), 0),
            (f"{record}-{key}-below-floor", _set(key, floor, floor - 1e-9), 1),
            (f"{record}-{key}-drop-24pct", _set(key, high, high * 0.76), 0),
            (f"{record}-{key}-drop-26pct", _set(key, high, high * 0.74), 1),
            (f"{record}-{key}-baseline-zero", _set(key, 0.0, floor * 2), 1),
        ]
    return [(name, record, mutate, code) for name, mutate, code in cases]


def _widen_gap(problem):
    def mutate(baseline, candidate):
        candidate["max_gap"][problem] += 0.01

    return mutate


def _lose_problem(baseline, candidate):
    del candidate["max_gap"]["placement"]


def _row_nodes(nodes):
    def mutate(baseline, candidate):
        candidate["rows"][0]["bnb_nodes"] = nodes

    return mutate


def _total_nodes(factor, rounding):
    def mutate(baseline, candidate):
        candidate["total_bnb_nodes"] = rounding(
            baseline["total_bnb_nodes"] * factor
        )

    return mutate


def _drift_row(baseline, candidate):
    candidate["rows"][0]["admitted"] += 1


def _drop_arm(baseline, candidate):
    candidate["rows"].pop()


def _checksum(which, delta):
    def mutate(baseline, candidate):
        record = candidate if which == "candidate" else baseline
        for row in record["rows"]:
            if row["arm"] == "vector-batched":
                row["checksum"] += delta

    return mutate


def _ci_sized(checksum):
    def mutate(baseline, candidate):
        candidate["config"].update(n_flows=4000, arrival_rate=4000.0)
        for row in candidate["rows"]:
            if row["arm"] == "vector-batched":
                row["checksum"] = checksum

    return mutate


def _unknown_config(baseline, candidate):
    candidate["config"]["n_flows"] += 1


def _in_flight(which, offset):
    def mutate(baseline, candidate):
        soak = (candidate if which == "candidate" else baseline)["soak"]
        soak["in_flight"] = math.ceil(0.95 * soak["flows"]) + offset

    return mutate


def _rss(extra_mb):
    def mutate(baseline, candidate):
        soak = candidate["soak"]
        soak["rss_run_mb"] = 4096.0 - soak["rss_workload_mb"] + extra_mb

    return mutate


CASES = (
    [(f"{record}-self", record, None, 0) for record in RECORDS]
    + _floor_cases("e21", gates.GATES["e21_control_plane_throughput"])
    + _floor_cases("e22", gates.GATES["e22_routing_throughput"])
    + _floor_cases("e23", gates.GATES["e23_service_throughput"])
    + [
        ("e24-certificate-lost", "e24", _unset_flag("proven_optimal"), 1),
        ("e24-al_cover-gap-widened", "e24", _widen_gap("al_cover"), 1),
        ("e24-placement-gap-widened", "e24", _widen_gap("placement"), 1),
        ("e24-problem-lost", "e24", _lose_problem, 1),
        ("e24-row-2000-nodes", "e24", _row_nodes(2000), 0),
        ("e24-row-2001-nodes", "e24", _row_nodes(2001), 1),
        ("e24-total-nodes-49pct", "e24", _total_nodes(1.49, math.floor), 0),
        ("e24-total-nodes-51pct", "e24", _total_nodes(1.51, math.ceil), 1),
        ("e25-parity-cleared", "e25", _unset_flag("parity"), 1),
        ("e25-worker_parity-cleared", "e25", _unset_flag("worker_parity"), 1),
        ("e25-field-drifted", "e25", _drift_row, 1),
        ("e25-arm-removed", "e25", _drop_arm, 1),
        ("e26-checksum-off-by-one", "e26", _checksum("candidate", 1), 1),
        ("e26-baseline-checksum-off", "e26", _checksum("baseline", 1), 1),
        ("e26-ci-sized-golden", "e26", _ci_sized(120512518), 0),
        ("e26-ci-sized-checksum-off-by-one", "e26", _ci_sized(120512519), 1),
        ("e26-config-without-golden", "e26", _unknown_config, 1),
        ("e26-soak-in-flight-95pct", "e26", _in_flight("candidate", 0), 0),
        ("e26-soak-in-flight-below", "e26", _in_flight("candidate", -1), 1),
        ("e26-baseline-in-flight-below", "e26", _in_flight("baseline", -1), 1),
        ("e26-soak-rss-4096mb", "e26", _rss(0.0), 0),
        ("e26-soak-rss-above-4096mb", "e26", _rss(0.01), 1),
        ("overhead-plus-4pct", "overhead", 1.04, 0),
        ("overhead-plus-6pct", "overhead", 1.06, 1),
        ("overhead-faster", "overhead", 0.9, 0),
        ("overhead-no-common-benchmark", "overhead", None, 2),
    ]
)


def write_pair(case, directory: Path) -> tuple[Path, Path]:
    """Write *case*'s baseline and candidate files into *directory*."""
    _, record, mutate, _ = case
    if record == "overhead":
        baseline = _pytest_benchmark(0.010)
        candidate = (
            _pytest_benchmark(0.010, name="other")
            if mutate is None
            else _pytest_benchmark(0.010 * mutate)
        )
    else:
        baseline = copy.deepcopy(RECORDS[record])
        candidate = copy.deepcopy(RECORDS[record])
        if mutate is not None:
            mutate(baseline, candidate)
    paths = directory / "baseline.json", directory / "candidate.json"
    for path, data in zip(paths, (baseline, candidate)):
        path.write_text(json.dumps(data))
    return paths


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_gate_exit_status(case, tmp_path):
    baseline, candidate = write_pair(case, tmp_path)
    assert gates.main([str(baseline), str(candidate)]) == case[3]


def test_every_declared_experiment_has_a_committed_record():
    declared = set(gates.GATES)
    committed = {record["experiment"] for record in RECORDS.values()}
    assert declared == committed


def test_every_gate_names_a_registered_procedure():
    procedures = {
        table.procedure.__name__
        for experiment in EXPERIMENTS.values()
        for table in experiment.tables
    }
    missing = [
        key for key in gates.GATES if f"experiment_{key}" not in procedures
    ]
    assert missing == []


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_write_record_reproduces_the_committed_bytes(
    name, tmp_path, monkeypatch
):
    target = tmp_path / "out.json"
    monkeypatch.setenv(f"ALVC_BENCH_{name.upper()}_OUT", str(target))
    gates.write_record(copy.deepcopy(RECORDS[name]), label="committed")
    committed = (BENCH_DIR / f"BENCH_{name}.json").read_bytes()
    assert target.read_bytes() == committed


def test_write_record_defaults_to_the_working_directory(
    tmp_path, monkeypatch
):
    monkeypatch.delenv("ALVC_BENCH_E22_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    gates.write_record(copy.deepcopy(RECORDS["e22"]))
    assert json.loads((tmp_path / "BENCH_e22.json").read_text()) == (
        RECORDS["e22"]
    )


def test_write_record_writes_then_fails_a_failing_record(tmp_path):
    record = copy.deepcopy(RECORDS["e23"])
    record["batched_speedup"] = 1.9
    target = tmp_path / "e23.json"
    with pytest.raises(AssertionError, match="batched_speedup 1.90"):
        gates.write_record(record, path=str(target))
    assert json.loads(target.read_text())["batched_speedup"] == 1.9


def test_mismatched_experiments_cannot_be_compared(tmp_path):
    baseline = tmp_path / "baseline.json"
    candidate = tmp_path / "candidate.json"
    baseline.write_text(json.dumps(RECORDS["e21"]))
    candidate.write_text(json.dumps(RECORDS["e22"]))
    assert gates.main([str(baseline), str(candidate)]) == 2


def test_record_failures_names_the_failed_check():
    record = copy.deepcopy(RECORDS["e23"])
    assert gates.record_failures(record) == []
    record["batched_speedup"] = 1.9
    (failure,) = gates.record_failures(record)
    assert "batched_speedup 1.90" in failure
