"""Sharded-sweep parity: worker count must never change a result.

Holds :func:`experiment_fig4_strategy_sweep`, :func:`experiment_e9_\
optimality_gap`, :func:`experiment_e11_scalability`, and the E21 arms
to the SweepRunner guarantee — ``workers=4`` output equals
``workers=1`` output bit for bit (timing columns zeroed via
``measure_time=False`` where applicable).
"""

from repro.analysis.experiments import (
    _E21_STRATEGIES,
    _e21_cell,
    _e21_shard,
    experiment_e9_optimality_gap,
    experiment_e11_scalability,
    experiment_e21_control_plane_throughput,
    experiment_fig4_strategy_sweep,
)
from repro.core import algorithms
from repro.core.abstraction_layer import AlConstructionStrategy
from repro.core.algorithms import BITSET_KERNEL_THRESHOLD
from repro.stack import AlvcStack


class TestSweepParity:
    def test_fig4_workers4_bit_identical(self):
        kwargs = dict(
            scales=((4, 4), (6, 4)),
            seeds=(0, 1),
            include_exact=False,
            measure_time=False,
        )
        serial = experiment_fig4_strategy_sweep(workers=1, **kwargs)
        sharded = experiment_fig4_strategy_sweep(workers=4, **kwargs)
        assert sharded == serial

    def test_e9_workers4_bit_identical(self):
        kwargs = dict(instances=6, n_racks=4, n_ops=4)
        serial = experiment_e9_optimality_gap(workers=1, **kwargs)
        sharded = experiment_e9_optimality_gap(workers=4, **kwargs)
        assert sharded == serial

    def test_e11_workers4_bit_identical(self):
        scales = ((4, 4, 4), (6, 4, 6), (8, 4, 8))
        serial = experiment_e11_scalability(
            scales, workers=1, measure_time=False
        )
        sharded = experiment_e11_scalability(
            scales, workers=4, measure_time=False
        )
        assert sharded == serial


class TestE21Checksums:
    def test_arms_agree_and_workers_do_not_matter(self):
        rows = experiment_e21_control_plane_throughput(
            n_racks=12,
            servers_per_rack=4,
            n_ops=8,
            seeds=(0, 1),
            clusters_per_fabric=2,
            workers=2,
        )
        assert [row["arm"] for row in rows] == [
            "serial-set",
            "bitset",
            "bitset-parallel",
        ]
        checksums = {row["checksum"] for row in rows}
        assert len(checksums) == 1
        constructions = {row["constructions"] for row in rows}
        assert constructions == {2 * 2 * 4}  # seeds x clusters x strategies


class TestE21Kernels:
    """Each E21 arm's cover kernel travels in its tasks.

    If the kernel stopped being threaded, the ``serial-set`` arm would
    run the bitset marginal cover under ``auto`` and its baseline ratio
    would drift; these checks name that break directly.
    """

    #: 16 racks x 4 servers: a 64-server universe, at the auto threshold.
    SCALE = (16, 4, 8, 0.4)

    def _cell(self, kernel: str):
        strategy = AlConstructionStrategy.MARGINAL_GREEDY.value
        return _e21_cell((*self.SCALE, strategy, 0, 1, False, kernel))

    def test_set_arm_never_reaches_the_bitset_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("set arm ran the bitset kernel")

        assert self.SCALE[0] * self.SCALE[1] >= BITSET_KERNEL_THRESHOLD
        monkeypatch.setattr(algorithms, "_greedy_marginal_bitset", refuse)
        built, _, checksum = self._cell("set")
        assert built == 1 and checksum
        strategies = tuple(strategy.value for strategy in _E21_STRATEGIES)
        built, _, _ = _e21_shard((*self.SCALE, strategies, 0, 1, True, "set"))
        assert built == len(strategies)

    def test_auto_arm_reaches_the_bitset_kernel(self, monkeypatch):
        calls = []
        original = algorithms._greedy_marginal_bitset

        def spy(*args):
            calls.append(len(args[0]))
            return original(*args)

        reference = self._cell("set")
        monkeypatch.setattr(algorithms, "_greedy_marginal_bitset", spy)
        built, _, checksum = self._cell("auto")
        assert calls and min(calls) >= BITSET_KERNEL_THRESHOLD
        assert (built, checksum) == (reference[0], reference[2])


class TestStackFacade:
    def test_run_sweep_uses_stack_telemetry(self):
        from repro.analysis.experiments import _e11_scale

        stack = AlvcStack.build(
            n_racks=4, servers_per_rack=4, n_ops=4, telemetry="json"
        )
        rows = stack.run_sweep(
            _e11_scale, [(4, 4, 4, 0, False), (6, 4, 6, 0, False)]
        )
        assert [row["racks"] for row in rows] == [4, 6]
        registry = stack.telemetry.registry
        assert (
            registry.value_of("alvc_sweep_trials_total", workers="1") == 2.0
        )
