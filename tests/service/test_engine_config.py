"""EngineConfig: validation, coercion, and threading through the stack.

The satellite that unifies the organically-grown ``kernel=`` /
``engine=`` / ``routing_engine=`` / ``workers=`` knobs behind one typed
config.  The stack's per-call spellings, the constructors' second
spellings and the process-global defaults are gone; sweeps take their
defaults from the config and raise no deprecation warning, and two
stacks in one process never share a selector.
The retired simulator selectors (``sim_engine``, ``admission``) are no
fields any more, but mappings that carry them — old journals' genesis
records — still coerce.
"""

import dataclasses
import warnings

import pytest

from repro.config import COVER_KERNELS, EngineConfig
from repro.exceptions import ValidationError
from repro.stack import AlvcStack

BUILD = dict(n_racks=3, servers_per_rack=3, n_ops=4, seed=0)


class TestValidation:
    def test_defaults(self):
        config = EngineConfig()
        assert config.cover_kernel == "auto"
        assert config.routing == "auto"
        assert config.workers == 1
        assert len(dataclasses.fields(config)) == 4

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"cover_kernel": "simd"}, "unknown cover kernel"),
            ({"routing": "dijkstra9000"}, "unknown routing engine"),
            ({"sim_engine": "warp"}, "unknown simulation engine"),
            ({"admission": "psychic"}, "unknown admission mode"),
            (
                {"admission": "batched"},
                "requires sim_engine='vector'",
            ),
            ({"workers": 0}, "workers"),
            ({"workers": 2.5}, "workers"),
            ({"workers": True}, "workers"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            EngineConfig.coerce(kwargs)

    def test_admission_modes(self):
        """Every admission mode an old mapping could carry coerces to
        the default config; the field itself is gone."""
        for mode in ("auto", "per_event", "batched"):
            mapping = {"sim_engine": "vector", "admission": mode}
            assert EngineConfig.coerce(mapping) == EngineConfig()
        with pytest.raises(TypeError):
            EngineConfig(admission="batched")

    def test_known_sim_engines_all_construct(self):
        """Every simulation engine an old mapping could carry coerces
        (the other selectors survive); the field itself is gone."""
        for engine in ("incremental", "from_scratch", "legacy", "vector"):
            mapping = {"sim_engine": engine, "cover_kernel": "set"}
            assert EngineConfig.coerce(mapping) == EngineConfig(
                cover_kernel="set"
            )
        with pytest.raises(TypeError):
            EngineConfig(sim_engine="vector")

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().workers = 4

    def test_known_kernels_all_construct(self):
        for kernel in COVER_KERNELS:
            assert EngineConfig(cover_kernel=kernel).cover_kernel == kernel

    def test_one_vocabulary_per_selector(self):
        from repro import config
        from repro.core import algorithms
        from repro.sdn import routing

        assert algorithms.COVER_KERNELS is config.COVER_KERNELS
        assert routing.ROUTING_ENGINES is config.ROUTING_ENGINES


class TestCoerce:
    def test_none_gives_defaults(self):
        assert EngineConfig.coerce(None) == EngineConfig()

    def test_config_passes_through(self):
        config = EngineConfig(routing="csr")
        assert EngineConfig.coerce(config) is config

    def test_dict_coerces(self):
        config = EngineConfig.coerce(
            {"cover_kernel": "bitset", "workers": 2}
        )
        assert config.cover_kernel == "bitset"
        assert config.workers == 2

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(ValidationError, match="EngineConfig"):
            EngineConfig.coerce({"kernel": "bitset"})

    def test_other_types_rejected(self):
        with pytest.raises(ValidationError, match="engines must be"):
            EngineConfig.coerce("bitset")

    def test_to_dict_round_trips(self):
        config = EngineConfig(
            cover_kernel="set", routing="nx", workers=3
        )
        assert EngineConfig.coerce(config.to_dict()) == config


class TestStackThreading:
    def test_engines_thread_through_build(self):
        config = EngineConfig(cover_kernel="bitset", routing="csr")
        stack = AlvcStack.build(engines=config, **BUILD)
        assert stack.engines == config
        assert stack.orchestrator.engines == config
        assert stack.orchestrator.cluster_manager.kernel == "bitset"

    def test_engines_accepts_mapping(self):
        stack = AlvcStack.build(
            engines={"cover_kernel": "set"}, **BUILD
        )
        assert stack.engines.cover_kernel == "set"

    def test_engine_choice_is_bit_identical(self):
        digests = []
        from repro.service.snapshot import state_digest

        for config in (
            EngineConfig(cover_kernel="set", routing="nx"),
            EngineConfig(cover_kernel="bitset", routing="csr"),
        ):
            stack = AlvcStack.build(engines=config, **BUILD)
            stack.provision(("firewall", "nat"), service="web")
            view = state_digest(stack)
            digests.append(view)
        # Engines select implementations, never outcomes.
        assert digests[0] == digests[1]

    def test_routing_selection_is_per_stack(self, monkeypatch):
        """Two stacks in one process, provisions interleaved: each
        stack's routing resolves only its own engine."""
        from repro.sdn import routing

        seen = []
        original = routing._resolve_engine

        def spy(dcn, engine):
            seen.append((dcn, engine))
            return original(dcn, engine)

        monkeypatch.setattr(routing, "_resolve_engine", spy)
        stacks = {
            name: AlvcStack.build(engines=EngineConfig(routing=name), **BUILD)
            for name in ("nx", "csr")
        }
        for service in ("web", "sns"):
            for stack in stacks.values():
                stack.provision(("firewall", "nat"), service=service)
        for name, stack in stacks.items():
            engines = {
                engine for dcn, engine in seen if dcn is stack.fabric
            }
            assert engines == {name}
        assert len(seen) >= 2 * len(stacks)


class TestDeprecatedSpellings:
    def test_run_sweep_defaults_from_engines(self):
        stack = AlvcStack.build(
            engines=EngineConfig(workers=1, cover_kernel="set"), **BUILD
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert stack.run_sweep(_square, [4]) == [16]


class TestJournalIntegration:
    def test_genesis_embeds_engines(self, tmp_path):
        from repro.service import ControlPlaneService

        config = EngineConfig(cover_kernel="bitset", workers=2)
        with ControlPlaneService.open(
            tmp_path / "state",
            sync="off",
            engines=config,
            telemetry="json",
            **BUILD,
        ) as service:
            assert service.stack.engines == config
        with ControlPlaneService.open(tmp_path / "state", sync="off") as r:
            # Restore rebuilds the stack on the same engines.
            assert r.stack.engines == config

    def test_genesis_with_retired_selectors_restores(self, tmp_path):
        """A journal whose genesis record still stores ``sim_engine``
        and ``admission`` (as every journal did before the event
        simulator had one data plane) restores to the same state."""
        from repro.service.journal import Journal, read_journal
        from repro.service.restore import restore_stack
        from repro.service.snapshot import state_digest

        live = AlvcStack.build(
            journal=tmp_path / "live.alvc", sync="off", **BUILD
        )
        live.provision(("firewall", "nat"), service="web")
        live.journal.close()
        old = Journal(tmp_path / "old.alvc", sync="off")
        for record in read_journal(tmp_path / "live.alvc").records:
            data = record.data
            if record.op == "genesis":
                build = dict(data["build"])
                build["engines"] = {
                    **build["engines"],
                    "sim_engine": "incremental",
                    "admission": "auto",
                }
                data = {"build": build}
            old.append(record.op, data, nested=record.nested)
        old.close()
        restored = restore_stack(tmp_path / "old.alvc").stack
        assert restored.engines == EngineConfig()
        assert state_digest(restored) == state_digest(live)

    def test_retired_selector_values_still_validate(self):
        with pytest.raises(ValidationError, match="unknown simulation"):
            EngineConfig.coerce({"sim_engine": "warp"})
        with pytest.raises(ValidationError, match="unknown simulation"):
            AlvcStack.build(engines={"sim_engine": "warp"}, **BUILD)


def _square(x):
    return x * x
