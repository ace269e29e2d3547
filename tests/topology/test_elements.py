"""Tests for topology value types (ResourceVector, specs, links)."""

import pytest

from repro.exceptions import ValidationError
from repro.topology.elements import (
    DEFAULT_OPTOELECTRONIC_CAPACITY,
    DEFAULT_SERVER_CAPACITY,
    Domain,
    LinkSpec,
    OpticalSwitchSpec,
    ResourceVector,
    ServerSpec,
    TorSpec,
)


class TestResourceVector:
    def test_default_is_zero(self):
        assert ResourceVector().is_zero()

    def test_zero_factory(self):
        assert ResourceVector.zero() == ResourceVector(0, 0, 0)

    def test_addition(self):
        total = ResourceVector(1, 2, 3) + ResourceVector(4, 5, 6)
        assert total == ResourceVector(5, 7, 9)

    def test_subtraction(self):
        left = ResourceVector(4, 5, 6) - ResourceVector(1, 2, 3)
        assert left == ResourceVector(3, 3, 3)

    def test_subtraction_below_zero_raises(self):
        with pytest.raises(ValueError):
            ResourceVector(1, 1, 1) - ResourceVector(2, 0, 0)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(cpu_cores=-1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(memory_gb=float("nan"))

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(storage_gb=float("inf"))

    @pytest.mark.parametrize("field", ["cpu_cores", "memory_gb", "storage_gb"])
    @pytest.mark.parametrize(
        "value", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejection_names_the_field(self, field, value):
        with pytest.raises(
            ValidationError,
            match=rf"^{field} must be finite and non-negative, got ",
        ):
            ResourceVector(**{field: value})

    def test_first_bad_field_is_named(self):
        with pytest.raises(ValidationError, match="^memory_gb"):
            ResourceVector(cpu_cores=1, memory_gb=-1, storage_gb=-1)

    def test_negative_zero_accepted(self):
        assert ResourceVector(cpu_cores=-0.0).is_zero()

    def test_scaled(self):
        assert ResourceVector(2, 4, 8).scaled(0.5) == ResourceVector(1, 2, 4)

    def test_scaled_by_zero(self):
        assert ResourceVector(2, 4, 8).scaled(0).is_zero()

    def test_scaled_negative_raises(self):
        with pytest.raises(ValueError):
            ResourceVector(1, 1, 1).scaled(-1)

    def test_fits_within_true(self):
        assert ResourceVector(1, 1, 1).fits_within(ResourceVector(2, 2, 2))

    def test_fits_within_exact_boundary(self):
        assert ResourceVector(2, 2, 2).fits_within(ResourceVector(2, 2, 2))

    def test_fits_within_false_on_any_axis(self):
        capacity = ResourceVector(2, 2, 2)
        assert not ResourceVector(3, 0, 0).fits_within(capacity)
        assert not ResourceVector(0, 3, 0).fits_within(capacity)
        assert not ResourceVector(0, 0, 3).fits_within(capacity)

    def test_total(self):
        vectors = [ResourceVector(1, 0, 0), ResourceVector(0, 2, 0)]
        assert ResourceVector.total(vectors) == ResourceVector(1, 2, 0)

    def test_total_of_empty(self):
        assert ResourceVector.total([]).is_zero()

    def test_immutable(self):
        vector = ResourceVector(1, 1, 1)
        with pytest.raises(AttributeError):
            vector.cpu_cores = 5


class TestDomain:
    def test_other_flips(self):
        assert Domain.ELECTRONIC.other is Domain.OPTICAL
        assert Domain.OPTICAL.other is Domain.ELECTRONIC

    def test_str(self):
        assert str(Domain.OPTICAL) == "optical"


class TestSpecs:
    def test_server_spec_default_capacity(self):
        spec = ServerSpec(server_id="server-0")
        assert spec.capacity.cpu_cores > 0

    def test_tor_spec_defaults(self):
        spec = TorSpec(tor_id="tor-0")
        assert spec.port_count == 48

    def test_plain_ops_is_not_optoelectronic(self):
        spec = OpticalSwitchSpec(ops_id="ops-0")
        assert not spec.is_optoelectronic

    def test_ops_with_compute_is_optoelectronic(self):
        spec = OpticalSwitchSpec(
            ops_id="ops-0", compute=DEFAULT_OPTOELECTRONIC_CAPACITY
        )
        assert spec.is_optoelectronic

    def test_optoelectronic_default_below_server(self):
        # The paper: optoelectronic routers have *limited* capability.
        assert DEFAULT_OPTOELECTRONIC_CAPACITY.fits_within(
            DEFAULT_SERVER_CAPACITY
        )
        assert (
            DEFAULT_OPTOELECTRONIC_CAPACITY.cpu_cores
            < DEFAULT_SERVER_CAPACITY.cpu_cores
        )


class TestLinkSpec:
    def test_default_bandwidth(self):
        link = LinkSpec(domain=Domain.OPTICAL)
        assert link.bandwidth_gbps == 10.0

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(domain=Domain.ELECTRONIC, bandwidth_gbps=0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(domain=Domain.ELECTRONIC, bandwidth_gbps=-5)
