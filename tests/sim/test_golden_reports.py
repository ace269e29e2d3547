"""The golden fixture and its cases stay in step.

Each case is asserted by the parity test it came from (see
:mod:`tests.sim.goldens`); this module pins the fixture itself.
"""

from tests.sim.goldens import golden_fixture


def test_fixture_covers_every_case():
    cases, crcs, chaos_examples = golden_fixture()
    assert set(crcs) == set(cases)
    assert len(chaos_examples) == 40
