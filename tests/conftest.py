import pytest
from hypothesis import HealthCheck, settings

import util
from ringlab import direct_product, group_ring, ideal_generated, make_zmod, quotient_ring
from ringlab.expr import evaluate
from ringlab.sweep import SweepConfig, group_catalog, ring_catalog

settings.register_profile(
    "ringlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ringlab")


def _checked_quotient(ring, gens):
    """R/(gens), after checking the coset projection onto it is a hom."""
    ideal = ideal_generated(ring, gens)
    quot = quotient_ring(ring, ideal)
    util.coset_projection(ring, ideal, quot)
    return quot


@pytest.fixture(scope="session")
def plain_ring_catalog():
    """Over 50 plain rings of order <= 64: Z_n, products and quotients."""
    rings = [make_zmod(n) for n in range(2, 33)]
    for a in range(2, 9):
        for b in range(a, 64 // a + 1):
            rings.append(direct_product(make_zmod(a), make_zmod(b)))
    for parent_order, gen in ((12, 6), (16, 8), (18, 6), (27, 9), (32, 4)):
        parent = make_zmod(parent_order)
        rings.append(_checked_quotient(parent, {gen}))
    z4z9 = direct_product(make_zmod(4), make_zmod(9))
    rings.append(_checked_quotient(z4z9, {2 * 9 + 3}))  # by ((2,3))
    assert len(rings) >= 50
    assert all(r.order <= 64 for r in rings)
    return rings


@pytest.fixture(scope="session")
def sweep_group_rings():
    """The 53 group rings RG of the default ``verify-theorem`` sweep."""
    config = SweepConfig()
    views = []
    for expr in ring_catalog(config):
        base = evaluate(expr)
        for group in group_catalog(config.max_group_order):
            if base.order**group.order <= config.max_groupring_order:
                views.append(group_ring(base, group))
    assert len(views) == 53
    return views
