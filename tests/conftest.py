import pytest
from hypothesis import HealthCheck, settings

from ringlab import direct_product, group_ring, ideal_generated, make_zmod, quotient_ring
from ringlab.expr import evaluate
from ringlab.sweep import SweepConfig, group_catalog, ring_catalog

settings.register_profile(
    "ringlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ringlab")


@pytest.fixture(scope="session")
def plain_ring_catalog():
    """Over 50 plain rings of order <= 64: Z_n, products and quotients."""
    rings = [make_zmod(n) for n in range(2, 33)]
    for a in range(2, 9):
        for b in range(a, 64 // a + 1):
            rings.append(direct_product(make_zmod(a), make_zmod(b)))
    for parent_order, gen in ((12, 6), (16, 8), (18, 6), (27, 9), (32, 4)):
        parent = make_zmod(parent_order)
        rings.append(quotient_ring(parent, ideal_generated(parent, {gen}))[0])
    z4z9 = direct_product(make_zmod(4), make_zmod(9))
    rings.append(quotient_ring(z4z9, ideal_generated(z4z9, {2 * 9 + 3}))[0])  # by ((2,3))
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
