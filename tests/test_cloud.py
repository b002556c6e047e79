"""Unit tests for the cloud instance catalog and pricing substrate.

Pool prices are checked through :meth:`PoolConfiguration.hourly_cost` and
the :class:`SearchSpace` price vector behind the Eq. 2 normalization.
"""

import pytest

from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog, get_instance
from repro.cloud.instance_types import InstanceCategory, InstanceSpec
from repro.cloud.pricing import cost_effectiveness
from repro.core.search_space import SearchSpace
from repro.simulator.pool import PoolConfiguration


def spec(**overrides) -> InstanceSpec:
    base = dict(
        name="x1.large",
        family="x1",
        size="large",
        category=InstanceCategory.GENERAL_PURPOSE,
        vcpus=2,
        memory_gib=8.0,
        price_per_hour=0.10,
    )
    base.update(overrides)
    return InstanceSpec(**base)


class TestInstanceSpec:
    def test_basic_construction(self):
        s = spec()
        assert s.name == "x1.large"
        assert s.price_per_hour == 0.10

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError, match="price_per_hour"):
            spec(price_per_hour=0.0)

    def test_nonpositive_vcpus_rejected(self):
        with pytest.raises(ValueError, match="vcpus"):
            spec(vcpus=0)

    def test_nonpositive_memory_rejected(self):
        with pytest.raises(ValueError, match="memory_gib"):
            spec(memory_gib=0.0)

    def test_name_family_size_consistency(self):
        with pytest.raises(ValueError, match="does not match"):
            spec(name="y1.large")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            spec().price_per_hour = 1.0


class TestDefaultCatalog:
    def test_contains_all_table2_families(self):
        assert set(DEFAULT_CATALOG.families) == {
            "t3", "m5", "m5n", "c5", "c5a", "r5", "r5n", "g4dn",
        }

    def test_g4dn_is_the_only_gpu(self):
        gpus = [f for f in DEFAULT_CATALOG if DEFAULT_CATALOG[f].gpu]
        assert gpus == ["g4dn"]

    def test_g4dn_is_most_expensive(self):
        priciest = max(DEFAULT_CATALOG.values(), key=lambda s: s.price_per_hour)
        assert priciest.family == "g4dn"

    def test_r5_is_cheapest(self):
        assert DEFAULT_CATALOG.cheapest().family == "r5"

    def test_categories_match_table2(self):
        cat = DEFAULT_CATALOG
        assert cat["c5"].category is InstanceCategory.COMPUTE_OPTIMIZED
        assert cat["c5a"].category is InstanceCategory.COMPUTE_OPTIMIZED
        assert cat["r5"].category is InstanceCategory.MEMORY_OPTIMIZED
        assert cat["t3"].category is InstanceCategory.GENERAL_PURPOSE
        assert cat["g4dn"].category is InstanceCategory.ACCELERATOR

    def test_by_category(self):
        general = {
            f
            for f, s in DEFAULT_CATALOG.items()
            if s.category is InstanceCategory.GENERAL_PURPOSE
        }
        assert general == {"t3", "m5", "m5n"}

    def test_unknown_family_raises_with_known_list(self):
        with pytest.raises(KeyError, match="known families"):
            DEFAULT_CATALOG["p3"]

    def test_get_instance_helper(self):
        assert get_instance("g4dn").name == "g4dn.xlarge"

    def test_price_vector_order(self):
        prices = SearchSpace(("g4dn", "t3"), (1, 1)).prices
        assert prices.tolist() == [
            DEFAULT_CATALOG["g4dn"].price_per_hour,
            DEFAULT_CATALOG["t3"].price_per_hour,
        ]

    def test_mapping_protocol(self):
        assert len(DEFAULT_CATALOG) == 8
        assert "g4dn" in DEFAULT_CATALOG


class TestCatalogConstruction:
    def test_duplicate_family_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            InstanceCatalog([spec(), spec()])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            InstanceCatalog([])


class TestPricing:
    def test_cost_effectiveness_eq1(self):
        # 100 QPS at $0.5/hr -> 3600 * 100 / 0.5 = 720000 queries per dollar.
        assert cost_effectiveness(100.0, 0.5) == pytest.approx(720_000.0)

    def test_cost_effectiveness_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cost_effectiveness(-1.0, 0.5)
        with pytest.raises(ValueError):
            cost_effectiveness(1.0, 0.0)

    def test_hourly_pool_cost(self):
        cost = PoolConfiguration(("g4dn", "t3"), (2, 3)).hourly_cost()
        expected = 2 * 0.526 + 3 * 0.1664
        assert cost == pytest.approx(expected)
        # Fig. 4's two homogeneous pools: $2.63/hr and $2.00/hr.
        assert PoolConfiguration.homogeneous("g4dn", 5).hourly_cost() == pytest.approx(2.63)
        assert PoolConfiguration.homogeneous("t3", 12).hourly_cost() == pytest.approx(
            2.00, abs=0.005
        )

    def test_hourly_pool_cost_zero_counts_ok(self):
        assert PoolConfiguration(("g4dn",), (0,)).hourly_cost() == 0.0

    def test_hourly_pool_cost_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            PoolConfiguration(("g4dn",), (-1,))

    def test_normalized_cost_bounds(self):
        # The sum p_i x_i / sum p_i m_i term of Eq. 2.
        space = SearchSpace(("g4dn", "t3"), (5, 12))
        assert space.cost((0, 0)) / space.max_cost == 0.0
        assert space.cost(space.bounds) / space.max_cost == pytest.approx(1.0)
        mid = space.cost((2, 6)) / space.max_cost
        assert 0.0 < mid < 1.0

    def test_normalized_cost_empty_bounds_rejected(self):
        # A zero bound would give a zero-cost denominator; the space refuses it.
        with pytest.raises(ValueError, match=">= 1"):
            SearchSpace(("g4dn",), (0,))
