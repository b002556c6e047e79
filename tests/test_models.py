"""Unit tests for model profiles and the Table 1 zoo."""

import dataclasses

import numpy as np
import pytest

from repro.models.base import LatencyProfile, ModelCategory
from repro.models.zoo import MODEL_ZOO, MT_WND, RESNET50, get_model
from tests.conftest import make_toy_model


class TestLatencyProfile:
    def test_affine_evaluation(self):
        lp = LatencyProfile(2.0, 0.5)
        assert lp.latency_ms(10) == pytest.approx(7.0)

    def test_vectorized_evaluation(self):
        lp = LatencyProfile(1.0, 1.0)
        out = lp.latency_ms(np.array([1, 2, 3]))
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0])

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LatencyProfile(-1.0, 0.1)
        with pytest.raises(ValueError):
            LatencyProfile(1.0, -0.1)


class TestModelProfile:
    def test_latency_lookup(self, toy_model):
        assert float(toy_model.latency_ms("g4dn", 100)) == pytest.approx(7.0)

    def test_service_time_seconds(self, toy_model):
        assert float(toy_model.service_time_s("g4dn", 100)) == pytest.approx(0.007)

    def test_unknown_family_raises_helpfully(self, toy_model):
        with pytest.raises(KeyError, match="profiled families"):
            toy_model.latency_ms("p3", 10)

    def test_throughput_is_reciprocal_of_latency(self, toy_model):
        lat_s = float(toy_model.service_time_s("t3", 64))
        assert toy_model.throughput_qps("t3", 64) == pytest.approx(1.0 / lat_s)

    def test_cost_effectiveness_uses_eq1(self, toy_model):
        ce = toy_model.cost_effectiveness("t3", 64)
        qps = toy_model.throughput_qps("t3", 64)
        assert ce == pytest.approx(3600.0 * qps / 0.1664)

    def test_mean_batch_lognormal_formula(self, toy_model):
        expected = 30.0 * np.exp(0.8**2 / 2.0)
        assert toy_model.mean_batch() == pytest.approx(expected)

    def test_relaxed_qos_default_30_percent(self, toy_model):
        assert toy_model.relaxed_qos_ms() == pytest.approx(26.0)

    def test_relaxed_qos_rejects_negative(self, toy_model):
        with pytest.raises(ValueError):
            toy_model.relaxed_qos_ms(-0.1)

    def test_noise_sigma_scalar_and_mapping(self):
        m1 = make_toy_model(noise=0.1)
        assert m1.noise_sigma_for("g4dn") == pytest.approx(0.1)
        m2 = make_toy_model(noise={"g4dn": 0.2})
        assert m2.noise_sigma_for("g4dn") == pytest.approx(0.2)
        assert m2.noise_sigma_for("t3") == 0.0

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            make_toy_model(noise=-0.1)
        with pytest.raises(ValueError, match="noise_sigma"):
            make_toy_model(noise={"g4dn": -0.1})

    def test_homogeneous_family_must_have_profile(self, toy_model):
        with pytest.raises(ValueError, match="has no profile"):
            dataclasses.replace(toy_model, homogeneous_family="m5")

    def test_diverse_pool_must_have_profiles(self, toy_model):
        with pytest.raises(ValueError, match="has no profile"):
            dataclasses.replace(toy_model, diverse_pool=("g4dn", "m5"))

    def test_invalid_scalars_rejected(self, toy_model):
        with pytest.raises(ValueError):
            dataclasses.replace(toy_model, qos_target_ms=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(toy_model, arrival_rate_qps=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(toy_model, max_batch=0)

    def test_profiled_families(self, toy_model):
        assert set(toy_model.profiled_families()) == {"g4dn", "t3", "c5"}


class TestModelZoo:
    def test_zoo_has_all_five_table1_models(self):
        assert set(MODEL_ZOO) == {"CANDLE", "ResNet50", "VGG19", "MT-WND", "DIEN"}

    def test_qos_targets_match_section_5_1(self):
        targets = {name: m.qos_target_ms for name, m in MODEL_ZOO.items()}
        assert targets == {
            "CANDLE": 40.0,
            "ResNet50": 400.0,
            "VGG19": 800.0,
            "MT-WND": 20.0,
            "DIEN": 30.0,
        }

    def test_table3_pool_composition(self):
        for name in ("CANDLE", "ResNet50", "VGG19"):
            m = MODEL_ZOO[name]
            assert m.homogeneous_family == "c5a"
            assert m.diverse_pool == ("c5a", "m5", "t3")
        for name in ("MT-WND", "DIEN"):
            m = MODEL_ZOO[name]
            assert m.homogeneous_family == "g4dn"
            assert m.diverse_pool == ("g4dn", "c5", "r5n")

    def test_categories(self):
        assert MODEL_ZOO["MT-WND"].category is ModelCategory.RECOMMENDATION
        assert MODEL_ZOO["DIEN"].category is ModelCategory.RECOMMENDATION
        assert MODEL_ZOO["CANDLE"].category is ModelCategory.GENERAL

    def test_every_model_profiles_all_catalog_families(self):
        for m in MODEL_ZOO.values():
            assert set(m.profiled_families()) == set(m.catalog.families)

    def test_get_model_case_insensitive(self):
        assert get_model("mt-wnd") is MT_WND
        assert get_model("RESNET50") is RESNET50

    def test_get_model_unknown(self):
        with pytest.raises(KeyError, match="known models"):
            get_model("bert")

    def test_largest_query_on_g4dn_fits_in_qos(self):
        # Sec. 5.1: targets were chosen so the best instance can satisfy them.
        for m in MODEL_ZOO.values():
            worst = float(m.latency_ms("g4dn", m.max_batch))
            assert worst < m.qos_target_ms
