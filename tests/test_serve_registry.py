"""Model-registry tests: catalog loading, files, budgets, digests."""

import pytest

from repro.engine import SpplModel
from repro.serve import ModelRegistry
from repro.serve import RegistryError
from repro.spe import spe_digest


class TestCatalog:
    def test_hmm_pattern(self):
        registry = ModelRegistry()
        registered = registry.register_catalog("hmm3")
        assert "X[2]" in registered.model.variables
        assert registry.names() == ["hmm3"]

    def test_named_catalog_models(self):
        registry = ModelRegistry()
        registered = registry.register_catalog("indian_gpa")
        assert "GPA" in registered.model.variables

    def test_unknown_catalog_name(self):
        registry = ModelRegistry()
        with pytest.raises(RegistryError, match="Unknown catalog model"):
            registry.register_catalog("nope")

    def test_registry_error_message_is_unquoted(self):
        # RegistryError subclasses KeyError but must render like ValueError.
        assert str(RegistryError("plain message")) == "plain message"


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = ModelRegistry()
        registry.register_catalog("indian_gpa")
        with pytest.raises(RegistryError, match="already registered"):
            registry.register_catalog("indian_gpa")

    def test_non_model_rejected(self):
        registry = ModelRegistry()
        with pytest.raises(TypeError):
            registry.register("x", object())

    def test_cache_budget_applied(self):
        registry = ModelRegistry(default_cache_size=123)
        registered = registry.register_catalog("indian_gpa")
        assert registered.model.cache.max_entries == 123
        assert registered.cache_size == 123

    @pytest.mark.parametrize("plan", ["off", "validated"])
    def test_plan_keyword_accepted_and_not_stored(self, plan):
        """``plan`` survives only as a keyword for older callers: both
        accepted values serve the one query path and reach no model."""
        registry = ModelRegistry(plan=plan)
        registered = registry.register_catalog("noisy_or")
        assert not hasattr(registry, "plan")
        assert not hasattr(registered, "plan")
        assert "plan" not in registry.describe()["noisy_or"]
        assert "plan" not in registered.model.cache_stats()

    def test_plan_keyword_rejects_other_modes(self):
        with pytest.raises(ValueError):
            ModelRegistry(plan="all")

    def test_per_model_budget_overrides_default(self):
        registry = ModelRegistry(default_cache_size=100)
        registered = registry.register_catalog("indian_gpa", cache_size=7)
        assert registered.model.cache.max_entries == 7

    def test_register_file_round_trips(self, tmp_path):
        from repro.workloads import indian_gpa

        model = indian_gpa.model()
        path = tmp_path / "gpa_model.json"
        model.save(path)
        registry = ModelRegistry()
        registered = registry.register_file(path)
        assert registered.name == "gpa_model"
        assert registered.model.logprob("GPA > 3") == model.logprob("GPA > 3")
        assert registered.digest == spe_digest(model.spe)

    def test_register_file_with_explicit_name(self, tmp_path):
        from repro.workloads import indian_gpa

        path = tmp_path / "anything.json"
        indian_gpa.model().save(path)
        registry = ModelRegistry()
        assert registry.register_file(path, name="gpa").name == "gpa"


class TestLookup:
    def test_get_unknown_lists_registered(self):
        registry = ModelRegistry()
        registry.register_catalog("indian_gpa")
        with pytest.raises(RegistryError, match="indian_gpa"):
            registry.get("missing")

    def test_describe_and_payload(self):
        registry = ModelRegistry(default_cache_size=99)
        registered = registry.register_catalog("indian_gpa")
        description = registry.describe()["indian_gpa"]
        assert description["nodes"] == registered.model.size()
        assert description["digest"] == registered.digest
        assert description["cache_max_entries"] == 99
        # The payload is the exact serialized form workers deserialize.
        reloaded = SpplModel.from_json(registered.payload)
        assert spe_digest(reloaded.spe) == registered.digest
