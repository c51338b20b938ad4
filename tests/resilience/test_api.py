"""The public surface: keyword-only APIs, config coercion (including
stored configs that carry retired fields), and fingerprint neutrality of
resilience knobs."""

import dataclasses
import json

import pytest

from repro.apps import dummy
from repro.core.pipeline import Owl, OwlConfig
from repro.errors import ConfigError
from repro.resilience import FaultPlan, RetryPolicy
from repro.store import TraceStore
from repro.store.fingerprint import (
    analysis_fingerprint,
    evidence_fingerprint,
    trace_fingerprint,
)

TINY = dict(fixed_runs=2, random_runs=2, seed=11)


def make_owl(**overrides):
    return Owl(dummy.dummy_program, name="dummy",
               config=OwlConfig(**{**TINY, **overrides}))


class TestDetectKeywordOnly:
    def test_keyword_call_is_warning_free(self, recwarn):
        result = make_owl().detect(inputs=[dummy.fixed_input()],
                                   random_input=dummy.random_input)
        assert result.report is not None
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_positional_random_input_is_a_type_error(self):
        with pytest.raises(TypeError):
            make_owl().detect([dummy.fixed_input()], dummy.random_input)

    def test_missing_random_input_is_a_type_error(self):
        with pytest.raises(TypeError, match="random_input"):
            make_owl().detect(inputs=[dummy.fixed_input()])

    def test_too_many_positionals_is_a_type_error(self):
        with pytest.raises(TypeError):
            make_owl().detect([dummy.fixed_input()], dummy.random_input,
                              None, True, "extra")


class TestTraceStoreKeywordOnly:
    def test_positional_create_is_a_type_error(self, tmp_path):
        with pytest.raises(TypeError):
            TraceStore(tmp_path / "s", True)

    def test_keyword_create_is_warning_free(self, tmp_path, recwarn):
        TraceStore(tmp_path / "s", create=True)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_extra_positionals_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            TraceStore(tmp_path / "s", True, "extra")


class TestConfigCoercion:
    RETIRED = dict(vectorized=False, columnar=False, cohort=False,
                   replica_batch=False)

    def test_stored_config_drops_retired_fields(self):
        """A manifest or queued unit written when OwlConfig still had the
        engine-selection fields rebuilds to the current config."""
        data = dict(dataclasses.asdict(OwlConfig(**TINY)), **self.RETIRED)
        assert OwlConfig.from_dict(data) == OwlConfig(**TINY)

    @pytest.mark.parametrize("key", sorted(RETIRED))
    def test_client_config_naming_a_retired_field_is_rejected(self, key):
        with pytest.raises(ConfigError, match=repr(key)):
            OwlConfig.from_dict({key: False}, stored=False)

    def test_unknown_stored_field_is_a_config_error(self):
        with pytest.raises(ConfigError, match="'bogus'"):
            OwlConfig.from_dict({"bogus": 1})

    def test_retry_dict_coerced_to_policy(self):
        config = OwlConfig(retry={"max_attempts": 5})
        assert isinstance(config.retry, RetryPolicy)
        assert config.retry.max_attempts == 5

    def test_fault_plan_string_coerced(self):
        config = OwlConfig(fault_plan="cohort_violation:launch=2")
        assert isinstance(config.fault_plan, FaultPlan)
        assert config.fault_plan.faults[0].kind == "cohort_violation"

    def test_manifest_json_round_trip(self):
        """Campaign manifests persist configs via asdict + JSON; the
        round-tripped dict form must rebuild the same config."""
        config = OwlConfig(retry=RetryPolicy(max_attempts=4),
                           fault_plan=FaultPlan.parse("worker_crash:chunk=1"),
                           cohort_step_budget=500, **TINY)
        data = json.loads(json.dumps(dataclasses.asdict(config)))
        rebuilt = OwlConfig(**data)
        assert rebuilt == config

    def test_invalid_retry_dict_is_a_config_error(self):
        with pytest.raises(ConfigError):
            OwlConfig(retry={"max_attempts": 0})

    def test_invalid_step_budget_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cohort_step_budget"):
            OwlConfig(cohort_step_budget=0)

    def test_step_budget_reaches_the_device(self):
        owl = make_owl(cohort_step_budget=123456)
        assert owl.device_config.cohort_step_budget == 123456


class TestFingerprintNeutrality:
    def test_resilience_knobs_do_not_change_any_fingerprint(self):
        """Degraded paths are bit-identical, so retry / fault_plan /
        cohort_step_budget must not invalidate stored artifacts."""
        from repro.gpusim import DeviceConfig
        base = OwlConfig(**TINY)
        variant = dataclasses.replace(
            base, retry=RetryPolicy(max_attempts=9),
            fault_plan=FaultPlan.parse("cohort_violation"),
            cohort_step_budget=77)
        base_device = DeviceConfig()
        variant_device = DeviceConfig(cohort_step_budget=77)
        for fingerprint in (trace_fingerprint, evidence_fingerprint,
                            analysis_fingerprint):
            assert fingerprint(base, base_device) == \
                fingerprint(variant, variant_device)
