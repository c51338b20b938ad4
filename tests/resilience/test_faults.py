"""Fault plans: parsing, matching, activation scoping."""

import pytest

from repro.resilience import FaultError, FaultPlan, FaultSpec
from repro.resilience.faults import (
    activated,
    cohort_violation_for,
    replica_violation_for,
)


class TestParsing:
    def test_bare_kind(self):
        spec = FaultSpec.parse("cohort_violation")
        assert spec.kind == "cohort_violation"
        assert spec.params == ()

    def test_kind_with_params(self):
        spec = FaultSpec.parse("worker_crash:chunk=1:attempts=2")
        assert spec.kind == "worker_crash"
        assert spec.get("chunk") == 1
        assert spec.get("attempts") == 2

    def test_scalar_coercion(self):
        spec = FaultSpec.parse("chunk_timeout:sleep=0.25:flag=true:name=x")
        assert spec.get("sleep") == 0.25
        assert spec.get("flag") is True
        assert spec.get("name") == "x"

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="valid kinds"):
            FaultSpec.parse("disk_full")

    def test_malformed_param_rejected(self):
        with pytest.raises(FaultError, match="key=value"):
            FaultSpec.parse("worker_crash:chunk")

    def test_plan_parses_comma_separated_list(self):
        plan = FaultPlan.parse("worker_crash:chunk=1,cohort_violation")
        assert [spec.kind for spec in plan.faults] == [
            "worker_crash", "cohort_violation"]

    def test_plan_parses_sequence_of_specs(self):
        plan = FaultPlan.parse(["worker_crash:chunk=0", "blob_corruption"])
        assert len(plan.faults) == 2

    def test_render_round_trips(self):
        text = "worker_crash:chunk=1:attempts=2,chunk_timeout:sleep=0.5"
        assert FaultPlan.parse(text).render() == text


class TestCoerce:
    def test_none_passthrough(self):
        assert FaultPlan.coerce(None) is None

    def test_plan_passthrough(self):
        plan = FaultPlan.parse("cohort_violation")
        assert FaultPlan.coerce(plan) is plan

    def test_string_form(self):
        assert FaultPlan.coerce("cohort_violation").faults[0].kind == \
            "cohort_violation"

    def test_manifest_dict_form(self):
        import dataclasses
        import json
        plan = FaultPlan.parse("worker_crash:chunk=1")
        round_tripped = json.loads(json.dumps(dataclasses.asdict(plan)))
        assert FaultPlan.coerce(round_tripped) == plan

    def test_unsupported_type_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.coerce(42)


class TestMatching:
    def test_absent_param_matches_everything(self):
        spec = FaultSpec.parse("cohort_violation")
        assert spec.matches("launch", 0)
        assert spec.matches("launch", 99)

    def test_present_param_matches_exactly(self):
        spec = FaultSpec.parse("cohort_violation:launch=2")
        assert spec.matches("launch", 2)
        assert not spec.matches("launch", 3)


class TestActivation:
    def test_no_context_means_no_faults(self):
        assert cohort_violation_for(0) is None
        assert replica_violation_for(0) is None

    def test_activated_scopes_the_plan(self):
        plan = FaultPlan.parse("cohort_violation:launch=1")
        with activated(plan):
            assert cohort_violation_for(1) is not None
            assert cohort_violation_for(0) is None
        assert cohort_violation_for(1) is None

    def test_none_plan_is_a_no_op(self):
        with activated(None):
            assert cohort_violation_for(0) is None

    def test_replica_violation_matches_launch(self):
        plan = FaultPlan.parse("replica_violation:launch=1")
        with activated(plan):
            assert replica_violation_for(1) is not None
            assert replica_violation_for(0) is None

    def test_worker_directed_faults_skip_in_process_context(self):
        """worker_crash must never fire outside a real pool worker —
        otherwise the in-process degradation rung would kill the parent."""
        from repro.resilience.faults import maybe_fail_chunk
        plan = FaultPlan.parse("worker_crash:chunk=0")
        with activated(plan, chunk_index=0, attempt=0, in_worker=False):
            maybe_fail_chunk()  # would os._exit the test process if broken
