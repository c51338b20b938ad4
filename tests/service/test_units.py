"""WorkUnit model: round-trip, builders, chunking arithmetic."""

from repro.service.units import (
    KIND_EVIDENCE, KIND_FOLD, KIND_PLAN, KIND_REPORT, KIND_TRACE, WorkUnit,
    fold_unit, plan_unit, report_unit, round_chunk_offsets,
    round_evidence_units, trace_units)

SPEC = {"workload": "dummy", "config": {"fixed_runs": 10}}


class TestRoundTrip:
    def test_dict_round_trip(self):
        unit = WorkUnit(uid="c1.trace.0001", kind=KIND_TRACE, campaign="c1",
                        spec=SPEC, params={"index": 1}, attempts=2)
        again = WorkUnit.from_dict(unit.to_dict())
        assert again == unit

    def test_defaults(self):
        unit = WorkUnit.from_dict({"uid": "u", "kind": KIND_PLAN,
                                   "campaign": "c"})
        assert unit.spec == {} and unit.params == {} and unit.attempts == 0


class TestBuilders:
    def test_trace_units_one_per_input(self):
        units = trace_units("c1", SPEC, 3)
        assert [u.uid for u in units] == [
            "c1.trace.0000", "c1.trace.0001", "c1.trace.0002"]
        assert all(u.kind == KIND_TRACE and u.campaign == "c1"
                   for u in units)
        assert [u.params["index"] for u in units] == [0, 1, 2]

    def test_plan_and_report_units(self):
        plan = plan_unit("c1", SPEC, 2)
        assert plan.uid == "c1.plan" and plan.kind == KIND_PLAN
        report = report_unit("c1", SPEC, 2)
        assert report.uid == "c1.report" and report.kind == KIND_REPORT

    def test_evidence_units_cover_all_runs_exactly(self):
        # a classic campaign's one look at the budget
        units = round_evidence_units("c1", SPEC, "fixed", 0, (25,), 0,
                                     unit_runs=10)
        spans = [(u.params["start"], u.params["stop"]) for u in units]
        assert spans == [(0, 10), (10, 20), (20, 25)]
        assert [u.params["chunk"] for u in units] == [0, 1, 2]
        assert all(u.kind == KIND_EVIDENCE for u in units)

    def test_evidence_units_single_chunk_when_unit_runs_exceeds(self):
        units = round_evidence_units("c1", SPEC, "random", -1, (4,), 0,
                                     unit_runs=100)
        assert len(units) == 1
        assert (units[0].params["start"], units[0].params["stop"]) == (0, 4)
        assert units[0].params["rep_index"] == -1

    def test_evidence_units_never_span_a_look(self):
        boundaries = (16, 32, 60)
        units = [unit for look in range(3)
                 for unit in round_evidence_units(
                     "c1", SPEC, "fixed", 0, boundaries, look,
                     unit_runs=10)]
        spans = [(u.params["start"], u.params["stop"]) for u in units]
        assert spans == [(0, 10), (10, 16), (16, 26), (26, 32), (32, 42),
                         (42, 52), (52, 60)]
        # chunk ordinals continue across looks
        assert [u.params["chunk"] for u in units] == list(range(7))
        assert round_chunk_offsets(boundaries, 10) == [0, 2, 4, 7]

    def test_fold_unit_names_side_and_rep(self):
        unit = fold_unit("c1", SPEC, "fixed", 2, num_chunks=3)
        assert unit.uid == "c1.fold.fixed.2"
        assert unit.kind == KIND_FOLD
        assert unit.params == {"side": "fixed", "rep_index": 2,
                               "num_chunks": 3}
