"""Group-sequential adaptive replica scheduling (§VIII-A budget, early).

Owl's differential phase classically records the paper's full fixed
budget — 100 fixed + 100 random replicas — before analysing anything.
For an unmistakable leak the KS statistic is astronomically significant
after 16 runs, and for a clean program every feature histogram has long
converged; the fixed budget pays the worst case on every campaign.

This module makes the replica budget *sequential*: replicas are recorded
in growing rounds (16 → 32 → 64 → budget by default), each round's
evidence folds incrementally through the associative
:meth:`~repro.core.evidence.Evidence.merge`, and after each round the
vectorized batch tests run over the evidence prefix.  A campaign stops
early when every submitted per-location test is *decided* — confidently
flagged or confidently clean — under a group-sequential alpha-spending
rule; anything near the threshold forces the next round, and the final
round always decides (the full-budget fallback).

Interim looks multiply the false-positive risk, so the per-look efficacy
threshold is not the nominal ``alpha = 1 - confidence`` but an
O'Brien–Fleming-style *spending schedule*: at information fraction
``t = recorded / budget`` a location is confidently flagged only when

    p  <=  alpha_eff(t)  =  2 * (1 - Phi(z_{1 - alpha/2} / t**rho))

which is extremely conservative early (``alpha_eff(0.16) ~ 1e-6`` at the
default 95% confidence) and relaxes to exactly ``alpha`` at ``t = 1``.
``rho`` is ``OwlConfig.adaptive_alpha_spend`` (0.5 reproduces the
classic O'Brien–Fleming ``z / sqrt(t)`` boundary).  Symmetrically, a
location is confidently clean at an interim look only when its p-value
sits above a futility boundary that starts near 0.5 and tightens
linearly to ``alpha`` at the final look.  Everything is pure math on top
of :func:`math.erfc` — no SciPy — mirroring ``chi2_sf`` in
:mod:`repro.analysis.mi.estimator`.

Determinism and resume: a stopping decision is a pure function of the
evidence prefix at a round boundary, and the boundaries themselves are a
pure function of the config.  A resumed campaign therefore never needs a
persisted decision log — evidence recorded *past* a boundary proves a
prior run decided "continue" there, so the resume path fast-forwards
over those rounds and recomputes the one live decision bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: default first-round replica count (per the larger evidence side)
DEFAULT_FIRST_ROUND = 16


# ----------------------------------------------------------------------
# pure-math normal distribution helpers (no SciPy)
# ----------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF by bisection on :func:`normal_cdf`.

    Decision thresholds are computed once per round, so a ~60-iteration
    bisection (exact to double precision) beats carrying a rational
    approximation whose coefficients would need their own validation.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile domain is (0, 1); got {p}")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13:
            break
    return 0.5 * (lo + hi)


def spending_threshold(alpha: float, fraction: float, rho: float) -> float:
    """O'Brien–Fleming-style efficacy p-threshold at information *fraction*.

    ``2 * (1 - Phi(z_{1-alpha/2} / t**rho))``: equals *alpha* at the
    final look and shrinks rapidly for earlier looks, so interim
    flagging costs almost none of the type-I budget.
    """
    if fraction >= 1.0:
        return alpha
    z_final = normal_quantile(1.0 - alpha / 2.0)
    return 2.0 * (1.0 - normal_cdf(z_final / fraction ** rho))


def futility_threshold(alpha: float, fraction: float) -> float:
    """Confident-clean p-threshold at information *fraction*.

    Starts near 0.5 (only emphatically null locations count as clean
    early) and tightens linearly to *alpha* at the final look, where
    "not flagged" and "clean" coincide and every location is decided.
    """
    if fraction >= 1.0:
        return alpha
    return alpha + (0.5 - alpha) * (1.0 - fraction)


# ----------------------------------------------------------------------
# round schedule
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RoundSchedule:
    """Per-round replica boundaries for both evidence sides.

    ``fractions[r]`` is the information fraction of round ``r`` measured
    on the larger side; ``fixed[r]`` / ``random[r]`` are the cumulative
    replica counts each side has recorded once round ``r``'s look runs.
    The final round always lands exactly on the configured budgets.
    """

    fractions: Tuple[float, ...]
    fixed: Tuple[int, ...]
    random: Tuple[int, ...]

    @property
    def num_rounds(self) -> int:
        return len(self.fractions)

    def boundary(self, side: str, round_index: int) -> int:
        return (self.fixed if side == "fixed"
                else self.random)[round_index]


def _base_boundaries(budget: int, rounds, first_round: int) -> List[int]:
    """Boundaries on the larger side: geometric by default."""
    if rounds is None:
        base: List[int] = []
        boundary = min(first_round, budget)
        while boundary < budget:
            base.append(boundary)
            boundary *= 2
        base.append(budget)
        return base
    if isinstance(rounds, int):
        # n looks ending on the budget, halving backwards: b, b/2, b/4, …
        looks = {budget}
        boundary = budget
        for _ in range(rounds - 1):
            boundary = max(2, boundary // 2)
            looks.add(boundary)
        return sorted(looks)
    base = sorted({min(int(b), budget) for b in rounds if int(b) > 0})
    if not base or base[-1] != budget:
        base.append(budget)
    return base


def round_schedule(fixed_runs: int, random_runs: int,
                   rounds=None,
                   first_round: int = DEFAULT_FIRST_ROUND) -> RoundSchedule:
    """Build the group-sequential look schedule for one campaign.

    *rounds* mirrors ``OwlConfig.adaptive_rounds``: ``None`` doubles from
    ``first_round`` to the budget, an int picks that many geometric
    looks, and an explicit sequence gives the boundaries (on the larger
    side) directly.  The smaller side advances at the same information
    fractions, so both sides hit their full budgets together at the
    final look.
    """
    budget = max(fixed_runs, random_runs)
    base = _base_boundaries(budget, rounds, first_round)
    fractions = [b / budget for b in base]
    return RoundSchedule(
        fractions=tuple(fractions),
        fixed=tuple(_side_boundaries(fractions, fixed_runs)),
        random=tuple(_side_boundaries(fractions, random_runs)))


def look_schedule(config, one_look: bool = False) -> RoundSchedule:
    """The phase-3 look schedule of one campaign configuration.

    ``Owl.detect`` and the service scheduler both cut phase 3 here.  A
    classic run — and, with *one_look*, an adaptive run whose completed
    evidence is already stored — is the one-look schedule: both sides go
    straight to their budgets and the single look is final.
    """
    rounds = config.adaptive_rounds
    if one_look or not config.adaptive:
        rounds = (max(config.fixed_runs, config.random_runs),)
    return round_schedule(config.fixed_runs, config.random_runs, rounds)


def _side_boundaries(fractions: Sequence[float], side_budget: int
                     ) -> List[int]:
    bounds = [min(side_budget, max(1, math.ceil(f * side_budget)))
              for f in fractions]
    # never let a *non-final* look complete a side: completion is the
    # final round's save_evidence signal, and a resumed run must be able
    # to tell "stopped here" from "this side was simply small"
    for index in range(len(bounds) - 1):
        bounds[index] = min(bounds[index], max(1, side_budget - 1))
    bounds[-1] = side_budget
    return bounds


# ----------------------------------------------------------------------
# per-round decisions
# ----------------------------------------------------------------------

def classify_results(results, efficacy_p: float, futility_p: float
                     ) -> Tuple[int, int, int]:
    """Split one analyzer's batch-test results into decision buckets.

    Returns ``(flagged, clean, undecided)`` counts.  ``None`` results
    (degenerate features the test could not score) count as clean — the
    full-budget path never flags them either.
    """
    flagged = clean = undecided = 0
    for result in results:
        if result is None:
            clean += 1
        elif result.p_value <= efficacy_p:
            flagged += 1
        elif result.p_value >= futility_p:
            clean += 1
        else:
            undecided += 1
    return flagged, clean, undecided


@dataclass
class RoundDecision:
    """One interim (or final) look: thresholds, buckets, verdict."""

    round_index: int
    fraction: float
    fixed_boundary: int
    random_boundary: int
    efficacy_p: float
    futility_p: float
    tested: int
    flagged: int
    clean: int
    undecided: int
    stop: bool
    final: bool
    analysis_seconds: float = 0.0

    def to_dict(self) -> Dict:
        return {"round": self.round_index,
                "fraction": round(self.fraction, 6),
                "fixed_boundary": self.fixed_boundary,
                "random_boundary": self.random_boundary,
                "efficacy_p": self.efficacy_p,
                "futility_p": self.futility_p,
                "tested": self.tested, "flagged": self.flagged,
                "clean": self.clean, "undecided": self.undecided,
                "stop": self.stop, "final": self.final,
                "analysis_seconds": round(self.analysis_seconds, 6)}


#: why the adaptive phase ended
OUTCOME_EARLY_STOP = "early-stop"
OUTCOME_BUDGET = "budget-exhausted"
OUTCOME_CACHED = "cached-evidence"


@dataclass
class AdaptiveSummary:
    """The stopping story of one adaptive campaign, per side.

    Attached to :class:`~repro.core.pipeline.OwlResult` and emitted under
    the ``adaptive`` key of ``--profile`` JSON, so a report's replica
    counts are self-explaining.
    """

    fixed_budget: int
    random_budget: int
    fixed_recorded: int = 0
    random_recorded: int = 0
    rounds: List[RoundDecision] = field(default_factory=list)
    outcome: str = OUTCOME_BUDGET

    @property
    def rounds_executed(self) -> int:
        return len(self.rounds)

    @property
    def stopped_early(self) -> bool:
        return self.outcome == OUTCOME_EARLY_STOP

    @property
    def replicas_saved(self) -> int:
        return ((self.fixed_budget - self.fixed_recorded)
                + (self.random_budget - self.random_recorded))

    def side_decision(self, side: str) -> Dict:
        """Per-side stopping decision (budget vs recorded vs saved)."""
        budget = self.fixed_budget if side == "fixed" else self.random_budget
        recorded = (self.fixed_recorded if side == "fixed"
                    else self.random_recorded)
        return {"side": side, "budget": budget, "recorded": recorded,
                "saved": budget - recorded, "outcome": self.outcome}

    def to_dict(self) -> Dict:
        return {"outcome": self.outcome,
                "rounds_executed": self.rounds_executed,
                "replicas_saved": self.replicas_saved,
                "fixed": self.side_decision("fixed"),
                "random": self.side_decision("random"),
                "rounds": [decision.to_dict() for decision in self.rounds]}


def evaluate_round(analyzers, rep_evidences, random_evidence, *,
                   program_name: str, alpha: float, rho: float,
                   schedule: RoundSchedule, round_index: int):
    """Analyse one round's evidence prefix and decide stop-vs-continue.

    Runs the deferred fold + every analyzer's batched test over each
    representative's (fixed prefix, random prefix) pair — the identical
    machinery the final report uses — then classifies every submitted
    per-location result against the round's spending thresholds.

    Returns ``(rep_reports, decision)`` where ``rep_reports[i]`` is the
    per-analyzer report list for representative ``i``.  The verdict is a
    pure function of the evidence prefixes, which is what makes adaptive
    campaigns store-resumable without any persisted decision log: any
    process that reaches the same boundary recomputes the same decision.

    Definite (structural) leaks carry no p-value and never block
    stopping; the final round always stops.  Interim stopping starts at
    the *second* look so a single noisy-but-lucky first round can't end
    a campaign on its own.
    """
    from repro.analysis.multi import deferred_analysis

    fraction = schedule.fractions[round_index]
    final = round_index == schedule.num_rounds - 1
    efficacy_p = spending_threshold(alpha, fraction, rho)
    futility_p = futility_threshold(alpha, fraction)
    rep_reports = []
    tested = flagged = clean = undecided = 0
    for fixed_evidence in rep_evidences:
        reports, raw_results = deferred_analysis(
            analyzers, fixed_evidence, random_evidence, program_name)
        rep_reports.append(reports)
        for results in raw_results:
            counts = classify_results(results, efficacy_p, futility_p)
            flagged += counts[0]
            clean += counts[1]
            undecided += counts[2]
            tested += len(results)
    stop = final or (round_index >= 1 and undecided == 0)
    decision = RoundDecision(
        round_index=round_index, fraction=fraction,
        fixed_boundary=schedule.fixed[round_index],
        random_boundary=schedule.random[round_index],
        efficacy_p=efficacy_p, futility_p=futility_p,
        tested=tested, flagged=flagged, clean=clean, undecided=undecided,
        stop=stop, final=final)
    return rep_reports, decision


def validate_adaptive_rounds(rounds) -> Optional[Tuple[int, ...]]:
    """Normalize/validate an ``adaptive_rounds`` config value.

    Returns ``None``, or a tuple of boundaries, or raises ConfigError.
    An int is passed through as-is (count of looks); a sequence is
    normalized to a sorted tuple of distinct positive ints so the value
    fingerprints canonically after a JSON round-trip.
    """
    if rounds is None:
        return None
    if isinstance(rounds, bool):
        raise ConfigError("adaptive_rounds must be an int count, a "
                          "sequence of boundaries, or None")
    if isinstance(rounds, int):
        if rounds < 2:
            raise ConfigError(
                f"adaptive_rounds must be >= 2 looks, got {rounds} "
                f"(a single look is just the full-budget run)")
        return rounds
    try:
        boundaries = tuple(sorted({int(b) for b in rounds}))
    except (TypeError, ValueError):
        raise ConfigError("adaptive_rounds must be an int count, a "
                          "sequence of boundaries, or None")
    if not boundaries or any(b < 1 for b in boundaries):
        raise ConfigError(
            f"adaptive_rounds boundaries must be positive ints, got "
            f"{rounds!r}")
    return boundaries
