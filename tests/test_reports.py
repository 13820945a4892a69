"""Every solver's witness must replay through the tally to its reported winner,
and every report keeps its statistics small."""

import dataclasses
import tracemalloc

import pytest

from conftest import ALL_TO_P_21, BAIT_ATTACK_51, build_example21, build_example51, random_instance
from recountgame import (
    District,
    gen_partition_pv_recreg,
    greedy_recount,
    man_decide_brute,
    man_pd_regular,
    rec_decide_brute,
    rec_decide_dp,
    rec_optimize,
    rec_pd_unweighted,
    tally,
    verify_regular_attack,
)


def _check(election, report):
    if report.recount is None or report.winner is None:
        return
    replayed = tally(election, report.manipulation, report.recount.indices)
    assert replayed.winner == report.winner, report.algorithm
    assert len(report.recount) <= election.budget_defender, report.algorithm


def test_recount_reports_replay():
    for seed in range(60):
        election, manipulation = random_instance(seed + 80_000)
        reports = [rec_optimize(election, manipulation), greedy_recount(election, manipulation)]
        for target in range(election.num_candidates):
            reports.append(rec_decide_brute(election, manipulation, target))
            reports.append(rec_decide_dp(election, manipulation, target))
        for report in reports:
            _check(election, report)


def test_unweighted_pd_reports_replay():
    for seed in range(40):
        election, manipulation = random_instance(seed + 81_000, rule="PD", w_max=1)
        for target in range(election.num_candidates):
            _check(election, rec_pd_unweighted(election, manipulation, target))


def test_attacker_reports_replay():
    for seed in range(40):
        election, _ = random_instance(seed + 82_000, max_k=4, n_max=4)
        for report in (
            man_decide_brute(election),
            man_decide_brute(election, regular=True),
            man_pd_regular(election) if election.rule == "PD" else None,
        ):
            if report is None or not report.decision:
                continue
            _check(election, report)
            # a winning attack still wins after the true optimal response
            assert rec_optimize(election, report.manipulation).winner == election.preferred


def _unit_pd(election):
    districts = tuple(dataclasses.replace(d, weight=1) for d in election.districts)
    return dataclasses.replace(election, rule="PD", districts=districts)


PV, PD, E51 = build_example21("PV"), build_example21("PD"), build_example51()
NO_RECOUNT_PV = dataclasses.replace(PV, budget_defender=0)
BASE_STATS = {"explored": int, "runtime_ms": float}

# Every engine, with the keys and value types of its ``stats``.
ENGINE_STATS = {
    "rec_decide_brute": (lambda: rec_decide_brute(PV, ALL_TO_P_21, 0), BASE_STATS),
    "rec_decide_dp": (lambda: rec_decide_dp(PV, ALL_TO_P_21, 0), BASE_STATS),
    "rec_pd_unweighted": (lambda: rec_pd_unweighted(_unit_pd(PV), ALL_TO_P_21, 0), BASE_STATS),
    "opt-brute": (lambda: rec_optimize(PV, ALL_TO_P_21), BASE_STATS),
    "opt-dp": (lambda: rec_optimize(PD, ALL_TO_P_21, algo="dp"), BASE_STATS),
    "opt-pd-unweighted": (
        lambda: rec_optimize(_unit_pd(PV), ALL_TO_P_21, algo="pd-unweighted"),
        BASE_STATS,
    ),
    "greedy_recount": (lambda: greedy_recount(PV, ALL_TO_P_21), BASE_STATS),
    "greedy_recount-witness_note": (
        lambda: greedy_recount(E51, BAIT_ATTACK_51),
        {**BASE_STATS, "witness_note": str},
    ),
    "verify_regular_attack": (lambda: verify_regular_attack(PD, ALL_TO_P_21), BASE_STATS),
    "man_decide_brute": (lambda: man_decide_brute(PD), BASE_STATS),
    "man_decide_brute-path": (
        lambda: man_decide_brute(NO_RECOUNT_PV),
        {**BASE_STATS, "path": str},
    ),
    "man_pd_regular": (lambda: man_pd_regular(PD), BASE_STATS),
}


@pytest.mark.parametrize("engine", ENGINE_STATS)
def test_stats_keys_and_types(engine):
    solve, expected = ENGINE_STATS[engine]
    report = solve()
    assert {key: type(value) for key, value in report.stats.items()} == expected
    # a fresh dict per read: editing it leaves the report as it was
    report.stats["explored"] = -1
    assert report.stats["explored"] == report.explored != -1
    assert not hasattr(report, "__dict__")
    with pytest.raises(AttributeError):
        report.stats = {}


def _kept_reports(election, attack, target):
    """The first of 1,000 kept reports of one decision, and the bytes each holds."""
    tracemalloc.start()
    try:
        reports = [rec_decide_brute(election, attack, target) for _ in range(1000)]
        held = tracemalloc.get_traced_memory()[0]
        first = reports[0]
        # reference counting frees them; gc.collect() would also empty free lists
        del reports
        per_report = (held - tracemalloc.get_traced_memory()[0]) / 1000
    finally:
        tracemalloc.stop()
    return first, per_report


def test_kept_reports_are_small():
    """Batch callers keep thousands of reports; 1,000 "no" reports cost
    under 170 bytes each: the slotted record, its float and its int, with one
    interned engine name.  A "yes" shares one :class:`RecountSet` per
    distinct recount, empty or not, and costs under 140 (about 166 with a
    record of its own)."""
    election, attack = gen_partition_pv_recreg([8, 12, 12], 8.0)
    first, per_report = _kept_reports(election, attack, election.candidate_index("a"))
    assert first.decision is False and first.explored > 256  # not a cached int
    assert per_report < 170, per_report
    first, per_report = _kept_reports(PV, ALL_TO_P_21, PV.candidate_index("p"))
    assert first.decision is True and first.recount.indices == ()
    assert per_report < 140, per_report
    first, per_report = _kept_reports(PV, ALL_TO_P_21, PV.candidate_index("b"))
    assert first.decision is True and first.recount.indices == (0,)
    assert per_report < 140, per_report
    again = rec_decide_brute(PV, ALL_TO_P_21, PV.candidate_index("b"))
    assert again.recount is first.recount


def test_kept_districts_are_small():
    """Generated decks keep tens of thousands of districts: a slotted
    ``District`` costs under 80 bytes beside its vote tuple (104 with a
    ``__dict__``)."""
    votes = [(i, 1, 2) for i in range(300, 10_300)]  # fresh tuples, kept outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [District(votes=v, weight=1, gamma=i % 3) for i, v in enumerate(votes)]
        per_district = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert not hasattr(kept[0], "__dict__")
    assert per_district < 80, per_district
