"""Answer digests: one SHA-256 per engine family over a fixed seeded corpus.

Each family makes a few hundred seeded calls and writes one canonical JSON
line per call: the decision, the winner, the algorithm, the attack and the
recount, ``explored`` and ``extra``, or the error's type and message.  The
test compares the SHA-256 of each family's lines with the digest committed
in ``fixtures/answer_digests.json``, so an answer that moves anywhere in the
corpus fails the family that holds it.

The flow families (``man-no-recount`` and ``rec-pd-unweighted``) hash
whether the witness replays, not the witness itself: which of several flows
of equal cost networkx returns is not part of its API.

A change that alters answers on purpose re-pins only the families it names
and states why.  Fresh digests, as JSON, of every family or of the named
ones::

    PYTHONPATH=src python tests/test_answer_digest.py [FAMILY ...]
"""

import dataclasses
import hashlib
import json
import os
import sys
from contextlib import contextmanager

import pytest

import recountgame
from recountgame import (
    RULE_PD,
    RULE_PV,
    GameError,
    ResourceLimitError,
    UnsupportedError,
    ValidationError,
    gen_is_pd_rec,
    gen_partition_pv_recreg,
    gen_random,
    gen_sss_pd_man,
    gen_subsetsum_pv_man,
    gen_subsetsum_pv_rec,
    gen_x3c_pv_rec,
    greedy_recount,
    man_decide_brute,
    man_pd_regular,
    parse_instance,
    random_manipulation,
    rec_decide_brute,
    rec_decide_dp,
    rec_optimize,
    rec_pd_unweighted,
    serialize_instance,
    solve_man,
    tally,
)

DIGESTS = os.path.join(os.path.dirname(__file__), "fixtures", "answer_digests.json")
ERRORS = (GameError, ResourceLimitError, UnsupportedError, ValidationError)


def _line(call, replay=None):
    """The canonical JSON line of ``call()``.  With ``replay``, the witness is
    replaced by ``replay(report)``: whether it elects the reported winner."""
    try:
        report = call()
    except ERRORS as error:
        return json.dumps({"error": type(error).__name__, "message": str(error)})
    record = {
        "decision": report.decision,
        "winner": report.winner,
        "algorithm": report.algorithm,
        "explored": report.explored,
        "extra": report.extra,
    }
    if replay is not None:
        record["replays"] = replay(report) if report.decision else None
    else:
        attack = report.manipulation
        record["attack"] = None if attack is None else attack.items()
        record["recount"] = None if report.recount is None else report.recount.indices
    return json.dumps(record, sort_keys=True)


def _random(rule, seed, b_d=None, w_max=3):
    """A small seeded ``gen_random`` draw; ``b_d`` defaults to one of 0..B_A."""
    k, m = 2 + seed % 4, 2 + seed % 3
    b_a = 1 + seed % min(k, 3)
    if b_d is None:
        b_d = seed % (b_a + 1)
    gamma = ("full", "random")[seed % 2]
    return gen_random(rule, k, m, 4, w_max, gamma, b_a, b_d, seed)


def _attacked(rule, seed, w_max=3):
    """A ``_random`` draw with a seeded attack, regular on odd seeds."""
    election = _random(rule, seed, w_max=w_max)
    regular = seed % 2 == 1 and election.preferred is not None
    try:
        attack = random_manipulation(election, seed, regular=regular)
    except UnsupportedError:
        attack = random_manipulation(election, seed)
    return election, attack


def _reductions():
    """Reduction instances with their attacks, yes and no cases."""
    yield gen_subsetsum_pv_rec([3, -1, -2, 5])
    yield gen_subsetsum_pv_rec([3, -2, 4])
    yield gen_subsetsum_pv_rec([2, -1, 4, -3], weighted=True)
    yield gen_x3c_pv_rec([1, 2, 3, 4, 5, 6], [(1, 2, 3), (4, 5, 6), (2, 3, 4)])
    yield gen_x3c_pv_rec([1, 2, 3, 4, 5, 6], [(1, 2, 3), (3, 4, 5), (2, 5, 6)])
    yield gen_partition_pv_recreg([4, 12, 16], 2)
    yield gen_partition_pv_recreg([4, 8, 20], 2)
    yield gen_is_pd_rec(4, [(0, 1), (1, 2), (2, 3)], 2)
    yield gen_is_pd_rec(4, [(0, 1), (1, 2), (2, 3)], 3)


def _replays_attack(election):
    return lambda report: tally(election, report.manipulation).winner == election.preferred


def _replays_recount(election, attack):
    def replays(report):
        recount = report.recount.indices
        within = len(recount) <= election.budget_defender
        return within and tally(election, attack, recount).winner == report.winner

    return replays


def _man_brute(regular):
    for seed in range(120):
        rule = (RULE_PV, RULE_PD)[seed % 2]
        election = _random(rule, seed, b_d=1 + seed % 2 if rule == RULE_PV else None)
        yield _line(lambda: man_decide_brute(election, regular=regular))


def _man_no_recount():
    for seed in range(300):
        election = _random(RULE_PV, seed, b_d=0, w_max=1)
        regular = seed % 2 == 0
        yield _line(lambda: man_decide_brute(election, regular), _replays_attack(election))
    for values in ([3, -2, 4, -1], [3, -2, 4, 1], [1, -1], [2, 5], [5, -3, -2, 7], [4, -1, 2]):
        election = gen_subsetsum_pv_man(values)
        yield _line(lambda: man_decide_brute(election), _replays_attack(election))


def _man_pd_regular():
    for seed in range(150):
        election = _random(RULE_PD, seed)
        yield _line(lambda: man_pd_regular(election))
    for values, size in (([1, -2, 3], 2), ([1, -1, 2], 2), ([2, 3, -5], 3)):
        election = gen_sss_pd_man(values, size)
        yield _line(lambda: man_pd_regular(election))


def _solve_man():
    for seed in range(90):
        election = _random((RULE_PV, RULE_PD)[seed % 2], seed)
        regular = seed % 3 == 0
        replay = None
        if election.rule == RULE_PV and election.budget_defender == 0:
            replay = _replays_attack(election)
        yield _line(lambda: solve_man(election, regular), replay)


def _rec_inputs():
    for seed in range(60):
        yield _attacked((RULE_PV, RULE_PD)[seed % 2], seed)
    yield from _reductions()


def _rec_decide():
    for election, attack in _rec_inputs():
        for target in range(election.num_candidates):
            for decide in (rec_decide_brute, rec_decide_dp):
                yield _line(lambda: decide(election, attack, target))


def _rec_optimize():
    for election, attack in _rec_inputs():
        for algo in ("brute", "dp"):
            yield _line(lambda: rec_optimize(election, attack, algo))


def _rec_pd_unweighted():
    for seed in range(150):
        election, attack = _attacked(RULE_PD, seed, w_max=1)
        replay = _replays_recount(election, attack)
        yield _line(lambda: rec_optimize(election, attack, "pd-unweighted"), replay)
        for target in range(election.num_candidates):
            yield _line(lambda: rec_pd_unweighted(election, attack, target), replay)
    election, attack = gen_partition_pv_recreg([4, 12, 16], 2)
    election = dataclasses.replace(election, rule=RULE_PD)
    replay = _replays_recount(election, attack)
    yield _line(lambda: rec_optimize(election, attack, "pd-unweighted"), replay)
    yield _line(lambda: rec_optimize(election, attack, "brute"))


def _greedy():
    for election, attack in _rec_inputs():
        yield _line(lambda: greedy_recount(election, attack))


def _round_trip():
    for election, attack in _rec_inputs():
        text = serialize_instance(election, attack)
        parsed = parse_instance(text)
        yield json.dumps([text, parsed == (election, attack)])
    for seed in range(60):
        election = _random((RULE_PV, RULE_PD)[seed % 2], seed)
        text = serialize_instance(election)
        yield json.dumps([text, parse_instance(text) == (election, None)])


@contextmanager
def _caps(**caps):
    """Sets the named module caps for the block and restores them after."""
    owners = {
        "MAX_NODES": recountgame.attacker,
        "MAX_SUBSETS": recountgame.defender,
        "MAX_STATES": recountgame.defender,
    }
    saved = {name: getattr(owners[name], name) for name in caps}
    for name, value in caps.items():
        setattr(owners[name], name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(owners[name], name, value)


def _small_caps():
    with _caps(MAX_NODES=25, MAX_SUBSETS=8, MAX_STATES=20):
        for seed in range(40):
            election, attack = _attacked((RULE_PV, RULE_PD)[seed % 2], seed)
            yield _line(lambda: man_decide_brute(election, regular=seed % 3 == 0))
            yield _line(lambda: rec_optimize(election, attack, "brute"))
            yield _line(lambda: rec_optimize(election, attack, "dp"))
        for election, attack in _reductions():
            yield _line(lambda: rec_optimize(election, attack, "brute"))
            yield _line(lambda: rec_decide_dp(election, attack, 0))


FAMILIES = {
    "man-brute": lambda: _man_brute(False),
    "man-brute-regular": lambda: _man_brute(True),
    "man-no-recount": _man_no_recount,
    "man-pd-regular": _man_pd_regular,
    "solve-man": _solve_man,
    "rec-decide": _rec_decide,
    "rec-optimize": _rec_optimize,
    "rec-pd-unweighted": _rec_pd_unweighted,
    "greedy-recount": _greedy,
    "round-trip": _round_trip,
    "small-caps": _small_caps,
}


def digest(family):
    """The SHA-256 of the family's lines, and their number."""
    lines = list(FAMILIES[family]())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), len(lines)


@pytest.mark.parametrize("family", FAMILIES)
def test_answer_digest(family):
    with open(DIGESTS) as f:
        pinned = json.load(f)[family]
    assert list(digest(family)) == [pinned["sha256"], pinned["lines"]], family


if __name__ == "__main__":
    names = sys.argv[1:] or list(FAMILIES)
    fresh = {name: dict(zip(("sha256", "lines"), digest(name))) for name in names}
    print(json.dumps(fresh, indent=2))
