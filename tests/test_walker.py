"""The recount walker against a recursive reference walk.

The reference below recurses, walks score vectors in candidate order, finds
winners by the ``(score, -priority)`` key and passes a rank dict; the
solvers' walker keeps an explicit stack of frames, walks vectors laid out in
tie-break order and skips the subtrees of twin districts (equal restore
deltas), counting them in closed form.  The reference walks every set.  The
walker and every caller of it must give the same decision, winner, attack,
recount and node count either way.
"""

import dataclasses
import itertools
import math
import random

import pytest
import recountgame.defender
from conftest import _with_budget, random_instance
from recountgame import (
    District,
    Election,
    Manipulation,
    defender_preference_order,
    district_min_steal,
    enumerate_distortions,
    gen_partition_pv_recreg,
    man_decide_brute,
    rec_decide_brute,
    rec_optimize,
    tally,
)
from recountgame.defender import _optimize_walk


def key_winner(election, scores):
    """The tie rule by definition: highest score, then highest priority."""
    pos = election.position
    return max(range(len(scores)), key=lambda c: (scores[c], -pos[c]))


def _add(scores, delta):
    return tuple(s + d for s, d in zip(scores, delta))


def reference_walk(election, base, attacked, deltas, budget, ranks):
    goal = min(ranks.values())
    best_rank = math.inf
    winner = recount = None
    nodes = 0

    def walk(scores, start, depth, prefix):
        nonlocal nodes, best_rank, winner, recount
        nodes += 1
        w = key_winner(election, scores)
        rank = ranks.get(w)
        if rank is not None and rank < best_rank:
            best_rank, winner, recount = rank, w, prefix
            if rank == goal:
                return True
        if depth == budget:
            return False
        for idx in range(start, len(attacked)):
            i = attacked[idx]
            if walk(_add(scores, deltas[i]), idx + 1, depth + 1, prefix + (i,)):
                return True
        return False

    walk(base, 0, 0, ())
    return winner, recount, nodes


def _laid_out(election, manipulation):
    """The reference's inputs, in candidate order: the distorted scores and
    each attacked district's restore delta, by definition: the scores with
    that district recounted, minus the distorted scores."""
    base = tally(election, manipulation).scores
    deltas = {
        i: tuple(s - b for s, b in zip(tally(election, manipulation, [i]).scores, base))
        for i in manipulation.districts
    }
    return base, deltas


def reference_defence(election, manipulation, ranks):
    base, deltas = _laid_out(election, manipulation)
    budget = election.budget_defender
    return reference_walk(election, base, manipulation.districts, deltas, budget, ranks)


def reference_attack(election, regular, outcomes=None):
    """Exhaustive attacker with the nested reference defence.

    Same option order, attack order and early stop as ``man_decide_brute``;
    each attack is scored from scratch with ``tally``.  ``outcomes``, if
    given, collects how each nested defence ended (:func:`_defence_end`).
    """
    p = election.preferred
    options = {}
    for i, d in enumerate(election.districts):
        if d.gamma == 0:
            continue
        if election.rule == "PV":
            vectors = enumerate_distortions(d.votes, d.gamma, regular, p)
        else:
            w0 = key_winner(election, d.votes)
            targets = [p] if regular else range(election.num_candidates)
            steals = (district_min_steal(d.votes, c, election.tiebreak) for c in targets if c != w0)
            vectors = [vec for cost, vec in steals if cost <= d.gamma]
        opts = [vec for vec in vectors if vec != d.votes]
        if opts:
            options[i] = opts
    order = defender_preference_order(election)
    ranks = {c: 0 for c in order[: order.index(p)]}
    ranks[p] = 1
    nodes = 0
    for size in range(min(election.budget_attacker, len(options)) + 1):
        for attacked in itertools.combinations(sorted(options), size):
            for combo in itertools.product(*(options[i] for i in attacked)):
                nodes += 1
                attack = Manipulation(dict(zip(attacked, combo)))
                winner, recount, defence_nodes = reference_defence(election, attack, ranks)
                if outcomes is not None:
                    outcomes.add(_defence_end(ranks, winner, defence_nodes))
                if winner == p:
                    return True, p, attack, recount, nodes
    return False, None, None, None, nodes


def _defence_end(ranks, winner, nodes):
    """How a nested defence ended: at the root with the goal rank reached (a
    rival the defender prefers to ``p``, or ``p`` as the defender's top
    choice), after leaving the root, or at the root short of the goal."""
    goal = min(ranks.values())
    if nodes > 1:
        return "walked"
    if winner is not None and ranks[winner] == goal:
        return "root, rival preferred" if goal == 0 else "root, p top"
    return "root, short of goal"


def _outcome(report):
    recount = None if report.recount is None else report.recount.indices
    return report.decision, report.winner, report.manipulation, recount, report.stats["explored"]


def _expected_decision(election, manipulation, target):
    winner, recount, nodes = reference_defence(election, manipulation, {target: 0})
    return winner is not None, winner, manipulation, recount, nodes


def _expected_optimum(election, manipulation):
    ranks = {c: r for r, c in enumerate(defender_preference_order(election))}
    winner, recount, nodes = reference_defence(election, manipulation, ranks)
    return True, winner, manipulation, recount, nodes


def test_decide_brute_matches_reference_for_every_target():
    for seed in range(150):
        election, manipulation = random_instance(seed + 7000, max_m=5)
        for target in range(election.num_candidates):
            expected = _expected_decision(election, manipulation, target)
            assert _outcome(rec_decide_brute(election, manipulation, target)) == expected, seed


def test_optimize_brute_matches_reference():
    for seed in range(150):
        election, manipulation = random_instance(seed + 7500, max_m=5)
        expected = _expected_optimum(election, manipulation)
        assert _outcome(rec_optimize(election, manipulation, algo="brute")) == expected, seed


def test_attacker_brute_matches_reference():
    checked = 0
    for seed in range(120):
        election, _ = random_instance(seed + 8000, max_k=4, n_max=3)
        if election.rule == "PV" and election.budget_defender == 0:
            continue  # no walk: the no-recount flow path answers
        for regular in (False, True):
            expected = reference_attack(election, regular)
            assert _outcome(man_decide_brute(election, regular=regular)) == expected, seed
            checked += 1
    assert checked >= 100
    # budget_defender >= budget_attacker, as in most benchmark trials: the
    # defences end at the root with either goal rank, or leave it
    outcomes = set()
    for seed in range(60):
        election, _ = random_instance(seed + 8500, max_k=4, n_max=3)
        rng = random.Random(seed)
        b_d = rng.randint(election.budget_attacker, election.num_districts)
        election = dataclasses.replace(election, budget_defender=b_d)
        for regular in (False, True):
            expected = reference_attack(election, regular, outcomes)
            assert _outcome(man_decide_brute(election, regular=regular)) == expected, seed
    assert outcomes >= {"root, rival preferred", "root, p top", "walked"}


def test_partition_no_walks_every_set_within_budget():
    election, attack = gen_partition_pv_recreg([8, 12, 12], 2.0)
    report = rec_decide_brute(election, attack, election.candidate_index("a"))
    assert len(attack) == 99 and election.budget_defender == 2
    assert report.decision is False
    assert report.stats["explored"] == math.comb(99, 0) + math.comb(99, 1) + math.comb(99, 2)


@pytest.mark.parametrize("values", [[8, 12, 12], [4, 12, 16]], ids=["no", "yes"])
@pytest.mark.parametrize("epsilon", [4.0, 8.0, 16.0])
def test_partition_twins_match_reference(values, epsilon):
    # 3 + 6 * ceil(32 / epsilon) attacked districts, all but 3 of them twins
    election, attack = gen_partition_pv_recreg(values, epsilon)
    target = election.candidate_index("a")
    for budget in range(4):
        at_budget = _with_budget(election, budget)
        expected = _expected_decision(at_budget, attack, target)
        assert _outcome(rec_decide_brute(at_budget, attack, target)) == expected, budget


def _clone_attacked(election, manipulation, rng):
    """Append one to three copies of every attacked district, attacked alike,
    so that restore deltas repeat at distant positions."""
    districts = list(election.districts)
    entries = dict(manipulation.items())
    for i, votes in manipulation.items():
        for _ in range(rng.randint(1, 3)):
            entries[len(districts)] = votes
            districts.append(districts[i])
    cloned = dataclasses.replace(
        election, districts=tuple(districts), budget_attacker=max(1, len(entries))
    )
    return cloned, Manipulation(entries)


def _brute_matches_reference(election, manipulation, budgets, seed):
    """Every target's decision and the optimum, at each budget ``B_D``, as the
    reference walks them."""
    for budget in budgets:
        at_budget = _with_budget(election, budget)
        for target in range(election.num_candidates):
            expected = _expected_decision(at_budget, manipulation, target)
            report = rec_decide_brute(at_budget, manipulation, target)
            assert _outcome(report) == expected, (seed, budget, target)
        expected = _expected_optimum(at_budget, manipulation)
        report = rec_optimize(at_budget, manipulation, algo="brute")
        assert _outcome(report) == expected, (seed, budget)


def test_cloned_districts_match_reference():
    for seed in range(120):
        election, manipulation = random_instance(seed + 9000, max_k=4, n_max=3, w_max=2)
        election, manipulation = _clone_attacked(election, manipulation, random.Random(seed))
        # B_D is at most k; no engine recounts more than the attacked districts anyway
        k = election.num_districts
        budgets = (election.budget_defender, *(min(b, k) for b in (1, 2, 3)))
        _brute_matches_reference(election, manipulation, budgets, seed)


def test_witness_past_twins_takes_the_first_ones():
    """Target ``a`` wins only by recounting two of the three twin districts
    1-3 and not district 0.  The walk skips ``{0, 2}`` and ``{0, 3}`` (twins
    of ``{0, 1}``), then must still walk ``{1, 2}``: district 2 is a twin of
    1, but 1 is in the recount, not a sibling."""
    twin = District((2, 0), gamma=2)
    election = Election(
        rule="PV",
        candidates=("a", "b"),
        districts=(District((0, 3), gamma=3), twin, twin, twin, District((0, 2))),
        tiebreak=(1, 0),
        budget_attacker=4,
        budget_defender=2,
    )
    attack = Manipulation({0: (3, 0), 1: (0, 2), 2: (0, 2), 3: (0, 2)})
    report = rec_decide_brute(election, attack, 0)
    assert _outcome(report) == (True, 0, attack, (1, 2), 7)
    assert _outcome(report) == _expected_decision(election, attack, 0)
    assert _outcome(rec_optimize(election, attack)) == _expected_optimum(election, attack)


def test_walker_as_the_attacker_calls_it_matches_reference():
    """No twins and no count table, as in the attacker's nested defence, with
    no recount allowed, every attacked district recountable, and more."""
    checked = 0
    for seed in range(120):
        election, manipulation = random_instance(seed + 9500, max_k=5)
        base, deltas = _laid_out(election, manipulation)
        attacked = manipulation.districts
        n = len(attacked)
        steps = [election.by_priority(deltas[i]) for i in attacked]
        order = defender_preference_order(election)
        for ranks in ({c: r for r, c in enumerate(order)}, {order[-1]: 0, order[0]: 1}):
            rank_at = [ranks.get(c, math.inf) for c in election.tiebreak]
            for budget in (0, n, n + 1):
                expected = reference_walk(election, base, attacked, deltas, budget, ranks)
                got = _optimize_walk(
                    election.tiebreak, election.by_priority(base), attacked, steps, budget,
                    rank_at, [-1] * n, (),
                )
                assert got == expected, (seed, ranks, budget)
                checked += expected[2] > 1
    assert checked >= 100  # walks that leave the root


def test_budget_zero_and_every_district_match_reference():
    for seed in range(100):
        election, manipulation = random_instance(seed + 9700, max_k=5, w_max=2)
        _brute_matches_reference(election, manipulation, (0, len(manipulation)), seed)


def _all_twins(election, manipulation, copies):
    """``copies`` districts equal to the first attacked one, all attacked
    alike, after the districts no attack touched."""
    i, votes = manipulation.items()[0]
    kept = [d for j, d in enumerate(election.districts) if j not in manipulation]
    twins = dataclasses.replace(
        election,
        districts=tuple(kept) + (election.districts[i],) * copies,
        budget_attacker=copies,
        budget_defender=min(election.budget_defender, copies),
    )
    return twins, Manipulation({len(kept) + c: votes for c in range(copies)})


def test_every_district_a_twin_matches_reference():
    rng = random.Random(17)
    for seed in range(100):
        election, manipulation = random_instance(seed + 9900, max_k=4, n_max=4, w_max=2)
        if not manipulation:
            continue
        election, manipulation = _all_twins(election, manipulation, rng.randint(1, 6))
        _brute_matches_reference(election, manipulation, range(len(manipulation) + 1), seed)


def test_deep_twins_walk_without_recursion(monkeypatch):
    """1,500 equal attacked districts and a budget to recount them all: the
    walk goes 1,500 frames deep, past Python's recursion limit, and counts
    every one of the 2**1500 recount sets."""
    n = 1500
    election = Election(
        rule="PV",
        candidates=("a", "b", "c"),
        districts=(District((0, 1, 0), gamma=1),) * n,
        tiebreak=(0, 1, 2),
        budget_attacker=n,
        budget_defender=n,
    )
    attack = Manipulation({i: (0, 0, 1) for i in range(n)})  # b's votes moved to c
    monkeypatch.setattr(recountgame.defender, "MAX_SUBSETS", 2 ** (n + 2))
    report = rec_decide_brute(election, attack, 0)
    assert report.decision is False
    assert report.explored == 2**n
