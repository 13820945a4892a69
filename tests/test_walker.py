"""The recount walker against a reference copy of its earlier recursive form.

The reference below walks score vectors in candidate order, finds winners by
the ``(score, -priority)`` key and passes a rank dict; the solvers walk
vectors laid out in tie-break order.  Every caller of the walker must give
the same decision, winner, attack, recount and node count either way.
"""

import itertools
import math

from conftest import random_instance
from recountgame import (
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
from recountgame.defender import restore_deltas


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


def reference_defence(election, manipulation, ranks):
    base = tally(election, manipulation).scores
    deltas = restore_deltas(election, manipulation)
    budget = election.budget_defender
    return reference_walk(election, base, manipulation.districts, deltas, budget, ranks)


def reference_attack(election, regular):
    """Exhaustive attacker with the nested reference defence.

    Same option order, attack order and early stop as ``man_decide_brute``;
    each attack is scored from scratch with ``tally``.
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
                winner, recount, _ = reference_defence(election, attack, ranks)
                if winner == p:
                    return True, p, attack, recount, nodes
    return False, None, None, None, nodes


def _outcome(report):
    recount = None if report.recount is None else report.recount.indices
    return report.decision, report.winner, report.manipulation, recount, report.stats["explored"]


def test_decide_brute_matches_reference_for_every_target():
    for seed in range(150):
        election, manipulation = random_instance(seed + 7000, max_m=5)
        for target in range(election.num_candidates):
            winner, recount, nodes = reference_defence(election, manipulation, {target: 0})
            expected = (winner is not None, winner, manipulation, recount, nodes)
            assert _outcome(rec_decide_brute(election, manipulation, target)) == expected, seed


def test_optimize_brute_matches_reference():
    for seed in range(150):
        election, manipulation = random_instance(seed + 7500, max_m=5)
        order = defender_preference_order(election)
        ranks = {c: r for r, c in enumerate(order)}
        winner, recount, nodes = reference_defence(election, manipulation, ranks)
        expected = (True, winner, manipulation, recount, nodes)
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


def test_partition_no_walks_every_set_within_budget():
    election, attack = gen_partition_pv_recreg([8, 12, 12], 2.0)
    report = rec_decide_brute(election, attack, election.candidate_index("a"))
    assert len(attack) == 99 and election.budget_defender == 2
    assert report.decision is False
    assert report.stats["explored"] == math.comb(99, 0) + math.comb(99, 1) + math.comb(99, 2)
