"""Metamorphic relations: each engine against transformed copies of its input.

The fast engines are held to the brute-force oracles, and the oracles to the
reduction generators and hand-pinned cases.  These relations hold the oracles
too, on a fixed seeded draw of small ``gen_random`` instances (PV and PD,
2-5 districts, 2-4 candidates, regular attacks on and off):

* relabelling the candidates maps each winner through the permutation; the
  recount witness and ``explored`` of ``rec_optimize`` ``brute`` and ``dp``
  stay identical, ``pd-unweighted`` keeps its decision and ``explored`` (not
  its witness: the one flow helper, ``defender._min_cost_flow``, leaves the
  choice between flows of equal cost to ``networkx``, which breaks such ties
  by node order), and the attacker's decision is unchanged;
* permuting the districts changes no winner and no decision;
* scaling every PD weight by a constant changes no answer;
* an attacker's win survives a smaller recount budget and a larger attack
  budget.

Every failure names its relation and the seed of its instance.
"""

import dataclasses
import random
from functools import lru_cache

from recountgame import (
    RULE_PD,
    GameError,
    Manipulation,
    gen_random,
    greedy_recount,
    man_decide_brute,
    man_pd_regular,
    random_manipulation,
    rec_decide_brute,
    rec_decide_dp,
    rec_optimize,
    rec_pd_unweighted,
    tally,
)

SEEDS = range(200)


@lru_cache(maxsize=None)
def draw(seed):
    """Instance ``seed`` of the draw: ``(election, attack, regular)``.  Sizes
    stay small enough for the exhaustive attacker to search every one."""
    rng = random.Random(seed)
    rule = ("PV", "PD")[seed % 2]
    k, m = rng.randint(2, 5), rng.randint(2, 4)
    election = gen_random(
        rule, k, m, n_max=rng.randint(1, 4), w_max=rng.choice((1, 5)),
        gamma_mode=rng.choice(("full", "random")), budget_attacker=rng.randint(1, min(k, 3)),
        budget_defender=rng.randint(0, k), seed=seed,
    )
    regular = rng.random() < 0.5
    # prefer an attack that changes the winner: the defender then has work to do
    for j in range(8):
        attack = random_manipulation(election, 8 * seed + j, regular=regular)
        if tally(election, attack).winner != tally(election).winner:
            break
    return election, attack, regular


def outcome(solve, *args, **kwargs):
    """The answer that a relation compares, or the type and text of the error."""
    try:
        report = solve(*args, **kwargs)
    except GameError as exc:
        return type(exc), str(exc)
    recount = None if report.recount is None else report.recount.indices
    return report.decision, report.winner, recount, report.explored


def recount_answers(election, attack):
    """Per ``(engine, target)``, its outcome on ``attack``; the target
    ``None`` asks for the defender's optimal response."""
    answers = {("greedy", None): outcome(greedy_recount, election, attack)}
    for algo in ("brute", "dp", "pd-unweighted"):
        answers[algo, None] = outcome(rec_optimize, election, attack, algo)
    unit_pd = election.rule == RULE_PD and all(d.weight == 1 for d in election.districts)
    for c in range(election.num_candidates):
        answers["brute", c] = outcome(rec_decide_brute, election, attack, c)
        answers["dp", c] = outcome(rec_decide_dp, election, attack, c)
        if unit_pd:
            answers["pd-unweighted", c] = outcome(rec_pd_unweighted, election, attack, c)
    return answers


def attacker_answers(election, regular):
    """Per attacker engine, its decision (or its error)."""
    answers = {"brute": outcome(man_decide_brute, election, regular=regular)}
    if regular and election.rule == RULE_PD:
        answers["pd-reg"] = outcome(man_pd_regular, election)
    return {name: a if isinstance(a[0], type) else a[0] for name, a in answers.items()}


@lru_cache(maxsize=None)
def answers(seed):
    election, attack, regular = draw(seed)
    return recount_answers(election, attack), attacker_answers(election, regular)


def relabel(election, attack, perm):
    """The instance with candidate ``c`` renamed to ``perm[c]``."""

    def move(votes):
        out = [0] * len(votes)
        for c, v in enumerate(votes):
            out[perm[c]] = v
        return tuple(out)

    names = move(range(election.num_candidates))  # names[perm[c]] == c
    relabelled = dataclasses.replace(
        election,
        candidates=tuple(election.candidates[c] for c in names),
        districts=tuple(dataclasses.replace(d, votes=move(d.votes)) for d in election.districts),
        tiebreak=tuple(perm[c] for c in election.tiebreak),
        preferred=perm[election.preferred],
    )
    return relabelled, Manipulation({i: move(v) for i, v in attack.items()})


def permute_districts(election, attack, perm):
    """The instance with district ``i`` moved to position ``perm[i]``."""
    districts = [None] * election.num_districts
    for i, d in enumerate(election.districts):
        districts[perm[i]] = d
    permuted = dataclasses.replace(election, districts=tuple(districts))
    return permuted, Manipulation({perm[i]: v for i, v in attack.items()})


def scale_weights(election, attack, factor):
    districts = tuple(dataclasses.replace(d, weight=d.weight * factor) for d in election.districts)
    return dataclasses.replace(election, districts=districts), attack


def winner(answer):
    """The winner of a recount outcome, or the error it raised."""
    return answer if isinstance(answer[0], type) else answer[1]


def test_relabel_candidates():
    for seed in SEEDS:
        election, attack, regular = draw(seed)
        perm = list(range(election.num_candidates))
        random.Random(seed).shuffle(perm)
        recount, attacker = answers(seed)
        e2, a2 = relabel(election, attack, perm)
        recount2 = recount_answers(e2, a2)
        for (algo, target), before in recount.items():
            after = recount2[algo, None if target is None else perm[target]]
            if isinstance(before[0], type):
                assert after == before, ("relabel", seed, algo, target)
                continue
            mapped = None if before[1] is None else perm[before[1]]
            assert after[1] == mapped, ("relabel", seed, algo, target)
            if algo in ("brute", "dp"):
                assert after == (before[0], mapped, *before[2:]), ("relabel", seed, algo, target)
            elif algo == "pd-unweighted":
                same = (after[0], after[3]) == (before[0], before[3])  # decision, explored
                assert same, ("relabel", seed, algo, target)
        assert attacker_answers(e2, regular) == attacker, ("relabel", seed)


def test_permute_districts():
    for seed in SEEDS:
        election, attack, regular = draw(seed)
        perm = list(range(election.num_districts))
        random.Random(seed).shuffle(perm)
        recount, attacker = answers(seed)
        e2, a2 = permute_districts(election, attack, perm)
        recount2 = recount_answers(e2, a2)
        for key, before in recount.items():
            if key[0] != "greedy":  # a heuristic whose ties go to the lower district index
                assert winner(recount2[key]) == winner(before), ("permute districts", seed, key)
        assert attacker_answers(e2, regular) == attacker, ("permute districts", seed)


def test_scale_pd_weights():
    for seed in SEEDS[1::2]:  # the PD instances
        election, attack, regular = draw(seed)
        recount, attacker = answers(seed)
        e2, a2 = scale_weights(election, attack, 3)
        recount2 = recount_answers(e2, a2)
        for key, before in recount.items():
            if key[0] != "pd-unweighted":  # refuses the scaled weights
                assert recount2[key] == before, ("scale weights", seed, key)
        assert attacker_answers(e2, regular) == attacker, ("scale weights", seed)


def test_attacker_win_survives_budgets():
    for seed in SEEDS:
        election, _, regular = draw(seed)
        looser = []
        if election.budget_defender:
            looser.append(("B_D - 1", {"budget_defender": election.budget_defender - 1}))
        if election.budget_attacker < election.num_districts:
            looser.append(("B_A + 1", {"budget_attacker": election.budget_attacker + 1}))
        for name, decision in answers(seed)[1].items():
            if decision is not True:
                continue
            for label, change in looser:
                after = attacker_answers(dataclasses.replace(election, **change), regular)[name]
                assert after is True, ("budget monotone", label, seed, name)
