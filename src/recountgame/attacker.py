"""Attacker-side solvers.

* :func:`district_min_steal` finds the cheapest way to hand one district to a
  chosen candidate (the priced single-district subproblem): the fewest moves
  that cover what the rivals still hold above their :func:`~.model.bars`.
* :func:`enumerate_distortions` streams every feasible distortion of one
  district.
* :func:`man_decide_brute` searches all attacks, scoring each against the
  optimal defender response.  One loop builds the options of every district
  for both rules (PV: every distortion; PD: the cheapest steal per new
  winner), each with the score change a recount of it restores.  Against a
  PV defender with no recount budget the search runs over attacked sets
  only: two Hall screens, then one maximum flow that decides the set and
  yields the witness.
* :func:`man_pd_regular` decides the PD game in polynomial time when the
  attacker may only transfer district wins to its candidate.
* :func:`verify_regular_attack` certifies one regular attack via greedy
  recounting.
* :func:`solve_man`, the command line's entry point, picks the engine.

Both regular solvers call the unchecked greedy kernel and validate at most
once: the attack they were given, or the witness they return.  The solvers
call the unchecked steal kernel ``_district_min_steal`` with the election's
validated priority ranks.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from itertools import accumulate, chain, combinations, product
from operator import le, sub
from typing import Optional, Sequence

import networkx as nx

from .defender import _greedy_recount, _optimize_walk
from .errors import ResourceLimitError, UnsupportedError, ValidationError
from .model import (
    RULE_PD,
    RULE_PV,
    Election,
    Manipulation,
    RecountSet,
    SolveReport,
    _check_int,
    _check_tiebreak,
    _ints,
    _preference_order,
    _restore_delta,
    bars,
    ensure_valid,
    positions,
    social_welfare_vector,
    tally,
    validate_manipulation,
)

DEFAULT_MAX_NODES = 2_000_000
# the violations that leave an attack valid but not regular
_REGULARITY = frozenset({"regular_pv", "regular_pd", "missing_preferred"})


# ---------------------------------------------------------------------------
# single-district bribery


def district_min_steal(votes: Sequence[int], target: int, tiebreak: Sequence[int]):
    """Minimum votes to move onto ``target`` so it wins one district.

    Returns ``(moves, resulting vector)``; ``(inf, None)`` when the district
    can never be won (possible only for empty districts).

    Sorted strongest first by (count, priority), the rivals' leads over their
    :func:`~.model.bars` are non-increasing.  ``moves`` transfers raise every
    bar by ``moves`` and win iff they cover the leads then left,
    ``max_j (S_j - j * moves) <= moves`` with ``S_j`` the sum of the ``j``
    largest leads, that is iff ``S_j <= (j + 1) * moves`` for every ``j``; so
    the fewest moves are ``max_j ceil(S_j / (j + 1))``.  The witness takes
    them as a water level, which is what taking each vote from the currently
    strongest rival comes to: the ``j`` strongest rivals are cut to the
    lowest level ``moves`` can pay for, and the leftover moves take one more
    vote each from the highest-priority rivals cut.

    Raises :class:`ValidationError` for an empty ``votes``, a ``target`` that
    is not a candidate id or a ``tiebreak`` that is not a permutation of the
    candidates.
    """
    votes = _ints("votes", votes)
    if not votes:
        raise ValidationError(f"votes must hold one count per candidate, got {votes!r}")
    _check_int("target", target, 0, len(votes) - 1)
    tiebreak = _ints("tiebreak", tiebreak)
    _check_tiebreak(tiebreak, len(votes))
    return _district_min_steal(votes, target, positions(tiebreak))


def _district_min_steal(votes, target, pos):
    """Unchecked kernel of :func:`district_min_steal` for a validated vote
    tuple and target; ``pos`` is the priority rank per candidate
    (:attr:`Election.position`)."""
    bar = bars(pos, target, votes[target])
    if all(map(le, votes, bar)):
        return 0, votes
    if sum(votes) == votes[target]:
        return math.inf, None
    rivals = [a for a in range(len(votes)) if a != target]
    rivals.sort(key=lambda a: (-votes[a], pos[a]))
    # leads that are not positive trail the others and never set the maximum
    moves = lead_sum = 0
    for j, a in enumerate(rivals, 1):
        lead_sum += votes[a] - bar[a]
        moves = max(moves, -(-lead_sum // (j + 1)))
    counts = [votes[a] for a in rivals] + [0]
    # the fewest strongest rivals whose cut down to the next count pays for
    # every move; all rivals together always do, as moves <= their votes
    for j, total in enumerate(accumulate(counts), 1):
        if total - j * counts[j] >= moves:
            break
    level = -((moves - total) // j)  # ceil((total - moves) / j)
    extra = j * level + moves - total
    witness = list(votes)
    witness[target] += moves
    cut = rivals[:j]
    for a in cut:
        witness[a] = level
    if extra:
        cut.sort(key=pos.__getitem__)
        for a in cut[:extra]:
            witness[a] -= 1
    return moves, tuple(witness)


# ---------------------------------------------------------------------------
# distortion enumeration


def enumerate_distortions(
    votes: Sequence[int],
    gamma: int,
    regular: bool = False,
    target: Optional[int] = None,
):
    """Yield every feasible distortion of one district exactly once.

    Vectors keep the district size, add at most ``gamma`` votes and come out
    in ascending lexicographic order.  With ``regular`` only the ``target``
    candidate may gain votes.
    """
    votes = _ints("votes", votes)
    if not votes:
        raise ValidationError(f"votes must hold one count per candidate, got {votes!r}")
    _check_int("gamma", gamma, 0)
    if regular:
        if target is None:
            raise UnsupportedError("regular enumeration needs the preferred candidate")
        _check_int("target", target, 0, len(votes) - 1)
    m = len(votes)
    last = m - 1
    free = list(accumulate(reversed(votes), initial=0))[::-1]  # free[j]: votes of j and after
    top = [v if regular and j != target else free[0] for j, v in enumerate(votes)]
    vec = [0] * m
    # One level per position so far: the values of vec[j] still to try, the
    # votes left to place and the additions left.  A position takes at least
    # what the positions after it cannot hold; the last one takes the rest.
    levels = []

    def push(remaining, left):
        j = len(levels)
        lo = remaining if j == last else max(0, remaining - free[j + 1] - left)
        hi = min(remaining, votes[j] + left, top[j])
        levels.append((iter(range(lo, hi + 1)), remaining, left))

    push(free[0], gamma)
    while levels:
        j = len(levels) - 1
        values, remaining, left = levels[j]
        for x in values:
            vec[j] = x
            if x == remaining:  # nothing left to place: zeros complete the vector
                yield tuple(vec[: j + 1]) + (0,) * (last - j)
            else:
                push(remaining - x, left - max(0, x - votes[j]))
                break
        else:
            levels.pop()


# ---------------------------------------------------------------------------
# exhaustive attacker search


def man_decide_brute(
    election: Election,
    regular: bool = False,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> SolveReport:
    """Search all attacks; win iff one survives the optimal defender response.

    Attacked sets grow by size and then lexicographically, distortions follow
    :func:`enumerate_distortions` order, so the returned witness is
    reproducible.  Under PV every feasible distortion vector is tried; under
    PD attacks are canonicalized to district-winner reassignments realised by
    :func:`district_min_steal`, since PD tallies depend only on the winners.
    """
    t0 = time.perf_counter()
    p = election.preferred
    if p is None:
        raise UnsupportedError("man solvers need the attacker's preferred candidate")
    _check_int("max_nodes", max_nodes, 0)
    if election.rule == RULE_PV and election.budget_defender == 0:
        return _man_pv_no_recount(election, max_nodes, t0)

    options: dict[int, list] = {}
    for i, d in enumerate(election.districts):
        if d.gamma == 0:
            continue
        if election.rule == RULE_PV:
            vectors = enumerate_distortions(d.votes, d.gamma, regular, p)
        else:
            w0 = election.winner_of(d.votes)
            targets = [p] if regular else range(election.num_candidates)
            steals = (
                _district_min_steal(d.votes, c, election.position) for c in targets if c != w0
            )
            vectors = [vec for cost, vec in steals if cost <= d.gamma]
        opts = []
        for vec in vectors:
            if vec == d.votes:
                continue
            won = None if election.rule == RULE_PV else election.winner_of(vec)
            delta = _restore_delta(election, d, tuple(map(sub, d.votes, vec)), won)
            opts.append((vec, election.by_priority(delta)))
            if len(opts) > max_nodes:
                raise ResourceLimitError(f"district {i} admits more than {max_nodes} distortions")
        if opts:
            options[i] = opts

    pool = sorted(options)
    tiebreak = election.tiebreak
    sw = social_welfare_vector(election)
    base_true = election.by_priority(sw)
    order = _preference_order(election, sw)
    # each defence ends at the first recount electing someone preferred over p
    ranks = {c: 0 for c in order[: order.index(p)]}
    ranks[p] = 1
    rank_at = [ranks.get(c, math.inf) for c in tiebreak]
    # Over half of the defences end at the root: the distorted profile already
    # elects a candidate of the goal rank, so the empty recount is the optimal
    # defence.  The loop answers those itself and walks only the rest.
    goal = min(rank_at)
    b_d = election.budget_defender
    no_twins = [-1] * len(pool)  # every set is walked: the search stays the exhaustive oracle
    nodes = 0
    for size in range(0, min(election.budget_attacker, len(pool)) + 1):
        for attacked in combinations(pool, size):
            for combo in product(*(options[i] for i in attacked)):
                nodes += 1
                if nodes > max_nodes:
                    raise ResourceLimitError(f"attack search exceeded {max_nodes} nodes")
                scores = base_true
                for _, step in combo:
                    scores = map(sub, scores, step)
                scores = tuple(scores)
                j = scores.index(max(scores))
                if rank_at[j] == goal:  # the defence ends at the root: no recount
                    winner, recount = tiebreak[j], ()
                else:
                    steps = [step for _, step in combo]
                    winner, recount, _ = _optimize_walk(
                        tiebreak, scores, attacked, steps, b_d, rank_at, no_twins, ()
                    )
                if winner == p:
                    manipulation = Manipulation({i: vec for i, (vec, _) in zip(attacked, combo)})
                    ensure_valid(election, manipulation, require_regular=regular)
                    ms = (time.perf_counter() - t0) * 1000
                    return SolveReport(
                        True, p, "man-brute", manipulation, RecountSet(recount), nodes, ms
                    )
    ms = (time.perf_counter() - t0) * 1000
    return SolveReport(False, None, "man-brute", None, None, nodes, ms)


def _man_pv_no_recount(election, max_nodes, t0):
    """PV attacks against a defender with no recount budget.

    Transferring as many votes as possible onto the preferred candidate
    dominates every other distortion of the same districts, so per attacked
    set it suffices to ask whether the deficits of the candidates ahead of it
    can be collected from the attacked districts: a supply/demand question,
    answered by one maximum flow (the flow construction of plurality
    bribery).  Two necessary Hall conditions screen each set first, every
    single deficit candidate and the whole deficit set; with at most two
    deficit candidates they are all of Hall's condition, so the flow then
    runs only on the winning set.  The result is identical for the regular
    and the unrestricted game.
    """
    p = election.preferred
    sw = social_welfare_vector(election)
    transfers = [min(d.gamma, d.size - d.votes[p]) for d in election.districts]
    pool = [i for i in range(election.num_districts) if transfers[i] > 0]

    def supply(attacked, group):
        """Votes of ``group`` the attacked districts can hand over to ``p``."""
        districts = election.districts
        return sum(min(transfers[i], sum(districts[i].votes[a] for a in group)) for i in attacked)

    sizes = range(min(election.budget_attacker, len(pool)) + 1)
    nodes = 0
    manipulation = None
    for attacked in chain.from_iterable(combinations(pool, size) for size in sizes):
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(f"attack search exceeded {max_nodes} nodes")
        p_final = sw[p] + sum(transfers[i] for i in attacked)
        caps = bars(election.position, p, p_final)
        if min(caps) < 0:
            continue
        needs = {a: sw[a] - cap for a, cap in enumerate(caps) if sw[a] > cap}
        if any(needs[a] > supply(attacked, (a,)) for a in needs):
            continue
        if sum(needs.values()) > supply(attacked, needs):
            continue
        manipulation = _transfer_witness(election, attacked, transfers, needs)
        if manipulation is not None:
            break
    ms = (time.perf_counter() - t0) * 1000
    path = {"path": "no-recount-transfer"}
    if manipulation is None:
        return SolveReport(False, None, "man-brute", None, None, nodes, ms, path)
    assert tally(election, manipulation).winner == p
    return SolveReport(True, p, "man-brute", manipulation, RecountSet(()), nodes, ms, path)


def _transfer_witness(election, attacked, transfers, needs):
    """The max-transfer distortion realising ``needs``, or ``None`` if none does.

    A maximum flow routes each deficit from the attacked districts that hold
    votes of that candidate; it decides the question when it falls short of
    the total deficit.
    """
    p = election.preferred
    m = election.num_candidates
    flow = {}
    if needs:
        graph = nx.DiGraph()
        for i in attacked:
            graph.add_edge("S", ("d", i), capacity=transfers[i])
            d = election.districts[i]
            for a in range(m):
                if a != p and d.votes[a] > 0:
                    graph.add_edge(("d", i), ("c", a), capacity=d.votes[a])
        for a, need in needs.items():
            graph.add_edge(("c", a), "T", capacity=need)
        value, flow = nx.maximum_flow(graph, "S", "T")
        if value < sum(needs.values()):
            return None
    entries = {}
    for i in attacked:
        d = election.districts[i]
        outflow = flow.get(("d", i), {})
        removed = [outflow.get(("c", a), 0) for a in range(m)]
        leftover = transfers[i] - sum(removed)
        for a in range(m):
            if leftover == 0:
                break
            if a == p:
                continue
            extra = min(d.votes[a] - removed[a], leftover)
            removed[a] += extra
            leftover -= extra
        vec = [v - r for v, r in zip(d.votes, removed)]
        vec[p] += transfers[i]
        entries[i] = tuple(vec)
    return Manipulation(entries)


# ---------------------------------------------------------------------------
# polynomial regular PD attacker


def man_pd_regular(election: Election) -> SolveReport:
    """Polynomial-time attacker for PD restricted to regular manipulations.

    Collects the districts whose winner can be flipped to the preferred
    candidate within the change cap, then grows a committed set: test the
    committed districts padded with the heaviest remaining ones via greedy
    recounting (an exact certificate for regular attacks); on failure the
    defender's rescue candidate pins the next committed district, the
    heaviest flippable one that candidate truly wins.  Each round commits one
    district, so at most budget+1 greedy calls are made.
    """
    t0 = time.perf_counter()
    if election.rule != RULE_PD:
        raise UnsupportedError("man_pd_regular requires rule PD")
    p = election.preferred
    if p is None:
        raise UnsupportedError("man solvers need the attacker's preferred candidate")

    steal_vec, steal_delta = {}, {}
    by_winner: dict[int, list[int]] = {}
    for i, d in enumerate(election.districts):
        w0 = election.winner_of(d.votes)
        if w0 == p:
            continue
        cost, vec = _district_min_steal(d.votes, p, election.position)
        if cost <= d.gamma:
            steal_vec[i] = vec
            steal_delta[i] = _restore_delta(election, d, tuple(map(sub, d.votes, vec)), p)
            by_winner.setdefault(w0, []).append(i)
    flippable = sorted(steal_vec)
    heavy = sorted(flippable, key=lambda i: (-election.districts[i].weight, i))
    limit = min(election.budget_attacker, len(flippable))

    sw = social_welfare_vector(election)
    committed: list[int] = []
    rounds = 0
    while True:
        rounds += 1
        chosen = set(committed)
        for i in heavy:
            if len(chosen) == limit:
                break
            chosen.add(i)
        chosen = sorted(chosen)
        manipulation = Manipulation({i: steal_vec[i] for i in chosen})
        deltas = {i: steal_delta[i] for i in chosen}
        greedy = _greedy_recount(election, manipulation, deltas, sw, election.budget_defender, t0)
        ms = (time.perf_counter() - t0) * 1000
        if greedy.winner == p:
            ensure_valid(election, manipulation, require_regular=True)
            return SolveReport(True, p, "man-pd-regular", manipulation, RecountSet(()), rounds, ms)
        rescuer = greedy.winner
        pool = [i for i in by_winner.get(rescuer, ()) if i not in committed]
        if not pool or len(committed) == limit:
            return SolveReport(False, None, "man-pd-regular", None, None, rounds, ms)
        committed.append(
            sorted(pool, key=lambda i: (-election.districts[i].weight, i))[0]
        )


def verify_regular_attack(election: Election, manipulation: Manipulation) -> SolveReport:
    """Certificate check: does this regular attack beat the optimal defender?

    Greedy recounting decides the question exactly for regular attacks, so
    the answer is simply whether it outputs the attacker's candidate.
    Raises :class:`ValidationError` for an invalid attack and
    :class:`UnsupportedError` for a valid one that is not regular.
    """
    t0 = time.perf_counter()
    check = validate_manipulation(election, manipulation, require_regular=True)
    if check:
        details = "; ".join(v.detail for v in check)
        if any(v.constraint not in _REGULARITY for v in check):
            raise ValidationError("invalid manipulation: " + details, check)
        raise UnsupportedError("manipulation is not regular: " + details)
    sw = social_welfare_vector(election)
    b = election.budget_defender
    greedy = _greedy_recount(election, manipulation, check.deltas, sw, b, t0)
    decision = greedy.winner == election.preferred
    return replace(greedy, decision=decision, algorithm="verify-regular")


def solve_man(election: Election, regular: bool = False, algo: str = "auto") -> SolveReport:
    """The attacker's entry point: ``brute`` is :func:`man_decide_brute` and
    ``pd-reg`` :func:`man_pd_regular` (PD only, always regular); ``auto`` takes
    ``pd-reg`` for a regular PD game and ``brute`` otherwise.  Raises
    :class:`UnsupportedError` for an unknown ``algo``."""
    if algo == "auto":
        algo = "pd-reg" if regular and election.rule == RULE_PD else "brute"
    if algo == "pd-reg":
        return man_pd_regular(election)
    if algo != "brute":
        raise UnsupportedError(f"unknown attacker algorithm {algo!r}")
    return man_decide_brute(election, regular=regular)
