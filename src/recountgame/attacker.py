"""Attacker-side solvers.

* :func:`district_min_steal` finds the cheapest way to hand one district to a
  chosen candidate (the priced single-district subproblem).
* :func:`enumerate_distortions` streams every feasible distortion of one
  district.
* :func:`man_decide_brute` searches all attacks, scoring each against the
  optimal defender response.
* :func:`man_pd_regular` decides the PD game in polynomial time when the
  attacker may only transfer district wins to its candidate.
* :func:`verify_regular_attack` certifies one regular attack via greedy
  recounting.
"""

from __future__ import annotations

import math
import time
from itertools import combinations, product
from typing import Optional, Sequence

import networkx as nx

from .defender import _add, _optimize_walk, greedy_recount
from .errors import ResourceLimitError, UnsupportedError
from .model import (
    RULE_PD,
    RULE_PV,
    Election,
    Manipulation,
    RecountSet,
    SolveReport,
    defender_preference_order,
    ensure_valid,
    social_welfare_vector,
    tally,
    validate_manipulation,
)

DEFAULT_MAX_NODES = 2_000_000


# ---------------------------------------------------------------------------
# single-district bribery


def district_min_steal(votes: Sequence[int], target: int, tiebreak: Sequence[int]):
    """Minimum votes to move onto ``target`` so it wins one district.

    Votes are taken greedily from the currently strongest opponent under
    (count, priority); that greedy is optimal for single-district plurality.
    Returns ``(moves, resulting vector)``; ``(inf, None)`` when the district
    can never be won (possible only for empty districts).
    """
    votes = tuple(int(v) for v in votes)
    m = len(votes)
    pos = [0] * m
    for rank, c in enumerate(tiebreak):
        pos[c] = rank

    def wins(counts, goal):
        for a in range(m):
            if a == target:
                continue
            if counts[a] > goal or (counts[a] == goal and pos[a] < pos[target]):
                return False
        return True

    if wins(votes, votes[target]):
        return 0, votes
    opp_total = sum(votes) - votes[target]
    if opp_total == 0:
        return math.inf, None

    def feasible(t):
        goal = votes[target] + t
        need = 0
        for a in range(m):
            if a == target:
                continue
            cap = goal - (1 if pos[a] < pos[target] else 0)
            if votes[a] > cap:
                need += votes[a] - cap
                if need > t:
                    return False
        return True

    lo, hi = 1, opp_total
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    witness = _drain_witness(votes, target, pos, lo)
    return lo, witness


def _drain_witness(votes, target, pos, moves):
    """Apply ``moves`` greedy strongest-first transfers onto ``target``."""
    counts = list(votes)
    counts[target] += moves
    opponents = [a for a in range(len(counts)) if a != target]
    remaining = moves
    while remaining > 0:
        opponents.sort(key=lambda a: (-counts[a], pos[a]))
        top = counts[opponents[0]]
        if top == 0:
            break
        group = 1
        while group < len(opponents) and counts[opponents[group]] == top:
            group += 1
        nxt = counts[opponents[group]] if group < len(opponents) else 0
        gap = top - nxt
        full, part = divmod(remaining, group)
        if full >= gap:
            for a in opponents[:group]:
                counts[a] -= gap
            remaining -= gap * group
        else:
            for a in opponents[:group]:
                counts[a] -= full
            for a in opponents[:part]:
                counts[a] -= 1
            remaining = 0
    return tuple(counts)


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
    votes = tuple(int(v) for v in votes)
    if regular and target is None:
        raise UnsupportedError("regular enumeration needs the preferred candidate")
    m = len(votes)
    gamma = int(gamma)
    suffix_free = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix_free[j] = suffix_free[j + 1] + votes[j]

    def rec(j, remaining, additions_left, prefix):
        if j == m - 1:
            x = remaining
            if regular and j != target and x > votes[j]:
                return
            if max(0, x - votes[j]) <= additions_left:
                yield prefix + (x,)
            return
        hi = min(remaining, votes[j] + additions_left)
        if regular and j != target:
            hi = min(hi, votes[j])
        lo = max(0, remaining - suffix_free[j + 1] - additions_left)
        for x in range(lo, hi + 1):
            add = max(0, x - votes[j])
            if remaining - x > suffix_free[j + 1] + (additions_left - add):
                continue
            yield from rec(j + 1, remaining - x, additions_left - add, prefix + (x,))

    yield from rec(0, sum(votes), gamma, ())


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
    if election.rule == RULE_PV and election.budget_defender == 0:
        return _man_pv_no_recount(election, max_nodes, t0)

    m = election.num_candidates
    options: dict[int, list] = {}
    if election.rule == RULE_PV:
        for i, d in enumerate(election.districts):
            if d.gamma == 0:
                continue
            true_part = election.district_contribution(d, d.votes)
            opts = []
            for vec in enumerate_distortions(d.votes, d.gamma, regular, p):
                if vec == d.votes:
                    continue
                fake_part = election.district_contribution(d, vec)
                opts.append((vec, tuple(f - t for f, t in zip(fake_part, true_part))))
                if len(opts) > max_nodes:
                    raise ResourceLimitError(
                        f"district {i} admits more than {max_nodes} distortions"
                    )
            if opts:
                options[i] = opts
    else:
        for i, d in enumerate(election.districts):
            w0 = election.district_winner(d.votes)
            opts = []
            targets = [p] if regular else [c for c in range(m) if c != w0]
            for c in targets:
                if c == w0:
                    continue
                cost, vec = district_min_steal(d.votes, c, election.tiebreak)
                if cost <= d.gamma:
                    delta = [0] * m
                    delta[c] += d.weight
                    delta[w0] -= d.weight
                    opts.append((vec, tuple(delta)))
            if opts:
                options[i] = opts

    pool = sorted(options)
    base_true = social_welfare_vector(election)
    order = defender_preference_order(election)
    # each defence ends at the first recount electing someone preferred over p
    ranks = {c: 0 for c in order[: order.index(p)]}
    ranks[p] = 1
    b_d = election.budget_defender
    nodes = 0
    for size in range(0, min(election.budget_attacker, len(pool)) + 1):
        for attacked in combinations(pool, size):
            for combo in product(*(options[i] for i in attacked)):
                nodes += 1
                if nodes > max_nodes:
                    raise ResourceLimitError(f"attack search exceeded {max_nodes} nodes")
                scores = base_true
                deltas = {}
                for i, (_, delta) in zip(attacked, combo):
                    scores = _add(scores, delta)
                    deltas[i] = tuple(-x for x in delta)
                winner, recount, _ = _optimize_walk(election, scores, attacked, deltas, b_d, ranks)
                if winner == p:
                    manipulation = Manipulation({i: vec for i, (vec, _) in zip(attacked, combo)})
                    ensure_valid(election, manipulation, require_regular=regular)
                    stats = {"explored": nodes, "runtime_ms": (time.perf_counter() - t0) * 1000}
                    return SolveReport(
                        True, p, "man-brute", manipulation, RecountSet(recount), stats
                    )
    stats = {"explored": nodes, "runtime_ms": (time.perf_counter() - t0) * 1000}
    return SolveReport(False, None, "man-brute", None, None, stats)


def _man_pv_no_recount(election, max_nodes, t0):
    """PV attacks against a defender with no recount budget.

    Transferring as many votes as possible onto the preferred candidate
    dominates every other distortion of the same districts, so per attacked
    set it suffices to check whether the required deficits can be collected
    from the attacked districts (a bipartite supply/demand cut condition).
    The result is identical for the regular and the unrestricted game.
    """
    p = election.preferred
    sw = social_welfare_vector(election)
    pos = election.position
    m = election.num_candidates
    transfers = [min(d.gamma, d.size - d.votes[p]) for d in election.districts]
    pool = [i for i in range(election.num_districts) if transfers[i] > 0]
    nodes = 0
    for size in range(0, min(election.budget_attacker, len(pool)) + 1):
        for attacked in combinations(pool, size):
            nodes += 1
            if nodes > max_nodes:
                raise ResourceLimitError(f"attack search exceeded {max_nodes} nodes")
            p_final = sw[p] + sum(transfers[i] for i in attacked)
            needs = {}
            feasible = True
            for a in range(m):
                if a == p:
                    continue
                cap = p_final - (1 if pos[a] < pos[p] else 0)
                if cap < 0:
                    feasible = False
                    break
                if sw[a] > cap:
                    needs[a] = sw[a] - cap
            if not feasible:
                continue
            if len(needs) > 20:
                raise ResourceLimitError("too many deficit candidates for the cut check")
            for r in range(1, len(needs) + 1):
                if not feasible:
                    break
                for subset in combinations(needs, r):
                    lhs = sum(needs[a] for a in subset)
                    rhs = sum(
                        min(transfers[i], sum(election.districts[i].votes[a] for a in subset))
                        for i in attacked
                    )
                    if lhs > rhs:
                        feasible = False
                        break
            if feasible:
                manipulation = _transfer_witness(election, attacked, transfers, needs)
                assert tally(election, manipulation).winner == p
                stats = {
                    "explored": nodes,
                    "path": "no-recount-transfer",
                    "runtime_ms": (time.perf_counter() - t0) * 1000,
                }
                return SolveReport(True, p, "man-brute", manipulation, RecountSet(()), stats)
    stats = {
        "explored": nodes,
        "path": "no-recount-transfer",
        "runtime_ms": (time.perf_counter() - t0) * 1000,
    }
    return SolveReport(False, None, "man-brute", None, None, stats)


def _transfer_witness(election, attacked, transfers, needs):
    """Build the max-transfer distortion realising the checked deficits."""
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
        assert value == sum(needs.values())
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

    steal_vec = {}
    by_winner: dict[int, list[int]] = {}
    for i, d in enumerate(election.districts):
        w0 = election.district_winner(d.votes)
        if w0 == p:
            continue
        cost, vec = district_min_steal(d.votes, p, election.tiebreak)
        if cost <= d.gamma:
            steal_vec[i] = vec
            by_winner.setdefault(w0, []).append(i)
    flippable = sorted(steal_vec)
    heavy = sorted(flippable, key=lambda i: (-election.districts[i].weight, i))
    limit = min(election.budget_attacker, len(flippable))

    committed: list[int] = []
    rounds = 0
    while True:
        rounds += 1
        chosen = set(committed)
        for i in heavy:
            if len(chosen) == limit:
                break
            chosen.add(i)
        manipulation = Manipulation({i: steal_vec[i] for i in sorted(chosen)})
        greedy = greedy_recount(election, manipulation)
        stats = {"explored": rounds, "runtime_ms": (time.perf_counter() - t0) * 1000}
        if greedy.winner == p:
            return SolveReport(True, p, "man-pd-regular", manipulation, RecountSet(()), stats)
        rescuer = greedy.winner
        pool = [i for i in by_winner.get(rescuer, ()) if i not in committed]
        if not pool or len(committed) == limit:
            return SolveReport(False, None, "man-pd-regular", None, None, stats)
        committed.append(
            sorted(pool, key=lambda i: (-election.districts[i].weight, i))[0]
        )


def verify_regular_attack(election: Election, manipulation: Manipulation) -> SolveReport:
    """Certificate check: does this regular attack beat the optimal defender?

    Greedy recounting decides the question exactly for regular attacks, so
    the answer is simply whether it outputs the attacker's candidate.
    """
    t0 = time.perf_counter()
    violations = validate_manipulation(election, manipulation, require_regular=True)
    if violations:
        raise UnsupportedError(
            "manipulation is not regular: " + "; ".join(v.detail for v in violations)
        )
    greedy = greedy_recount(election, manipulation)
    decision = greedy.winner == election.preferred
    stats = dict(greedy.stats)
    stats["runtime_ms"] = (time.perf_counter() - t0) * 1000
    return SolveReport(decision, greedy.winner, "verify-regular", manipulation, greedy.recount, stats)
