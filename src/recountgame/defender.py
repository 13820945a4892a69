"""Recount solvers: the defender's side of the game.

Four engines answer "can candidate ``target`` be made the winner by
recounting at most ``budget`` attacked districts":

* :func:`rec_decide_brute` enumerates recount sets and doubles as the oracle.
* :func:`rec_decide_dp` runs a dynamic program over reachable score vectors.
* :func:`rec_pd_unweighted` reduces unit-weight PD instances to a priced
  voting-change problem and solves it with a min-cost flow.
* :func:`greedy_recount` is the polynomial greedy heuristic; against attacks
  that only move votes toward the attacker's candidate it decides the game
  exactly and guarantees half the optimal welfare.

:func:`rec_optimize` turns any decision engine into the defender's optimal
response by scanning candidates in its preference order.

:func:`_optimize_walk` is the only recount walker: the brute-force decision,
the brute-force optimum and the attacker's nested defence all call it with a
rank per candidate of interest.  Each solver validates the manipulation once,
at entry; everything after that scores through the unchecked ``_tally``.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import networkx as nx

from .errors import ResourceLimitError, UnsupportedError
from .model import (
    RULE_PD,
    Election,
    Manipulation,
    RecountSet,
    SolveReport,
    _tally,
    defender_preference_order,
    ensure_valid,
)

DEFAULT_MAX_SUBSETS = 2_000_000
DEFAULT_MAX_STATES = 10_000_000


def restore_deltas(election: Election, manipulation: Manipulation) -> dict[int, tuple[int, ...]]:
    """Per attacked district, the score change caused by recounting it."""
    deltas = {}
    for i, distorted in manipulation.items():
        d = election.districts[i]
        true_part = election.district_contribution(d, d.votes)
        fake_part = election.district_contribution(d, distorted)
        deltas[i] = tuple(t - f for t, f in zip(true_part, fake_part))
    return deltas


def _add(scores: Sequence[int], delta: Sequence[int]) -> tuple[int, ...]:
    return tuple(s + d for s, d in zip(scores, delta))


def _checked_budget(election: Election, manipulation: Manipulation, budget: Optional[int]) -> int:
    """The one validation of a solve: check the attack, resolve the budget."""
    ensure_valid(election, manipulation)
    b = election.budget_defender if budget is None else int(budget)
    if b < 0:
        raise UnsupportedError("recount budget must be non-negative")
    return b


def _optimize_walk(election, base, attacked, deltas, budget, ranks):
    """Depth-first walk over recount sets in lexicographic order.

    ``ranks`` maps the candidates of interest to a rank (lower is better);
    winners without a rank are ignored.  The walk stops at the first recount
    that elects a candidate of the best rank present and otherwise keeps the
    first recount of the best rank it reached.  Returns ``(winner, recount,
    nodes)``, or ``(None, None, nodes)`` when no ranked candidate can win.
    """
    goal = min(ranks.values())
    best_rank = math.inf
    winner = recount = None
    nodes = 0

    def walk(scores, start, depth, prefix):
        nonlocal nodes, best_rank, winner, recount
        nodes += 1
        w = election.winner_of(scores)
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


def _brute_walk(election, manipulation, budget, max_subsets, ranks):
    """Guard the enumeration size, then walk from the distorted tally."""
    attacked = manipulation.districts
    n = len(attacked)
    if sum(math.comb(n, r) for r in range(min(n, budget) + 1)) > max_subsets:
        raise ResourceLimitError(
            f"recount enumeration over {n} districts with budget {budget} exceeds cap {max_subsets}"
        )
    deltas = restore_deltas(election, manipulation)
    base = _tally(election, manipulation).scores
    return _optimize_walk(election, base, attacked, deltas, budget, ranks)


def rec_decide_brute(
    election: Election,
    manipulation: Manipulation,
    target: int,
    budget: Optional[int] = None,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> SolveReport:
    """Exhaustive recount decision; the oracle the other engines are held to.

    Walks recount sets in lexicographic order of their sorted index sequence,
    so the witness is the lexicographically smallest winning set.
    """
    t0 = time.perf_counter()
    b = _checked_budget(election, manipulation, budget)
    winner, found, nodes = _brute_walk(election, manipulation, b, max_subsets, {target: 0})
    stats = {"explored": nodes, "runtime_ms": (time.perf_counter() - t0) * 1000}
    if winner is None:
        return SolveReport(False, None, "rec-brute", manipulation, None, stats)
    return SolveReport(True, target, "rec-brute", manipulation, RecountSet(found), stats)


def rec_optimize(
    election: Election,
    manipulation: Manipulation,
    budget: Optional[int] = None,
    algo: str = "brute",
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    max_states: int = DEFAULT_MAX_STATES,
) -> SolveReport:
    """The defender's optimal response.

    Scans candidates in decreasing (welfare, priority) preference and returns
    the first one some legal recount makes the winner, together with that
    recount set.
    """
    t0 = time.perf_counter()
    b = _checked_budget(election, manipulation, budget)
    if algo == "brute":
        ranks = {c: r for r, c in enumerate(defender_preference_order(election))}
        winner, recount, nodes = _brute_walk(election, manipulation, b, max_subsets, ranks)
        stats = {"explored": nodes, "runtime_ms": (time.perf_counter() - t0) * 1000}
        return SolveReport(True, winner, "rec-opt-brute", manipulation, RecountSet(recount), stats)
    if algo == "dp":
        entries, created = _dp_core(election, manipulation, b, max_states)
        for c in defender_preference_order(election):
            pick = _dp_pick(election, entries, c)
            if pick is not None:
                stats = {"explored": created, "runtime_ms": (time.perf_counter() - t0) * 1000}
                return SolveReport(
                    True, c, "rec-opt-dp", manipulation, RecountSet(_dp_witness(pick)), stats
                )
        raise AssertionError("no achievable winner")
    if algo == "pd-unweighted":
        for c in defender_preference_order(election):
            report = rec_pd_unweighted(election, manipulation, c, b)
            if report.decision:
                report.algorithm = "rec-opt-pd-unweighted"
                report.stats["runtime_ms"] = (time.perf_counter() - t0) * 1000
                return report
        raise AssertionError("no achievable winner")
    raise UnsupportedError(f"unknown rec_optimize backend {algo!r}")


# ---------------------------------------------------------------------------
# dynamic programming over reachable score vectors


def _dp_core(election, manipulation, budget, max_states):
    """Sparse forward DP: reachable score vectors and their recount cost.

    Seeded at the distorted tally; restoring district ``i`` shifts the vector
    by that district's true-minus-distorted contribution.  Entries are
    ``(vector, cost, parent_entry, district)`` chains so a witness can be read
    back without storing per-layer tables.
    """
    deltas = restore_deltas(election, manipulation)
    effective = [i for i in manipulation.districts if any(deltas[i])]
    base = _tally(election, manipulation).scores
    seed = (base, 0, None, None)
    entries = {base: seed}
    created = 1
    for i in effective:
        delta = deltas[i]
        for entry in list(entries.values()):
            if entry[1] >= budget:
                continue
            vec = _add(entry[0], delta)
            cost = entry[1] + 1
            cur = entries.get(vec)
            if cur is None or cost < cur[1]:
                entries[vec] = (vec, cost, entry, i)
                created += 1
                if len(entries) > max_states:
                    raise ResourceLimitError(
                        f"reachable score-vector set exceeded {max_states} states"
                    )
    return entries, created


def _dp_pick(election, entries, target):
    """Cheapest (then smallest) reachable vector that elects ``target``."""
    best = None
    for vec, entry in entries.items():
        if election.winner_of(vec) == target:
            key = (entry[1], vec)
            if best is None or key < best[0]:
                best = (key, entry)
    return None if best is None else best[1]


def _dp_witness(entry) -> tuple[int, ...]:
    out = []
    while entry[2] is not None:
        out.append(entry[3])
        entry = entry[2]
    return tuple(sorted(out))


def rec_decide_dp(
    election: Election,
    manipulation: Manipulation,
    target: int,
    budget: Optional[int] = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> SolveReport:
    """Score-vector dynamic program for the recount decision.

    Agrees with :func:`rec_decide_brute` on every input; the witness comes
    from back-pointers and may differ from the brute-force one.
    """
    t0 = time.perf_counter()
    b = _checked_budget(election, manipulation, budget)
    entries, created = _dp_core(election, manipulation, b, max_states)
    pick = _dp_pick(election, entries, target)
    stats = {"explored": created, "runtime_ms": (time.perf_counter() - t0) * 1000}
    if pick is None:
        return SolveReport(False, None, "rec-dp", manipulation, None, stats)
    return SolveReport(True, target, "rec-dp", manipulation, RecountSet(_dp_witness(pick)), stats)


# ---------------------------------------------------------------------------
# unit-weight PD: reduction to priced vote changes, solved as a flow


def rec_pd_unweighted(
    election: Election,
    manipulation: Manipulation,
    target: int,
    budget: Optional[int] = None,
) -> SolveReport:
    """Polynomial recount decision for unit-weight PD elections.

    Each district becomes a single voter whose vote can be kept for free or,
    if the district was attacked, bought back to the true local winner at
    price one.  For every candidate final score the question "can ``target``
    end exactly there while everyone else stays under the bar" is a min-cost
    flow; the recount budget pays the flips.
    """
    t0 = time.perf_counter()
    if election.rule != RULE_PD:
        raise UnsupportedError("rec_pd_unweighted requires rule PD")
    if any(d.weight != 1 for d in election.districts):
        raise UnsupportedError("rec_pd_unweighted requires unit weights")
    b = _checked_budget(election, manipulation, budget)

    pos = election.position
    k = election.num_districts
    true_winner = [election.district_winner(d.votes) for d in election.districts]
    final_winner = list(true_winner)
    flippable = []  # (district, kept winner, restorable winner)
    for i, distorted in manipulation.items():
        w = election.district_winner(distorted)
        final_winner[i] = w
        if w != true_winner[i]:
            flippable.append((i, w, true_winner[i]))

    flows = 0
    for s in range(k + 1):
        caps = {}
        feasible = True
        for a in range(election.num_candidates):
            if a == target:
                continue
            cap = s - (1 if pos[a] < pos[target] else 0)
            if cap < 0:
                feasible = False
                break
            caps[a] = cap
        if not feasible:
            continue
        graph = nx.DiGraph()
        for i in range(k):
            graph.add_node(("d", i), demand=-1)
            graph.add_edge(("d", i), ("c", final_winner[i]), capacity=1, weight=0)
        for i, _, restored in flippable:
            graph.add_edge(("d", i), ("c", restored), capacity=1, weight=1)
        graph.add_node(("c", target), demand=s)
        graph.add_node("sink", demand=k - s)
        for a, cap in caps.items():
            graph.add_edge(("c", a), "sink", capacity=cap, weight=0)
        flows += 1
        try:
            flow = nx.min_cost_flow(graph)
        except nx.NetworkXUnfeasible:
            continue
        cost = nx.cost_of_flow(graph, flow)
        if cost > b:
            continue
        recount = tuple(
            i for i, _, restored in flippable if flow[("d", i)].get(("c", restored), 0)
        )
        stats = {"explored": flows, "runtime_ms": (time.perf_counter() - t0) * 1000}
        return SolveReport(True, target, "rec-pd-unweighted", manipulation, RecountSet(recount), stats)
    stats = {"explored": flows, "runtime_ms": (time.perf_counter() - t0) * 1000}
    return SolveReport(False, None, "rec-pd-unweighted", manipulation, None, stats)


# ---------------------------------------------------------------------------
# greedy recounting


def greedy_recount(
    election: Election,
    manipulation: Manipulation,
    budget: Optional[int] = None,
) -> SolveReport:
    """Polynomial greedy defender.

    Starts from the attacker's candidate as the provisional winner.  For every
    candidate the defender likes better, it recounts the districts with the
    largest restorative swing for that candidate (ties to the lower district
    index) and keeps the resulting winner when the defender prefers it.  The
    report's decision flag says whether the attack survived, i.e. whether the
    output is the attacker's candidate.

    Against vote-moves toward the attacker's candidate this is an exact
    win/lose test and a 1/2-approximation of the optimal defender welfare;
    for arbitrary attacks it is only a heuristic and the chosen recount may
    not reproduce the reported winner, in which case no witness is attached.
    """
    t0 = time.perf_counter()
    b = _checked_budget(election, manipulation, budget)
    p = election.preferred
    if p is None:
        raise UnsupportedError("greedy_recount needs the attacker's preferred candidate")
    order = defender_preference_order(election)
    better = order[: order.index(p)]  # candidates the defender prefers over p
    attacked = manipulation.districts
    take = min(b, len(attacked))
    deltas = restore_deltas(election, manipulation)

    provisional: dict[int, tuple[int, ...]] = {p: ()}
    for a in better:
        # largest restorative swing toward a first: deltas[i][a] - deltas[i][p]
        ranked = sorted(attacked, key=lambda i: (deltas[i][p] - deltas[i][a], i))
        chosen = tuple(sorted(ranked[:take]))
        winner = _tally(election, manipulation, chosen).winner
        if winner in better and winner not in provisional:
            provisional[winner] = chosen

    output = min(provisional, key=order.index)
    recount = provisional[output]
    stats = {"explored": len(better), "runtime_ms": (time.perf_counter() - t0) * 1000}
    witness = None
    if _tally(election, manipulation, recount).winner == output:
        witness = RecountSet(recount)
    else:
        stats["witness_note"] = "no single recount reproduces the provisional winner"
    return SolveReport(output == p, output, "rec-greedy", manipulation, witness, stats)
