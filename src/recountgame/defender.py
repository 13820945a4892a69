"""Recount solvers: the defender's side of the game.

The defender asks one question: can recounting at most ``budget`` attacked
districts elect candidate ``c``?  Its optimal response asks it down its
preference order.  One private scan, ``_recount_scan``, answers both, and
owns the prelude, the choice of backend, the timing and the report:
:func:`rec_decide_brute`, :func:`rec_decide_dp` and :func:`rec_pd_unweighted`
ask about one target, and :func:`rec_optimize` asks about every candidate,
most preferred first, and returns the first that some legal recount elects.
:func:`solve_rec`, the command line's entry point, picks one of them (or
:func:`greedy_recount`) by its ``algo`` name.

* ``brute``, the oracle, answers all the candidates in one walk that ranks
  each by its place in the scan; ``stats["explored"]`` counts recount sets.
* ``dp`` asks :func:`_margin_dp`, a forward DP over the target's margins
  (:func:`rec_decide_dp`), about each candidate; ``explored`` sums the
  states created.
* ``pd-unweighted`` reduces unit-weight PD to priced vote changes and asks
  min-cost flows about each candidate; ``explored`` sums the flows run.

:func:`greedy_recount`, outside the scan, is the polynomial greedy defender;
against attacks that only move votes toward the attacker's candidate it
decides the game exactly and guarantees half the optimal welfare.  It is the
checked entry point of the kernel ``_greedy_recount``, which the regular
attacker solvers call directly.

:func:`_optimize_walk` is the only recount walker: the brute-force backend
and the attacker's nested defence both call it.  It walks score vectors laid
out in tie-break order (highest priority first), so a vector's winner is its
first maximum, the rule :meth:`Election.winner_of` also applies.  The
callers lay out, once per solve, the distorted scores and each attacked
district's restore delta in that order (:meth:`Election.by_priority`), and
a rank per priority position (``inf`` for candidates of no interest).

The walk visits each distinct recount once.  Attacked districts with equal
restore deltas are *twins*, as are the padding districts of the Partition
reduction (:func:`~.generators.gen_partition_pv_recreg`).  A child whose twin
is an earlier sibling is skipped: each set below it scores like one below
that sibling, whose subtree the walk has already seen in full without
reaching its goal.  The sets below it are counted in closed form
(:func:`_subset_counts`), so ``explored`` still counts every set covered.
The attacker's nested defences pass no twins: that search stays the
exhaustive oracle.  Over half of them end at the root, whose winner already
has the goal rank; :func:`~.attacker.man_decide_brute` answers those in its
attack loop and walks only the rest.

The tie rule comes from :mod:`.model`: a rival's bar (:func:`~.model.bars`)
is the highest score at which it does not beat the target.  Each solve reads
the attack once, through :func:`~.model.validate_manipulation`, which checks
it and yields each attacked district's restore delta, and tallies the true
profile once (``_checked_attack``); the preference order and the distorted
scores (the true scores minus the deltas) are both read from that tally.  No
engine reads the distorted vectors again: a recount adds its deltas back.
The prelude works per distinct attacked pair, not per attacked district:
validation checks each distinct ``(district, distorted vector)`` pair once
and reuses its delta for the repeats, and the brute backend lays out each
distinct delta once (:func:`_brute_walk`), so the Partition padding costs
one check and one layout however many districts it has.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from itertools import accumulate
from operator import add, ge
from typing import Optional

import networkx as nx

from .errors import ResourceLimitError, UnsupportedError
from .model import (
    RULE_PD,
    Election,
    Manipulation,
    RecountSet,
    SolveReport,
    _check_int,
    _distorted_scores,
    _preference_order,
    _tally,
    bars,
    check_candidate,
    ensure_valid,
)

DEFAULT_MAX_SUBSETS = 2_000_000
DEFAULT_MAX_STATES = 10_000_000


def _checked_attack(election: Election, manipulation: Manipulation, budget: Optional[int]):
    """The prelude of a solve: check the attack, resolve the budget and tally
    the true profile, once each; returns the budget, the restore delta per
    attacked district and the true :class:`~.model.Tally`."""
    deltas = ensure_valid(election, manipulation)
    b = election.budget_defender if budget is None else budget
    _check_int("recount budget", b, 0)
    return b, deltas, _tally(election)


def _optimize_walk(tiebreak, base, attacked, steps, budget, rank_at, twin, counts):
    """Depth-first walk over recount sets in lexicographic order.

    Every vector is in tie-break order (``base[j]`` is the score of
    ``tiebreak[j]``), so the first maximum of a vector is its winner.
    ``steps[k]`` is the restore delta of district ``attacked[k]`` and
    ``rank_at[j]`` the rank of ``tiebreak[j]`` (lower is better; ``inf`` for
    candidates of no interest).  Callers lay these out once per solve with
    :meth:`Election.by_priority`.  The walk stops at the first recount that
    elects a candidate of the best rank present and otherwise keeps the first
    recount of the best rank it reached.  At least one candidate is ranked.
    The root, the empty recount, is the first node: a root that already
    elects a candidate of the goal rank returns ``(winner, (), 1)``.
    Returns ``(winner, recount, nodes)``, or ``(None, None, nodes)`` when no
    ranked candidate can win.

    ``twin[k]`` is the last ``k' < k`` with ``steps[k'] == steps[k]``, or -1.
    A child ``k`` whose twin is a sibling (``twin[k] >= start``) is not
    walked.  Proof that this changes nothing: every set ``prefix + {k} + S``
    with ``S`` drawn from ``(k, n)`` has the score vector of ``prefix + {k'}
    + S``, which lies in the subtree of ``k'``, already covered (walked, or
    skipped by this same rule for an earlier twin).  The walk only returns
    early on reaching the goal rank, so that subtree was covered in full
    without reaching it, and ``best_rank`` is already at most every rank the
    subtree of ``k`` could give: neither the strict ``<`` nor the goal can
    fire there.  ``nodes`` still counts every recount set covered, walked or
    counted: a skipped child with ``left`` recounts to spend below it adds
    ``counts[left][n - k - 1]``, the sets of at most ``left`` of the ``n - k
    - 1`` districts after it.  ``counts`` comes from :func:`_subset_counts`
    for ``n`` and ``budget``, with ``budget <= n``; it is read only when a
    twin is skipped.
    """
    goal = min(rank_at)
    best_rank = math.inf
    best = None
    nodes = 0
    n = len(attacked)
    prefix = []

    def walk(scores, start, left):
        nonlocal nodes, best_rank, best
        nodes += 1
        j = scores.index(max(scores))
        if rank_at[j] < best_rank:
            best_rank, best = rank_at[j], (tiebreak[j], tuple(prefix))
            if best_rank == goal:
                return True
        if not left:
            return False
        left -= 1
        for k in range(start, n):
            if twin[k] >= start:
                nodes += counts[left][n - k - 1]
                continue
            prefix.append(attacked[k])
            if walk(tuple(map(add, scores, steps[k])), k + 1, left):
                return True
            prefix.pop()
        return False

    walk(base, 0, budget)
    winner, recount = best or (None, None)
    return winner, recount, nodes


def _subset_counts(n, budget, max_subsets):
    """``counts[r][m]``, the number of sets of at most ``r`` of ``m``
    districts (``sum(C(m, i) for i <= r)``), for ``r <= min(budget, n)`` and
    ``m <= n``.

    Raises :class:`ResourceLimitError` when the recount sets of at most
    ``budget`` of all ``n`` districts exceed ``max_subsets``.  Row ``r`` is
    one plus the prefix sums of row ``r - 1`` (Pascal's rule); the rows grow
    with ``r``, so the check runs per row and a refused table stops early.
    """
    row = [1] * (n + 1)
    counts = [row]
    while True:
        if row[n] > max_subsets:
            raise ResourceLimitError(
                f"recount enumeration over {n} districts with budget {budget} "
                f"exceeds cap {max_subsets}"
            )
        if len(counts) > min(budget, n):
            return counts
        row = list(accumulate(row[:-1], initial=1))
        counts.append(row)


def _brute_walk(election, scores, deltas, budget, max_subsets, ranks):
    """Guard the enumeration size, lay out the distorted scores (the true
    ``scores`` minus ``deltas``), deltas, twins and ``ranks`` (per candidate
    of interest) in tie-break order, then walk.  Each distinct delta is laid
    out once, in the pass that finds the twins."""
    attacked = tuple(deltas)
    n = len(attacked)
    counts = _subset_counts(n, budget, max_subsets)
    by_priority = election.by_priority
    steps, twin = [], []
    last = {}  # delta -> (last k with that delta, its step)
    for k, delta in enumerate(deltas.values()):
        j, step = last.get(delta) or (-1, by_priority(delta))
        last[delta] = k, step
        steps.append(step)
        twin.append(j)
    base = by_priority(_distorted_scores(scores, deltas))
    rank_at = [ranks.get(c, math.inf) for c in election.tiebreak]
    return _optimize_walk(
        election.tiebreak, base, attacked, steps, min(budget, n), rank_at, twin, counts
    )


def _recount_scan(
    election, manipulation, targets, budget, algo,
    max_subsets=DEFAULT_MAX_SUBSETS, max_states=DEFAULT_MAX_STATES,
):
    """Ask, for each candidate of ``targets`` in turn, whether recounting at
    most ``budget`` attacked districts elects it; report the first yes.

    ``targets`` is ``(target,)`` for a decision (algorithm ``rec-<algo>``) or
    ``None`` for the optimal response: the defender's preference order,
    which always holds an achievable winner (``rec-opt-<algo>``).  ``brute``
    answers every target in one walk, ranking each by its position in
    ``targets``; ``dp`` and ``pd-unweighted`` ask their per-target kernel
    about each in turn and sum ``explored`` over the targets asked.
    """
    t0 = time.perf_counter()
    if algo == "pd-unweighted":
        if election.rule != RULE_PD:
            raise UnsupportedError("rec_pd_unweighted requires rule PD")
        if any(d.weight != 1 for d in election.districts):
            raise UnsupportedError("rec_pd_unweighted requires unit weights")
    b, deltas, truth = _checked_attack(election, manipulation, budget)
    optimum = targets is None
    if optimum:
        targets = _preference_order(election, truth.scores)
    else:
        for c in targets:
            check_candidate(election, c, "target")
    if algo == "brute":
        _check_int("max_subsets", max_subsets, 0)
        ranks = {c: r for r, c in enumerate(targets)}
        winner, recount, explored = _brute_walk(
            election, truth.scores, deltas, b, max_subsets, ranks
        )
    else:
        if algo == "dp":
            _check_int("max_states", max_states, 0)
            base = _distorted_scores(truth.scores, deltas)
            # one layer per attacked district whose recount changes some score
            layers = [(i, delta) for i, delta in deltas.items() if any(delta)]

            def decide(c, explored):
                return _margin_dp(election, base, layers, c, b, max_states, explored)

        elif algo == "pd-unweighted":
            final_winner, flippable = _pd_flips(truth, deltas)

            def decide(c, explored):
                return _pd_flow(election, final_winner, flippable, c, b, explored)

        else:
            raise UnsupportedError(f"unknown rec_optimize backend {algo!r}")
        winner = recount = None
        explored = 0
        for c in targets:
            recount, explored = decide(c, explored)
            if recount is not None:
                winner = c
                break
    ms = (time.perf_counter() - t0) * 1000
    name = f"rec-opt-{algo}" if optimum else f"rec-{algo}"
    if winner is None:
        if optimum:
            raise AssertionError("no achievable winner")
        return SolveReport(False, None, name, manipulation, None, explored, ms)
    return SolveReport(True, winner, name, manipulation, RecountSet(recount), explored, ms)


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
    return _recount_scan(election, manipulation, (target,), budget, "brute", max_subsets)


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
    recount set.  The ``dp`` and ``pd-unweighted`` backends ask their
    per-target kernel about each scanned candidate in turn; their
    ``stats["explored"]`` is the sum over the scanned candidates (DP states
    created, or flows run), and ``max_states`` caps that sum.
    """
    return _recount_scan(election, manipulation, None, budget, algo, max_subsets, max_states)


def solve_rec(
    election: Election, manipulation: Manipulation, target: Optional[int] = None, algo: str = "brute"
) -> SolveReport:
    """The defender's entry point: with no ``target`` the optimal response of
    :func:`rec_optimize` (backend ``brute``, ``dp`` or ``pd-unweighted``) or of
    :func:`greedy_recount` (``greedy``), else that backend's decision engine.
    Raises :class:`UnsupportedError` for ``greedy`` with a target and for an unknown ``algo``."""
    if algo == "greedy":
        if target is not None:
            raise UnsupportedError("greedy recounting does not answer per-target questions")
        return greedy_recount(election, manipulation)
    # built per call: a wrapper installed on a module attribute then sees the call
    decide = {"brute": rec_decide_brute, "dp": rec_decide_dp, "pd-unweighted": rec_pd_unweighted}
    if algo not in decide:
        raise UnsupportedError(f"unknown recount algorithm {algo!r}")
    if target is None:
        return rec_optimize(election, manipulation, algo=algo)
    return decide[algo](election, manipulation, target)


# ---------------------------------------------------------------------------
# dynamic programming over the target's margins


def _margin_dp(election, base, layers, target, budget, max_states, created=0):
    """Forward DP over the margins ``s_target - s_a``; see :func:`rec_decide_dp`.

    ``created`` is the running count of states created, checked against
    ``max_states`` once per layer.  Returns ``(recount, created)`` with
    ``recount`` the sorted witness, or ``None`` when ``target`` cannot be
    made the winner.
    """
    others = [a for a in range(len(base)) if a != target]
    bar = bars(election.position, target, 0)
    need = tuple(-bar[a] for a in others)
    shifts = [tuple(delta[target] - delta[a] for a in others) for _, delta in layers]
    n = len(layers)
    # Per number j of layers decided, filled from the last layer back: the
    # clip vector, and per margin the prefix sums of the largest ``budget``
    # gains still to come, padded to ``rows`` entries (recomputed only for
    # the margins a layer raises, shared otherwise).
    rows = min(budget, n) + 1
    clip, top = list(need), [(0,) * rows] * len(need)
    caps, tops = [need], [tuple(top)]
    largest = [[] for _ in need]  # per margin, the top ``budget`` gains to come, negated
    for shift in reversed(shifts):
        for k, s in enumerate(shift):
            if s < 0:
                clip[k] -= s
            elif s > 0 and budget:
                insort(largest[k], -s)
                del largest[k][budget:]
                acc = list(accumulate((-g for g in largest[k]), initial=0))
                top[k] = tuple(acc + acc[-1:] * (rows - len(acc)))
        caps.append(tuple(clip))
        tops.append(tuple(top))
    caps.reverse()
    tops.reverse()

    moves = [(tuple(base[target] - base[a] for a in others), 0, None)]
    for j in range(n + 1):
        # charged per layer: a layer always finishes before its answer is
        # read, so a per-state check would refuse the same inputs
        created += len(moves)
        if created > max_states:
            raise ResourceLimitError(
                f"recount DP created more than max_states={max_states} states"
            )
        cap = caps[j]
        # per recounts spent, the least margins from which the largest gain
        # still affordable reaches ``need``; built when first asked for
        floors = {}
        layer = {}  # clipped margins -> (recounts, chain of (district, rest of the chain))
        for margins, spent, chain in moves:
            floor = floors.get(spent)
            if floor is None:
                r = min(budget - spent, n - j)
                floor = floors[spent] = tuple(x - acc[r] for x, acc in zip(need, tops[j]))
            # every cap entry is at least need >= floor, so testing the
            # unclipped margins prunes exactly the states clipping would
            if not all(map(ge, margins, floor)):
                continue
            key = tuple(map(min, margins, cap))
            old = layer.get(key)
            if old is None or spent < old[0]:
                layer[key] = (spent, chain)
        if cap in layer:  # every margin is safe: leaving the remaining districts alone wins
            out, chain = [], layer[cap][1]
            while chain is not None:
                out.append(chain[0])
                chain = chain[1]
            return tuple(sorted(out)), created
        if not layer or j == n:
            return None, created
        i, shift = layers[j][0], shifts[j]
        moves = [(margins, cost, chain) for margins, (cost, chain) in layer.items()]
        moves += [
            (tuple(map(add, margins, shift)), cost + 1, (i, chain))
            for margins, (cost, chain) in layer.items()
            if cost < budget
        ]


def rec_decide_dp(
    election: Election,
    manipulation: Manipulation,
    target: int,
    budget: Optional[int] = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> SolveReport:
    """Dynamic program over the target's margins for the recount decision.

    The state is the vector of margins ``s_target - s_a`` over the other
    candidates ``a``, with the recounts it cost.  ``target`` beats ``a`` iff
    the margin reaches ``need_a``: 0 when ``target`` has tie-break priority
    over ``a``, else 1.  The DP starts at the distorted tally and takes one
    layer per attacked district with a nonzero restore delta, in which each
    state is kept or shifted by that district's recount (within the budget);
    of two equal states the cheaper one stays.

    * Clipping: margin ``a`` is capped at ``need_a`` plus the largest drop the
      remaining districts can still cause, since above that it is won
      whatever they do.
    * Pruning: a state is dropped when, for some ``a``, even the largest
      gain the remaining districts can add with the recounts left falls
      short of ``need_a``.  The test runs before clipping, on the unclipped
      margins against the floor ``need - gain``; it drops the same states,
      as every clip entry is at least ``need_a``, itself at least the floor.
      A one-pass backward table keeps, per margin, the prefix sums of its
      largest gains to come; the floor of a (layer, recounts left) pair is
      built when the first state with that allowance reaches the layer.
    * Answer: ``target`` can win iff the last layer holds the all-``need``
      vector.  The DP stops early at any layer that holds its clip vector:
      leaving the remaining districts alone then wins.
    * Witness: every state carries a parent chain of the districts it
      recounted; the answer's chain is the recount set.

    ``stats["explored"]`` counts the states created: the seed and, in each
    layer, every kept or shifted state, before pruning and merging.
    ``max_states`` caps that number, checked as each layer starts; a layer
    always finishes before its answer is read, so a per-state check would
    refuse the same inputs.  Agrees with :func:`rec_decide_brute` on
    every input; the witness may differ from the brute-force one.
    """
    return _recount_scan(election, manipulation, (target,), budget, "dp", max_states=max_states)


# ---------------------------------------------------------------------------
# unit-weight PD: reduction to priced vote changes, solved as a flow


def _pd_flips(truth, deltas):
    """District winners before any recount (from the true tally ``truth``),
    and the ``(district, restorable winner)`` flips a recount can make: the
    attacked districts with a nonzero restore delta, ``+1`` at the true
    winner and ``-1`` at the distorted one."""
    final_winner = list(truth.district_winners)
    flippable = []
    for i, delta in deltas.items():
        if any(delta):
            final_winner[i] = delta.index(-1)
            flippable.append((i, delta.index(1)))
    return final_winner, flippable


def _pd_flow(election, final_winner, flippable, target, budget, flows=0):
    """One min-cost flow per final score of ``target``; see :func:`rec_pd_unweighted`.

    ``flows`` is the running count of flows run.  Returns ``(recount,
    flows)``, with ``recount`` ``None`` when ``target`` cannot win.
    """
    k = election.num_districts
    for s in range(k + 1):
        caps = bars(election.position, target, s)
        if min(caps) < 0:
            continue
        graph = nx.DiGraph()
        for i in range(k):
            graph.add_node(("d", i), demand=-1)
            graph.add_edge(("d", i), ("c", final_winner[i]), capacity=1, weight=0)
        for i, restored in flippable:
            graph.add_edge(("d", i), ("c", restored), capacity=1, weight=1)
        graph.add_node(("c", target), demand=s)
        graph.add_node("sink", demand=k - s)
        for a, cap in enumerate(caps):
            if a != target:
                graph.add_edge(("c", a), "sink", capacity=cap, weight=0)
        flows += 1
        try:
            flow = nx.min_cost_flow(graph)
        except nx.NetworkXUnfeasible:
            continue
        if nx.cost_of_flow(graph, flow) > budget:
            continue
        recount = tuple(
            i for i, restored in flippable if flow[("d", i)].get(("c", restored), 0)
        )
        return recount, flows
    return None, flows


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
    return _recount_scan(election, manipulation, (target,), budget, "pd-unweighted")


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
    b, deltas, truth = _checked_attack(election, manipulation, budget)
    if election.preferred is None:
        raise UnsupportedError("greedy_recount needs the attacker's preferred candidate")
    return _greedy_recount(election, manipulation, deltas, truth.scores, b, t0)


def _greedy_recount(election, manipulation, deltas, scores, budget, t0):
    """Unchecked kernel of :func:`greedy_recount` for validated inputs;
    ``deltas`` are the restore deltas of ``manipulation``, ``scores`` the
    true scores and ``runtime_ms`` counts from ``t0``."""
    p = election.preferred
    order = _preference_order(election, scores)
    better = order[: order.index(p)]  # candidates the defender prefers over p
    attacked = tuple(deltas)
    take = min(budget, len(attacked))
    base = _distorted_scores(scores, deltas)

    def winner_after(recount):  # base plus the recounted deltas, per candidate
        return election.winner_of(list(map(sum, zip(base, *map(deltas.get, recount)))))

    provisional: dict[int, tuple[int, ...]] = {p: ()}
    for a in better:
        # largest restorative swing toward a first: deltas[i][a] - deltas[i][p]
        ranked = sorted(attacked, key=lambda i: (deltas[i][p] - deltas[i][a], i))
        chosen = tuple(sorted(ranked[:take]))
        winner = winner_after(chosen)
        if winner in better and winner not in provisional:
            provisional[winner] = chosen

    output = min(provisional, key=order.index)
    recount = provisional[output]
    ms = (time.perf_counter() - t0) * 1000
    witness = extra = None
    if winner_after(recount) == output:
        witness = RecountSet(recount)
    else:
        extra = {"witness_note": "no single recount reproduces the provisional winner"}
    return SolveReport(
        output == p, output, "rec-greedy", manipulation, witness, len(better), ms, extra
    )
