"""Recount solvers: the defender's side of the game.

The defender asks one question: can recounting at most ``B_D`` attacked
districts (the instance's ``budget_defender``) elect candidate ``c``?  Its
optimal response asks it down its preference order.  One private scan,
``_recount_scan``, answers both, and owns the prelude, the choice of backend,
the timing and the report: :func:`rec_decide_brute`, :func:`rec_decide_dp`
and :func:`rec_pd_unweighted` ask about one target, and :func:`rec_optimize`
asks about every candidate, most preferred first, and returns the first that
some legal recount elects.
:func:`solve_rec`, the command line's entry point, picks one of them (or
:func:`greedy_recount`) by its ``algo`` name.

* ``brute``, the oracle, answers all the candidates in one walk that ranks
  each by its place in the scan; ``stats["explored"]`` counts recount sets.
* ``dp`` asks :func:`_margin_dp`, a forward DP over the target's margins
  (:func:`rec_decide_dp`), about each candidate; it decides the attacked
  districts heaviest first, in one order sorted once per scan, and
  ``explored`` sums the states created.
* ``pd-unweighted`` asks each candidate, per final score a recount can give
  it, one min-cost flow over the candidates that moves district wins along
  the attacked ``(distorted winner, true winner)`` pairs
  (:func:`rec_pd_unweighted`); ``explored`` sums the flows run.  Each is a
  call of :func:`_min_cost_flow`, the one flow helper the attacker also asks.

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
exhaustive oracle.  Over half of them end at the root, which already elects
a candidate the defender prefers over ``p``;
:func:`~.attacker.man_decide_brute` answers those in its attack loop,
answers most of the rest with a recount that refuted an earlier attack on
the same districts, and walks only what is left.

The tie rule comes from :mod:`.model`: a rival's bar (:func:`~.model.bars`)
is the highest score at which it does not beat the target.  Each solve reads
the attack once, through :func:`~.model.validate_manipulation`, which checks
it and yields each attacked district's restore delta, and tallies nothing
else: the true scores and the preference order are the election's own,
computed when it was built, and the distorted scores are the true scores
minus the deltas.  No engine reads the distorted vectors again: a recount
adds its deltas back.
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

from .errors import GameError, ResourceLimitError, UnsupportedError
from .model import (
    RULE_PD,
    Election,
    Manipulation,
    SolveReport,
    _distorted_scores,
    _report,
    _shared,
    bars,
    check_candidate,
    defender_preference_order,
    ensure_valid,
    social_welfare_vector,
)

# the caps: recount sets of at most the budget a brute walk may cover, and DP
# states a scan may create; read when a solve runs
MAX_SUBSETS = 2_000_000
MAX_STATES = 10_000_000


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

    The walk keeps its own stack of frames, so its depth is bounded by
    ``budget``, not by Python's recursion limit.  A frame is a walked recount
    set that may still have children: its ``scores``, its ``start`` (one past
    its last district, 0 at the root), ``left``, the recounts each of its
    children may still spend below it, and ``k``, the next child to try.
    ``path`` is the recount set of the current frame.  The current frame
    scores child ``k``; a child that can have children of its own becomes the
    current frame, its parent pushed; a frame with no child left to try gives
    way to the parent it pops, which resumes at its own ``k``.

    ``twin[k]`` is the last ``k' < k`` with ``steps[k'] == steps[k]``, or -1.
    A frame skips its child ``k`` when its twin is a sibling (``twin[k] >=
    start``).  Proof that this changes nothing: every set ``path + {k} + S``
    with ``S`` drawn from ``(k, n)`` has the score vector of ``path + {k'} +
    S``, which lies in the subtree of ``k'``.  The frame tried ``k'`` before
    ``k``, so that subtree is already covered (walked, or skipped by this
    same rule for an earlier twin).  The walk only stops early on reaching
    the goal rank, so the subtree was covered in full without reaching it,
    and ``best_rank`` is already at most every rank the subtree of ``k``
    could give: neither the strict ``<`` nor the goal can fire there.
    ``nodes`` still counts every recount set covered, walked or counted: a
    skipped child adds ``counts[left][n - k - 1]``, the sets of at most
    ``left`` of the ``n - k - 1`` districts after it.  ``counts`` comes from
    :func:`_subset_counts` for ``n`` and ``budget``, with ``budget <= n``; it
    is read only when a twin is skipped.
    """
    goal = min(rank_at)
    n = len(attacked)
    j = base.index(max(base))
    best_rank = rank_at[j]
    best = (tiebreak[j], ()) if best_rank < math.inf else None
    nodes = 1
    stack, path = [], []
    # the root's frame: none of its children is tried if it reached the goal or budget is 0
    scores, start, left = base, 0, budget - 1
    k = 0 if budget and best_rank != goal else n
    while True:
        if k == n:
            if not stack:
                break
            scores, start, left, k = stack.pop()
            path.pop()
        elif twin[k] >= start:
            nodes += counts[left][n - k - 1]
            k += 1
        else:
            child = tuple(map(add, scores, steps[k]))
            nodes += 1
            j = child.index(max(child))
            if rank_at[j] < best_rank:
                best_rank, best = rank_at[j], (tiebreak[j], (*path, attacked[k]))
                if best_rank == goal:
                    break
            k += 1
            if left and k < n:
                stack.append((scores, start, left, k))
                path.append(attacked[k - 1])
                scores, start, left = child, k, left - 1
    winner, recount = best or (None, None)
    return winner, recount, nodes


def _subset_counts(n, budget):
    """``counts[r][m]``, the number of sets of at most ``r`` of ``m``
    districts (``sum(C(m, i) for i <= r)``), for ``r <= min(budget, n)`` and
    ``m <= n``.

    Raises :class:`ResourceLimitError` when the recount sets of at most
    ``min(budget, n)`` of all ``n`` districts, which the walk covers (walked
    or counted in closed form), exceed the fixed cap :data:`MAX_SUBSETS`.
    Row ``r`` is one plus the prefix sums of row ``r - 1`` (Pascal's rule);
    the rows grow with ``r``, so the check runs per row and a refused table
    stops early; the error names the first row past the cap.
    """
    row = [1] * (n + 1)
    counts = [row]
    while True:
        if row[n] > MAX_SUBSETS:
            raise ResourceLimitError(
                f"recount enumeration over {n} districts with budget {min(budget, n)} "
                f"exceeds cap {MAX_SUBSETS}: the sets of at most {len(counts) - 1} "
                f"of them number {row[n]}"
            )
        if len(counts) > min(budget, n):
            return counts
        row = list(accumulate(row[:-1], initial=1))
        counts.append(row)


def _brute_walk(election, deltas, budget, ranks):
    """Guard the enumeration size, lay out the distorted scores (the true
    scores minus ``deltas``), deltas, twins and ``ranks`` (per candidate
    of interest) in tie-break order, then walk.  Each distinct delta is laid
    out once, in the pass that finds the twins."""
    attacked = tuple(deltas)
    n = len(attacked)
    counts = _subset_counts(n, budget)
    by_priority = election.by_priority
    steps, twin = [], []
    last = {}  # delta -> (last k with that delta, its step)
    for k, delta in enumerate(deltas.values()):
        j, step = last.get(delta) or (-1, by_priority(delta))
        last[delta] = k, step
        steps.append(step)
        twin.append(j)
    base = by_priority(_distorted_scores(social_welfare_vector(election), deltas))
    rank_at = [ranks.get(c, math.inf) for c in election.tiebreak]
    return _optimize_walk(
        election.tiebreak, base, attacked, steps, min(budget, n), rank_at, twin, counts
    )


def _recount_scan(election, manipulation, targets, algo):
    """Ask, for each candidate of ``targets`` in turn, whether recounting at
    most ``B_D`` attacked districts (the instance's ``budget_defender``)
    elects it; report the first yes.

    ``targets`` is ``(target,)`` for a decision (algorithm ``rec-<algo>``) or
    ``None`` for the optimal response: the defender's preference order,
    which always holds an achievable winner (``rec-opt-<algo>``).  ``brute``
    answers every target in one walk, ranking each by its position in
    ``targets``; ``dp`` and ``pd-unweighted`` ask their per-target kernel
    about each in turn and sum ``explored`` over the targets asked.  The
    backend name and its preconditions are checked before the attack, so an
    unknown ``algo`` raises :class:`UnsupportedError` whatever the attack.
    """
    t0 = time.perf_counter()
    if algo not in ("brute", "dp", "pd-unweighted"):
        raise UnsupportedError(f"unknown rec_optimize backend {algo!r}")
    if algo == "pd-unweighted":
        if election.rule != RULE_PD:
            raise UnsupportedError("rec_pd_unweighted requires rule PD")
        if any(d.weight != 1 for d in election.districts):
            raise UnsupportedError("rec_pd_unweighted requires unit weights")
    deltas = ensure_valid(election, manipulation)
    b = election.budget_defender
    optimum = targets is None
    if optimum:
        targets = defender_preference_order(election)
    else:
        for c in targets:
            check_candidate(election, c, "target")
    if algo == "brute":
        ranks = {c: r for r, c in enumerate(targets)}
        winner, recount, explored = _brute_walk(election, deltas, b, ranks)
    else:
        base = _distorted_scores(social_welfare_vector(election), deltas)
        if algo == "dp":
            # one layer per attacked district whose recount changes some score,
            # heaviest first: sorted once for every target by the largest
            # |delta| entry, which no relabelling of the candidates changes
            layers = sorted(
                ((i, delta) for i, delta in deltas.items() if any(delta)),
                key=lambda layer: (-max(map(abs, layer[1])), layer[0]),
            )

            def decide(c, explored):
                return _margin_dp(election, base, layers, c, b, explored)

        else:
            pairs = _pd_flips(deltas)

            def decide(c, explored):
                return _pd_flow(election, base, pairs, c, b, explored)

        winner = recount = None
        explored = 0
        for c in targets:
            recount, explored = decide(c, explored)
            if recount is not None:
                winner = c
                break
    # shared: batch callers keep thousands of reports, and each would hold its own copy
    name = _shared(str, f"rec-opt-{algo}" if optimum else f"rec-{algo}")
    if winner is None and optimum:
        raise GameError("no achievable winner")
    return _report(t0, winner is not None, winner, name, manipulation, recount, explored)


def rec_decide_brute(election: Election, manipulation: Manipulation, target: int) -> SolveReport:
    """Exhaustive recount decision; the oracle the other engines are held to.

    Walks recount sets in lexicographic order of their sorted index sequence,
    so the witness is the lexicographically smallest winning set.  Raises
    :class:`ResourceLimitError` when the recount sets it would cover exceed
    :data:`MAX_SUBSETS` (see :func:`_subset_counts`).
    """
    return _recount_scan(election, manipulation, (target,), "brute")


def rec_optimize(election: Election, manipulation: Manipulation, algo: str = "brute") -> SolveReport:
    """The defender's optimal response.

    Scans candidates in decreasing (welfare, priority) preference and returns
    the first one some legal recount makes the winner, together with that
    recount set.  The ``dp`` and ``pd-unweighted`` backends ask their
    per-target kernel about each scanned candidate in turn; their
    ``stats["explored"]`` is the sum over the scanned candidates (DP states
    created, or flows run).  The ``dp`` scan's sum of states created is
    capped by :data:`MAX_STATES`, the ``brute`` walk's recount sets by
    :data:`MAX_SUBSETS`.
    """
    return _recount_scan(election, manipulation, None, algo)


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


def _margin_dp(election, base, layers, target, budget, created=0):
    """Forward DP over the margins ``s_target - s_a``; see :func:`rec_decide_dp`.

    ``layers`` are ``(district, delta)`` pairs in the order they are decided.
    ``created`` is the running count of states created, checked against the
    fixed cap :data:`MAX_STATES` once per layer, before the layer's states
    are built.  Returns ``(recount, created)`` with ``recount`` the sorted
    witness, or ``None`` when ``target`` cannot be made the winner.
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

    created += 1  # the seed
    moves = [(tuple(base[target] - base[a] for a in others), 0, None)]
    for j in range(n + 1):
        # charged per layer, and priced before its states are built: a layer
        # always finishes before its answer is read, so a per-state check
        # would refuse the same inputs
        if created > MAX_STATES:
            raise ResourceLimitError(
                f"recount DP created more than MAX_STATES={MAX_STATES} states"
            )
        if j:
            i, shift = layers[j - 1][0], shifts[j - 1]
            moves = [(margins, cost, chain) for margins, (cost, chain) in layer.items()]
            moves += [
                (tuple(map(add, margins, shift)), cost + 1, (i, chain))
                for margins, (cost, chain) in layer.items()
                if cost < budget
            ]
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
        # the next layer keeps every state and shifts each that can still afford a recount
        created += len(layer) + sum(cost < budget for cost, _ in layer.values())


def rec_decide_dp(election: Election, manipulation: Manipulation, target: int) -> SolveReport:
    """Dynamic program over the target's margins for the recount decision.

    The state is the vector of margins ``s_target - s_a`` over the other
    candidates ``a``, with the recounts it cost.  ``target`` beats ``a`` iff
    the margin reaches ``need_a``: 0 when ``target`` has tie-break priority
    over ``a``, else 1.  The DP starts at the distorted tally and takes one
    layer per attacked district with a nonzero restore delta, in which each
    state is kept or shifted by that district's recount (within the budget);
    of two equal states the cheaper one stays.

    * Order: the layers are decided heaviest first, by the largest entry of
      ``|delta|``, ties to the lower district index, as knapsack
      branch-and-bound orders its items (Martello and Toth, *Knapsack
      Problems*, 1990).  Once the large gains are decided, the largest gain
      still to come is small, and the pruning below drops most states.  The
      key reads no candidate label, so relabelling the candidates keeps the
      order, the states and the witness.
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
    layer, every kept or shifted state, before pruning and merging.  The
    fixed cap :data:`MAX_STATES` bounds that number, checked before each
    layer's states are built; a layer always finishes before its answer is
    read, so a per-state check would refuse the same inputs.  Agrees with
    :func:`rec_decide_brute` on every input; the witness, returned sorted,
    may differ from the brute-force one.
    """
    return _recount_scan(election, manipulation, (target,), "dp")


# ---------------------------------------------------------------------------
# min-cost flow: the one flow helper, for both flow solvers


def _min_cost_flow(supply, arcs):
    """The flow on each arc of a min-cost flow, or ``None`` if none is feasible.

    ``supply`` maps each node to what it supplies (a demand is negative);
    ``arcs`` are distinct ``(tail, head, capacity, cost)`` tuples.  The graph
    is built in the order given, which fixes the flow networkx returns among
    those of equal cost.  This is the package's one call into networkx.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from((node, {"demand": -amount}) for node, amount in supply.items())
    graph.add_edges_from((t, h, {"capacity": c, "weight": w}) for t, h, c, w in arcs)
    try:
        flow = nx.min_cost_flow(graph)
    except nx.NetworkXUnfeasible:
        return None
    return [flow[tail][head] for tail, head, _, _ in arcs]


# ---------------------------------------------------------------------------
# unit-weight PD: district wins moved along the attacked pairs, solved as a flow


def _pd_flips(deltas):
    """The attacked districts whose recount moves a win, per ``(lost, won)``
    pair (distorted winner, true winner), in index order as the validated
    attack lists them."""
    pairs = {}
    for i, delta in deltas.items():
        if any(delta):
            pairs.setdefault((delta.index(-1), delta.index(1)), []).append(i)
    return pairs


def _pd_flow(election, base, pairs, target, budget, flows=0):
    """One min-cost flow over the candidates per reachable final score of
    ``target``; see :func:`rec_pd_unweighted`.

    ``base`` holds the distorted scores, ``pairs`` comes from
    :func:`_pd_flips` and ``flows`` is the running count of flows run.
    Returns ``(recount, flows)``, with ``recount`` ``None`` when ``target``
    cannot win.
    """
    toward = sum(len(ds) for (_, won), ds in pairs.items() if won == target)
    for s in range(base[target], base[target] + min(budget, toward) + 1):
        caps = bars(election.position, target, s)
        if min(caps) < 0:
            continue
        supply = dict(enumerate(base))
        supply[target] -= s
        supply["sink"] = s - election.num_districts
        arcs = [(lost, won, len(ds), 1) for (lost, won), ds in pairs.items()]
        arcs += [(a, "sink", cap, 0) for a, cap in enumerate(caps) if a != target]
        flows += 1
        flow = _min_cost_flow(supply, arcs)
        if flow is None:
            continue
        taken = flow[: len(pairs)]
        if sum(taken) <= budget:
            return tuple(sorted(i for ds, f in zip(pairs.values(), taken) for i in ds[:f])), flows
    return None, flows


def rec_pd_unweighted(election: Election, manipulation: Manipulation, target: int) -> SolveReport:
    """Polynomial recount decision for unit-weight PD elections.

    It asks one min-cost flow over the candidates per final score ``s`` of
    ``target`` that a recount can reach, as the flow-based plurality bribery
    of Faliszewski, Hemaspaandra and Hemaspaandra ("How hard is bribery in
    elections?", JAIR 2009) loops over the briber's final score.  A score is
    a count of district wins, and the distorted scores sum to ``k``.

    * Districts with the same pair are interchangeable.  Under unit weights
      the recount of an attacked district moves one win from its distorted
      winner ``lost`` to its true winner ``won`` and changes nothing else,
      so a recount's final scores depend only on how many districts of each
      ``(lost, won)`` pair it restores.  Those counts are a flow: candidate
      ``c`` supplies its distorted score, each pair is an arc ``lost → won``
      with its number of districts as capacity and cost 1, each rival ``a``
      has an arc to a sink with capacity ``bars(position, target, s)[a]``,
      and ``target`` keeps ``s`` (demand ``s - scores[target]``) while the
      sink takes the other ``k - s``.  A candidate's final score is what it
      keeps, so the feasible flows of cost at most ``B_D`` are exactly the
      recounts of at most ``B_D`` districts that leave ``target`` at ``s``
      and every rival at or under its bar: the recounts that elect ``target``
      at ``s``.  The witness takes, for each pair, its first ``f`` districts
      in ascending order, where ``f`` is the flow on the pair's arc.
    * A recount never has to take a district from ``target``.  Dropping
      such a district from a winning recount raises ``target``'s score by
      one, lowers one rival's and saves a recount; every bar rises by one
      and no rival's score does, so ``target`` still wins.  Dropping them
      all leaves a winning recount in which ``target`` only gains, so some
      winning recount, if any exists, ends ``target`` at a score in
      ``scores[target] .. scores[target] + min(B_D, toward)``, where
      ``toward`` counts the attacked districts whose true winner is
      ``target``.  Only those scores are asked.

    ``stats["explored"]`` counts the flows run: at most ``min(B_D, toward)
    + 1``, none for a score at which some rival's bar is negative.
    """
    return _recount_scan(election, manipulation, (target,), "pd-unweighted")


# ---------------------------------------------------------------------------
# greedy recounting


def greedy_recount(election: Election, manipulation: Manipulation) -> SolveReport:
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
    deltas = ensure_valid(election, manipulation)
    if election.preferred is None:
        raise UnsupportedError("greedy_recount needs the attacker's preferred candidate")
    return _greedy_recount(election, manipulation, deltas, t0)


def _greedy_recount(election, manipulation, deltas, t0):
    """Unchecked kernel of :func:`greedy_recount` for validated inputs;
    ``deltas`` are the restore deltas of ``manipulation`` and ``runtime_ms``
    counts from ``t0``."""
    p = election.preferred
    order = defender_preference_order(election)
    better = order[: order.index(p)]  # candidates the defender prefers over p
    attacked = tuple(deltas)
    take = min(election.budget_defender, len(attacked))
    base = _distorted_scores(social_welfare_vector(election), deltas)

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
    extra = None
    if winner_after(recount) != output:
        recount = None
        extra = {"witness_note": "no single recount reproduces the provisional winner"}
    return _report(t0, output == p, output, "rec-greedy", manipulation, recount, len(better), extra)
