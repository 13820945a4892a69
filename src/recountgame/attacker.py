"""Attacker-side solvers.

* :func:`district_min_steal` finds the cheapest way to hand one district to a
  chosen candidate (the priced single-district subproblem): the fewest moves
  that cover what the rivals still hold above their :func:`~.model.bars`.
* :func:`enumerate_distortions` streams every feasible distortion of one
  district.
* :func:`man_decide_brute` searches all attacks, scoring each against the
  optimal defender response.  One loop builds the options of every district
  for both rules (PV: every distortion; PD: the cheapest steal per new
  winner), each with the score change a recount of it restores.  Before it
  walks a defence, it tries the recounts that last refuted an attack on the
  same districts (the killer heuristic of game-tree search).  Attacks are
  scored from a fixed prefix, the options of every district but the last,
  and a kept recount that covers the last district is tried once per
  prefix: when it refutes, it refutes the whole prefix.  Against a
  PV defender with no recount budget the search runs over attacked sets
  only: two Hall screens, then one min-cost flow that decides the set and
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
from operator import add, le, sub
from typing import Optional, Sequence

from .defender import _greedy_recount, _min_cost_flow, _optimize_walk
from .errors import GameError, ResourceLimitError, UnsupportedError, ValidationError
from .model import (
    RULE_PD,
    RULE_PV,
    Election,
    Manipulation,
    SolveReport,
    _check_int,
    _check_tiebreak,
    _ints,
    _report,
    _restore_delta,
    _shared,
    bars,
    defender_preference_order,
    ensure_valid,
    positions,
    social_welfare_vector,
    tally,
    validate_manipulation,
)

# the cap: attacks (attacked sets without a recount budget) a search may
# score, and options a district may hold; read when a search runs
MAX_NODES = 2_000_000
# the refuting recounts kept per attacked set (see man_decide_brute)
_KILLERS = 4
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

    Raises :class:`ValidationError` for an empty ``votes`` or one with a
    negative count, a ``target`` that is not a candidate id or a ``tiebreak``
    that is not a permutation of the candidates.
    """
    votes = _district_votes(votes, target)
    tiebreak = _ints("tiebreak", tiebreak)
    _check_tiebreak(tiebreak, len(votes))
    return _district_min_steal(votes, target, positions(tiebreak))


def _district_votes(votes, target, check_target=True):
    """``votes`` as a tuple of one non-negative integer count per candidate;
    with ``check_target``, ``target`` must be a candidate id of it.  Raises
    :class:`ValidationError` naming the first entry that is not."""
    votes = _ints("votes", votes)
    if not votes:
        raise ValidationError(f"votes must hold one count per candidate, got {votes!r}")
    if min(votes) < 0:
        c = next(c for c, v in enumerate(votes) if v < 0)
        raise ValidationError(f"votes[{c}] must be a non-negative integer, got {votes[c]!r}")
    if check_target:
        _check_int("target", target, 0, len(votes) - 1)
    return votes


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
    candidate may gain votes.  Raises :class:`ValidationError` for an empty
    ``votes`` or one with a negative count, and with ``regular`` for a
    ``target`` that is not a candidate id.
    """
    if regular and target is None:
        raise UnsupportedError("regular enumeration needs the preferred candidate")
    votes = _district_votes(votes, target, check_target=regular)
    _check_int("gamma", gamma, 0)
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


def man_decide_brute(election: Election, regular: bool = False) -> SolveReport:
    """Search all attacks; win iff one survives the optimal defender response.

    Attacked sets grow by size and then lexicographically, distortions follow
    :func:`enumerate_distortions` order, so the returned witness is
    reproducible.  Under PV every feasible distortion vector is tried; under
    PD attacks are canonicalized to district-winner reassignments realised by
    :func:`district_min_steal`, since PD tallies depend only on the winners.

    Each attacked set keeps its last ``_KILLERS`` refuting recounts, most
    recent first: recounts the nested walk returned with a rank-0 winner, a
    candidate the defender prefers over ``p``, stored as positions in the
    set.  An attack loses without a walk when some legal recount elects a
    rank-0 candidate: the empty one (the distorted profile already elects
    one) or a kept one.  Proof that this changes nothing: any set of at most
    ``B_D`` positions of the current attacked set is a legal defence, and the
    empty and the kept ones are such sets.  A legal recount electing a
    rank-0 candidate makes 0 the best rank a defence reaches, so the optimal
    defence, which the walk finds, elects a rank-0 candidate and not ``p``:
    the attack loses, as it would after the walk.  A winning attack is never
    refuted, so the witness, the decision and ``explored`` (which counts
    attacks) are those of the full search.  A walked attack wins when its
    walk returns ``p``; any other winner it returns has rank 0, and its
    recount is kept.  When ``p`` leads the defender's order no candidate has
    rank 0: no attack is refuted and nothing is kept.  The empty attack
    leaves the true profile, which elects the defender's first choice: it
    wins at node 1 when that is ``p`` and is refuted otherwise.

    The attacks on one set are walked as prefix times last district: the
    options of all districts but the last in product order, then each option
    of the last.  The prefix's distorted scores are built once, and each
    attack scores from them with one step.  A recount ``K`` leaves
    ``truth - sum(step_j for j not in K)``.  If ``K`` holds the last
    position, that vector does not depend on the last option: it is tested
    once per prefix, and when it elects a rank-0 candidate every attack of
    the prefix not yet scored is refuted.  Those attacks are counted in
    ``explored`` in one addition and the cap is checked against the sum.
    Proof that this changes nothing: the kept recounts change only after a
    walk, and ``K`` refutes each of those attacks, so none of them would be
    walked.  Scoring them one by one would only count them, and would raise
    the same error exactly when the sum passes the cap.  A kept recount
    without the last position is summed with the prefix once, and each
    attack then takes its last step off.  Both are rebuilt when a walk keeps
    a new recount.

    The fixed cap :data:`MAX_NODES` bounds both the options a district may
    hold and the attacks scored (``explored``); past it the search raises
    :class:`ResourceLimitError`.
    """
    t0 = time.perf_counter()
    p = election.preferred
    if p is None:
        raise UnsupportedError("man solvers need the attacker's preferred candidate")
    if election.rule == RULE_PV and election.budget_defender == 0:
        return _man_pv_no_recount(election, t0)
    node_cap = MAX_NODES  # a local: the attack loop reads it per attack

    options: dict[int, list] = {}
    truth = tally(election)
    for i, d in enumerate(election.districts):
        if d.gamma == 0:
            continue
        if election.rule == RULE_PV:
            vectors = enumerate_distortions(d.votes, d.gamma, regular, p)
        else:
            w0 = truth.district_winners[i]
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
            delta = _restore_delta(election, i, tuple(map(sub, d.votes, vec)), won)
            opts.append((vec, election.by_priority(delta)))
            if len(opts) > node_cap:
                raise ResourceLimitError(f"district {i} admits more than {node_cap} distortions")
        if opts:
            options[i] = opts

    pool = sorted(options)
    tiebreak = election.tiebreak
    base_true = election.by_priority(truth.scores)
    order = defender_preference_order(election)
    # each defence ends at the first recount electing someone preferred over p
    ranks = {c: 0 for c in order[: order.index(p)]}
    ranks[p] = 1
    rank_at = [ranks.get(c, math.inf) for c in tiebreak]
    b_d = election.budget_defender
    no_twins = [-1] * len(pool)  # every set is walked: the search stays the exhaustive oracle
    # the empty attack leaves the truth, which elects order[0]: it wins iff that is p
    nodes = 1
    if nodes > node_cap:
        raise ResourceLimitError(f"attack search exceeded {node_cap} nodes")
    if order[0] == p:
        return _report(t0, True, p, "man-brute", _shared(Manipulation), (), nodes)
    for size in range(1, min(election.budget_attacker, len(pool)) + 1):
        for attacked in combinations(pool, size):
            *head, last = attacked
            lasts = options[last]
            killers = []  # the set's last refuting recounts as positions, most recent first
            for prefix in product(*(options[i] for i in head)):
                prefix_scores = base_true
                for _, step in prefix:
                    prefix_scores = map(sub, prefix_scores, step)
                prefix_scores = tuple(prefix_scores)
                kept = _kept_sums(prefix_scores, prefix, killers, rank_at)
                left = len(lasts)  # the prefix's attacks not scored yet
                for vec, step in lasts if kept else ():  # none when a kept recount refutes all
                    left -= 1
                    nodes += 1
                    if nodes > node_cap:
                        raise ResourceLimitError(f"attack search exceeded {node_cap} nodes")
                    for before in kept:  # the empty recount first: kept[0] is prefix_scores
                        recounted = tuple(map(sub, before, step))
                        if rank_at[recounted.index(max(recounted))] == 0:
                            break
                    else:
                        combo = (*prefix, (vec, step))
                        steps = [step for _, step in combo]
                        scores = tuple(map(sub, prefix_scores, step))
                        winner, recount, _ = _optimize_walk(
                            tiebreak, scores, attacked, steps, b_d, rank_at, no_twins, ()
                        )
                        if winner == p:
                            manipulation = Manipulation(
                                {i: vec for i, (vec, _) in zip(attacked, combo)}
                            )
                            ensure_valid(election, manipulation, require_regular=regular)
                            return _report(t0, True, p, "man-brute", manipulation, recount, nodes)
                        if winner is not None:  # rank 0: keep its recount for the set's later attacks
                            killers.insert(0, tuple(map(attacked.index, recount)))
                            del killers[_KILLERS:]
                            kept = _kept_sums(prefix_scores, prefix, killers, rank_at)
                            if not kept:
                                break
                # the attacks a kept recount covering the last district refuted, uncounted
                if left:
                    nodes += left
                    if nodes > node_cap:
                        raise ResourceLimitError(f"attack search exceeded {node_cap} nodes")
    return _report(t0, False, None, "man-brute", explored=nodes)


def _kept_sums(prefix_scores, prefix, killers, rank_at):
    """What the empty recount and the ``killers`` (recounts given as positions
    in the attack) leave of each attack that extends ``prefix``, all in
    tie-break order and before the last district's step is taken off.

    Returns ``prefix_scores``, then per killer that leaves the last district
    distorted its recounted prefix scores.  A killer that recounts the last
    district leaves the same scores whatever its option; when they elect a
    rank-0 candidate the killer refutes every attack of the prefix, and the
    result is ``None``.
    """
    last = len(prefix)
    kept = [prefix_scores]
    for killer in killers:
        recounted = prefix_scores
        for k in killer:
            if k != last:
                recounted = map(add, recounted, prefix[k][1])
        recounted = tuple(recounted)
        if last not in killer:
            kept.append(recounted)
        elif rank_at[recounted.index(max(recounted))] == 0:
            return None
    return kept


def _man_pv_no_recount(election, t0):
    """PV attacks against a defender with no recount budget.

    Transferring as many votes as possible onto the preferred candidate
    dominates every other distortion of the same districts, so per attacked
    set it suffices to ask whether the deficits of the candidates ahead of it
    can be collected from the attacked districts: a supply/demand question,
    answered by one min-cost flow (the flow construction of plurality
    bribery) that also yields the witness.  Two necessary Hall conditions
    screen each set first, every single deficit candidate and the whole
    deficit set; with at most two deficit candidates they are all of Hall's
    condition, so the flow then runs only on the winning set.  The result is
    identical for the regular and the unrestricted game.
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
        if nodes > MAX_NODES:
            raise ResourceLimitError(f"attack search exceeded {MAX_NODES} nodes")
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
    path = {"path": "no-recount-transfer"}
    if manipulation is None:
        return _report(t0, False, None, "man-brute", explored=nodes, extra=path)
    if tally(election, manipulation).winner != p:
        raise GameError("the transfer witness does not elect the preferred candidate")
    return _report(t0, True, p, "man-brute", manipulation, (), nodes, path)


def _transfer_witness(election, attacked, transfers, needs):
    """The max-transfer distortion realising ``needs``, or ``None`` if none does.

    Each attacked district supplies its transfer to the candidates other than
    ``p``, up to their votes there; each deficit candidate keeps its need and
    passes the rest to a slack node at a cost of its index, so the surplus
    comes off the lowest-numbered candidates it can.
    """
    p = election.preferred
    districts = election.districts
    supplied = sum(transfers[i] for i in attacked)
    supply = {("d", i): transfers[i] for i in attacked}
    supply.update((("c", a), -need) for a, need in needs.items())
    supply["slack"] = sum(needs.values()) - supplied
    moves = [(i, a, v) for i in attacked for a, v in enumerate(districts[i].votes) if a != p and v]
    arcs = [(("d", i), ("c", a), v, 0) for i, a, v in moves]
    arcs += [(("c", a), "slack", supplied, a) for a in range(election.num_candidates) if a != p]
    flow = _min_cost_flow(supply, arcs)
    if flow is None:
        return None
    entries = {i: list(districts[i].votes) for i in attacked}
    for (i, a, _), moved in zip(moves, flow):
        entries[i][a] -= moved
        entries[i][p] += moved
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
    winners = tally(election).district_winners
    for i, (d, w0) in enumerate(zip(election.districts, winners)):
        if w0 == p:
            continue
        cost, vec = _district_min_steal(d.votes, p, election.position)
        if cost <= d.gamma:
            steal_vec[i] = vec
            steal_delta[i] = _restore_delta(election, i, tuple(map(sub, d.votes, vec)), p)
    heavy = sorted(steal_vec, key=lambda i: (-election.districts[i].weight, i))
    limit = min(election.budget_attacker, len(heavy))

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
        greedy = _greedy_recount(election, manipulation, deltas, t0)
        if greedy.winner == p:
            ensure_valid(election, manipulation, require_regular=True)
            return _report(t0, True, p, "man-pd-regular", manipulation, (), rounds)
        # the rescuer's heaviest uncommitted district: ``heavy`` is in that order
        rescuer = greedy.winner
        pick = next((i for i in heavy if winners[i] == rescuer and i not in committed), None)
        if pick is None or len(committed) == limit:
            return _report(t0, False, None, "man-pd-regular", explored=rounds)
        committed.append(pick)


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
    greedy = _greedy_recount(election, manipulation, check.deltas, t0)
    return replace(greedy, algorithm="verify-regular")


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
