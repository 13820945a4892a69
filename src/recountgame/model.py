"""Core model of the two-stage election recount game.

An attacker distorts the vote counts in up to ``budget_attacker`` districts,
then a defender restores the true counts in up to ``budget_defender`` of the
attacked districts.  Two plurality variants are supported:

* ``PV`` (plurality over voters): the winner has the most votes in total.
* ``PD`` (plurality over districts): each district elects a local plurality
  winner and candidates collect the weights of the districts they win.

All ties are broken by a fixed priority order: :meth:`Election.winner_of`
applies it to a score vector and :func:`bars` states it per rival for the
solvers.  Values in this module are immutable after construction and every
operation is a pure function, so they can be shared freely across parallel
workers.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from operator import itemgetter, sub
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import ValidationError

RULE_PV = "PV"
RULE_PD = "PD"

# Totals above this are rejected at load time so that every score fits
# comfortably in signed 64-bit arithmetic.
MAX_TOTAL = 2**62


def _is_int(value) -> bool:
    """The one integer rule of the game's inputs: an ``int``, and ``True`` is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(what: str, value, lo: int, hi: Optional[int] = None) -> None:
    """Reject ``value`` unless it is an integer in ``[lo, hi]``; ``hi=None`` sets no upper end."""
    if not _is_int(value) or value < lo or hi is not None and value > hi:
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValidationError(f"{what} must be an integer {bound}, got {value!r}")


def _plain_ints(values: Sequence) -> bool:
    """The integer rule's fast path: every entry is exactly an ``int``.  A
    vector that fails it may still pass entry by entry (``IntEnum`` values)."""
    return set(map(type, values)) <= {int}


def _ints(what: str, values: Iterable[int], *args) -> tuple[int, ...]:
    """``values`` as a tuple, rejected unless every entry is an integer.

    The error names the field ``what % args``, formatted only on failure.
    """
    values = tuple(values)
    if not (_plain_ints(values) or all(map(_is_int, values))):
        raise ValidationError(f"{what % args} must be integers, got {values!r}")
    return values


def check_candidate(election: Election, candidate, name: str = "candidate") -> None:
    """Reject anything but a candidate id of ``election``."""
    m = election.num_candidates
    if not _is_int(candidate) or not 0 <= candidate < m:
        raise ValidationError(f"{name} must be a candidate id in [0, {m}), got {candidate!r}")


def _check_tiebreak(tiebreak: Sequence[int], m: int) -> None:
    """Reject a tie-break order that is not a permutation of the ``m`` candidate ids."""
    if sorted(tiebreak) != list(range(m)):
        raise ValidationError("tiebreak must be a permutation of all candidate ids")


def positions(tiebreak: Sequence[int]) -> tuple[int, ...]:
    """Priority rank per candidate id of a tie-break order; lower rank wins ties."""
    position = [0] * len(tiebreak)
    for rank, cand in enumerate(tiebreak):
        position[cand] = rank
    return tuple(position)


def bars(position: Sequence[int], target: int, score: int) -> list[int]:
    """Per candidate, the highest score that does not beat ``target`` at ``score``.

    This is the game's one tie rule: a rival tied with ``target`` wins the
    tie iff it has priority, so its bar is ``score - 1`` then and ``score``
    otherwise.  The entry of ``target`` itself is ``score``.
    """
    own = position[target]
    return [score - (rank < own) for rank in position]


# The package's one cache.  A batch holds thousands of elections over a few
# hundred distinct immutable values: the seed-1 ``man-search`` deck holds
# 1,157 distinct districts, 180 attack vectors, 30 tie-break orders and 30
# preference orders.  Each distinct value is built once and shared while it
# stays among the 4,096 most recently used.  ``_shared(tuple, t)`` and
# ``_shared(str, s)`` return the first value equal to ``t`` or ``s``.  Equal
# arguments share one entry (``1.0 == 1``, ``True == 1``, even inside a
# tuple), so callers pass plain ints only.


@functools.lru_cache(maxsize=4096)
def _shared(make: Callable, *args):
    """The one ``make(*args)`` of these arguments, built on the first call."""
    return make(*args)


def _tiebreak_tables(tiebreak: tuple[int, ...]):
    """The priority ranks and the tie-break layout (:attr:`Election.by_priority`)
    of a validated tie-break order."""
    # itemgetter of one index returns the item, not a 1-tuple
    permute = itemgetter(*tiebreak) if len(tiebreak) > 1 else tuple
    return positions(tiebreak), permute


@dataclass(frozen=True, slots=True)
class District:
    """One district: a vote vector plus its weight and change cap.

    ``votes[c]`` is the number of voters backing candidate ``c``; the district
    size is the sum of the vector.  ``gamma`` caps how many votes an attacker
    may add across all candidates when distorting this district.
    """

    votes: tuple[int, ...]
    weight: int = 1
    gamma: int = 0

    def __post_init__(self):
        object.__setattr__(self, "votes", tuple(self.votes))

    @property
    def size(self) -> int:
        return sum(self.votes)


@dataclass(frozen=True, slots=True)
class Election:
    """A full game instance.

    ``tiebreak`` lists candidate ids from highest to lowest priority.
    ``preferred`` is the attacker's candidate; it may be omitted for inputs
    that only pose the defender's recount question.  Slotted, as is
    :class:`District`: batch callers hold thousands of elections.  The
    derived fields are computed once, after the checks, and take no part in
    construction, equality, hashing or the repr: from ``tiebreak``
    ``position``, the priority rank per candidate id (lower rank wins
    ties), and ``by_priority``, which lays a per-candidate vector out in
    tie-break order, highest priority first; from the true profile its
    :class:`Tally` and the defender's preference order.  The tables and the
    order are shared by every election with equal ones; ``tiebreak`` itself
    stays the tuple the caller passed.
    """

    rule: str
    candidates: tuple[str, ...]
    districts: tuple[District, ...]
    tiebreak: tuple[int, ...]
    budget_attacker: int
    budget_defender: int
    preferred: Optional[int] = None
    position: tuple[int, ...] = field(init=False, repr=False, compare=False)
    by_priority: Callable = field(init=False, repr=False, compare=False)
    _truth: Tally = field(init=False, repr=False, compare=False)
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.candidates, (str, bytes)):  # never one name per character
            raise ValidationError(f"candidates must be a sequence of names, got {self.candidates!r}")
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "districts", tuple(self.districts))
        object.__setattr__(self, "tiebreak", _ints("tiebreak", self.tiebreak))
        self._check()
        position, permute = _shared(_tiebreak_tables, self.tiebreak)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "by_priority", permute)
        truth = _tally(self)
        object.__setattr__(self, "_truth", truth)
        # the defender's preference: higher welfare first, then higher priority
        sw, pos = truth.scores, self.position
        order = tuple(sorted(range(len(sw)), key=lambda c: (-sw[c], pos[c])))
        object.__setattr__(self, "_order", _shared(tuple, order))

    def _check(self):
        m = len(self.candidates)
        k = len(self.districts)
        if m < 1:
            raise ValidationError("at least one candidate is required")
        if not all(isinstance(c, str) for c in self.candidates):
            raise ValidationError(f"candidate names must be strings, got {self.candidates!r}")
        if len(set(self.candidates)) != m:
            raise ValidationError("candidate names must be distinct")
        if k < 1:
            raise ValidationError("at least one district is required")
        if self.rule not in (RULE_PV, RULE_PD):
            raise ValidationError(f"unknown rule {self.rule!r}; expected PV or PD")
        _check_tiebreak(self.tiebreak, m)
        _check_int("budget_attacker", self.budget_attacker, 1, k)
        _check_int("budget_defender", self.budget_defender, 0, k)
        if self.preferred is not None:
            check_candidate(self, self.preferred, "preferred")
        total_votes = 0
        total_weight = 0
        for i, d in enumerate(self.districts):
            if not isinstance(d, District):
                raise ValidationError(f"district {i}: expected a District, got {d!r}")
            if len(d.votes) != m:
                raise ValidationError(f"district {i}: vote vector length != {m}")
            votes, weight, gamma = d.votes, d.weight, d.gamma
            # the checks that name the first offender run only on a failure
            if not (_plain_ints(votes) and min(votes) >= 0):
                for name, v in zip(self.candidates, votes):
                    if not _is_int(v) or v < 0:
                        raise ValidationError(
                            f"district {i}: votes for {name} must be a non-negative integer, "
                            f"got {v!r}"
                        )
            size = sum(votes)
            plain = type(weight) is int and type(gamma) is int
            if not (plain and weight >= 1 and 0 <= gamma <= size):
                _check_int(f"district {i}: weight", weight, 1)
                _check_int(f"district {i}: gamma", gamma, 0, size)
            total_votes += size
            total_weight += weight
        if total_votes > MAX_TOTAL or total_weight > MAX_TOTAL:
            raise ValidationError("total votes or weight exceeds the 2**62 load limit")

    # -- convenience accessors -------------------------------------------------

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_districts(self) -> int:
        return len(self.districts)

    def candidate_index(self, name: str) -> int:
        try:
            return self.candidates.index(name)
        except ValueError:
            raise ValidationError(f"unknown candidate {name!r}") from None

    def winner_of(self, scores: Sequence[int]) -> int:
        """Winner of a score vector: the highest score, ties to the higher priority.

        In tie-break order the winner is the first maximum; the recount
        walker applies the same rule to vectors laid out by :attr:`by_priority`.
        """
        ordered = self.by_priority(scores)
        return self.tiebreak[ordered.index(max(ordered))]


class Manipulation:
    """An attack: the set of attacked districts and their distorted votes.

    A district may appear with an unchanged vector; it still counts against
    the attacker's budget and stays eligible for a (pointless) recount.
    Indices must be integers >= 0 and counts integers; :func:`validate_manipulation` checks the rest.
    Nothing mutates an attack after construction, so equal ones may be one
    shared object, as the empty attack ``_shared(Manipulation)`` is.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, Sequence[int]] | None = None):
        normalized = {}
        for i, votes in (entries or {}).items():
            _check_int("manipulation: district index", i, 0)
            normalized[i] = _ints("manipulation of district %d: vote counts", votes, i)
        self._entries = dict(sorted(normalized.items()))  # in index order, sorted once

    @property
    def districts(self) -> tuple[int, ...]:
        """Attacked district indices, ascending."""
        return tuple(self._entries)

    def items(self):
        """``(district, distorted votes)`` pairs, ascending by district."""
        return list(self._entries.items())

    def __contains__(self, district: int) -> bool:
        return district in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Manipulation) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __repr__(self) -> str:
        return f"Manipulation({self._entries!r})"


@dataclass(frozen=True, slots=True)
class RecountSet:
    """The defender's choice: a subset of the attacked districts."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, slots=True)
class Tally:
    """Scores of an effective profile plus the induced winner."""

    scores: tuple[int, ...]
    winner: int
    district_winners: Optional[tuple[int, ...]] = None  # PD only


@dataclass(slots=True)
class SolveReport:
    """Uniform result record emitted by every solver.

    Slotted, as is :class:`RecountSet`, to keep reports small: batch callers
    hold thousands of them at once.  The statistics live in slots as well:
    ``explored`` (the engine's work count), ``runtime_ms``, and ``extra``,
    which stays ``None`` unless the solver adds a note (``witness_note`` or
    ``path``).  :attr:`stats` is a fresh dict view of them.
    """

    decision: bool
    winner: Optional[int]
    algorithm: str
    manipulation: Optional[Manipulation] = None
    recount: Optional[RecountSet] = None
    explored: int = 0
    runtime_ms: float = 0.0
    extra: Optional[dict] = None

    @property
    def stats(self) -> dict:
        """``explored`` and ``runtime_ms`` plus the ``extra`` entries, built anew on each read."""
        stats = {"explored": self.explored, "runtime_ms": self.runtime_ms}
        if self.extra:
            stats.update(self.extra)
        return stats


def _report(
    t0, decision, winner, algorithm, manipulation=None, recount=None, explored=0, extra=None
):
    """The one builder of an engine's :class:`SolveReport`: ``runtime_ms``
    runs from ``t0``, the engine's entry, to this call, witness checks
    included, and a ``recount`` tuple becomes a :class:`RecountSet`, one
    :func:`_shared` object per distinct recount.  The record is frozen, so
    sharing it is as safe as sharing ``()``; most optimal defences on random
    instances recount nothing, and the rest repeat a few small sets."""
    if recount is not None:
        recount = _shared(RecountSet, recount)
    ms = (time.perf_counter() - t0) * 1000
    return SolveReport(decision, winner, algorithm, manipulation, recount, explored, ms, extra)


@dataclass(frozen=True)
class Violation:
    """One broken manipulation invariant: where and what."""

    district: Optional[int]
    constraint: str
    detail: str


# ---------------------------------------------------------------------------
# profile algebra


def tally(
    election: Election,
    manipulation: Optional[Manipulation] = None,
    recount: Optional[Iterable[int]] = None,
) -> Tally:
    """Score the effective profile and determine the winner.

    ``recount`` must be a subset of the attacked districts.  Both arguments
    are optional; with no attack this returns the election's one tally of
    the true profile, scored when the election was built.  This is the
    checked entry point and the witness replay: it scores the vote vectors
    themselves, while the solvers work from the restore deltas.
    """
    recount_set = tuple(recount) if recount is not None else ()
    if manipulation is not None:
        ensure_valid(election, manipulation)
    for i in recount_set:
        if not _is_int(i) or manipulation is None or i not in manipulation:
            raise ValidationError(f"recount of district {i!r} which was not attacked")
    if manipulation is None:
        return election._truth
    return _tally(election, manipulation, recount_set)


def _tally(
    election: Election,
    manipulation: Optional[Manipulation] = None,
    recount: Iterable[int] = (),
) -> Tally:
    """Unchecked kernel of :func:`tally` for already validated inputs."""
    profile = [d.votes for d in election.districts]
    if manipulation is not None:
        recounted = set(recount)
        for i, distorted in manipulation.items():
            if i not in recounted:
                profile[i] = distorted
    if election.rule == RULE_PV:
        scores = tuple(map(sum, zip(*profile)))
        return Tally(scores, election.winner_of(scores))
    winners = tuple(map(election.winner_of, profile))
    scores = [0] * election.num_candidates
    for d, w in zip(election.districts, winners):
        scores[w] += d.weight
    return Tally(tuple(scores), election.winner_of(scores), winners)


def _restore_delta(election: Election, i: int, diff, won) -> tuple[int, ...]:
    """The score change a recount of district ``i`` restores.

    ``diff`` is the true votes minus the distorted ones and ``won`` the
    distorted district's winner.  PV: ``diff`` itself.  PD: ``+weight`` at
    the true district winner and ``-weight`` at ``won``.
    """
    if election.rule == RULE_PV:
        return diff
    weight = election.districts[i].weight
    delta = [0] * election.num_candidates
    delta[election._truth.district_winners[i]] += weight
    delta[won] -= weight
    return tuple(delta)


def _distorted_scores(
    scores: Sequence[int], deltas: Mapping[int, Sequence[int]]
) -> tuple[int, ...]:
    """The scores after the attack: the true ``scores`` minus every restore
    delta, in one pass per candidate over the column of its delta entries."""
    return tuple(s - sum(column) for s, *column in zip(scores, *deltas.values()))


def social_welfare(election: Election, candidate: int) -> int:
    """A candidate's score on the true, undistorted profile."""
    check_candidate(election, candidate)
    return social_welfare_vector(election)[candidate]


def social_welfare_vector(election: Election) -> tuple[int, ...]:
    """Every candidate's score on the true profile."""
    return election._truth.scores


def defender_prefers(election: Election, c1: int, c2: int) -> int:
    """Three-way comparison under the defender's objective.

    Returns 1 if ``c1`` is preferred (higher welfare, or equal welfare and
    higher priority), -1 if ``c2`` is preferred and 0 iff they are the same
    candidate.
    """
    check_candidate(election, c1, "c1")
    check_candidate(election, c2, "c2")
    if c1 == c2:
        return 0
    order = election._order
    return 1 if order.index(c1) < order.index(c2) else -1


def defender_preference_order(election: Election) -> tuple[int, ...]:
    """All candidates, most preferred by the defender first."""
    return election._order


class AttackCheck(list):
    """The violations of an attack, in the order found; a list, so that the one
    validation call of a solve can also hand over ``deltas``, the restore delta
    per attacked district, ascending (complete when the list is empty)."""

    __slots__ = ("deltas",)


def validate_manipulation(
    election: Election,
    manipulation: Manipulation,
    require_regular: bool = False,
) -> AttackCheck:
    """Check every manipulation invariant; return all violations found.

    With ``require_regular`` the rule-specific regularity condition is checked
    as well: under PV no candidate other than the preferred one may gain
    votes, under PD the preferred candidate must win every attacked district.

    This is the one reader of the attack.  Each attacked vector is read once,
    into ``diff`` (true votes minus distorted ones); the checks and the restore
    delta come from ``diff`` and, under PD, the distorted district's winner.
    Each distinct ``(district, distorted vector)`` pair, compared by value, is
    checked and laid out once per call: a repeat of a pair that passed every
    check reuses its delta.  A pair with a violation is checked again at each
    repeat, so every entry is flagged under its own index.
    """
    out = AttackCheck()
    out.deltas = {}
    passed = {}  # (district, distorted) -> restore delta, for pairs with no violation

    def flag(district, constraint, detail):
        out.append(Violation(district, constraint, detail))

    budget = election.budget_attacker
    if len(manipulation) > budget:
        flag(None, "budget_attacker", f"{len(manipulation)} districts attacked, budget is {budget}")
    p = election.preferred
    if require_regular and p is None:
        flag(None, "missing_preferred", "regularity check needs a preferred candidate")
    regular = require_regular and p is not None
    pv = election.rule == RULE_PV
    m = election.num_candidates
    districts = election.districts
    k = len(districts)
    for i, distorted in manipulation.items():
        if not 0 <= i < k:
            flag(i, "index_range", f"district index {i} out of range")
            continue
        district = districts[i]
        key = (district, distorted)
        delta = passed.get(key)
        if delta is not None:
            out.deltas[i] = delta
            continue
        flagged = len(out)
        if len(distorted) != m:
            flag(i, "vector_length", f"district {i}: vector length != {m}")
            continue
        if min(distorted) < 0:
            flag(i, "negative_count", f"district {i}: negative distorted count")
            continue
        diff = tuple(map(sub, district.votes, distorted))
        if sum(diff):
            size = district.size
            detail = f"district {i}: distorted votes sum to {size - sum(diff)}, size is {size}"
            flag(i, "size_mismatch", detail)
            continue
        # the votes added are minus the sum of diff's negative entries; as diff
        # sums to 0, that is half its absolute sum
        added = sum(map(abs, diff)) // 2
        if added > district.gamma:
            flag(i, "gamma_exceeded", f"district {i}: {added} votes added, cap is {district.gamma}")
        won = None if pv else election.winner_of(distorted)
        if regular and pv:
            gained = next((c for c, x in enumerate(diff) if x < 0 and c != p), None)
            if gained is not None:
                name = election.candidates[gained]
                flag(i, "regular_pv", f"district {i}: candidate {name} gained votes")
        elif regular and won != p:
            detail = f"district {i}: preferred candidate does not win the distorted district"
            flag(i, "regular_pd", detail)
        delta = out.deltas[i] = _restore_delta(election, i, diff, won)
        if len(out) == flagged:
            passed[key] = delta
    return out


def ensure_valid(
    election: Election, manipulation: Manipulation, require_regular: bool = False
) -> dict[int, tuple[int, ...]]:
    """Raise :class:`ValidationError` when the manipulation is invalid; else
    return its restore delta per attacked district (:class:`AttackCheck`)."""
    check = validate_manipulation(election, manipulation, require_regular)
    if check:
        raise ValidationError("invalid manipulation: " + "; ".join(v.detail for v in check), check)
    return check.deltas
