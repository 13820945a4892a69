"""Core model of the two-stage election recount game.

An attacker distorts the vote counts in up to ``budget_attacker`` districts,
then a defender restores the true counts in up to ``budget_defender`` of the
attacked districts.  Two plurality variants are supported:

* ``PV`` (plurality over voters): the winner has the most votes in total.
* ``PD`` (plurality over districts): each district elects a local plurality
  winner and candidates collect the weights of the districts they win.

All ties are broken by a fixed priority order.  Values in this module are
immutable after construction and every operation is a pure function, so they
can be shared freely across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationError

RULE_PV = "PV"
RULE_PD = "PD"

# Totals above this are rejected at load time so that every score fits
# comfortably in signed 64-bit arithmetic.
MAX_TOTAL = 2**62


@dataclass(frozen=True)
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
        object.__setattr__(self, "votes", tuple(int(v) for v in self.votes))

    @property
    def size(self) -> int:
        return sum(self.votes)


@dataclass(frozen=True)
class Election:
    """A full game instance.

    ``tiebreak`` lists candidate ids from highest to lowest priority.
    ``preferred`` is the attacker's candidate; it may be omitted for inputs
    that only pose the defender's recount question.
    """

    rule: str
    candidates: tuple[str, ...]
    districts: tuple[District, ...]
    tiebreak: tuple[int, ...]
    budget_attacker: int
    budget_defender: int
    preferred: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(str(c) for c in self.candidates))
        object.__setattr__(self, "districts", tuple(self.districts))
        object.__setattr__(self, "tiebreak", tuple(int(c) for c in self.tiebreak))
        self._check()
        position = [0] * len(self.candidates)
        for rank, cand in enumerate(self.tiebreak):
            position[cand] = rank
        object.__setattr__(self, "_position", tuple(position))

    def _check(self):
        m = len(self.candidates)
        k = len(self.districts)
        if m < 1:
            raise ValidationError("at least one candidate is required")
        if len(set(self.candidates)) != m:
            raise ValidationError("candidate names must be distinct")
        if k < 1:
            raise ValidationError("at least one district is required")
        if self.rule not in (RULE_PV, RULE_PD):
            raise ValidationError(f"unknown rule {self.rule!r}; expected PV or PD")
        if sorted(self.tiebreak) != list(range(m)):
            raise ValidationError("tiebreak must be a permutation of all candidate ids")
        if not 1 <= self.budget_attacker <= k:
            raise ValidationError(
                f"budget_attacker must be in [1, {k}], got {self.budget_attacker}"
            )
        if not 0 <= self.budget_defender <= k:
            raise ValidationError(
                f"budget_defender must be in [0, {k}], got {self.budget_defender}"
            )
        if self.preferred is not None and not 0 <= self.preferred < m:
            raise ValidationError(f"preferred candidate id {self.preferred} out of range")
        total_votes = 0
        total_weight = 0
        for i, d in enumerate(self.districts):
            if len(d.votes) != m:
                raise ValidationError(f"district {i}: vote vector length != {m}")
            if any(v < 0 for v in d.votes):
                raise ValidationError(f"district {i}: negative vote count")
            if d.weight < 1:
                raise ValidationError(f"district {i}: weight must be >= 1")
            if not 0 <= d.gamma <= d.size:
                raise ValidationError(f"district {i}: gamma must be in [0, {d.size}]")
            total_votes += d.size
            total_weight += d.weight
        if total_votes > MAX_TOTAL or total_weight > MAX_TOTAL:
            raise ValidationError("total votes or weight exceeds the 2**62 load limit")

    # -- convenience accessors -------------------------------------------------

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_districts(self) -> int:
        return len(self.districts)

    @property
    def position(self) -> tuple[int, ...]:
        """Priority rank per candidate id; lower rank wins ties."""
        return self._position

    def candidate_index(self, name: str) -> int:
        try:
            return self.candidates.index(name)
        except ValueError:
            raise ValidationError(f"unknown candidate {name!r}") from None

    def winner_of(self, scores: Sequence[int]) -> int:
        """Lexicographic winner of a score vector under (score, priority)."""
        pos = self._position
        return max(range(len(scores)), key=lambda c: (scores[c], -pos[c]))

    def district_winner(self, votes: Sequence[int]) -> int:
        return self.winner_of(votes)

    def district_contribution(self, district: District, votes: Sequence[int]) -> tuple[int, ...]:
        """Score contributed by one district given an effective vote vector.

        PV: the vote vector itself.  PD: the district weight, credited to the
        local plurality winner.
        """
        if self.rule == RULE_PV:
            return tuple(votes)
        credit = [0] * self.num_candidates
        credit[self.district_winner(votes)] = district.weight
        return tuple(credit)


class Manipulation:
    """An attack: the set of attacked districts and their distorted votes.

    A district may appear with an unchanged vector; it still counts against
    the attacker's budget and stays eligible for a (pointless) recount.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, Sequence[int]] | None = None):
        normalized = {}
        for i, votes in (entries or {}).items():
            normalized[int(i)] = tuple(int(v) for v in votes)
        self._entries = normalized

    @property
    def districts(self) -> tuple[int, ...]:
        """Attacked district indices, ascending."""
        return tuple(sorted(self._entries))

    def votes_for(self, district: int) -> tuple[int, ...]:
        return self._entries[district]

    def get(self, district: int):
        return self._entries.get(district)

    def items(self):
        return sorted(self._entries.items())

    def as_dict(self) -> dict[int, tuple[int, ...]]:
        return dict(self._entries)

    def __contains__(self, district: int) -> bool:
        return district in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Manipulation) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"Manipulation({dict(self.items())!r})"


@dataclass(frozen=True, slots=True)
class RecountSet:
    """The defender's choice: a subset of the attacked districts."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted({int(i) for i in self.indices})))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Tally:
    """Scores of an effective profile plus the induced winner."""

    scores: tuple[int, ...]
    winner: int
    district_winners: Optional[tuple[int, ...]] = None  # PD only


@dataclass(slots=True)
class SolveReport:
    """Uniform result record emitted by every solver.

    Slotted, as is :class:`RecountSet`, to keep reports small: batch callers
    hold thousands of them at once.
    """

    decision: bool
    winner: Optional[int]
    algorithm: str
    manipulation: Optional[Manipulation] = None
    recount: Optional[RecountSet] = None
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Violation:
    """One broken manipulation invariant: where and what."""

    district: Optional[int]
    constraint: str
    detail: str


# ---------------------------------------------------------------------------
# profile algebra


def _effective_votes(election: Election, manipulation, recount_set):
    """Per-district vote vectors after applying the attack and the recount."""
    recounted = set(recount_set or ())
    for i, d in enumerate(election.districts):
        if manipulation is not None and i in manipulation and i not in recounted:
            yield d, manipulation.votes_for(i)
        else:
            yield d, d.votes


def tally(
    election: Election,
    manipulation: Optional[Manipulation] = None,
    recount: Optional[Iterable[int]] = None,
) -> Tally:
    """Score the effective profile and determine the winner.

    ``recount`` must be a subset of the attacked districts.  Both arguments
    are optional; with neither, this scores the true profile.  This is the
    checked entry point; solvers validate once and then call :func:`_tally`.
    """
    recount_set = tuple(recount) if recount is not None else ()
    if manipulation is not None:
        ensure_valid(election, manipulation)
    for i in recount_set:
        if manipulation is None or i not in manipulation:
            raise ValidationError(f"recount of district {i} which was not attacked")
    return _tally(election, manipulation, recount_set)


def _tally(
    election: Election,
    manipulation: Optional[Manipulation] = None,
    recount: Iterable[int] = (),
) -> Tally:
    """Unchecked kernel of :func:`tally` for already validated inputs."""
    m = election.num_candidates
    scores = [0] * m
    district_winners = [] if election.rule == RULE_PD else None
    for d, votes in _effective_votes(election, manipulation, recount):
        if election.rule == RULE_PV:
            for c in range(m):
                scores[c] += votes[c]
        else:
            w = election.district_winner(votes)
            district_winners.append(w)
            scores[w] += d.weight
    return Tally(
        scores=tuple(scores),
        winner=election.winner_of(scores),
        district_winners=tuple(district_winners) if district_winners is not None else None,
    )


def social_welfare(election: Election, candidate: int) -> int:
    """A candidate's score on the true, undistorted profile."""
    if not 0 <= candidate < election.num_candidates:
        raise ValidationError(f"candidate id {candidate} out of range")
    return social_welfare_vector(election)[candidate]


def social_welfare_vector(election: Election) -> tuple[int, ...]:
    return _tally(election).scores


def defender_prefers(election: Election, c1: int, c2: int) -> int:
    """Three-way comparison under the defender's objective.

    Returns 1 if ``c1`` is preferred (higher welfare, or equal welfare and
    higher priority), -1 if ``c2`` is preferred and 0 iff they are the same
    candidate.
    """
    if not 0 <= c1 < election.num_candidates or not 0 <= c2 < election.num_candidates:
        raise ValidationError("candidate id out of range")
    if c1 == c2:
        return 0
    sw = social_welfare_vector(election)
    pos = election.position
    if (sw[c1], -pos[c1]) > (sw[c2], -pos[c2]):
        return 1
    return -1


def defender_preference_order(election: Election) -> tuple[int, ...]:
    """All candidates, most preferred by the defender first."""
    sw = social_welfare_vector(election)
    pos = election.position
    return tuple(sorted(range(election.num_candidates), key=lambda c: (-sw[c], pos[c])))


def added_votes(original: Sequence[int], distorted: Sequence[int]) -> int:
    """Votes the distortion adds on top of the original vector."""
    return sum(max(0, t - o) for o, t in zip(original, distorted))


def validate_manipulation(
    election: Election,
    manipulation: Manipulation,
    require_regular: bool = False,
) -> list[Violation]:
    """Check every manipulation invariant; return all violations found.

    With ``require_regular`` the rule-specific regularity condition is checked
    as well: under PV no candidate other than the preferred one may gain
    votes, under PD the preferred candidate must win every attacked district.
    """
    out: list[Violation] = []
    m = election.num_candidates
    if len(manipulation) > election.budget_attacker:
        out.append(
            Violation(
                None,
                "budget_attacker",
                f"{len(manipulation)} districts attacked, budget is {election.budget_attacker}",
            )
        )
    p = election.preferred
    if require_regular and p is None:
        out.append(Violation(None, "missing_preferred", "regularity check needs a preferred candidate"))
    for i, distorted in manipulation.items():
        if not 0 <= i < election.num_districts:
            out.append(Violation(i, "index_range", f"district index {i} out of range"))
            continue
        district = election.districts[i]
        if len(distorted) != m:
            out.append(Violation(i, "vector_length", f"district {i}: vector length != {m}"))
            continue
        if any(v < 0 for v in distorted):
            out.append(Violation(i, "negative_count", f"district {i}: negative distorted count"))
            continue
        if sum(distorted) != district.size:
            out.append(
                Violation(
                    i,
                    "size_mismatch",
                    f"district {i}: distorted votes sum to {sum(distorted)}, size is {district.size}",
                )
            )
            continue
        added = added_votes(district.votes, distorted)
        if added > district.gamma:
            out.append(
                Violation(
                    i,
                    "gamma_exceeded",
                    f"district {i}: {added} votes added, cap is {district.gamma}",
                )
            )
        if require_regular and p is not None:
            if election.rule == RULE_PV:
                for c in range(m):
                    if c != p and distorted[c] > district.votes[c]:
                        out.append(
                            Violation(
                                i,
                                "regular_pv",
                                f"district {i}: candidate {election.candidates[c]} gained votes",
                            )
                        )
                        break
            else:
                if election.district_winner(distorted) != p:
                    out.append(
                        Violation(
                            i,
                            "regular_pd",
                            f"district {i}: preferred candidate does not win the distorted district",
                        )
                    )
    return out


def ensure_valid(election: Election, manipulation: Manipulation, require_regular: bool = False):
    """Raise :class:`ValidationError` when the manipulation is invalid."""
    violations = validate_manipulation(election, manipulation, require_regular)
    if violations:
        raise ValidationError(
            "invalid manipulation: " + "; ".join(v.detail for v in violations),
            violations,
        )
