"""Profile algebra: tallies, welfare, validation and their invariants."""

import copy
import dataclasses
import enum
import itertools
import operator
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_TO_P_21, BAIT_ATTACK_51, attacked_elections, small_elections
from recountgame import (
    District,
    Election,
    Manipulation,
    ValidationError,
    defender_preference_order,
    defender_prefers,
    gen_random,
    serialize_instance,
    social_welfare,
    social_welfare_vector,
    tally,
    validate_manipulation,
)
from recountgame.model import _distorted_scores, _tally, bars, ensure_valid, positions

# Not candidate ids of example 2.1 (three candidates): True is not candidate 1.
BAD_IDS = pytest.mark.parametrize(
    "bad", [True, 1.0, -1, 3, "0"], ids=["True", "float", "negative", "m", "str"]
)


class TestTally:
    def test_example21_pv_true(self, example21_pv):
        result = tally(example21_pv)
        assert result.scores == (14, 9, 0)
        assert example21_pv.candidates[result.winner] == "a"

    def test_example21_pd_true(self, example21_pd):
        result = tally(example21_pd)
        assert result.scores == (98, 27, 0)
        assert example21_pd.candidates[result.winner] == "a"
        assert result.district_winners == (0, 0, 1, 1, 1)

    def test_example21_pv_distorted(self, example21_pv):
        result = tally(example21_pv, ALL_TO_P_21)
        assert result.scores == (0, 9, 14)
        assert example21_pv.candidates[result.winner] == "p"

    def test_full_recount_restores(self, example21_pv, example21_pd):
        for election in (example21_pv, example21_pd):
            full = tally(election, ALL_TO_P_21, ALL_TO_P_21.districts)
            assert full == tally(election)

    def test_recount_outside_attack_rejected(self, example21_pv):
        with pytest.raises(ValidationError):
            tally(example21_pv, ALL_TO_P_21, recount=(3,))

    def test_invalid_manipulation_rejected(self, example21_pv):
        with pytest.raises(ValidationError):
            tally(example21_pv, Manipulation({0: (0, 0, 6)}))  # size mismatch


class TestSocialWelfare:
    def test_example21_pv(self, example21_pv):
        assert social_welfare(example21_pv, example21_pv.candidate_index("b")) == 9

    def test_example51(self, example51):
        assert social_welfare(example51, example51.candidate_index("p")) == 6
        assert social_welfare(example51, example51.candidate_index("b")) == 4

    def test_single_district(self):
        election = Election(
            rule="PV",
            candidates=("a", "b"),
            districts=(District(votes=(5, 0)),),
            tiebreak=(0, 1),
            budget_attacker=1,
            budget_defender=0,
        )
        assert social_welfare_vector(election) == (5, 0)


class TestDefenderPrefers:
    def test_example21_welfare_gap(self, example21_pv):
        b, p = example21_pv.candidate_index("b"), example21_pv.candidate_index("p")
        assert defender_prefers(example21_pv, b, p) == 1
        assert defender_prefers(example21_pv, p, b) == -1

    def test_tie_falls_to_priority(self):
        election = Election(
            rule="PV",
            candidates=("a", "p"),
            districts=(District(votes=(2, 2)),),
            tiebreak=(1, 0),  # p > a
            budget_attacker=1,
            budget_defender=0,
            preferred=1,
        )
        assert defender_prefers(election, 1, 0) == 1

    def test_same_candidate(self, example21_pv):
        assert defender_prefers(example21_pv, 0, 0) == 0

    def test_unknown_candidate(self, example21_pv):
        with pytest.raises(ValidationError):
            defender_prefers(example21_pv, 0, 9)


SEEDED_ELECTIONS = pytest.mark.parametrize(
    "rule, seed", [(rule, seed) for rule in ("PV", "PD") for seed in range(5)]
)


def _seeded(rule, seed):
    """Small counts and weights, so that welfare ties fall to priority."""
    return gen_random(rule, 5, 2 + seed % 3, 3, w_max=2, budget_attacker=2, seed=seed)


class TestStoredTruth:
    """Each election tallies its true profile once, when built; every reader
    of the truth reads that tally and the preference order derived from it."""

    @SEEDED_ELECTIONS
    def test_one_tally_equal_to_a_fresh_one(self, rule, seed):
        election = _seeded(rule, seed)
        assert tally(election) is tally(election)
        assert tally(election) == _tally(election)
        assert social_welfare_vector(election) == _tally(election).scores
        assert (tally(election).district_winners is None) == (rule == "PV")

    @SEEDED_ELECTIONS
    def test_preference_order_is_welfare_then_priority(self, rule, seed):
        election = _seeded(rule, seed)
        sw = _tally(election).scores
        m = election.num_candidates
        order = tuple(sorted(range(m), key=lambda c: (-sw[c], election.tiebreak.index(c))))
        assert defender_preference_order(election) == order
        for c1, c2 in itertools.product(range(m), repeat=2):
            expected = 0 if c1 == c2 else 1 if order.index(c1) < order.index(c2) else -1
            assert defender_prefers(election, c1, c2) == expected, (c1, c2)

    @SEEDED_ELECTIONS
    @pytest.mark.parametrize(
        "copy_of",
        [
            lambda e: pickle.loads(pickle.dumps(e)),
            copy.deepcopy,
            lambda e: dataclasses.replace(e, budget_defender=e.num_districts),
        ],
        ids=["pickle", "deepcopy", "replace"],
    )
    def test_copies_keep_the_truth(self, rule, seed, copy_of):
        election = _seeded(rule, seed)
        twin = copy_of(election)
        assert tally(twin) == tally(election) == _tally(twin)
        assert defender_preference_order(twin) == defender_preference_order(election)
        m = election.num_candidates
        for scores in itertools.product(range(3), repeat=m):
            assert twin.winner_of(scores) == election.winner_of(scores), scores


class TestCandidateIds:
    @BAD_IDS
    def test_social_welfare(self, example21_pv, bad):
        with pytest.raises(ValidationError):
            social_welfare(example21_pv, bad)

    @BAD_IDS
    def test_defender_prefers(self, example21_pv, bad):
        for c1, c2 in [(bad, 0), (0, bad)]:
            with pytest.raises(ValidationError):
                defender_prefers(example21_pv, c1, c2)

    @BAD_IDS
    def test_preferred(self, example21_pv, bad):
        with pytest.raises(ValidationError):
            dataclasses.replace(example21_pv, preferred=bad)


class TestValidate:
    def test_regular_pd_attack_ok(self, example21_pd):
        assert validate_manipulation(example21_pd, ALL_TO_P_21, require_regular=True) == []

    def test_bait_attack_not_regular(self, example51):
        violations = validate_manipulation(example51, BAIT_ATTACK_51, require_regular=True)
        assert [(v.district, v.constraint) for v in violations] == [(0, "regular_pv")]

    def test_gamma_cap(self):
        election = Election(
            rule="PV",
            candidates=("a", "b"),
            districts=(District(votes=(2, 0), gamma=1),),
            tiebreak=(0, 1),
            budget_attacker=1,
            budget_defender=0,
        )
        violations = validate_manipulation(election, Manipulation({0: (0, 2)}))
        assert [v.constraint for v in violations] == ["gamma_exceeded"]

    def test_budget_and_size(self, example21_pv):
        over = Manipulation({0: (0, 0, 7), 1: (0, 0, 7), 2: (0, 0, 3)})
        constraints = {v.constraint for v in validate_manipulation(example21_pv, over)}
        assert "budget_attacker" in constraints
        bad_sum = Manipulation({0: (0, 0, 6)})
        constraints = {v.constraint for v in validate_manipulation(example21_pv, bad_sum)}
        assert "size_mismatch" in constraints

    def test_unchanged_attacked_district_allowed(self, example21_pv):
        assert validate_manipulation(example21_pv, Manipulation({0: (7, 0, 0)})) == []

    def test_index_range_and_vector_length(self, example21_pv):
        attack = Manipulation({1: (7, 0), 5: (0, 0, 7)})
        assert _violations(example21_pv, attack) == [(1, "vector_length"), (5, "index_range")]

    def test_regular_pd_needs_the_preferred_winner(self, example21_pd):
        # district 0 keeps a ahead of p: a valid attack, but not a regular one
        attack = Manipulation({0: (4, 0, 3), 1: (0, 0, 7)})
        assert validate_manipulation(example21_pd, attack) == []
        assert _violations(example21_pd, attack, require_regular=True) == [(0, "regular_pd")]

    def test_regularity_needs_a_preferred_candidate(self, example21_pv):
        election = dataclasses.replace(example21_pv, preferred=None)
        violations = _violations(election, ALL_TO_P_21, require_regular=True)
        assert violations == [(None, "missing_preferred")]


# One case per constraint code, plus attacks that break several at once:
# (election builder, attack, require_regular, the full (district, constraint, detail) list).
VIOLATION_TEXTS = {
    "budget_attacker": (
        lambda e21, e51: e21,
        {0: (0, 0, 7), 1: (0, 0, 7), 2: (0, 0, 3)},
        False,
        [(None, "budget_attacker", "3 districts attacked, budget is 2")],
    ),
    "missing_preferred": (
        lambda e21, e51: dataclasses.replace(e21, preferred=None),
        {0: (0, 0, 7)},
        True,
        [(None, "missing_preferred", "regularity check needs a preferred candidate")],
    ),
    "index_range": (
        lambda e21, e51: e21,
        {5: (0, 0, 7)},
        False,
        [(5, "index_range", "district index 5 out of range")],
    ),
    "vector_length": (
        lambda e21, e51: e21,
        {1: (7, 0)},
        False,
        [(1, "vector_length", "district 1: vector length != 3")],
    ),
    "negative_count": (
        lambda e21, e51: e21,
        {0: (8, -1, 0)},
        False,
        [(0, "negative_count", "district 0: negative distorted count")],
    ),
    "size_mismatch": (
        lambda e21, e51: e21,
        {0: (0, 0, 6)},
        False,
        [(0, "size_mismatch", "district 0: distorted votes sum to 6, size is 7")],
    ),
    "gamma_exceeded": (
        lambda e21, e51: _with_district(e21, gamma=2),
        {0: (4, 0, 3)},
        False,
        [(0, "gamma_exceeded", "district 0: 3 votes added, cap is 2")],
    ),
    "regular_pv": (
        lambda e21, e51: e51,
        {0: (0, 6, 0), 1: (0, 0, 3)},
        True,
        [(0, "regular_pv", "district 0: candidate b gained votes")],
    ),
    "regular_pd": (
        lambda e21, e51: dataclasses.replace(e21, rule="PD"),
        {0: (4, 0, 3), 1: (0, 0, 7)},
        True,
        [(0, "regular_pd", "district 0: preferred candidate does not win the distorted district")],
    ),
    "budget+size+gamma": (
        lambda e21, e51: _with_district(e21, gamma=2),
        {0: (4, 0, 3), 1: (0, 0, 6), 2: (0, 0, 3)},
        False,
        [
            (None, "budget_attacker", "3 districts attacked, budget is 2"),
            (0, "gamma_exceeded", "district 0: 3 votes added, cap is 2"),
            (1, "size_mismatch", "district 1: distorted votes sum to 6, size is 7"),
        ],
    ),
    "gamma+regular_pv": (
        lambda e21, e51: _with_district(e51, gamma=2),
        {0: (3, 3, 0), 1: (0, 0, 3)},
        True,
        [
            (0, "gamma_exceeded", "district 0: 6 votes added, cap is 2"),
            (0, "regular_pv", "district 0: candidate a gained votes"),
        ],
    ),
}


@pytest.mark.parametrize("case", VIOLATION_TEXTS)
def test_violation_texts(example21_pv, example51, case):
    build, entries, require_regular, expected = VIOLATION_TEXTS[case]
    election, attack = build(example21_pv, example51), Manipulation(entries)
    violations = validate_manipulation(election, attack, require_regular)
    assert [(v.district, v.constraint, v.detail) for v in violations] == expected
    with pytest.raises(ValidationError) as err:
        ensure_valid(election, attack, require_regular)
    assert err.value.violations == violations
    assert str(err.value) == "invalid manipulation: " + "; ".join(d for _, _, d in expected)


def _violations(election, attack, require_regular=False):
    """``(district, constraint)`` per violation, once ``ensure_valid`` raised with the same list."""
    violations = validate_manipulation(election, attack, require_regular)
    with pytest.raises(ValidationError) as err:
        ensure_valid(election, attack, require_regular)
    assert err.value.violations == violations
    return [(v.district, v.constraint) for v in violations]


def _distort(rng, district, kind):
    """A distorted vector for ``district``: moved votes (which may break the
    gamma cap or regularity), or one broken in size, sign or length."""
    votes = list(district.votes)
    m = len(votes)
    if kind == "size":
        votes[rng.randrange(m)] += rng.choice([-1, 1, 2])
    elif kind == "negative":
        votes[rng.randrange(m)] = -1
    elif kind == "length":
        votes = votes + [0] if m == 1 or rng.random() < 0.5 else votes[:-1]
    else:
        for _ in range(rng.randint(0, district.size)):
            src = rng.randrange(m)
            if votes[src]:
                votes[src] -= 1
                votes[rng.randrange(m)] += 1
    return tuple(votes)


def _repeating_attack(rng, rule):
    """An election whose districts repeat a few values, each as its own
    ``District`` object, and an attack that repeats its ``(district, vector)``
    pairs, valid and invalid ones, plus sometimes an index out of range."""
    m = rng.randint(1, 4)
    values = []
    for _ in range(rng.randint(1, 3)):
        votes = tuple(rng.randint(0, 3) for _ in range(m))
        values.append((votes, rng.randint(1, 3), rng.randint(0, sum(votes))))
    districts = tuple(District(*rng.choice(values)) for _ in range(rng.randint(1, 10)))
    k = len(districts)
    election = Election(
        rule=rule,
        candidates=tuple(f"c{j}" for j in range(m)),
        districts=districts,
        tiebreak=tuple(rng.sample(range(m), m)),
        budget_attacker=rng.randint(1, k),
        budget_defender=0,
        preferred=rng.choice([None, rng.randrange(m)]),
    )
    kinds = ["moved", "moved", "moved", "size", "negative", "length"]
    vectors, entries = {}, {}
    for i in rng.sample(range(k + 1), rng.randint(1, k + 1)):
        district = districts[i % k]
        key = (district, rng.choice(kinds))
        if key not in vectors or rng.random() < 0.2:
            vectors[key] = _distort(rng, district, key[1])
        entries[i] = vectors[key]
    return election, Manipulation(entries)


def test_repeated_pairs_validate_as_each_entry_alone():
    """Validating an attack whose ``(district, vector)`` pairs repeat gives,
    apart from the attack-wide budget and preferred-candidate checks, the
    violations (in order) and deltas of validating each entry alone; a repeat
    of a pair that passed every check shares the first one's delta."""
    attack_wide = {"budget_attacker", "missing_preferred"}

    def entry_checks(check):
        return [(v.district, v.constraint, v.detail) for v in check if v.constraint not in attack_wide]

    rng = random.Random(15)
    shared = 0
    for case in range(600):
        election, attack = _repeating_attack(rng, ("PV", "PD")[case % 2])
        for require_regular in (False, True):
            check = validate_manipulation(election, attack, require_regular)
            alone = [
                validate_manipulation(election, Manipulation({i: v}), require_regular)
                for i, v in attack.items()
            ]
            assert entry_checks(check) == [t for one in alone for t in entry_checks(one)]
            assert check.deltas == {i: d for one in alone for i, d in one.deltas.items()}
            flagged = {v.district for v in check}
            first = {}
            for i, v in attack.items():
                if i in check.deltas and i not in flagged:
                    j = first.setdefault((election.districts[i], v), i)
                    assert check.deltas[i] is check.deltas[j]
                    shared += j != i
    assert shared > 500  # the repeats are there to be shared


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(-(2**62), 2**62), min_size=m, max_size=m),
            st.lists(st.tuples(*[st.integers(-9, 9)] * m), max_size=120),
        )
    )
)
@example(([3, 1, 4], []))
def test_distorted_scores_subtracts_every_delta(case):
    scores, deltas = case
    expected = tuple(scores)
    for delta in deltas:
        expected = tuple(map(operator.sub, expected, delta))
    distorted = _distorted_scores(scores, dict(enumerate(deltas)))
    assert type(distorted) is tuple
    assert distorted == expected


VOTES_FOR_B = "district 1: votes for b must be a non-negative integer,"


class TestElectionInvariants:
    def test_rejects_bad_inputs(self):
        district = District(votes=(1, 1))
        ok = dict(
            rule="PV",
            candidates=("a", "b"),
            districts=(district,),
            tiebreak=(0, 1),
            budget_attacker=1,
            budget_defender=0,
        )
        for field, value in [
            ("tiebreak", (0, 0)),
            ("budget_attacker", 0),
            ("budget_attacker", 2),
            ("budget_defender", -1),
            ("rule", "IRV"),
            ("candidates", ("a", "a")),
            ("districts", (District(votes=(1,)),)),
            ("districts", (District(votes=(1, -1)),)),
            ("districts", (District(votes=(1, 1), weight=0),)),
            ("districts", (District(votes=(1, 1), gamma=3),)),
        ]:
            with pytest.raises(ValidationError):
                Election(**{**ok, field: value})

    @pytest.mark.parametrize(
        "fields, text",
        [
            ({"votes": (1, True)}, f"{VOTES_FOR_B} got True"),
            ({"votes": (1, 2.0)}, f"{VOTES_FOR_B} got 2.0"),
            ({"votes": (1, -2)}, f"{VOTES_FOR_B} got -2"),
            ({"weight": True}, "district 1: weight must be an integer >= 1, got True"),
            ({"gamma": 4}, "district 1: gamma must be an integer in [0, 3], got 4"),
        ],
        ids=["bool-vote", "float-vote", "negative-vote", "bool-weight", "gamma-above-size"],
    )
    def test_rejection_texts(self, fields, text):
        bad = District(**{"votes": (1, 2), **fields})
        with pytest.raises(ValidationError) as err:
            Election(
                rule="PV",
                candidates=("a", "b"),
                districts=(District(votes=(1, 1)), bad),
                tiebreak=(0, 1),
                budget_attacker=1,
                budget_defender=0,
            )
        assert str(err.value) == text

    @pytest.mark.parametrize(
        "fields, text",
        [
            ({"candidates": ()}, "at least one candidate is required"),
            ({"candidates": ("a", 1)}, "candidate names must be strings, got ('a', 1)"),
            ({"candidates": "ab"}, "candidates must be a sequence of names, got 'ab'"),
            ({"candidates": b"ab"}, "candidates must be a sequence of names, got b'ab'"),
            ({"districts": ()}, "at least one district is required"),
            (
                {"districts": (District(votes=(1, 1)), (1, 1))},
                "district 1: expected a District, got (1, 1)",
            ),
        ],
        ids=["no-candidates", "int-name", "str", "bytes", "no-districts", "not-a-district"],
    )
    def test_election_rejection_texts(self, fields, text):
        ok = dict(
            rule="PV",
            candidates=("a", "b"),
            districts=(District(votes=(1, 1)),),
            tiebreak=(0, 1),
            budget_attacker=1,
            budget_defender=0,
        )
        with pytest.raises(ValidationError) as err:
            Election(**{**ok, **fields})
        assert str(err.value) == text

    @pytest.mark.parametrize("votes", [(1, True), (1, 2.0)], ids=["bool", "float"])
    def test_manipulation_rejection_text(self, votes):
        with pytest.raises(ValidationError) as err:
            Manipulation({0: votes})
        text = f"manipulation of district 0: vote counts must be integers, got {votes!r}"
        assert str(err.value) == text

    def test_int_enum_votes_accepted(self):
        class Count(enum.IntEnum):
            TWO = 2

        district = District(votes=(1, Count.TWO))
        Election(
            rule="PV",
            candidates=("a", "b"),
            districts=(district,),
            tiebreak=(0, 1),
            budget_attacker=1,
            budget_defender=0,
        )
        assert Manipulation({0: (Count.TWO, 1)}).items() == [(0, (2, 1))]

    def test_manipulation_keeps_index_order(self):
        unsorted = Manipulation({3: (1, 0), 0: (0, 1), 2: (1, 1)})
        ordered = Manipulation({0: (0, 1), 2: (1, 1), 3: (1, 0)})
        assert unsorted.districts == (0, 2, 3)
        assert unsorted.items() == [(0, (0, 1)), (2, (1, 1)), (3, (1, 0))]
        assert unsorted == ordered and hash(unsorted) == hash(ordered)
        assert repr(unsorted) == "Manipulation({0: (0, 1), 2: (1, 1), 3: (1, 0)})"
        election = Election(
            rule="PV",
            candidates=("a", "b"),
            districts=(District(votes=(1, 0), gamma=1),) * 4,
            tiebreak=(0, 1),
            budget_attacker=3,
            budget_defender=0,
        )
        assert serialize_instance(election, unsorted) == serialize_instance(election, ordered)

    def test_slotted_with_derived_fields_out_of_sight(self, example21_pv):
        """No ``__dict__``; the derived fields take no part in equality,
        hashing, the repr or ``dataclasses.replace``."""
        assert not hasattr(example21_pv, "__dict__")
        same = dataclasses.replace(example21_pv)
        assert same == example21_pv and hash(same) == hash(example21_pv)
        assert repr(same) == repr(example21_pv)
        assert "position" not in repr(same) and "_truth" not in repr(same)
        moved = dataclasses.replace(example21_pv, tiebreak=(0, 1, 2))
        assert moved != example21_pv and moved.position == (0, 1, 2)
        assert moved.by_priority((5, 6, 7)) == (5, 6, 7)

    def test_overflow_guard(self):
        with pytest.raises(ValidationError):
            Election(
                rule="PD",
                candidates=("a",),
                districts=(District(votes=(1,), weight=2**62 + 1),),
                tiebreak=(0,),
                budget_attacker=1,
                budget_defender=0,
            )


def _with_district(election, **fields):
    """``election`` with ``fields`` replaced in its first district."""
    first = dataclasses.replace(election.districts[0], **fields)
    return dataclasses.replace(election, districts=(first,) + election.districts[1:])


# Each call puts ``bad`` in one field of example 2.1 (PV) that must hold an
# integer; an integer coercion of 1 would make every one of them valid.
INTEGER_FIELDS = {
    "budget_attacker": lambda e, bad: dataclasses.replace(e, budget_attacker=bad),
    "budget_defender": lambda e, bad: dataclasses.replace(e, budget_defender=bad),
    "tiebreak": lambda e, bad: dataclasses.replace(e, tiebreak=(2, 0, bad)),
    "district.votes": lambda e, bad: _with_district(e, votes=(bad, 3, 3)),
    "district.weight": lambda e, bad: _with_district(e, weight=bad),
    "district.gamma": lambda e, bad: _with_district(e, gamma=bad),
    "manipulation.index": lambda e, bad: tally(e, Manipulation({bad: (0, 0, 7)})),
    "manipulation.count": lambda e, bad: tally(e, Manipulation({0: (bad, 0, 6)})),
    "tally.recount": lambda e, bad: tally(e, ALL_TO_P_21, [bad]),
}


@pytest.mark.parametrize(
    "field, bad",
    [
        pytest.param(field, bad, id=f"{field}-{bad!r}")
        for field in sorted(INTEGER_FIELDS)
        for bad in [True, 1.0, 1.5, "1", None, -1]
    ],
)
def test_integer_fields_reject_junk(example21_pv, field, bad):
    with pytest.raises(ValidationError):
        INTEGER_FIELDS[field](example21_pv, bad)


# -- property tests ----------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(attacked_elections())
def test_conservation(pair):
    election, manipulation = pair
    total = (
        sum(d.size for d in election.districts)
        if election.rule == "PV"
        else sum(d.weight for d in election.districts)
    )
    attacked = manipulation.districts
    for r in range(min(len(attacked), 2) + 1):
        for recount in itertools.islice(itertools.combinations(attacked, r), 8):
            assert sum(tally(election, manipulation, recount).scores) == total


@settings(max_examples=100, deadline=None)
@given(attacked_elections())
def test_recount_composition(pair):
    """Recounting R then R' is the same as recounting their union."""
    election, manipulation = pair
    attacked = manipulation.districts
    first = attacked[: len(attacked) // 2]
    second = attacked[len(attacked) // 3 :]
    after_first = Manipulation({i: v for i, v in manipulation.items() if i not in first})
    lhs = tally(election, manipulation, set(first) | set(second))
    rhs = tally(election, after_first, set(second) - set(first))
    assert lhs == rhs
    assert tally(election, manipulation, attacked) == tally(election)


@settings(max_examples=100, deadline=None)
@given(attacked_elections())
def test_welfare_is_manipulation_invariant(pair):
    election, manipulation = pair
    assert social_welfare_vector(election) == tally(election).scores
    assert tally(election, manipulation, manipulation.districts).scores == tally(election).scores


@settings(max_examples=120, deadline=None)
@given(attacked_elections(regular=True))
def test_regular_monotone_scores(pair):
    """Regular attacks never lower the preferred candidate, never raise others."""
    election, manipulation = pair
    p = election.preferred
    welfare = social_welfare_vector(election)
    attacked = manipulation.districts
    for r in range(min(len(attacked), 2) + 1):
        for recount in itertools.islice(itertools.combinations(attacked, r), 8):
            scores = tally(election, manipulation, recount).scores
            assert scores[p] >= welfare[p]
            assert all(scores[c] <= welfare[c] for c in range(len(scores)) if c != p)


@settings(max_examples=80, deadline=None)
@given(small_elections())
def test_winner_unique_and_beats_all(election):
    result = tally(election)
    pos = election.position
    w = result.winner
    for c in range(election.num_candidates):
        if c != w:
            assert (result.scores[w], -pos[w]) > (result.scores[c], -pos[c])


def test_winner_of_is_highest_score_then_priority():
    rng = random.Random(5)
    for m in range(1, 7):
        election = Election(
            rule="PV",
            candidates=tuple(f"c{j}" for j in range(m)),
            districts=(District(votes=(0,) * m),),
            tiebreak=tuple(rng.sample(range(m), m)),
            budget_attacker=1,
            budget_defender=0,
        )
        pos = election.position
        for _ in range(300):
            scores = tuple(rng.randint(-2, 2) for _ in range(m))
            expected = max(range(m), key=lambda c: (scores[c], -pos[c]))
            assert election.winner_of(scores) == expected, (m, scores)


def test_bars_match_winner_of():
    """A rival at its bar loses to the target; one vote more and it wins."""
    rng = random.Random(7)
    for m in range(1, 7):
        for _ in range(60):
            tiebreak = tuple(rng.sample(range(m), m))
            election = Election(
                rule="PV",
                candidates=tuple(f"c{j}" for j in range(m)),
                districts=(District(votes=(0,) * m),),
                tiebreak=tiebreak,
                budget_attacker=1,
                budget_defender=0,
            )
            assert positions(tiebreak) == election.position
            target, score = rng.randrange(m), rng.randint(-3, 3)
            bar = bars(election.position, target, score)
            assert bar[target] == score
            for rival in range(m):
                if rival == target:
                    continue
                scores = [score - 10] * m
                scores[target] = score
                scores[rival] = bar[rival]
                assert election.winner_of(scores) == target, (tiebreak, target, rival)
                scores[rival] += 1
                assert election.winner_of(scores) == rival, (tiebreak, target, rival)
