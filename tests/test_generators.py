"""Generated instances: construction values and soundness spot checks."""

import dataclasses
import enum
import hashlib

import pytest

from recountgame import (
    Manipulation,
    UnsupportedError,
    ValidationError,
    gen_is_pd_rec,
    gen_partition_pv_recreg,
    gen_random,
    gen_sss_pd_man,
    gen_subsetsum_pv_man,
    gen_subsetsum_pv_rec,
    gen_x3c_pv_rec,
    man_decide_brute,
    random_manipulation,
    rec_decide_brute,
    rec_decide_dp,
    serialize_instance,
    social_welfare_vector,
    tally,
    validate_manipulation,
)


class TestSubsetsumPvRec:
    def test_yes_and_no(self):
        yes, yes_attack = gen_subsetsum_pv_rec([-1, -2, 3, 1])
        assert rec_decide_brute(yes, yes_attack, yes.candidate_index("a")).decision is True
        no, no_attack = gen_subsetsum_pv_rec([1])
        assert rec_decide_brute(no, no_attack, no.candidate_index("a")).decision is False

    def test_distorted_tally(self):
        values = [-1, -2, 3, 1]
        election, attack = gen_subsetsum_pv_rec(values)
        y = sum(2 * abs(x) for x in values)
        scores = tally(election, attack).scores
        assert scores[election.candidate_index("a")] == y + 1
        assert scores[election.candidate_index("p")] == y + 2 * sum(values)

    def test_weighted_twin_matches(self):
        for values in ([-1, -2, 3, 1], [1], [2, -1], [3, -1, -1]):
            pv, pv_attack = gen_subsetsum_pv_rec(values)
            pd, pd_attack = gen_subsetsum_pv_rec(values, weighted=True)
            assert pd.rule == "PD" and all(d.weight == d.size for d in pd.districts)
            assert (
                rec_decide_brute(pv, pv_attack, pv.candidate_index("a")).decision
                == rec_decide_brute(pd, pd_attack, pd.candidate_index("a")).decision
            )

    def test_preconditions(self):
        with pytest.raises(UnsupportedError):
            gen_subsetsum_pv_rec([0, 1])
        with pytest.raises(UnsupportedError):
            gen_subsetsum_pv_rec([-1, -2])

    def test_manipulation_valid(self):
        election, attack = gen_subsetsum_pv_rec([2, -1, 3])
        assert validate_manipulation(election, attack) == []


class TestX3cPvRec:
    def test_single_cover(self):
        election, attack = gen_x3c_pv_rec([1, 2, 3], [[1, 2, 3]])
        assert rec_decide_brute(election, attack, election.candidate_index("a")).decision

    def test_no_exact_cover(self):
        election, attack = gen_x3c_pv_rec([1, 2, 3, 4, 5, 6], [[1, 2, 3], [1, 2, 4]])
        assert not rec_decide_brute(election, attack, election.candidate_index("a")).decision

    def test_true_tally_value(self):
        election, _ = gen_x3c_pv_rec([1, 2, 3, 4, 5, 6], [[1, 2, 3], [4, 5, 6], [1, 2, 4]])
        cover_size, num_sets = 2, 3
        expected = 2 * num_sets + 6 * cover_size * num_sets
        assert tally(election).scores[election.candidate_index("a")] == expected

    def test_malformed_inputs(self):
        with pytest.raises(ValidationError):
            gen_x3c_pv_rec([1, 2, 3, 4], [[1, 2, 3]])
        with pytest.raises(ValidationError):
            gen_x3c_pv_rec([1, 2, 3], [[1, 2]])
        with pytest.raises(ValidationError):
            gen_x3c_pv_rec([1, 2, 3], [[1, 2, 9]])
        with pytest.raises(ValidationError, match="^at least one 3-set is required$"):
            gen_x3c_pv_rec([1, 2, 3], [])


class TestSubsetsumPvMan:
    def test_yes_and_no(self):
        assert man_decide_brute(gen_subsetsum_pv_man([1, -1])).decision is True
        assert man_decide_brute(gen_subsetsum_pv_man([1, 2])).decision is False

    def test_true_welfare(self):
        values = [1, -1]
        election = gen_subsetsum_pv_man(values)
        y = max(2 * abs(x) for x in values)
        count = len(values)
        welfare = social_welfare_vector(election)
        assert welfare[election.candidate_index("a")] == 6 * y * count
        assert welfare[election.candidate_index("b")] == 6 * y * count
        assert welfare[election.candidate_index("p")] == 1

    def test_preconditions(self):
        with pytest.raises(UnsupportedError):
            gen_subsetsum_pv_man([5])
        with pytest.raises(UnsupportedError):
            gen_subsetsum_pv_man([0, 1])


class TestIsPdRec:
    def test_path_has_independent_pair(self):
        election, attack = gen_is_pd_rec(3, [(0, 1), (1, 2)], 2)
        assert rec_decide_dp(election, attack, election.candidate_index("a")).decision

    def test_triangle_has_none(self):
        election, attack = gen_is_pd_rec(3, [(0, 1), (1, 2), (0, 2)], 2)
        assert not rec_decide_dp(election, attack, election.candidate_index("a")).decision

    def test_distorted_weight_of_preferred(self):
        nodes, edges = 3, [(0, 1), (1, 2)]
        election, attack = gen_is_pd_rec(nodes, edges, 2)
        scale = 2 * (nodes + len(edges)) + 1
        distorted = tally(election, attack).scores
        assert distorted[election.preferred] == (2 * nodes * len(edges) + 2) * scale

    def test_padding_districts_are_one_object(self):
        nodes, edges = 4, [(0, 1), (1, 2), (2, 3)]
        election, attack = gen_is_pd_rec(nodes, edges, 2)
        scale = 2 * (nodes + len(edges)) + 1
        first = 2 * len(edges) + nodes  # after the edge and node districts
        padding = range(first, first + scale)
        assert len({id(election.districts[i]) for i in padding}) == 1
        assert len({id(dict(attack.items())[i]) for i in padding}) == 1

    def test_equal_shapes_share_districts_and_distorted_vectors(self):
        first, first_attack = gen_is_pd_rec(3, [(0, 1), (1, 2)], 2)
        second, second_attack = gen_is_pd_rec(3, [(0, 1), (1, 2)], 2)
        assert all(a is b for a, b in zip(first.districts, second.districts))
        for (i, votes), (j, other) in zip(first_attack.items(), second_attack.items()):
            assert i == j and votes is other

    def test_preconditions(self):
        with pytest.raises(UnsupportedError):
            gen_is_pd_rec(3, [], 1)
        with pytest.raises(UnsupportedError):
            gen_is_pd_rec(3, [(0, 1)], 3)
        with pytest.raises(ValidationError):
            gen_is_pd_rec(2, [(0, 0)], 1)


class TestSssPdMan:
    def test_yes_and_no(self):
        assert man_decide_brute(gen_sss_pd_man([1, 2], 2)).decision is True
        assert man_decide_brute(gen_sss_pd_man([1, -1], 2)).decision is False

    def test_true_weights(self):
        values = [1, 2]
        election = gen_sss_pd_man(values, 2)
        y = sum(3 * abs(x) for x in values)
        welfare = social_welfare_vector(election)
        assert welfare[election.candidate_index("a")] == 2 * y + 5
        assert welfare[election.candidate_index("b")] == 2 * y + 3
        assert welfare[election.candidate_index("p")] == 2 * y + 4

    def test_preconditions(self):
        with pytest.raises(UnsupportedError):
            gen_sss_pd_man([1, 1], 1)
        with pytest.raises(UnsupportedError):
            gen_sss_pd_man([1, 2], 3)


class TestPartitionPvRecReg:
    def test_yes_and_no(self):
        yes, yes_attack = gen_partition_pv_recreg([4, 4], 1.0)
        assert rec_decide_brute(yes, yes_attack, yes.candidate_index("a")).decision is True
        no, no_attack = gen_partition_pv_recreg([4, 8], 1.0)
        assert rec_decide_brute(no, no_attack, no.candidate_index("a")).decision is False

    def test_padding_districts_are_one_object(self):
        values = [8, 12, 12]
        election, attack = gen_partition_pv_recreg(values, 1.6)
        padding = range(len(values), election.num_districts - 2)
        assert len(padding) == 2 * 20 * len(values)  # ceil(32 / 1.6) = 20 per value
        assert len({id(election.districts[i]) for i in padding}) == 1
        assert len({id(dict(attack.items())[i]) for i in padding}) == 1

    def test_attack_is_regular(self):
        election, attack = gen_partition_pv_recreg([4, 8, 12], 0.5)
        assert validate_manipulation(election, attack, require_regular=True) == []

    def test_true_tally_value(self):
        values = [4, 4]
        election, _ = gen_partition_pv_recreg(values, 1.0)
        count, total = len(values), sum(values)
        padding = total  # epsilon = 1
        expected = 4 * padding * count + total * count + 2 * count
        assert tally(election).scores[election.candidate_index("a")] == expected

    def test_preconditions(self):
        with pytest.raises(UnsupportedError):
            gen_partition_pv_recreg([4, 6], 1.0)
        with pytest.raises(UnsupportedError):
            gen_partition_pv_recreg([4, 8], 0)


class TestGenRandom:
    def test_determinism(self):
        kwargs = dict(
            rule="PD",
            num_districts=5,
            num_candidates=3,
            n_max=6,
            w_max=7,
            gamma_mode="random",
            budget_attacker=2,
            budget_defender=1,
        )
        first = serialize_instance(gen_random(seed=42, **kwargs))
        second = serialize_instance(gen_random(seed=42, **kwargs))
        assert first == second
        assert first != serialize_instance(gen_random(seed=43, **kwargs))

    def test_candidate_names_are_shared(self):
        first = gen_random("PV", 3, 4, n_max=5, seed=1)
        second = gen_random("PD", 2, 4, n_max=3, seed=2)
        assert first.candidates == ("c0", "c1", "c2", "c3")
        assert first.candidates is second.candidates

    def test_equal_districts_are_shared(self):
        # one vote, two candidates, full gamma: two distinct districts at most
        first = gen_random("PV", 8, 2, n_max=1, seed=1)
        second = gen_random("PD", 6, 2, n_max=1, seed=2)
        distinct = {}
        for d in first.districts + second.districts:
            assert distinct.setdefault(d, d) is d
        assert len(distinct) == 2

    def test_elections_with_one_tiebreak_share_its_tables(self):
        by_order = {}
        for seed in range(12):
            election = gen_random("PV", 2, 3, n_max=4, seed=seed)
            shared = by_order.setdefault(election.tiebreak, election)
            assert election.tiebreak is shared.tiebreak
            assert election.position is shared.position
            assert election.by_priority is shared.by_priority
        assert len(by_order) < 12
        # an equal order from elsewhere shares the tables, and stays the object passed
        election = next(iter(by_order.values()))
        Rank = enum.IntEnum("Rank", [f"c{j}" for j in range(3)], start=0)
        order = tuple(map(Rank, election.tiebreak))
        other = dataclasses.replace(election, tiebreak=order)
        assert other.tiebreak is order and type(other.tiebreak[0]) is Rank
        assert other.position is election.position
        assert other.by_priority((5, 6, 7)) == election.by_priority((5, 6, 7))

    def test_equal_orders_rules_and_attack_vectors_are_shared(self):
        elections = [gen_random("pv", 3, 3, n_max=3, seed=seed) for seed in range(12)]
        shared = {}
        for election in elections:
            assert shared.setdefault(election._order, election._order) is election._order
            assert election.rule is elections[0].rule
            attack = random_manipulation(election, seed=1)
            for _, votes in attack.items():
                assert shared.setdefault(votes, votes) is votes
        assert len(shared) < 24

    def test_sharing_keeps_the_draws(self):
        # the digest of these instances before districts and orders were shared
        digest = hashlib.sha256()
        for seed in range(8):
            for rule, gamma_mode in (("PV", "full"), ("PD", "random")):
                election = gen_random(rule, 6, 4, 9, 5, gamma_mode, 3, 2, seed=seed)
                digest.update(serialize_instance(election).encode())
        expected = "7dc6fe5cbe8c2fb70cd54dbe37e2cb889282782464089212de8c3d672f6fe6dc"
        assert digest.hexdigest() == expected

    def test_gamma_full(self):
        election = gen_random("PV", 6, 3, n_max=5, gamma_mode="full", seed=3)
        assert all(d.gamma == d.size for d in election.districts)

    def test_always_valid(self):
        # Election construction re-checks every invariant
        for seed in range(50):
            election = gen_random(
                "PV" if seed % 2 else "PD",
                num_districts=1 + seed % 6,
                num_candidates=1 + seed % 4,
                n_max=1 + seed % 7,
                w_max=1 + seed % 9,
                gamma_mode="random",
                budget_attacker=1,
                budget_defender=seed % 2,
                seed=seed,
            )
            assert election.num_districts == 1 + seed % 6

    def test_bad_params(self):
        with pytest.raises(UnsupportedError):
            gen_random("PV", 3, 2, n_max=4, gamma_mode="everything", seed=0)
        with pytest.raises(UnsupportedError):
            gen_random("PV", 0, 2, n_max=4, seed=0)


NON_INTEGER_CALLS = {
    "subsetsum-rec-float": lambda: gen_subsetsum_pv_rec([2.5, -1]),
    "subsetsum-rec-bool": lambda: gen_subsetsum_pv_rec([True, 3]),
    "subsetsum-rec-str": lambda: gen_subsetsum_pv_rec(["3", -1]),
    "subsetsum-man-float": lambda: gen_subsetsum_pv_man([2.0, -2]),
    "is-nodes-float": lambda: gen_is_pd_rec(4.9, [(0, 1)], 1),
    "is-edge-float": lambda: gen_is_pd_rec(3, [(0, 1.7)], 1),
    "is-size-float": lambda: gen_is_pd_rec(3, [(0, 1)], 1.0),
    "sss-values-float": lambda: gen_sss_pd_man([1, 2.0], 2),
    "sss-size-float": lambda: gen_sss_pd_man([1, 2], 2.0),
    "partition-values-float": lambda: gen_partition_pv_recreg([4.0, 4], 1.0),
    "partition-epsilon-str": lambda: gen_partition_pv_recreg([4, 4], "2"),
    "partition-epsilon-bool": lambda: gen_partition_pv_recreg([4, 4], True),
    "partition-epsilon-nan": lambda: gen_partition_pv_recreg([4, 4], float("nan")),
    "random-n-max-float": lambda: gen_random("PV", 3, 2, n_max=2.5),
    "random-districts-float": lambda: gen_random("PV", 3.0, 2, n_max=4),
    "random-w-max-bool": lambda: gen_random("PV", 3, 2, n_max=4, w_max=True),
    "manipulation-cap-float": lambda: random_manipulation(
        gen_random("PV", 3, 2, n_max=4), max_districts=1.5
    ),
    "x3c-elements-float": lambda: gen_x3c_pv_rec([1, 2, 3.0], [[1, 2, 3]]),
    # 3.0 == 3 passed the subset test but named no candidate (KeyError 'j3.0')
    "x3c-set-float": lambda: gen_x3c_pv_rec([1, 2, 3], [[1, 2, 3.0]]),
    "random-seed-list": lambda: gen_random("PV", 3, 2, n_max=4, seed=[1]),
    "random-seed-float": lambda: gen_random("PV", 3, 2, n_max=4, seed=1.5),
    "manipulation-seed-str": lambda: random_manipulation(gen_random("PV", 3, 2, n_max=4), seed="1"),
}


@pytest.mark.parametrize("name", NON_INTEGER_CALLS)
def test_generators_reject_non_integers(name):
    # the model's integer rule: nothing is coerced, 2.5, "3" and True are not integers
    with pytest.raises(ValidationError, match="must be (an )?integers?"):
        NON_INTEGER_CALLS[name]()


def test_gen_random_rejects_a_rule_that_is_not_a_string():
    # gen_random(1, 3, 2, 4) once failed in rule.upper() with AttributeError
    with pytest.raises(ValidationError, match="unknown rule 1"):
        gen_random(1, 3, 2, 4)


class TestRandomManipulation:
    def test_valid_and_regular(self):
        for seed in range(60):
            election = gen_random(
                "PD" if seed % 2 else "PV",
                num_districts=1 + seed % 5,
                num_candidates=2 + seed % 3,
                n_max=5,
                w_max=6,
                gamma_mode="full",
                budget_attacker=min(1 + seed % 3, 1 + seed % 5),
                budget_defender=0,
                seed=seed + 100,
            )
            general = random_manipulation(election, seed=seed, regular=False)
            assert validate_manipulation(election, general) == []
            regular = random_manipulation(election, seed=seed, regular=True)
            assert validate_manipulation(election, regular, require_regular=True) == []

    def test_deterministic(self):
        election = gen_random("PV", 5, 3, n_max=5, budget_attacker=3, seed=9)
        assert random_manipulation(election, seed=4) == random_manipulation(election, seed=4)

    def test_empty_attacks_are_one_object(self):
        # a budget-1 attack on one district draws no district half the time
        empties = []
        for seed in range(40):
            election = gen_random("PV", 1, 2, n_max=3, seed=seed)
            attack = random_manipulation(election, seed=seed)
            if not attack:
                empties.append(attack)
        assert len(empties) >= 2 and all(attack is empties[0] for attack in empties)
        assert empties[0] == Manipulation()
        # as is the attack of an exact search that wins without attacking
        election = gen_random("PV", 4, 3, 5, budget_attacker=2, budget_defender=1, seed=1)
        report = man_decide_brute(election)
        assert report.decision and report.explored == 1
        assert report.manipulation is empties[0]

    def test_regular_needs_preferred(self):
        election = gen_random("PV", 5, 3, n_max=5, budget_attacker=3, seed=9)
        election = dataclasses.replace(election, preferred=None)
        with pytest.raises(UnsupportedError, match="^a regular attack needs the preferred"):
            random_manipulation(election, seed=4, regular=True)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_subsetsum_pv_rec([3, -1, -2, 5], weighted=True)[0],
        lambda: gen_x3c_pv_rec([1, 2, 3, 4, 5, 6], [(1, 2, 3), (4, 5, 6)])[0],
        lambda: gen_subsetsum_pv_man([3, -2, 4, -1]),
        lambda: gen_sss_pd_man([1, -2, 3], 2),
        lambda: gen_partition_pv_recreg([4, 8, 12], 0.5)[0],
    ],
    ids=["subsetsum-pv-rec", "x3c-pv-rec", "subsetsum-pv-man", "sss-pd-man", "partition-pv-recreg"],
)
def test_equal_calls_share_every_district(make):
    # as gen_random, gen_is_pd_rec and parse_instance do: one object per equal district
    first, second = make(), make()
    assert all(a is b for a, b in zip(first.districts, second.districts, strict=True))


def test_every_generator_output_parses_back():
    from recountgame import parse_instance

    pairs = [
        gen_subsetsum_pv_rec([2, -1, 3]),
        gen_subsetsum_pv_rec([2, -1, 3], weighted=True),
        gen_x3c_pv_rec([1, 2, 3], [[1, 2, 3]]),
        (gen_subsetsum_pv_man([1, -1]), None),
        gen_is_pd_rec(3, [(0, 1), (1, 2)], 2),
        (gen_sss_pd_man([1, 2], 2), None),
        gen_partition_pv_recreg([4, 4], 1.0),
    ]
    for election, attack in pairs:
        text = serialize_instance(election, attack)
        parsed_election, parsed_attack = parse_instance(text)
        assert serialize_instance(parsed_election, parsed_attack) == text
