"""Attacker solvers: district bribery, exhaustive search, regular PD attacker."""

import itertools

import pytest

from conftest import ALL_TO_P_21, BAIT_ATTACK_51, random_instance
from recountgame import (
    District,
    Election,
    Manipulation,
    ResourceLimitError,
    UnsupportedError,
    enumerate_distortions,
    district_min_steal,
    man_decide_brute,
    man_pd_regular,
    rec_optimize,
    tally,
    verify_regular_attack,
)


class TestDistrictMinSteal:
    def test_tie_win_through_priority(self):
        moves, witness = district_min_steal((5, 2, 1), 2, (2, 0, 1))
        assert moves == 2 and witness == (3, 2, 3)

    def test_already_winner(self):
        assert district_min_steal((0, 0, 5), 2, (2, 0, 1)) == (0, (0, 0, 5))

    def test_majority_transfer(self):
        moves, witness = district_min_steal((7, 0, 0), 2, (2, 0, 1))
        assert moves == 4 and witness == (3, 0, 4)

    def test_empty_district(self):
        moves, witness = district_min_steal((0, 0, 0), 2, (0, 1, 2))
        assert moves == float("inf") and witness is None
        assert district_min_steal((0, 0, 0), 2, (2, 0, 1))[0] == 0

    def test_matches_brute_force(self):
        def brute(votes, target, tiebreak):
            pos = [0] * len(votes)
            for rank, c in enumerate(tiebreak):
                pos[c] = rank
            best = None
            for vec in enumerate_distortions(votes, sum(votes)):
                if max(range(len(votes)), key=lambda c: (vec[c], -pos[c])) == target:
                    moves = sum(max(0, t - o) for o, t in zip(votes, vec))
                    best = moves if best is None else min(best, moves)
            return best

        for votes in itertools.product(range(5), repeat=3):
            for target in range(3):
                for tiebreak in itertools.permutations(range(3)):
                    got, witness = district_min_steal(votes, target, tiebreak)
                    expected = brute(votes, target, tiebreak)
                    if expected is None:
                        assert got == float("inf") and witness is None
                        continue
                    assert got == expected
                    assert sum(max(0, t - o) for o, t in zip(votes, witness)) == got

    def test_monotone_in_target_support(self):
        # more initial votes for the target never increases the price
        for extra in range(4):
            a = district_min_steal((6, 3, extra), 2, (2, 0, 1))[0]
            b = district_min_steal((6, 3, extra + 1), 2, (2, 0, 1))[0]
            assert b <= a


class TestEnumerateDistortions:
    def test_no_budget_single_vector(self):
        assert list(enumerate_distortions((1, 1), 0)) == [(1, 1)]

    def test_spec_count(self):
        assert list(enumerate_distortions((2, 0), 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_regular_everything_already_on_target(self):
        assert list(enumerate_distortions((0, 0, 4), 4, regular=True, target=2)) == [(0, 0, 4)]

    def test_regular_requires_target(self):
        with pytest.raises(UnsupportedError):
            list(enumerate_distortions((1, 1), 1, regular=True))

    @pytest.mark.parametrize("votes", [(3, 1, 0), (2, 2, 2), (0, 4, 1)])
    def test_exact_once_feasible_ordered(self, votes):
        for gamma in range(sum(votes) + 1):
            out = list(enumerate_distortions(votes, gamma))
            assert out == sorted(set(out))
            for vec in out:
                assert sum(vec) == sum(votes)
                assert min(vec) >= 0
                assert sum(max(0, t - o) for o, t in zip(votes, vec)) <= gamma
            # every vector feasible at gamma-1 remains feasible at gamma
            if gamma:
                assert set(enumerate_distortions(votes, gamma - 1)) <= set(out)

    def test_regular_subset_of_general(self):
        votes = (2, 1, 1)
        general = set(enumerate_distortions(votes, 4))
        regular = set(enumerate_distortions(votes, 4, regular=True, target=2))
        assert regular <= general
        assert all(vec[0] <= 2 and vec[1] <= 1 for vec in regular)


class TestManDecideBrute:
    def test_example21_pv_attacker_loses(self, example21_pv):
        assert man_decide_brute(example21_pv).decision is False

    def test_example21_pd_attacker_wins_both_big_districts(self, example21_pd):
        report = man_decide_brute(example21_pd)
        assert report.decision
        assert report.manipulation.districts == (0, 1)
        replay = rec_optimize(example21_pd, report.manipulation)
        assert example21_pd.candidates[replay.winner] == "p"

    def test_example51_regular_vs_general(self, example51):
        assert man_decide_brute(example51, regular=True).decision is False
        report = man_decide_brute(example51)
        assert report.decision
        assert dict(report.manipulation.items()) == {0: (0, 6, 0), 1: (0, 0, 3)}
        assert report.recount.indices == (0,)

    def test_trivial_win_when_preferred_already_wins(self):
        election = Election(
            rule="PV",
            candidates=("a", "p"),
            districts=(District(votes=(0, 3)),),
            tiebreak=(1, 0),
            budget_attacker=1,
            budget_defender=1,
            preferred=1,
        )
        report = man_decide_brute(election)
        assert report.decision and len(report.manipulation) == 0

    def test_needs_preferred(self, example21_pv):
        import dataclasses

        with pytest.raises(UnsupportedError):
            man_decide_brute(dataclasses.replace(example21_pv, preferred=None))

    def test_witness_survives_optimal_defender(self):
        for seed in range(40):
            election, _ = random_instance(seed + 2000, max_k=4, n_max=4)
            report = man_decide_brute(election)
            if report.decision and len(report.manipulation):
                replay = rec_optimize(election, report.manipulation)
                assert replay.winner == election.preferred, seed

    def test_node_cap(self, example21_pv):
        with pytest.raises(ResourceLimitError):
            man_decide_brute(example21_pv, max_nodes=2)

    def test_single_candidate_always_wins(self):
        election = Election(
            rule="PV",
            candidates=("p",),
            districts=(District(votes=(4,), gamma=4),),
            tiebreak=(0,),
            budget_attacker=1,
            budget_defender=1,
            preferred=0,
        )
        assert man_decide_brute(election).decision is True

    def test_regular_win_implies_general_win(self):
        # strictness of the containment is witnessed by the example 5.1 fixture
        for seed in range(50):
            election, _ = random_instance(seed + 4000, max_k=4, n_max=4)
            regular = man_decide_brute(election, regular=True).decision
            general = man_decide_brute(election).decision
            assert not regular or general, seed

    @pytest.mark.parametrize("regular", [False, True])
    def test_matches_attack_enumeration_against_optimal_defence(self, regular):
        # the inner defence stops at the first recount electing a candidate the
        # defender prefers over p; this pins that stop rule in both directions
        def reference(election):
            p = election.preferred
            options = [
                list(enumerate_distortions(d.votes, d.gamma, regular, p))
                for d in election.districts
            ]
            for size in range(election.budget_attacker + 1):
                for attacked in itertools.combinations(range(election.num_districts), size):
                    for combo in itertools.product(*(options[i] for i in attacked)):
                        attack = Manipulation(dict(zip(attacked, combo)))
                        if rec_optimize(election, attack).winner == p:
                            return True
            return False

        seen = set()
        for seed in range(60):
            election, _ = random_instance(seed + 6000, rule="PV", max_k=3, n_max=3)
            expected = reference(election)
            report = man_decide_brute(election, regular=regular)
            assert report.decision == expected, seed
            if expected:
                assert rec_optimize(election, report.manipulation).winner == election.preferred
            if election.budget_defender:
                seen.add(expected)
        assert seen == {False, True}


class TestManPdRegular:
    def test_example21_pd(self, example21_pd):
        report = man_pd_regular(example21_pd)
        assert report.decision
        assert report.manipulation.districts == (0, 1)
        assert verify_regular_attack(example21_pd, report.manipulation).decision

    def test_rejects_pv(self, example21_pv):
        with pytest.raises(UnsupportedError):
            man_pd_regular(example21_pv)

    def test_defender_budget_dominance(self):
        for seed in range(60):
            election, _ = random_instance(seed + 2500, rule="PD", max_k=4, n_max=4)
            if election.budget_defender < election.budget_attacker:
                continue
            if tally(election).winner == election.preferred:
                continue
            assert man_pd_regular(election).decision is False, seed

    def test_matches_brute_on_random_weighted_instances(self):
        for seed in range(60):
            election, _ = random_instance(seed + 3000, rule="PD", max_k=5, n_max=5)
            assert (
                man_pd_regular(election).decision
                == man_decide_brute(election, regular=True).decision
            ), seed

    def test_round_bound(self, example21_pd):
        report = man_pd_regular(example21_pd)
        limit = min(example21_pd.budget_attacker, example21_pd.num_districts)
        assert report.stats["explored"] <= limit + 1


class TestVerifyRegularAttack:
    def test_pd_attack_wins(self, example21_pd):
        assert verify_regular_attack(example21_pd, ALL_TO_P_21).decision is True

    def test_pv_attack_fails(self, example21_pv):
        report = verify_regular_attack(example21_pv, ALL_TO_P_21)
        assert report.decision is False
        assert example21_pv.candidates[report.winner] == "b"

    def test_empty_attack_loses_if_preferred_trails(self, example21_pv):
        assert verify_regular_attack(example21_pv, Manipulation()).decision is False

    def test_rejects_non_regular(self, example51):
        with pytest.raises(UnsupportedError):
            verify_regular_attack(example51, BAIT_ATTACK_51)
