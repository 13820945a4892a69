"""Attacker solvers: district bribery, exhaustive search, regular PD attacker."""

import dataclasses
import itertools

import networkx as nx
import pytest

import recountgame.model
from conftest import ALL_TO_P_21, BAIT_ATTACK_51, random_instance
from test_acceptance import subset_sum_yes
from recountgame import (
    District,
    Election,
    Manipulation,
    ResourceLimitError,
    UnsupportedError,
    ValidationError,
    enumerate_distortions,
    district_min_steal,
    gen_random,
    gen_subsetsum_pv_man,
    man_decide_brute,
    man_pd_regular,
    rec_optimize,
    solve_man,
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

    @staticmethod
    def greedy_drain(votes, target, tiebreak):
        """Reference: the strongest-first drain, grown one move at a time until ``target`` wins."""
        pos = recountgame.model.positions(tiebreak)

        def wins(vec):
            return max(range(len(vec)), key=lambda c: (vec[c], -pos[c])) == target

        def drain(moves):
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
                full, part = divmod(remaining, group)
                if full >= top - nxt:
                    for a in opponents[:group]:
                        counts[a] -= top - nxt
                    remaining -= (top - nxt) * group
                else:
                    for a in opponents[:group]:
                        counts[a] -= full
                    for a in opponents[:part]:
                        counts[a] -= 1
                    remaining = 0
            return tuple(counts)

        if wins(votes):
            return 0, tuple(votes)
        if sum(votes) == votes[target]:
            return float("inf"), None
        moves = 1
        while not wins(drain(moves)):
            moves += 1
        return moves, drain(moves)

    @pytest.mark.parametrize("m, top", [(1, 5), (2, 5), (3, 5), (4, 3)])
    def test_matches_greedy_drain(self, m, top):
        # every vote vector, tie-break and target: same moves, same witness
        for votes in itertools.product(range(top + 1), repeat=m):
            for tiebreak in itertools.permutations(range(m)):
                for target in range(m):
                    expected = self.greedy_drain(votes, target, tiebreak)
                    assert district_min_steal(votes, target, tiebreak) == expected

    def test_empty_vote_vector_rejected(self):
        with pytest.raises(ValidationError) as err:
            district_min_steal((), 0, ())
        assert str(err.value) == "votes must hold one count per candidate, got ()"

    @pytest.mark.parametrize(
        "target", [5, -1, True, 1.0], ids=["above", "negative", "bool", "float"]
    )
    def test_target_must_be_a_candidate_id(self, target):
        with pytest.raises(ValidationError) as err:
            district_min_steal((1, 2), target, (0, 1))
        assert str(err.value) == f"target must be an integer in [0, 1], got {target!r}"

    @pytest.mark.parametrize(
        "tiebreak", [(0,), (0, 0), (0, 2), (True, 0)], ids=["short", "repeat", "range", "bool"]
    )
    def test_tiebreak_must_be_a_permutation(self, tiebreak):
        with pytest.raises(ValidationError):
            district_min_steal((1, 2), 0, tiebreak)

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

    @pytest.mark.parametrize("target", [2, 7, -1, True, 1.0, "1"])
    def test_regular_target_must_be_a_candidate_id(self, target):
        with pytest.raises(ValidationError, match=r"^target must be an integer in \[0, 1\]"):
            list(enumerate_distortions((1, 2), 1, True, target=target))

    def test_empty_vote_vector_rejected(self):
        with pytest.raises(ValidationError) as err:
            list(enumerate_distortions((), 0))
        assert str(err.value) == "votes must hold one count per candidate, got ()"

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

    def test_many_candidates(self):
        # one position per candidate: 1,200 lie past Python's recursion limit
        m = 1200
        votes = (1,) + (0,) * (m - 1)
        out = list(enumerate_distortions(votes, 1))
        assert len(out) == m
        assert out[0] == (0,) * (m - 1) + (1,) and out[-1] == votes
        assert list(enumerate_distortions(votes, 1, regular=True, target=7)) == [
            tuple(int(c == 7) for c in range(m)),
            votes,
        ]


class TestManDecideBrute:
    def test_attacker_search_over_many_candidates(self):
        m = 1001
        election = Election(
            rule="PV",
            candidates=tuple(f"c{c}" for c in range(m)),
            districts=(District((1,) + (0,) * (m - 1), gamma=1),),
            tiebreak=tuple(range(m)),
            budget_attacker=1,
            budget_defender=1,
            preferred=1,
        )
        # every move of the one vote is recounted away; no depth limit on the way
        report = man_decide_brute(election)
        assert report.decision is False and report.stats["explored"] == m

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

    @pytest.mark.parametrize("cap", ["9", None, -1, True, 1.0])
    def test_node_cap_must_be_an_integer(self, example21_pv, cap):
        with pytest.raises(ValidationError, match="^max_nodes must be an integer >= 0"):
            man_decide_brute(example21_pv, max_nodes=cap)

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
        # defender prefers over p; this pins that stop rule in both directions.
        # The reference tries every distortion under both rules, so under PD it
        # also checks the search's canonical cheapest steals.
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

        for rule in ("PV", "PD"):
            seen, seen_full_recount = set(), set()
            for seed in range(60):
                election, _ = random_instance(seed + 6000, rule=rule, max_k=3, n_max=3)
                expected = reference(election)
                report = man_decide_brute(election, regular=regular)
                assert report.decision == expected, (rule, seed)
                if expected:
                    replay = rec_optimize(election, report.manipulation)
                    assert replay.winner == election.preferred, (rule, seed)
                if election.budget_defender:
                    seen.add(expected)
                if election.budget_defender >= election.budget_attacker:
                    seen_full_recount.add(expected)
            assert seen == seen_full_recount == {False, True}, rule


@pytest.fixture
def flow_calls(monkeypatch):
    """Counts the maximum-flow calls made while a test runs."""
    calls = []
    real = nx.maximum_flow

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(nx, "maximum_flow", counted)
    return calls


class TestManPvNoRecount:
    def test_many_deficit_candidates(self, flow_calls):
        # 21 opponents each lead p by 109 votes; attacking the first district
        # moves 5 votes of each onto p, which then wins on priority
        opponents = 21
        election = Election(
            rule="PV",
            candidates=tuple(f"c{j}" for j in range(opponents)) + ("p",),
            districts=(
                District(votes=(5,) * opponents + (0,), gamma=5 * opponents),
                District(votes=(104,) * opponents + (0,), gamma=0),
            ),
            tiebreak=(opponents,) + tuple(range(opponents)),
            budget_attacker=1,
            budget_defender=0,
            preferred=opponents,
        )
        report = man_decide_brute(election)
        assert report.decision and report.winner == opponents
        assert report.manipulation.districts == (0,)
        assert tally(election, report.manipulation).winner == opponents
        assert len(flow_calls) == 1

    def test_flow_decides_when_both_screens_pass(self, flow_calls):
        # attacking both districts gives p 8 votes against deficits of 2 for
        # a, b and c; each alone and all three together can be collected, but
        # a and b together need 4 votes from a district that transfers only 2
        election = Election(
            rule="PV",
            candidates=("a", "b", "c", "p"),
            districts=(
                District(votes=(2, 2, 0, 0), gamma=2),
                District(votes=(0, 0, 6, 0), gamma=6),
                District(votes=(8, 8, 4, 0), gamma=0),
            ),
            tiebreak=(3, 0, 1, 2),
            budget_attacker=2,
            budget_defender=0,
            preferred=3,
        )
        report = man_decide_brute(election)
        assert report.decision is False
        assert report.stats["explored"] == 4
        assert len(flow_calls) == 1

    @pytest.mark.parametrize("values, flows", [([3, -2, 4, 1], 0), ([3, -2, 4, -1], 1)])
    def test_three_candidates_flow_only_on_the_winning_set(self, flow_calls, values, flows):
        election = gen_subsetsum_pv_man(values)
        report = man_decide_brute(election)
        assert report.decision is bool(flows)
        if flows:
            assert tally(election, report.manipulation).winner == election.preferred
        assert len(flow_calls) == flows


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

    def test_validates_only_the_witness(self, monkeypatch):
        calls = []
        original = recountgame.model.validate_manipulation

        def counted(election, manipulation, require_regular=False):
            calls.append(require_regular)
            return original(election, manipulation, require_regular)

        monkeypatch.setattr(recountgame.model, "validate_manipulation", counted)
        # three greedy rounds before the attack holds
        report = man_pd_regular(gen_random("PD", 5, 3, 5, 3, "full", 2, 1, seed=108))
        assert report.decision and report.stats["explored"] == 3
        assert calls == [True]

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

    @pytest.mark.parametrize(
        "attack, message",
        [
            (Manipulation({0: (9, 9, 9)}), "district 0: distorted votes sum to 27, size is 7"),
            # handing district 0 to b is not regular, and district 1 is no attack at all
            (
                Manipulation({0: (0, 7, 0), 1: (9, 9, 9)}),
                "district 0: preferred candidate does not win the distorted district; "
                "district 1: distorted votes sum to 27, size is 7",
            ),
        ],
        ids=["invalid", "invalid-and-not-regular"],
    )
    def test_invalid_attack_is_a_validation_error(self, example21_pd, attack, message):
        with pytest.raises(ValidationError) as err:
            verify_regular_attack(example21_pd, attack)
        assert str(err.value) == "invalid manipulation: " + message
        assert err.value.violations[-1].constraint == "size_mismatch"


def _without_time(report):
    return dataclasses.replace(report, runtime_ms=0.0)


class TestSolveMan:
    # the README landscape's attacker rows: only the regular PD game has a
    # polynomial engine, every other cell is the exhaustive search
    LANDSCAPE = {
        ("PV", False): man_decide_brute,
        ("PV", True): lambda e: man_decide_brute(e, regular=True),
        ("PD", False): man_decide_brute,
        ("PD", True): man_pd_regular,
    }

    @pytest.mark.parametrize("rule, regular", sorted(LANDSCAPE))
    def test_auto_routes_each_cell_to_its_landscape_engine(self, rule, regular):
        engine = self.LANDSCAPE[rule, regular]
        algorithms = set()
        for seed in range(30):
            election, _ = random_instance(seed + 4000, rule=rule, max_k=4, n_max=4)
            report = solve_man(election, regular)
            assert _without_time(report) == _without_time(engine(election)), seed
            algorithms.add(report.algorithm)
        assert algorithms == {"man-pd-regular" if (rule, regular) == ("PD", True) else "man-brute"}

    @pytest.mark.parametrize("regular", [False, True])
    def test_no_recount_pv_reduction_holds_with_and_without_regular(self, regular):
        # the B_D = 0 cell that gen_subsetsum_pv_man shows hard, both attack kinds
        for values in ([1, -1], [1, 2], [3, -2, 4, 1], [3, -2, 4, -1], [2, 5, -3, -4]):
            report = solve_man(gen_subsetsum_pv_man(values), regular)
            assert report.decision is subset_sum_yes(values), values

    @pytest.mark.parametrize("regular", [False, True])
    def test_explicit_algo_names_the_engine(self, example21_pd, regular):
        assert _without_time(solve_man(example21_pd, regular, "brute")) == _without_time(
            man_decide_brute(example21_pd, regular=regular)
        )
        assert _without_time(solve_man(example21_pd, regular, "pd-reg")) == _without_time(
            man_pd_regular(example21_pd)
        )

    def test_pd_reg_rejects_pv(self, example21_pv):
        with pytest.raises(UnsupportedError, match="man_pd_regular requires rule PD"):
            solve_man(example21_pv, algo="pd-reg")

    def test_unknown_algo(self, example21_pd):
        with pytest.raises(UnsupportedError, match="unknown attacker algorithm 'nope'"):
            solve_man(example21_pd, algo="nope")
