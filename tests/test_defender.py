"""Recount solvers: oracle behavior, engine equivalence, greedy recounting."""

import pytest

import recountgame.model
from conftest import ALL_TO_P_21, BAIT_ATTACK_51, random_instance
from recountgame import (
    District,
    Election,
    Manipulation,
    ResourceLimitError,
    UnsupportedError,
    gen_subsetsum_pv_rec,
    greedy_recount,
    rec_decide_brute,
    rec_decide_dp,
    rec_optimize,
    rec_pd_unweighted,
    social_welfare_vector,
    tally,
)


class TestRecDecideBrute:
    def test_example21_target_a_unreachable(self, example21_pv):
        report = rec_decide_brute(example21_pv, ALL_TO_P_21, example21_pv.candidate_index("a"))
        assert report.decision is False and report.winner is None

    def test_no_attack_true_winner(self, example21_pv):
        report = rec_decide_brute(example21_pv, Manipulation(), example21_pv.candidate_index("a"))
        assert report.decision and report.recount.indices == ()

    def test_budget_covers_attack(self, example21_pv):
        report = rec_decide_brute(
            example21_pv, ALL_TO_P_21, example21_pv.candidate_index("a"), budget=2
        )
        assert report.decision
        # the full recount is a certificate even if a smaller witness is returned
        assert tally(example21_pv, ALL_TO_P_21, ALL_TO_P_21.districts).winner == 0
        assert tally(example21_pv, ALL_TO_P_21, report.recount.indices).winner == 0

    def test_witness_is_lex_smallest(self):
        election = Election(
            rule="PV",
            candidates=("a", "p"),
            districts=(
                District(votes=(1, 0), gamma=1),
                District(votes=(3, 0), gamma=3),
                District(votes=(1, 0), gamma=1),
            ),
            tiebreak=(1, 0),
            budget_attacker=3,
            budget_defender=2,
            preferred=1,
        )
        attack = Manipulation({0: (0, 1), 1: (0, 3), 2: (0, 1)})
        report = rec_decide_brute(election, attack, 0)
        # winning sets are {1}, {0,1} and {1,2}; (0, 1) sorts before (1,)
        assert report.decision and report.recount.indices == (0, 1)

    def test_size_guard(self):
        election = Election(
            rule="PV",
            candidates=("a", "p"),
            districts=tuple(District(votes=(1, 0), gamma=1) for _ in range(40)),
            tiebreak=(1, 0),
            budget_attacker=40,
            budget_defender=20,
            preferred=1,
        )
        attack = Manipulation({i: (0, 1) for i in range(40)})
        with pytest.raises(ResourceLimitError):
            rec_decide_brute(election, attack, 0)


class TestRecDecideDp:
    def test_matches_brute_on_examples(self, example21_pv, example21_pd, example51):
        cases = [
            (example21_pv, ALL_TO_P_21),
            (example21_pd, ALL_TO_P_21),
            (example51, BAIT_ATTACK_51),
        ]
        for election, attack in cases:
            for target in range(election.num_candidates):
                brute = rec_decide_brute(election, attack, target)
                dp = rec_decide_dp(election, attack, target)
                assert dp.decision == brute.decision
                if dp.decision:
                    assert tally(election, attack, dp.recount.indices).winner == target

    def test_subsetsum_generated_instances(self):
        yes, yes_man = gen_subsetsum_pv_rec([-1, -2, 3, 1])
        no, no_man = gen_subsetsum_pv_rec([1])
        assert rec_decide_dp(yes, yes_man, yes.candidate_index("a")).decision is True
        assert rec_decide_dp(no, no_man, no.candidate_index("a")).decision is False

    def test_randomized_oracle_equivalence(self):
        for seed in range(80):
            election, manipulation = random_instance(seed)
            for target in range(election.num_candidates):
                assert (
                    rec_decide_dp(election, manipulation, target).decision
                    == rec_decide_brute(election, manipulation, target).decision
                ), (seed, target)

    def test_state_cap(self, example51):
        with pytest.raises(ResourceLimitError):
            rec_decide_dp(example51, BAIT_ATTACK_51, 0, max_states=1)


class TestRecOptimize:
    def test_example21_pv_best_is_b(self, example21_pv):
        report = rec_optimize(example21_pv, ALL_TO_P_21)
        assert example21_pv.candidates[report.winner] == "b"
        assert report.recount.indices == (0,)

    def test_example51_defender_prefers_p_over_b(self, example51):
        report = rec_optimize(example51, BAIT_ATTACK_51)
        assert example51.candidates[report.winner] == "p"
        assert report.recount.indices == (0,)

    def test_no_attack(self, example21_pd):
        report = rec_optimize(example21_pd, Manipulation())
        assert example21_pd.candidates[report.winner] == "a"
        assert report.recount.indices == ()

    @pytest.mark.parametrize("algo", ["brute", "dp"])
    def test_backends_agree_on_winner(self, algo):
        for seed in range(40):
            election, manipulation = random_instance(seed + 500)
            base = rec_optimize(election, manipulation, algo="brute")
            other = rec_optimize(election, manipulation, algo=algo)
            assert other.winner == base.winner
            assert tally(election, manipulation, other.recount.indices).winner == other.winner


class TestRecPdUnweighted:
    @staticmethod
    def _three_unit_districts():
        districts = tuple(District(votes=(1, 0), weight=1, gamma=1) for _ in range(3))
        return Election(
            rule="PD",
            candidates=("a", "b"),
            districts=districts,
            tiebreak=(0, 1),
            budget_attacker=3,
            budget_defender=1,
            preferred=1,
        )

    def test_flip_one_back(self):
        election = self._three_unit_districts()
        attack = Manipulation({0: (0, 1), 1: (0, 1)})  # district winners b, b, a
        report = rec_pd_unweighted(election, attack, 0)
        assert report.decision
        assert tally(election, attack, report.recount.indices).winner == 0

    def test_no_budget(self):
        election = self._three_unit_districts()
        attack = Manipulation({0: (0, 1), 1: (0, 1)})
        report = rec_pd_unweighted(election, attack, 0, budget=0)
        assert report.decision is False

    def test_rejects_weighted_or_pv(self, example21_pd, example21_pv):
        with pytest.raises(UnsupportedError):
            rec_pd_unweighted(example21_pd, ALL_TO_P_21, 0)
        with pytest.raises(UnsupportedError):
            rec_pd_unweighted(example21_pv, ALL_TO_P_21, 0)

    def test_randomized_oracle_equivalence(self):
        for seed in range(60):
            election, manipulation = random_instance(seed + 900, rule="PD", w_max=1)
            for target in range(election.num_candidates):
                assert (
                    rec_pd_unweighted(election, manipulation, target).decision
                    == rec_decide_brute(election, manipulation, target).decision
                ), (seed, target)


class TestGreedyRecount:
    def test_example21_pv_outputs_b(self, example21_pv):
        report = greedy_recount(example21_pv, ALL_TO_P_21)
        assert example21_pv.candidates[report.winner] == "b"
        assert report.recount.indices == (0,)
        assert report.decision is False

    def test_example21_pd_attack_survives(self, example21_pd):
        report = greedy_recount(example21_pd, ALL_TO_P_21)
        assert example21_pd.candidates[report.winner] == "p"
        assert report.decision is True

    def test_no_attack_returns_true_winner(self, example21_pv):
        report = greedy_recount(example21_pv, Manipulation())
        assert example21_pv.candidates[report.winner] == "a"

    def test_needs_preferred(self, example21_pv):
        import dataclasses

        stripped = dataclasses.replace(example21_pv, preferred=None)
        with pytest.raises(UnsupportedError):
            greedy_recount(stripped, ALL_TO_P_21)

    def test_nonregular_heuristic_may_lack_witness(self, example51):
        report = greedy_recount(example51, BAIT_ATTACK_51)
        # the bait attack fools the greedy heuristic: it reports p without a
        # reproducing recount (only possible for non-regular attacks)
        assert example51.candidates[report.winner] == "p"
        assert report.recount is None
        assert "witness_note" in report.stats

    def test_half_welfare_guarantee_on_regular_attacks(self):
        for seed in range(120):
            election, manipulation = random_instance(seed + 1300, regular_manipulation=True)
            greedy = greedy_recount(election, manipulation)
            optimal = rec_optimize(election, manipulation)
            welfare = social_welfare_vector(election)
            assert 2 * welfare[greedy.winner] >= welfare[optimal.winner], seed


class TestValidation:
    @pytest.mark.parametrize(
        "solve",
        [
            lambda e, m: rec_decide_brute(e, m, 0),
            lambda e, m: rec_decide_dp(e, m, 0),
            lambda e, m: greedy_recount(e, m),
            lambda e, m: rec_optimize(e, m, algo="brute"),
            lambda e, m: rec_optimize(e, m, algo="dp"),
        ],
        ids=["rec_decide_brute", "rec_decide_dp", "greedy_recount", "opt-brute", "opt-dp"],
    )
    def test_each_solve_validates_once(self, monkeypatch, example21_pv, solve):
        calls = []
        original = recountgame.model.validate_manipulation

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(recountgame.model, "validate_manipulation", counted)
        solve(example21_pv, ALL_TO_P_21)
        assert len(calls) == 1
