"""Recount solvers: oracle behavior, engine equivalence, greedy recounting."""

import dataclasses
import itertools
import random
import tracemalloc

import pytest

import recountgame.attacker
import recountgame.defender
import recountgame.model
from conftest import ALL_TO_P_21, BAIT_ATTACK_51, _with_budget, random_instance
from recountgame import (
    District,
    Election,
    GameError,
    Manipulation,
    ResourceLimitError,
    UnsupportedError,
    ValidationError,
    gen_is_pd_rec,
    gen_partition_pv_recreg,
    gen_subsetsum_pv_rec,
    greedy_recount,
    man_decide_brute,
    man_pd_regular,
    rec_decide_brute,
    rec_decide_dp,
    rec_optimize,
    rec_pd_unweighted,
    social_welfare_vector,
    solve_rec,
    tally,
    verify_regular_attack,
)
from test_acceptance import independent_set_yes


class TestRecDecideBrute:
    def test_example21_target_a_unreachable(self, example21_pv):
        report = rec_decide_brute(example21_pv, ALL_TO_P_21, example21_pv.candidate_index("a"))
        assert report.decision is False and report.winner is None

    def test_no_attack_true_winner(self, example21_pv):
        report = rec_decide_brute(example21_pv, Manipulation(), example21_pv.candidate_index("a"))
        assert report.decision and report.recount.indices == ()

    def test_budget_covers_attack(self, example21_pv):
        election = _with_budget(example21_pv, 2)
        report = rec_decide_brute(election, ALL_TO_P_21, election.candidate_index("a"))
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

    def test_size_guard_names_the_usable_budget(self):
        # 99 attacked districts: a budget of 101 recounts at most 99 of them, and
        # the sets of at most 4 are the first count past the cap
        election, attack = gen_partition_pv_recreg([4, 12, 16], 2)
        with pytest.raises(ResourceLimitError) as err:
            rec_decide_brute(_with_budget(election, 101), attack, 0)
        assert str(err.value) == (
            "recount enumeration over 99 districts with budget 99 exceeds cap 2000000: "
            "the sets of at most 4 of them number 3926176"
        )


# subset-sum multisets of 24 values ±(2^i + r_i); the second has a planted zero sum
SUBSET_SUM_24_NO = (
    -1, 2, 7, 14, -19, 33, 119, -242, 373, -837, -1069, -2085, 5870, 8667, -30732,
    48043, 95796, -251554, 273410, 629145, -1670151, -3492576, 5786878, 13156011,
)
SUBSET_SUM_24_YES = (
    1, -2, -7, -14, 19, -33, -119, 242, -373, 837, 1069, 2085, -5870, -8667, 30732,
    -48043, -95796, 251554, -273410, -629145, 1670151, 3492576, -5786878, 5787000,
)


def _has_zero_subset(values):
    """Whether some non-empty subset of ``values`` sums to 0, by meet in the
    middle (Horowitz and Sahni, JACM 1974): a non-empty right subset sums to
    0, or a non-empty left one has the opposite sum of some right one."""

    def sums(part):  # every subset's sum; entry 0 is the empty subset's
        out = [0]
        for x in part:
            out += [s + x for s in out]
        return out

    half = len(values) // 2
    left, right = sums(values[:half]), sums(values[half:])
    return 0 in right[1:] or not {-s for s in left[1:]}.isdisjoint(right)


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

    def test_state_cap(self, example51, monkeypatch):
        monkeypatch.setattr(recountgame.defender, "MAX_STATES", 1)
        with pytest.raises(ResourceLimitError):
            rec_decide_dp(example51, BAIT_ATTACK_51, 0)

    def test_k4_independent_set(self):
        # the hard family: every edge of K4, so only single nodes are independent
        edges = list(itertools.combinations(range(4), 2))
        for size in (1, 2, 3):
            election, attack = gen_is_pd_rec(4, edges, size)
            target = election.candidate_index("a")
            report = rec_decide_dp(election, attack, target)
            assert report.decision == independent_set_yes(4, edges, size), size
            if report.decision:
                assert tally(election, attack, report.recount.indices).winner == target
            assert report.stats["explored"] < 600, size

    @pytest.mark.parametrize(
        "edges, size, decision, created, witness",
        [
            (list(itertools.combinations(range(4), 2)), 3, False, 63, None),
            ([(0, 1), (1, 2), (2, 3), (0, 3)], 2, True, 147, (0, 2, 5, 6, 8, 10)),
        ],
        ids=["k4-size3", "4cycle-size2"],
    )
    def test_pinned_states_and_witness(self, edges, size, decision, created, witness):
        # any rewrite of the DP loop must keep its states and its witness
        election, attack = gen_is_pd_rec(4, edges, size)
        report = rec_decide_dp(election, attack, election.candidate_index("a"))
        assert report.decision is decision
        assert report.explored == created
        assert (report.recount and report.recount.indices) == witness

    def test_pinned_optimum_scan(self):
        election, attack = gen_is_pd_rec(4, list(itertools.combinations(range(4), 2)), 3)
        report = rec_optimize(election, attack, algo="dp")
        assert election.candidates[report.winner] == "ju0"
        assert report.explored == 572
        assert report.recount.indices == (1, 3, 12, 13, 14)

    def test_state_cap_counts_created_states(self, monkeypatch):
        election, attack = gen_is_pd_rec(4, list(itertools.combinations(range(4), 2)), 2)
        target = election.candidate_index("a")
        created = rec_decide_dp(election, attack, target).stats["explored"]
        monkeypatch.setattr(recountgame.defender, "MAX_STATES", created)
        assert rec_decide_dp(election, attack, target).decision is False
        monkeypatch.setattr(recountgame.defender, "MAX_STATES", created - 1)
        with pytest.raises(
            ResourceLimitError,
            match=f"^recount DP created more than MAX_STATES={created - 1} states$",
        ):
            rec_decide_dp(election, attack, target)
        monkeypatch.setattr(recountgame.defender, "MAX_STATES", 10)
        with pytest.raises(
            ResourceLimitError, match="^recount DP created more than MAX_STATES=10 states$"
        ):
            rec_optimize(election, attack, algo="dp")

    def test_state_cap_prices_a_layer_before_building_it(self, monkeypatch):
        # 18 subset-sum values in ±[1, 10**6]: the whole decision creates 8,655
        # states.  Refused at 4,000, before the layer past the cap is streamed,
        # it peaks at about 0.32 MB when run alone (0.41 MB while each layer's
        # moves were listed and its gains kept as padded prefix sums); in index
        # order, building that layer first, it peaked at 0.91 MB.
        election, attack, target = _subset_sum_18()
        monkeypatch.setattr(recountgame.defender, "MAX_STATES", 4_000)
        tracemalloc.start()
        try:
            with pytest.raises(
                ResourceLimitError, match="^recount DP created more than MAX_STATES=4000 states$"
            ):
                rec_decide_dp(election, attack, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600_000

    def test_full_decision_peak(self):
        # the same 18 values with no cap: about 0.43 MB on Python 3.11 with
        # streamed layers and one tuple of gains per margin; 0.56 MB while
        # each layer's moves were listed and its gains kept as padded prefix sums
        election, attack, target = _subset_sum_18()
        tracemalloc.start()
        try:
            report = rec_decide_dp(election, attack, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.decision, report.explored) == (False, 8_655)
        assert peak < 500_000

    @pytest.mark.parametrize(
        "instance",
        [
            gen_subsetsum_pv_rec([3, -1, -2, 5]),
            gen_subsetsum_pv_rec([2, -1, 4, -3], weighted=True),
        ],
        ids=["pv", "pd"],
    )
    def test_heaviest_first_answers_under_a_small_cap(self, instance, monkeypatch):
        # decided in index order, both needed more than 20 states
        election, attack = instance
        brute = rec_decide_brute(election, attack, 0)
        monkeypatch.setattr(recountgame.defender, "MAX_STATES", 20)
        report = rec_decide_dp(election, attack, 0)
        assert report.decision is brute.decision is True
        assert tally(election, attack, report.recount.indices).winner == 0

    @pytest.mark.parametrize(
        "values, decision, created, recount",
        [
            # decided in index order, the "no" instance ran out of memory
            (SUBSET_SUM_24_NO, False, 75, None),
            (SUBSET_SUM_24_YES, True, 157, (5, *range(7, 22))),
        ],
        ids=["no", "yes"],
    )
    def test_24_value_subset_sums(self, values, decision, created, recount):
        assert _has_zero_subset(values) is decision
        election, attack = gen_subsetsum_pv_rec(values)
        target = election.candidate_index("a")
        report = rec_decide_dp(election, attack, target)
        assert (report.decision, report.explored) == (decision, created)
        if decision:
            assert report.recount.indices == recount
            assert len(report.recount) <= election.budget_defender
            assert tally(election, attack, report.recount.indices).winner == target

    def test_is_pd_reach(self):
        # a 10-node, 12-edge graph with an independent set of 4 (102 districts):
        # answered well inside MAX_STATES, so a change that refuses it fails here
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 8), (1, 2),
                 (1, 3), (1, 6), (1, 8), (2, 9), (4, 8), (6, 7)]
        assert independent_set_yes(10, edges, 4)
        election, attack = gen_is_pd_rec(10, edges, 4)
        assert len(election.districts) == 102
        target = election.candidate_index("a")
        report = rec_decide_dp(election, attack, target)
        assert (report.decision, report.explored) == (True, 12_867)
        assert tally(election, attack, report.recount.indices).winner == target


def _subset_sum_18():
    """A "no" subset-sum recount of 18 values drawn in ±[1, 10**6], and its target."""
    rng = random.Random(1)
    values = [rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(18)]
    election, attack = gen_subsetsum_pv_rec(values if sum(values) > 0 else [-x for x in values])
    return election, attack, election.candidate_index("a")


def _small_election(candidates, votes, tiebreak, rule="PV"):
    """Recount budget one; the attacker may rewrite every district in full."""
    districts = tuple(District(votes=v, weight=sum(v), gamma=sum(v)) for v in votes)
    return Election(
        rule=rule,
        candidates=candidates,
        districts=districts,
        tiebreak=tiebreak,
        budget_attacker=len(districts),
        budget_defender=1,
        preferred=None,
    )


def _dp_matches_brute(election, attack, target, budget=None):
    if budget is not None:
        election = _with_budget(election, budget)
    brute = rec_decide_brute(election, attack, target)
    dp = rec_decide_dp(election, attack, target)
    assert dp.decision == brute.decision
    if dp.decision:
        assert tally(election, attack, dp.recount.indices).winner == target
        assert len(dp.recount) <= election.budget_defender
    return dp.decision


class TestRecDecideDpMargins:
    """Margins at their edges: need 0 or 1, zero deltas, no budget, a head start."""

    def test_tie_won_on_priority(self):
        # recounting district 0 leaves a and b tied at 2; a has priority
        election = _small_election(("a", "b"), [(2, 1), (0, 1)], tiebreak=(0, 1))
        attack = Manipulation({0: (0, 3)})
        assert _dp_matches_brute(election, attack, 0) is True

    def test_tie_lost_on_priority(self):
        election = _small_election(("a", "b"), [(2, 1), (0, 1)], tiebreak=(1, 0))
        attack = Manipulation({0: (0, 3)})
        assert _dp_matches_brute(election, attack, 0) is False
        assert _dp_matches_brute(election, attack, 1) is True

    @pytest.mark.parametrize("rule", ["PV", "PD"])
    def test_attacked_district_left_unchanged(self, rule):
        # district 1 is attacked but keeps its scores (PV) or its winner (PD)
        election = _small_election(("a", "b"), [(3, 0), (3, 1), (0, 4)], tiebreak=(1, 0), rule=rule)
        unchanged = (3, 1) if rule == "PV" else (4, 0)
        attack = Manipulation({0: (0, 3), 1: unchanged})
        for target in (0, 1):
            for budget in (0, 1, 2):
                _dp_matches_brute(election, attack, target, budget)
        assert _dp_matches_brute(election, attack, 0) is True

    def test_budget_zero(self):
        election = _small_election(("a", "b"), [(2, 1), (0, 1)], tiebreak=(0, 1))
        attack = Manipulation({0: (0, 3)})
        assert _dp_matches_brute(election, attack, 0, budget=0) is False
        assert _dp_matches_brute(election, attack, 1, budget=0) is True
        assert rec_decide_dp(_with_budget(election, 0), attack, 1).recount.indices == ()

    def test_target_ahead_of_one_rival(self):
        # a leads p by 6 in the distorted tally; restoring district 0 costs
        # that lead 3 votes but is the only way past b
        election = _small_election(
            ("a", "b", "p"), [(0, 0, 3), (10, 0, 0), (0, 9, 0), (0, 0, 4)], (2, 0, 1)
        )
        attack = Manipulation({0: (0, 3, 0)})
        assert _dp_matches_brute(election, attack, 0) is True
        assert _dp_matches_brute(election, attack, 0, budget=0) is False

    def test_target_ahead_of_everyone(self):
        # a already wins the distorted tally; only recounting both districts
        # hands the lead back to b
        election = _small_election(("a", "b"), [(0, 4), (3, 0), (2, 2)], tiebreak=(0, 1))
        attack = Manipulation({0: (2, 2), 2: (4, 0)})
        assert _dp_matches_brute(election, attack, 0) is True
        assert rec_decide_dp(election, attack, 0).recount.indices == ()
        assert _dp_matches_brute(election, attack, 1) is False
        assert _dp_matches_brute(election, attack, 1, budget=2) is True


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

    def test_reports_share_the_engine_name(self, example21_pv):
        # a name built per scan would be one more string per kept report
        first = rec_optimize(example21_pv, ALL_TO_P_21, algo="dp")
        second = rec_optimize(example21_pv, ALL_TO_P_21, algo="dp")
        assert first.algorithm == "rec-opt-dp" and first.algorithm is second.algorithm

    def test_unknown_backend(self, example21_pv):
        # the name is checked before the attack, as solve_rec checks it
        for attack in (ALL_TO_P_21, Manipulation({0: (9, 9, 9)})):
            with pytest.raises(UnsupportedError, match="unknown rec_optimize backend 'nope'"):
                rec_optimize(example21_pv, attack, algo="nope")


PD_UNWEIGHTED_ENTRIES = pytest.mark.parametrize(
    "solve",
    [
        lambda e, m: rec_pd_unweighted(e, m, 0),
        lambda e, m: rec_optimize(e, m, algo="pd-unweighted"),
    ],
    ids=["rec_pd_unweighted", "rec_optimize"],
)


def test_scan_without_an_achievable_winner_is_an_internal_error(monkeypatch, example21_pv):
    # the preference order always holds an achievable winner; a kernel that
    # finds none is a bug, reported as such also under ``python -O``
    monkeypatch.setattr(recountgame.defender, "_margin_dp", lambda *args: (None, args[-1]))
    with pytest.raises(GameError, match="^no achievable winner$") as raised:
        rec_optimize(example21_pv, ALL_TO_P_21, algo="dp")
    assert type(raised.value) is GameError


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
        report = rec_pd_unweighted(_with_budget(election, 0), attack, 0)
        assert report.decision is False

    @PD_UNWEIGHTED_ENTRIES
    def test_rejects_weighted_or_pv(self, example21_pd, example21_pv, solve):
        with pytest.raises(UnsupportedError):
            solve(example21_pd, ALL_TO_P_21)
        with pytest.raises(UnsupportedError):
            solve(example21_pv, ALL_TO_P_21)

    @PD_UNWEIGHTED_ENTRIES
    def test_precondition_checked_before_the_attack(self, example21_pd, solve):
        # weighted PD and an invalid attack: both entry points name the precondition
        with pytest.raises(UnsupportedError, match="rec_pd_unweighted requires unit weights"):
            solve(example21_pd, Manipulation({0: (9, 9, 9)}))

    def test_win_moved_between_rivals(self):
        # the only winning recount moves a win from a to r, neither of them the target
        election = Election(
            rule="PD",
            candidates=("c", "a", "r"),
            districts=(
                District(votes=(0, 0, 1), weight=1, gamma=1),
                District(votes=(1, 0, 0)),
                District(votes=(0, 1, 0)),
            ),
            tiebreak=(0, 1, 2),
            budget_attacker=1,
            budget_defender=1,
            preferred=1,
        )
        attack = Manipulation({0: (0, 1, 0)})
        report = rec_pd_unweighted(election, attack, 0)
        assert (report.decision, report.recount.indices, report.explored) == (True, (0,), 1)
        assert rec_decide_brute(election, attack, 0).recount.indices == (0,)
        assert rec_pd_unweighted(_with_budget(election, 0), attack, 0).decision is False

    def test_asks_only_the_scores_a_recount_can_reach(self):
        # 389 unit-weight districts, 387 of them attacked, B_D = 2: each target
        # asks at most B_D + 1 scores, not one per district
        election, attack = gen_partition_pv_recreg([4, 12, 16], 0.5)
        election = dataclasses.replace(election, rule="PD")
        assert (election.num_districts, len(attack), election.budget_defender) == (389, 387, 2)
        a, b, p = range(3)
        for target, decision, recount, explored in [
            (a, False, None, 3),
            (b, False, None, 3),
            (p, True, (), 1),
        ]:
            report = rec_pd_unweighted(election, attack, target)
            got = None if report.recount is None else report.recount.indices
            assert (report.decision, got, report.explored) == (decision, recount, explored), target
            assert rec_decide_dp(election, attack, target).decision is decision, target
        report = rec_optimize(election, attack, algo="pd-unweighted")
        assert (report.winner, report.recount.indices, report.explored) == (p, (), 7)
        assert rec_optimize(election, attack, algo="dp").winner == p

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
            lambda e, m: rec_optimize(_unit_weight_pd(e), m, algo="pd-unweighted"),
            lambda e, m: verify_regular_attack(e, m),
        ],
        ids=[
            "rec_decide_brute",
            "rec_decide_dp",
            "greedy_recount",
            "opt-brute",
            "opt-dp",
            "opt-pd-unweighted",
            "verify_regular_attack",
        ],
    )
    def test_each_solve_validates_once(self, monkeypatch, example21_pv, solve):
        calls = []
        original = recountgame.model.validate_manipulation

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # every binding: the attacker module imports its own
        for module in (recountgame.model, recountgame.attacker):
            monkeypatch.setattr(module, "validate_manipulation", counted)
        solve(example21_pv, ALL_TO_P_21)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "build, solve",
        [
            (dataclasses.replace, lambda e, m: rec_optimize(e, m, algo="brute")),
            (dataclasses.replace, lambda e, m: rec_optimize(e, m, algo="dp")),
            (lambda e: _unit_weight_pd(e), lambda e, m: rec_optimize(e, m, algo="pd-unweighted")),
            (dataclasses.replace, greedy_recount),
            (dataclasses.replace, lambda e, m: man_decide_brute(e)),
            (lambda e: dataclasses.replace(e, rule="PD"), lambda e, m: man_pd_regular(e)),
        ],
        ids=["opt-brute", "opt-dp", "opt-pd-unweighted", "greedy", "man-brute", "man-pd-regular"],
    )
    def test_each_solve_tallies_the_truth_once(self, monkeypatch, example21_pv, build, solve):
        # once in all: the election tallies its true profile when built, and no solve again
        truths = []
        original = recountgame.model._tally

        def counted(election, manipulation=None, recount=()):
            if manipulation is None:
                truths.append(election)
            return original(election, manipulation, recount)

        for module in (recountgame.model, recountgame.defender, recountgame.attacker):
            if hasattr(module, "_tally"):
                monkeypatch.setattr(module, "_tally", counted)
        election = build(example21_pv)
        assert len(truths) == 1
        truths.clear()
        solve(election, ALL_TO_P_21)
        assert truths == []

    @pytest.mark.parametrize("target", [True, False, 1.0, "0", None, -1, 3])
    @pytest.mark.parametrize("engine", [rec_decide_brute, rec_decide_dp, rec_pd_unweighted])
    def test_bad_target_rejected(self, example21_pv, engine, target):
        # example 2.1 has three candidates; True is not candidate 1
        with pytest.raises(ValidationError):
            engine(_unit_weight_pd(example21_pv), ALL_TO_P_21, target)

    @pytest.mark.parametrize("cap", ["x", None, -1, True, 1.0])
    @pytest.mark.parametrize(
        "solve",
        [
            lambda e, m, cap: rec_decide_brute(e, m, 0, max_subsets=cap),
            lambda e, m, cap: rec_decide_dp(e, m, 0, max_states=cap),
            # each backend with the cap it does not read, once accepted unchecked
            lambda e, m, cap: rec_optimize(e, m, max_states=cap),
            lambda e, m, cap: rec_optimize(e, m, algo="dp", max_subsets=cap),
        ],
        ids=["rec_decide_brute", "rec_decide_dp", "opt-brute", "opt-dp"],
    )
    def test_bad_cap_rejected(self, example21_pv, solve, cap):
        # the caps are module constants: no engine takes one per call
        with pytest.raises(TypeError, match=r"unexpected keyword argument 'max_(subsets|states)'"):
            solve(example21_pv, ALL_TO_P_21, cap)


def _unit_weight_pd(election):
    districts = tuple(dataclasses.replace(d, weight=1) for d in election.districts)
    return dataclasses.replace(election, rule="PD", districts=districts)


def _outcome(solve, *args):
    """A report without its wall time, or the type and text of the error raised."""
    try:
        return dataclasses.replace(solve(*args), runtime_ms=0.0)
    except (UnsupportedError, ValidationError) as exc:
        return type(exc), str(exc)


class TestSolveRec:
    OPTIMUM = {
        "brute": lambda e, m: rec_optimize(e, m, algo="brute"),
        "dp": lambda e, m: rec_optimize(e, m, algo="dp"),
        "pd-unweighted": lambda e, m: rec_optimize(e, m, algo="pd-unweighted"),
        "greedy": greedy_recount,
    }
    DECISION = {"brute": rec_decide_brute, "dp": rec_decide_dp, "pd-unweighted": rec_pd_unweighted}

    @pytest.mark.parametrize("algo", sorted(OPTIMUM))
    def test_routes_to_the_engine_algo_names(self, algo):
        answered = 0
        for seed in range(40):
            # unit weights on every other instance, so pd-unweighted answers too
            election, manipulation = random_instance(seed + 5000, w_max=1 + seed % 2 * 9)
            expected = _outcome(self.OPTIMUM[algo], election, manipulation)
            assert _outcome(solve_rec, election, manipulation, None, algo) == expected, seed
            answered += not isinstance(expected, tuple)
            for target in range(election.num_candidates):
                got = _outcome(solve_rec, election, manipulation, target, algo)
                if algo == "greedy":
                    assert got[0] is UnsupportedError
                else:
                    direct = _outcome(self.DECISION[algo], election, manipulation, target)
                    assert got == direct, (seed, target)
        assert answered >= 5

    def test_greedy_with_a_target(self, example21_pv):
        with pytest.raises(UnsupportedError, match="per-target"):
            solve_rec(example21_pv, ALL_TO_P_21, 0, "greedy")

    @pytest.mark.parametrize("target", [None, 0])
    def test_unknown_algo(self, example21_pv, target):
        with pytest.raises(UnsupportedError, match="unknown recount algorithm 'nope'"):
            solve_rec(example21_pv, ALL_TO_P_21, target, "nope")
