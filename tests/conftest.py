"""Shared fixtures: the two worked examples, CLI helpers and random builders."""

import dataclasses
import io
import json
import os
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import strategies as st

from recountgame import District, Election, Manipulation, gen_random, random_manipulation
from recountgame.cli import main as cli_main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def build_example21(rule):
    """Five districts: two with 7 voters for a, three with 3 voters for b.

    Weights are the squared sizes, every vote may be changed, the attacker
    may hit two districts and the defender recount one; priority p > a > b.
    """
    districts = [District(votes=(7, 0, 0), weight=49, gamma=7)] * 2
    districts += [District(votes=(0, 3, 0), weight=9, gamma=3)] * 3
    return Election(
        rule=rule,
        candidates=("a", "b", "p"),
        districts=tuple(districts),
        tiebreak=(2, 0, 1),
        budget_attacker=2,
        budget_defender=1,
        preferred=2,
    )


ALL_TO_P_21 = Manipulation({0: (0, 0, 7), 1: (0, 0, 7)})


def build_example51():
    """Twelve districts, 19 voters: a=9, p=6, b=4; budgets 2 vs 1."""
    districts = [District((0, 0, 6), weight=6, gamma=6), District((3, 0, 0), weight=3, gamma=3)]
    districts += [District((1, 0, 0), weight=1, gamma=1)] * 6
    districts += [District((0, 1, 0), weight=1, gamma=1)] * 4
    return Election(
        rule="PV",
        candidates=("a", "b", "p"),
        districts=tuple(districts),
        tiebreak=(2, 0, 1),
        budget_attacker=2,
        budget_defender=1,
        preferred=2,
    )


BAIT_ATTACK_51 = Manipulation({0: (0, 6, 0), 1: (0, 0, 3)})


@pytest.fixture
def example21_pv():
    return build_example21("PV")


@pytest.fixture
def example21_pd():
    return build_example21("PD")


@pytest.fixture
def example51():
    return build_example51()


def run_cli(*argv):
    """Run the CLI in-process; returns (exit_code, parsed stdout or raw text)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(list(argv))
    text = buffer.getvalue()
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, text


def _with_budget(election, b):
    """``election`` with the defender's budget ``B_D`` set to ``b``."""
    return dataclasses.replace(election, budget_defender=b)


def random_instance(
    seed,
    rule=None,
    max_k=6,
    max_m=4,
    n_max=5,
    w_max=10,
    regular_manipulation=False,
    max_attacked=None,
):
    """One seeded random instance plus a random manipulation on it."""
    rng = random.Random(seed)
    rule = rule or rng.choice(["PV", "PD"])
    k = rng.randint(1, max_k)
    m = rng.randint(2, max_m)
    election = gen_random(
        rule,
        num_districts=k,
        num_candidates=m,
        n_max=n_max,
        w_max=w_max,
        gamma_mode=rng.choice(["full", "random"]),
        budget_attacker=rng.randint(1, k),
        budget_defender=rng.randint(0, k),
        seed=seed * 7 + 1,
    )
    manipulation = random_manipulation(
        election, seed=seed * 7 + 2, regular=regular_manipulation, max_districts=max_attacked
    )
    return election, manipulation


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def small_elections(draw, rules=("PV", "PD")):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    districts = []
    for _ in range(k):
        votes = tuple(draw(st.integers(0, 4)) for _ in range(m))
        size = sum(votes)
        districts.append(
            District(
                votes=votes,
                weight=draw(st.integers(1, 9)),
                gamma=draw(st.integers(0, size)) if size else 0,
            )
        )
    tiebreak = tuple(draw(st.permutations(range(m))))
    return Election(
        rule=draw(st.sampled_from(rules)),
        candidates=tuple(f"c{j}" for j in range(m)),
        districts=tuple(districts),
        tiebreak=tiebreak,
        budget_attacker=draw(st.integers(1, k)),
        budget_defender=draw(st.integers(0, k)),
        preferred=draw(st.integers(0, m - 1)),
    )


@st.composite
def attacked_elections(draw, regular=False, rules=("PV", "PD")):
    election = draw(small_elections(rules=rules))
    seed = draw(st.integers(0, 10**6))
    manipulation = random_manipulation(election, seed=seed, regular=regular)
    return election, manipulation
