"""recountgame: the two-stage election recount game.

An attacker distorts vote counts in a bounded number of districts; a defender
then restores the true counts in a bounded subset of the attacked districts.
This package models the game for two plurality variants (over voters and over
weighted districts), solves both sides exactly and approximately, and
generates instances whose answers mirror classic combinatorial problems.
"""

from .attacker import (
    district_min_steal,
    enumerate_distortions,
    man_decide_brute,
    man_pd_regular,
    solve_man,
    verify_regular_attack,
)
from .defender import (
    greedy_recount,
    rec_decide_brute,
    rec_decide_dp,
    rec_optimize,
    rec_pd_unweighted,
    solve_rec,
)
from .errors import GameError, ResourceLimitError, UnsupportedError, ValidationError
from .generators import (
    gen_is_pd_rec,
    gen_partition_pv_recreg,
    gen_random,
    gen_sss_pd_man,
    gen_subsetsum_pv_man,
    gen_subsetsum_pv_rec,
    gen_x3c_pv_rec,
    random_manipulation,
)
from .instancefile import load_instance, parse_instance, schema_path, serialize_instance
from .model import (
    RULE_PD,
    RULE_PV,
    District,
    Election,
    Manipulation,
    RecountSet,
    SolveReport,
    Tally,
    Violation,
    defender_preference_order,
    defender_prefers,
    social_welfare,
    social_welfare_vector,
    tally,
    validate_manipulation,
)

__version__ = "0.1.0"

__all__ = [
    "District",
    "Election",
    "GameError",
    "Manipulation",
    "RecountSet",
    "ResourceLimitError",
    "RULE_PD",
    "RULE_PV",
    "SolveReport",
    "Tally",
    "UnsupportedError",
    "ValidationError",
    "Violation",
    "defender_preference_order",
    "defender_prefers",
    "district_min_steal",
    "enumerate_distortions",
    "gen_is_pd_rec",
    "gen_partition_pv_recreg",
    "gen_random",
    "gen_sss_pd_man",
    "gen_subsetsum_pv_man",
    "gen_subsetsum_pv_rec",
    "gen_x3c_pv_rec",
    "greedy_recount",
    "load_instance",
    "man_decide_brute",
    "man_pd_regular",
    "parse_instance",
    "random_manipulation",
    "rec_decide_brute",
    "rec_decide_dp",
    "rec_optimize",
    "rec_pd_unweighted",
    "schema_path",
    "serialize_instance",
    "social_welfare",
    "social_welfare_vector",
    "solve_man",
    "solve_rec",
    "tally",
    "validate_manipulation",
    "verify_regular_attack",
]
