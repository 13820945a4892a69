"""Instance generators.

Each ``gen_*`` function builds a game instance from a classic combinatorial
source problem (subset sum, exact cover by 3-sets, independent set,
sub-subset sum, partition) such that the game answer mirrors the source
answer.  They serve as correctness fixtures for the solvers: the source
problems are trivial to brute-force at small sizes, the generated games are
not.  ``gen_random`` and ``random_manipulation`` provide seeded random
instances for oracle-equivalence and benchmark harnesses.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional, Sequence

from .attacker import _district_min_steal
from .errors import UnsupportedError, ValidationError
from .model import (
    RULE_PD,
    RULE_PV,
    District,
    Election,
    Manipulation,
    _check_int,
    _ints,
    _is_int,
    _shared,
)

GAMMA_MODES = ("full", "random")


def _abp_candidates():
    # shared layout for the three-candidate constructions: priority p > a > b
    return ("a", "b", "p"), (2, 0, 1)


def gen_subsetsum_pv_rec(values: Sequence[int], weighted: bool = False):
    """Recount instance from a subset-sum multiset.

    Needs non-zero entries with a positive total.  The true winner can be
    restored with one recount less than the number of attacked districts iff
    some non-empty subset of ``values`` sums to zero.  ``weighted`` emits the
    PD twin where each district weight equals its voter count; otherwise the
    rule is PV with unit weights.
    """
    values = _ints("values", values)
    if not values or any(x == 0 for x in values):
        raise UnsupportedError("values must be non-zero integers")
    if sum(values) <= 0:
        raise UnsupportedError("values must have a positive sum")
    candidates, tiebreak = _abp_candidates()
    positives = [x for x in values if x > 0]
    negatives = [x for x in values if x < 0]
    y = sum(2 * abs(x) for x in values)

    districts = []
    entries = {}
    for x in values:
        if x > 0:
            districts.append((0, 2 * x, 0))
            entries[len(districts) - 1] = (0, 0, 2 * x)
        else:
            districts.append((0, 0, -2 * x))
            entries[len(districts) - 1] = (0, -2 * x, 0)
    for fixed in (
        (y + 1, 0, 0),
        (0, y - sum(2 * x for x in positives), 0),
        (0, 0, y + sum(2 * x for x in negatives)),
    ):
        if sum(fixed) > 0:  # an all-positive or all-negative input empties one block
            districts.append(fixed)

    rule = RULE_PD if weighted else RULE_PV
    built = []
    for i, votes in enumerate(districts):
        size = sum(votes)
        weight = size if weighted else 1
        gamma = size if i in entries else 0
        built.append(_shared(District, votes, weight, gamma))
    election = Election(
        rule=rule,
        candidates=candidates,
        districts=tuple(built),
        tiebreak=tiebreak,
        budget_attacker=len(values),
        budget_defender=len(values) - 1,
        preferred=2,
    )
    return election, Manipulation(entries)


def gen_x3c_pv_rec(elements: Iterable, sets: Sequence[Iterable]):
    """Recount instance from an exact-cover-by-3-sets input.

    One district per 3-set plus one fixed district; the true winner is
    restorable with ``|elements|/3`` recounts iff the sets contain an exact
    cover.  Inputs whose sets do not cover every element are accepted; they
    are plain no-instances.
    """
    elements = sorted(set(_ints("elements", elements)))
    if not elements or len(elements) % 3 != 0:
        raise ValidationError("the element set size must be a positive multiple of 3")
    cover_size = len(elements) // 3
    normalized = []
    for s in sets:
        s = sorted(set(_ints("3-set members", s)))
        if len(s) != 3 or not set(s) <= set(elements):
            raise ValidationError(f"{s!r} is not a 3-subset of the element set")
        normalized.append(tuple(s))
    if not normalized:
        raise ValidationError("at least one 3-set is required")
    num_sets = len(normalized)

    candidates = ["a", "b"] + [f"j{e}" for e in elements]
    index = {name: i for i, name in enumerate(candidates)}
    m = len(candidates)
    districts = []
    entries = {}
    for s in normalized:
        votes = [0] * m
        votes[index["a"]] = 2
        votes[index["b"]] = 6
        for e in elements:
            if e not in s:
                votes[index[f"j{e}"]] = 2
        distorted = list(votes)
        distorted[index["b"]] = 0
        for e in s:
            distorted[index[f"j{e}"]] = 2
        districts.append(_shared(District, tuple(votes), 1, sum(votes)))
        entries[len(districts) - 1] = tuple(distorted)
    anchor = [0] * m
    anchor[index["a"]] = 6 * cover_size * num_sets
    for e in elements:
        anchor[index[f"j{e}"]] = 6 * cover_size * num_sets + 1
    districts.append(_shared(District, tuple(anchor), 1, 0))

    election = Election(
        rule=RULE_PV,
        candidates=tuple(candidates),
        districts=tuple(districts),
        tiebreak=tuple(range(m)),
        budget_attacker=num_sets,
        budget_defender=min(cover_size, len(districts)),
        preferred=None,
    )
    return election, Manipulation(entries)


def gen_subsetsum_pv_man(values: Sequence[int]) -> Election:
    """Attacker instance from a subset-sum multiset (PV, no recount budget).

    The attacker wins iff some non-empty subset of ``values`` sums to zero.
    """
    values = _ints("values", values)
    if len(values) < 2 or any(x == 0 for x in values):
        raise UnsupportedError("needs at least two non-zero integers")
    candidates, tiebreak = _abp_candidates()
    count = len(values)
    y = max(2 * abs(x) for x in values)
    districts = []
    for x in values:
        districts.append((2 * y + 4 * x, 2 * y - 4 * x, 0))
    districts.extend([(2 * y, 2 * y, 0)] * (count - 1))
    for x in values:
        districts.extend([(y - 2 * x, y + 2 * x, 0)] * 2)
    districts.extend([(y, y, 0), (y, y, 0), (0, 0, 1)])
    built = tuple(_shared(District, votes, 1, sum(votes)) for votes in districts)
    return Election(
        rule=RULE_PV,
        candidates=candidates,
        districts=built,
        tiebreak=tiebreak,
        budget_attacker=count,
        budget_defender=0,
        preferred=2,
    )


def gen_is_pd_rec(num_nodes: int, edges: Sequence[tuple], size: int):
    """Weighted PD recount instance from an independent-set question.

    The displaced true winner is restorable within the recount budget iff the
    graph has an independent set of ``size`` nodes.  Fractional construction
    weights are pre-scaled by ``2(nodes+edges)+1`` to stay integral.  Requires
    at least one edge and ``size <= num_nodes - 1`` (beyond that the
    construction degenerates and the answer is trivially no).
    """
    _ints("num_nodes and size", (num_nodes, size))
    nodes = list(range(num_nodes))
    edge_list = sorted({tuple(sorted(_ints("edge endpoints", (u, v)))) for u, v in edges})
    for u, v in edge_list:
        if u == v or u not in nodes or v not in nodes:
            raise ValidationError(f"bad edge ({u}, {v})")
    nu, mu = len(nodes), len(edge_list)
    if mu < 1:
        raise UnsupportedError("the graph needs at least one edge")
    if not 1 <= size <= nu - 1:
        raise UnsupportedError("size must be between 1 and num_nodes - 1")
    scale = 2 * (nu + mu) + 1

    candidates = ["a", "p"] + [f"ju{u}" for u in nodes] + [f"je{u}-{v}" for u, v in edge_list]
    index = {name: i for i, name in enumerate(candidates)}
    m = len(candidates)

    def single_voter(winner_name, weight, gamma, distorted_name=None):
        votes = [0] * m
        votes[index[winner_name]] = 1
        district = _shared(District, tuple(votes), weight, gamma)
        distorted = None
        if distorted_name is not None:
            vec = [0] * m
            vec[index[distorted_name]] = 1
            distorted = _shared(tuple, tuple(vec))
        return district, distorted

    districts = []
    entries = {}

    def push(district, distorted):
        districts.append(district)
        if distorted is not None:
            entries[len(districts) - 1] = distorted

    for u, v in edge_list:
        for node in (u, v):
            push(*single_voter(f"je{u}-{v}", 2 * scale, 1, f"ju{node}"))
    for u in nodes:
        push(*single_voter(f"ju{u}", 2 * mu * scale, 1, "p"))
    for _ in range(scale):
        push(*single_voter("a", 2, 1, "p"))
    base = 2 * (nu - size) * mu
    push(*single_voter("a", (base + 3) * scale, 0))
    for u, v in edge_list:
        push(*single_voter(f"je{u}-{v}", base * scale, 0))
    for u in nodes:
        push(*single_voter(f"ju{u}", (base - 2 * mu + 2) * scale, 0))

    election = Election(
        rule=RULE_PD,
        candidates=tuple(candidates),
        districts=tuple(districts),
        tiebreak=tuple(range(m)),
        budget_attacker=len(entries),
        budget_defender=nu + mu,
        preferred=index["p"],
    )
    return election, Manipulation(entries)


def gen_sss_pd_man(values: Sequence[int], subset_size: int) -> Election:
    """Weighted PD attacker instance from a sub-subset-sum question.

    The attacker wins iff ``values`` contains a ``subset_size``-subset none of
    whose non-empty sub-subsets sums to zero.
    """
    raw = _ints("values", values)
    values = sorted(set(raw))
    if len(values) != len(raw) or any(x == 0 for x in values):
        raise UnsupportedError("values must be distinct non-zero integers")
    _ints("subset_size", (subset_size,))
    if subset_size < 1 or subset_size > len(values):
        raise UnsupportedError("subset_size must be between 1 and len(values)")
    candidates, tiebreak = _abp_candidates()
    positives = [x for x in values if x > 0]
    negatives = [x for x in values if x < 0]
    y = sum(3 * abs(x) for x in values)

    open_districts = []
    for x in values:
        if x > 0:
            open_districts.append((0, 3 * x, 0))
        else:
            open_districts.append((0, 0, -3 * x))
    open_districts.append((0, y + 3, 0))
    fixed_districts = [
        (2 * y + 5, 0, 0),
        (0, y - sum(3 * x for x in positives), 0),
        (0, 0, 2 * y + 4 + sum(3 * x for x in negatives)),
    ]
    built = []
    for votes in open_districts:
        built.append(_shared(District, votes, sum(votes), sum(votes)))
    for votes in fixed_districts:
        if sum(votes) > 0:
            built.append(_shared(District, votes, sum(votes), 0))
    return Election(
        rule=RULE_PD,
        candidates=candidates,
        districts=tuple(built),
        tiebreak=tiebreak,
        budget_attacker=subset_size + 1,
        budget_defender=subset_size,
        preferred=2,
    )


def gen_partition_pv_recreg(values: Sequence[int], epsilon: float):
    """Regular-attack PV recount instance from a partition multiset.

    All transfers go toward the attacker's candidate, so the attached
    manipulation is regular.  The true winner is restorable iff ``values``
    splits into two halves of equal sum.  Entries must be positive multiples
    of four; ``epsilon`` controls the padding block size (smaller epsilon,
    more padding districts).
    """
    values = _ints("values", values)
    if not values or any(x <= 0 or x % 4 != 0 for x in values):
        raise UnsupportedError("values must be positive multiples of 4")
    if not (_is_int(epsilon) or isinstance(epsilon, float) and math.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be an integer or a finite float, got {epsilon!r}")
    if epsilon <= 0:
        raise UnsupportedError("epsilon must be positive")
    candidates, tiebreak = _abp_candidates()
    count = len(values)
    total = sum(values)
    padding = math.ceil(total / epsilon)

    districts = []
    entries = {}
    for x in values:
        districts.append(_shared(District, (0, 2 * x * count, 0), 1, 2 * x * count))
        entries[len(districts) - 1] = (0, 0, 2 * x * count)
    pad, lifted = _shared(District, (1, 0, 0), 1, 1), (0, 0, 1)  # one object for every repeat
    for _ in range(2 * padding * count):
        districts.append(pad)
        entries[len(districts) - 1] = lifted
    districts.append(_shared(District, (count * (2 * padding + total + 2), 0, 0), 1, 0))
    districts.append(_shared(District, (0, 2 * padding * count, 0), 1, 0))

    election = Election(
        rule=RULE_PV,
        candidates=candidates,
        districts=tuple(districts),
        tiebreak=tiebreak,
        budget_attacker=len(entries),
        budget_defender=count - 1,
        preferred=2,
    )
    return election, Manipulation(entries)


# ---------------------------------------------------------------------------
# seeded random instances


def gen_random(
    rule: str,
    num_districts: int,
    num_candidates: int,
    n_max: int,
    w_max: int = 1,
    gamma_mode: str = "full",
    budget_attacker: int = 1,
    budget_defender: int = 0,
    seed: int = 0,
) -> Election:
    """Deterministic pseudo-random instance; equal seeds, identical bytes."""
    if gamma_mode not in GAMMA_MODES:
        raise UnsupportedError(f"gamma_mode must be one of {GAMMA_MODES}")
    sizes = (num_districts, num_candidates, n_max, w_max)
    _ints("num_districts, num_candidates, n_max, w_max and seed", sizes + (seed,))
    if num_candidates < 1 or num_districts < 1 or n_max < 1 or w_max < 1:
        raise UnsupportedError("num_districts, num_candidates, n_max, w_max must be >= 1")
    rng = random.Random(seed)
    candidates = _shared(tuple, tuple(f"c{j}" for j in range(num_candidates)))
    tiebreak = list(range(num_candidates))
    rng.shuffle(tiebreak)
    districts = []
    for _ in range(num_districts):
        size = rng.randint(1, n_max)
        cuts = sorted(rng.randint(0, size) for _ in range(num_candidates - 1))
        bounds = [0] + cuts + [size]
        votes = tuple(bounds[j + 1] - bounds[j] for j in range(num_candidates))
        gamma = size if gamma_mode == "full" else rng.randint(0, size)
        districts.append(_shared(District, votes, rng.randint(1, w_max), gamma))
    return Election(
        rule=_shared(str, rule.upper()) if isinstance(rule, str) else rule,
        candidates=candidates,
        districts=tuple(districts),
        tiebreak=_shared(tuple, tuple(tiebreak)),
        budget_attacker=budget_attacker,
        budget_defender=budget_defender,
        preferred=rng.randrange(num_candidates),
    )


def random_manipulation(
    election: Election,
    seed: int = 0,
    regular: bool = False,
    max_districts: Optional[int] = None,
) -> Manipulation:
    """Seeded random attack on an existing instance (test/bench plumbing).

    Respects the attacker budget and all change caps; with ``regular`` the
    result satisfies the rule-specific regularity condition (which for PD
    limits the pool to districts the preferred candidate can be made to win).
    """
    _ints("seed", (seed,))
    rng = random.Random(seed)
    p = election.preferred
    if regular and p is None:
        raise UnsupportedError("a regular attack needs the preferred candidate")
    pool = []
    steal = {}
    for i, d in enumerate(election.districts):
        if d.gamma == 0 or d.size == 0:
            continue
        if regular and election.rule == RULE_PD:
            # a cost of 0: p already wins the district
            cost, vec = _district_min_steal(d.votes, p, election.position)
            if not 0 < cost <= d.gamma:
                continue
            steal[i] = (cost, vec)
        pool.append(i)
    cap = min(election.budget_attacker, len(pool))
    if max_districts is not None:
        _check_int("max_districts", max_districts, 0)
        cap = min(cap, max_districts)
    chosen = sorted(rng.sample(pool, rng.randint(0, cap))) if cap else []

    entries = {}
    for i in chosen:
        d = election.districts[i]
        votes = list(d.votes)
        if regular:
            # move votes onto p: under PD on top of the cheapest steal
            if election.rule == RULE_PD:
                cost, vec = steal[i]
                votes = list(vec)
                moves = rng.randint(0, d.gamma - cost)
            else:
                moves = rng.randint(0, min(d.gamma, d.size - d.votes[p]))
            for _ in range(moves):
                sources = [a for a in range(len(votes)) if a != p and votes[a] > 0]
                if not sources:
                    break
                src = rng.choice(sources)
                votes[src] -= 1
                votes[p] += 1
        else:
            for _ in range(rng.randint(0, d.gamma)):
                sources = [a for a in range(len(votes)) if votes[a] > 0]
                src = rng.choice(sources)
                destinations = [a for a in range(len(votes)) if a != src]
                if not destinations:
                    break
                votes[src] -= 1
                votes[rng.choice(destinations)] += 1
        entries[i] = _shared(tuple, tuple(votes))
    return Manipulation(entries) if entries else _shared(Manipulation)
