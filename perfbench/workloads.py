"""The benchmark's workloads: seeded operation decks and their answer checks.

Every workload is a deck of operations built from the run's seed.  The deck
repeats a fixed *cycle* whose composition (how many operations of each kind)
never changes; the seed only draws the concrete values, graphs and elections.
A fixed composition keeps the cost of a run nearly the same across seeds, so
that seed-to-seed spread stays small against the metric bounds.

Each operation has ``run()``, the timed call into the program, and
``check(result)``, the untimed check of its answer, which returns ``None`` or
a description of what is wrong.  Checks do not trust the engine that produced
the answer: reduction verdicts are compared with the source problem solved
in :mod:`reference`, witnesses are replayed through ``tally`` and attacks are
re-solved by a different engine.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import recountgame as rg

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYCACHE = ROOT / ".perfbench-pycache"

# Generator parameters of every workload, per operation kind and in cycle
# order; "count" is how many operations of the kind one cycle holds.
PARAMS = {
    "rec-reduce": {
        "ss-pv": {"count": 2, "generator": "gen_subsetsum_pv_rec", "engine": "rec_decide_dp",
                  "values": 8, "range": [-9, 9], "weighted": False},
        "ss-pd": {"count": 2, "generator": "gen_subsetsum_pv_rec", "engine": "rec_decide_dp",
                  "values": 8, "range": [-9, 9], "weighted": True},
        "x3c": {"count": 2, "generator": "gen_x3c_pv_rec", "engine": "rec_decide_brute",
                "elements": 9, "sets": 7},
        # Three multiples of 4 with a total of 32; a split exists iff one value
        # is 16.  A "no" instance makes rec_decide_brute walk every recount set
        # of size <= 2 among 3 + 6 * ceil(32 / epsilon) attacked districts:
        # 2,017 to 7,627 sets for epsilon in [1.6, 3.2].  The spread of costs
        # keeps the median latency from jumping between two machine speeds,
        # as it would if every instance cost the same.  Epsilon is drawn
        # stratified: the i-th "no" instance of a cycle from the i-th of
        # "count" equal slices of the range, so every cycle has the same spread
        # of costs, and the run's median operation, the middle one of the 7,
        # costs the same on every seed.
        "partition-yes": {"count": 1, "generator": "gen_partition_pv_recreg",
                          "engine": "rec_decide_brute", "values": 3, "total": 32,
                          "epsilon": [1.6, 3.2], "split": True},
        "partition-no": {"count": 7, "generator": "gen_partition_pv_recreg",
                         "engine": "rec_decide_brute", "values": 3, "total": 32,
                         "epsilon": [1.6, 3.2], "split": False},
        # The DP's state count depends on the edge count, not on which edges.
        # The asked set size is fixed per stratum ("sizes"), so every cycle
        # holds the same yes/no mix.  No 4-node graph with 4 edges has an
        # independent set of 3, and such a "no" costs about 10% less than a
        # "yes".  The 90th percentile lies among the 4-edge instances; with
        # exactly one "no" in four it lies among the "yes" ones on every
        # seed, instead of following a seed's share of "no" instances.
        "is-4n3e": {"count": 3, "generator": "gen_is_pd_rec", "engine": "rec_decide_dp",
                    "nodes": 4, "edges": 3, "sizes": [1, 2, 3]},
        "is-4n4e": {"count": 4, "generator": "gen_is_pd_rec", "engine": "rec_decide_dp",
                    "nodes": 4, "edges": 4, "sizes": [1, 2, 2, 3]},
    },
    "man-search": {
        # Except on regular PD, the defender's budget covers the attacker's and
        # the true winner is not the attacker's candidate, so the attacker can
        # never win and man_decide_brute searches every attack: the cost per
        # trial has no win/lose split that would make the latency quantiles
        # jump between seeds.  Regular PD keeps winning attacks in the mix.
        "pv-unrestricted": {"count": 4, "rule": "PV", "districts": 5, "candidates": 3,
                            "n_max": 4, "w_max": 1, "budget_attacker": 2,
                            "budget_defender": 2, "regular": False},
        "pv-regular": {"count": 2, "rule": "PV", "districts": 6, "candidates": 3, "n_max": 5,
                       "w_max": 1, "budget_attacker": 3, "budget_defender": 3, "regular": True},
        "pd-unrestricted": {"count": 2, "rule": "PD", "districts": 7, "candidates": 4,
                            "n_max": 5, "w_max": 9, "budget_attacker": 2,
                            "budget_defender": 2, "regular": False},
        "pd-regular": {"count": 2, "rule": "PD", "districts": 8, "candidates": 4, "n_max": 5,
                       "w_max": 9, "budget_attacker": 3, "budget_defender": 2, "regular": True},
    },
    # "random": gen_random(rule, districts, candidates, n_max, w_max,
    # budget_attacker, budget_defender), attacked by random_manipulation when
    # "attacked" is set; "--target ?" takes a random candidate.
    "cli-oneshot": {
        "eval-rec": {"count": 1, "args": ["eval"],
                     "random": ["PV", 6, 3, 6, 1, 3, 2], "attacked": True},
        "eval-man": {"count": 1, "args": ["eval"],
                     "random": ["PD", 6, 3, 5, 9, 2, 1], "attacked": False},
        "rec-opt-brute": {"count": 1, "args": ["solve", "rec"],
                          "random": ["PV", 6, 3, 6, 1, 3, 2], "attacked": True},
        "rec-opt-dp": {"count": 1, "args": ["solve", "rec", "--algo", "dp"],
                       "random": ["PD", 6, 3, 5, 9, 3, 2], "attacked": True},
        "rec-opt-unweighted": {"count": 1, "args": ["solve", "rec", "--algo", "unweighted-pd"],
                               "random": ["PD", 8, 3, 4, 1, 4, 2], "attacked": True},
        "rec-unweighted-target": {"count": 1,
                                  "args": ["solve", "rec", "--algo", "unweighted-pd", "--target", "?"],
                                  "random": ["PD", 8, 3, 4, 1, 4, 2], "attacked": True},
        "man-pd-regular": {"count": 1, "args": ["solve", "man", "--regular"],
                           "random": ["PD", 6, 3, 5, 9, 2, 1], "attacked": False},
        "man-brute": {"count": 1, "args": ["solve", "man"],
                      "random": ["PV", 4, 3, 4, 1, 2, 1], "attacked": False},
        "rec-dp-target": {"count": 1, "args": ["solve", "rec", "--algo", "dp", "--target", "a"],
                          "generator": "gen_subsetsum_pv_rec", "values": 6, "range": [-9, 9]},
        "rec-brute-target": {"count": 1,
                             "args": ["solve", "rec", "--algo", "brute", "--target", "a"],
                             "generator": "gen_x3c_pv_rec", "elements": 6, "sets": 5},
        # B_D = 0 sends the attacker to the no-recount path, which builds its
        # witness with a maximum flow when the answer is yes.
        "man-nocount-yes": {"count": 1, "args": ["solve", "man"],
                            "generator": "gen_subsetsum_pv_man", "values": 4, "range": [-4, 4],
                            "zero_sum": True},
        "man-nocount-no": {"count": 1, "args": ["solve", "man"],
                           "generator": "gen_subsetsum_pv_man", "values": 4, "range": [-4, 4],
                           "zero_sum": False},
    },
}

# Cycles generated per run: enough that a run on the current code does not
# reuse an operation, with room for the code to get faster.
CYCLES = {"rec-reduce": 40, "man-search": 400, "cli-oneshot": 40}
# Operations in a traced run: a fixed count, so that counters repeat exactly.
TRACE_OPS = {"rec-reduce": 40, "man-search": 200, "cli-oneshot": 24}


@dataclass
class Workload:
    name: str
    ops: list
    in_process: bool  # False: each operation is a child process

    @property
    def trace_ops(self):
        return self.ops[: TRACE_OPS[self.name]]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the deck of workload ``name`` for ``seed`` (files go to ``workdir``)."""
    rng = random.Random(f"{name}/{seed}")
    make_op, in_process = {
        "rec-reduce": (_rec_reduce_op, True),
        "man-search": (_man_search_op, True),
        "cli-oneshot": (_cli_oneshot_op, False),
    }[name]
    # (kind, stratum): the stratum numbers a kind's operations within a cycle.
    cycle = [(kind, i) for kind, p in PARAMS[name].items() for i in range(p["count"])]
    ops = []
    for _ in range(CYCLES[name]):
        rng.shuffle(cycle)
        for kind, stratum in cycle:
            ops.append(make_op(kind, PARAMS[name][kind], rng, workdir, len(ops), stratum))
    return Workload(name, ops, in_process)


# ---------------------------------------------------------------------------
# rec-reduce: one defender decision on a reduction-generated instance


@dataclass(eq=False)
class Decide:
    kind: str
    election: rg.Election
    attack: rg.Manipulation
    engine: str  # looked up per call, so that trace wrappers come and go
    source: Callable[[], bool]  # the source problem, decided by ``reference``

    def __post_init__(self):
        self.target = self.election.candidate_index("a")

    def run(self):
        return getattr(rg, self.engine)(self.election, self.attack, self.target)

    @cached_property
    def expected(self) -> bool:
        return self.source()

    def check(self, report) -> Optional[str]:
        if report.decision != self.expected:
            return f"verdict {report.decision}, source problem says {self.expected}"
        if report.decision:
            recount = report.recount.indices
            if len(recount) > self.election.budget_defender:
                return f"witness recounts {len(recount)} districts, budget {self.election.budget_defender}"
            if rg.tally(self.election, self.attack, recount).winner != self.target:
                return "witness recount does not restore the target"
        return None


def _nonzero(rng, low, high):
    return rng.choice([x for x in range(low, high + 1) if x])


def _subset_sum_values(rng, p):
    return [_nonzero(rng, *p["range"]) for _ in range(p["values"])]


def _reduction(rng, p, stratum=0):
    """A reduction-generated recount instance and its source problem."""
    generator = p["generator"]
    if generator == "gen_subsetsum_pv_rec":
        while True:
            values = _subset_sum_values(rng, p)
            if sum(values) > 0:
                break
        election, attack = rg.gen_subsetsum_pv_rec(values, p.get("weighted", False))
        source = lambda: reference.zero_subset_exists(values)
    elif generator == "gen_x3c_pv_rec":
        elements = list(range(1, p["elements"] + 1))
        sets = [list(s) for s in rng.sample(list(itertools.combinations(elements, 3)), p["sets"])]
        election, attack = rg.gen_x3c_pv_rec(elements, sets)
        source = lambda: reference.exact_cover_exists(elements, sets)
    elif generator == "gen_partition_pv_recreg":
        while True:
            values = [4 * rng.randint(1, p["total"] // 4 - 2) for _ in range(p["values"] - 1)]
            values.append(p["total"] - sum(values))
            if values[-1] > 0 and (p["total"] // 2 in values) == p["split"]:
                break
        low, high = p["epsilon"]
        epsilon = low + (high - low) * (stratum + rng.random()) / p["count"]
        election, attack = rg.gen_partition_pv_recreg(values, epsilon)
        source = lambda: reference.equal_split_exists(values)
    else:
        nodes, size = p["nodes"], p["sizes"][stratum]
        edges = rng.sample(list(itertools.combinations(range(nodes), 2)), p["edges"])
        election, attack = rg.gen_is_pd_rec(nodes, edges, size)
        source = lambda: reference.independent_set_exists(nodes, edges, size)
    return election, attack, source


def _rec_reduce_op(kind, p, rng, workdir, index, stratum):
    election, attack, source = _reduction(rng, p, stratum)
    return Decide(kind, election, attack, p["engine"], source)


# ---------------------------------------------------------------------------
# man-search: one `recountgame bench` trial on a seeded random instance


@dataclass(eq=False)
class Trial:
    kind: str
    election: rg.Election
    manipulation: rg.Manipulation
    regular: bool

    @property
    def polynomial(self) -> bool:
        return self.regular and self.election.rule == rg.RULE_PD

    def run(self):
        election, manipulation = self.election, self.manipulation
        greedy = rg.greedy_recount(election, manipulation)
        optimum = rg.rec_optimize(election, manipulation)
        if self.polynomial:
            attack = rg.man_pd_regular(election)
        else:
            attack = rg.man_decide_brute(election, regular=self.regular)
        return greedy, optimum, attack

    @cached_property
    def brute_regular_decision(self) -> bool:
        return rg.man_decide_brute(self.election, regular=True).decision

    def check(self, result) -> Optional[str]:
        greedy, optimum, attack = result
        election = self.election
        welfare = rg.social_welfare_vector(election)
        if welfare[greedy.winner] > welfare[optimum.winner]:
            return "greedy welfare exceeds the optimal welfare"
        if rg.tally(election, self.manipulation, optimum.recount.indices).winner != optimum.winner:
            return "optimal recount does not replay"
        if attack.decision:
            if self.regular and rg.validate_manipulation(
                election, attack.manipulation, require_regular=True
            ):
                return "winning attack is not regular"
            if rg.rec_optimize(election, attack.manipulation, algo="dp").winner != election.preferred:
                return "winning attack is beaten by the DP's optimal recount"
        if self.polynomial and attack.decision != self.brute_regular_decision:
            return "man_pd_regular disagrees with man_decide_brute(regular=True)"
        if attack.decision and self.dominated:
            return "attacker wins although the defender can recount every attacked district"
        return None

    @property
    def dominated(self) -> bool:
        """True winner is not the attacker's and B_D >= B_A: no attack can win."""
        election = self.election
        return (election.budget_defender >= election.budget_attacker
                and rg.tally(election).winner != election.preferred)


def _man_search_op(kind, p, rng, workdir, index, stratum):
    while True:
        instance_seed = rng.randrange(2**31)
        election = rg.gen_random(
            p["rule"], p["districts"], p["candidates"], p["n_max"], p["w_max"], "full",
            p["budget_attacker"], p["budget_defender"], instance_seed,
        )
        if p["regular"] and p["rule"] == "PD":
            break
        if rg.tally(election).winner != election.preferred:
            break
    manipulation = rg.random_manipulation(election, seed=instance_seed + 1, regular=p["regular"])
    return Trial(kind, election, manipulation, p["regular"])


# ---------------------------------------------------------------------------
# cli-oneshot: one `python -m recountgame ...` process on an instance file


def child_env() -> dict:
    """Environment of every child interpreter.

    The checkout's sources come first on the path.  Bytecode caching is on,
    as after an installation, so children do not recompile the package and
    networkx each time they start; the cache lives in the checkout
    (``PYCACHE``) whatever the caller's environment says.
    """
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str]) -> tuple[int, bytes, bytes, int]:
    """Run a child to completion: (exit code, stdout, stderr, peak RSS in KiB).

    The child is reaped with ``wait4`` to get its own resource usage.  Its
    stderr is read after stdout closes; the CLI writes at most an error line
    there, far below the pipe buffer, so the child cannot block on it.
    """
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        proc.stderr.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out, err, usage.ru_maxrss


@dataclass(eq=False)
class Request:
    kind: str
    args: list[str]
    answer: Callable[[], dict]  # in-process answer: JSON field -> expected value
    source: Optional[Callable[[], bool]] = None

    def run(self, prefix=None):
        """Time one CLI process; ``prefix`` replaces ``python -m recountgame``."""
        return spawn((prefix or [sys.executable, "-m", "recountgame"]) + self.args)

    @cached_property
    def expected(self) -> dict:
        return self.answer()

    def check(self, result) -> Optional[str]:
        code, out, err, _ = result
        if code != 0:
            return f"exit code {code}: {err.decode(errors='replace').strip()[-300:]}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        for key, want in self.expected.items():
            got = payload
            for part in key.split("."):
                got = got.get(part) if isinstance(got, dict) else None
            if got != want:
                return f"{key} is {got!r}, in-process answer is {want!r}"
        if self.source is not None and payload["decision"] != self.source():
            return "verdict disagrees with the source problem"
        return None


def _random(rng, rule, k, m, n_max, w_max, b_a, b_d, attacked):
    seed = rng.randrange(2**31)
    election = rg.gen_random(rule, k, m, n_max, w_max, "full", b_a, b_d, seed)
    attack = rg.random_manipulation(election, seed=seed + 1) if attacked else None
    return election, attack


def _name(election, candidate):
    return None if candidate is None else election.candidates[candidate]


def _cli_oneshot_op(kind, p, rng, workdir, index, stratum):
    source = None
    if "random" in p:
        election, attack = _random(rng, *p["random"], p["attacked"])
    elif p["generator"] == "gen_subsetsum_pv_man":
        while True:
            values = _subset_sum_values(rng, p)
            if reference.zero_subset_exists(values) == p["zero_sum"]:
                break
        election, attack = rg.gen_subsetsum_pv_man(values), None
        source = lambda: reference.zero_subset_exists(values)
    else:
        election, attack, source = _reduction(rng, p)

    path = workdir / f"{index:05d}-{kind}.json"
    path.write_text(rg.serialize_instance(election, attack), encoding="utf-8")
    target = None
    args = list(p["args"])
    if args[-1] == "?":
        target = rng.randrange(election.num_candidates)
        args[-1] = election.candidates[target]
    return Request(kind, args + [str(path)], lambda: _cli_answer(kind, election, attack, target), source)


def _cli_answer(kind, election, attack, target) -> dict:
    """What the CLI must print for ``kind``, computed with the library in-process."""
    if kind.startswith("eval"):
        distorted = rg.tally(election, attack).winner if attack is not None else None
        return {"true.winner": _name(election, rg.tally(election).winner),
                "distorted.winner": _name(election, distorted)}
    if kind == "rec-opt-brute":
        report = rg.rec_optimize(election, attack)
    elif kind == "rec-opt-dp":
        report = rg.rec_optimize(election, attack, algo="dp")
    elif kind == "rec-opt-unweighted":
        report = rg.rec_optimize(election, attack, algo="pd-unweighted")
    elif kind == "rec-unweighted-target":
        report = rg.rec_pd_unweighted(election, attack, target)
    elif kind in ("rec-dp-target", "rec-brute-target"):
        engine = rg.rec_decide_dp if kind == "rec-dp-target" else rg.rec_decide_brute
        report = engine(election, attack, election.candidate_index("a"))
    elif kind == "man-pd-regular":
        report = rg.man_pd_regular(election)
    else:
        report = rg.man_decide_brute(election)
    return {"decision": report.decision, "winner": _name(election, report.winner)}
