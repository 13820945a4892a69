"""Command-line front-end.

Commands: ``eval`` scores an instance, ``solve rec``/``solve man`` run the
defender/attacker solvers, ``gen`` writes generated instances and ``bench``
emits a CSV benchmark.  ``solve`` and ``bench`` reach the engines only through
:func:`~.defender.solve_rec` and :func:`~.attacker.solve_man`, which choose
them.  Reports are JSON on stdout.  A :class:`~.errors.GameError` prints its
``kind`` as JSON on stderr and exits with its class's ``exit_code``; a path
that cannot be read or written is invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import __version__
from .attacker import solve_man
from .defender import solve_rec
from .errors import GameError, ResourceLimitError, ValidationError
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
from .instancefile import _manipulation_payload, load_instance, serialize_instance
from .model import SolveReport, _check_int, social_welfare_vector, tally


def _scores_payload(election, scores):
    return {name: score for name, score in zip(election.candidates, scores)}


def _witness_payload(election, report: SolveReport):
    out = {}
    if report.manipulation is not None:
        out["manipulation"] = _manipulation_payload(election, report.manipulation)
    if report.recount is not None:
        out["recount"] = list(report.recount.indices)
    return out or None


def _report_payload(election, report: SolveReport, command):
    """Replay the reported strategy through the tally before printing it."""
    scores = None
    if report.winner is not None and report.recount is not None:
        replayed = tally(election, report.manipulation, report.recount.indices)
        if report.decision and replayed.winner != report.winner:
            raise GameError(
                f"witness replay elected {election.candidates[replayed.winner]}, "
                f"report claims {election.candidates[report.winner]}"
            )
        scores = _scores_payload(election, replayed.scores)
    return {
        "command": command,
        "decision": report.decision,
        "winner": election.candidates[report.winner] if report.winner is not None else None,
        "witness": _witness_payload(election, report),
        "scores": scores,
        "algorithm": report.algorithm,
        "stats": report.stats,
    }


def _print(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_eval(args):
    election, manipulation = load_instance(args.instance)
    true_tally = tally(election)
    true_scores = _scores_payload(election, true_tally.scores)
    payload = {
        "command": "eval",
        "rule": election.rule,
        "candidates": list(election.candidates),
        "preferred": election.candidates[election.preferred]
        if election.preferred is not None
        else None,
        "social_welfare": true_scores,
        "true": {
            "scores": true_scores,
            "winner": election.candidates[true_tally.winner],
        },
        "distorted": None,
    }
    if manipulation is not None:
        distorted = tally(election, manipulation)
        payload["distorted"] = {
            "scores": _scores_payload(election, distorted.scores),
            "winner": election.candidates[distorted.winner],
        }
    _print(payload)


def _cmd_solve_rec(args):
    election, manipulation = load_instance(args.instance)
    if manipulation is None:
        raise ValidationError("solve rec needs an instance with a manipulation block")
    target = election.candidate_index(args.target) if args.target is not None else None
    algo = {"unweighted-pd": "pd-unweighted"}.get(args.algo, args.algo)
    report = solve_rec(election, manipulation, target, algo)
    _print(_report_payload(election, report, "solve rec"))


def _cmd_solve_man(args):
    election, _ = load_instance(args.instance)
    report = solve_man(election, args.regular, args.algo)
    payload = _report_payload(election, report, "solve man")
    payload["attacker_wins"] = report.decision
    payload["regular"] = args.regular or args.algo == "pd-reg"
    _print(payload)


def _parts(text, sep):
    """The one rule of the list flags: split on ``sep`` and skip empty parts ("1,,2", "0-1;")."""
    return [part for part in text.split(sep) if part.strip()]


def _parse_ints(text, flag="--values"):
    try:
        return [int(x) for x in _parts(text, ",")]
    except ValueError:
        raise ValidationError(f"{flag}: expected comma separated integers, got {text!r}") from None


def _parse_edges(text):
    edges = []
    for part in _parts(text, ";"):
        try:
            u, v = part.split("-")
            edges.append((int(u), int(v)))
        except ValueError:
            raise ValidationError(f"--edges: expected U-V pairs, got {part!r}") from None
    return edges


def _gen_random(args, seed):
    """The ``gen_random`` instance the flags of :func:`_add_random_params` describe."""
    return gen_random(
        rule=args.rule,
        num_districts=args.districts,
        num_candidates=args.candidates,
        n_max=args.n_max,
        w_max=args.w_max,
        gamma_mode=args.gamma_mode,
        budget_attacker=args.attacker_budget,
        budget_defender=args.defender_budget,
        seed=seed,
    )


def _cmd_gen(args):
    if args.generator == "subsetsum-pv-rec":
        election, manipulation = gen_subsetsum_pv_rec(_parse_ints(args.values), args.weighted)
    elif args.generator == "x3c-pv-rec":
        sets = [_parse_ints(part, "--sets") for part in _parts(args.sets, ";")]
        election, manipulation = gen_x3c_pv_rec(_parse_ints(args.elements, "--elements"), sets)
    elif args.generator == "subsetsum-pv-man":
        election, manipulation = gen_subsetsum_pv_man(_parse_ints(args.values)), None
    elif args.generator == "is-pd-rec":
        election, manipulation = gen_is_pd_rec(args.nodes, _parse_edges(args.edges), args.size)
    elif args.generator == "sss-pd-man":
        election, manipulation = gen_sss_pd_man(_parse_ints(args.values), args.size), None
    elif args.generator == "partition-pv-recreg":
        election, manipulation = gen_partition_pv_recreg(_parse_ints(args.values), args.epsilon)
    else:
        election, manipulation = _gen_random(args, args.seed), None
    text = serialize_instance(election, manipulation)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bench(args):
    _check_int("--trials", args.trials, 0)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = "seed trial rule k m B_A B_D regular attacker_wins greedy_sw opt_sw ratio runtime_ms"
    writer.writerow(header.split())
    for trial in range(args.trials):
        instance_seed = args.seed * 1_000_003 + trial
        t0 = time.perf_counter()
        election = _gen_random(args, instance_seed)
        manipulation = random_manipulation(election, seed=instance_seed + 1, regular=args.regular)
        sw = social_welfare_vector(election)
        greedy_sw = sw[solve_rec(election, manipulation, algo="greedy").winner]
        opt_sw = sw[solve_rec(election, manipulation).winner]
        attacker_wins = solve_man(election, args.regular).decision
        runtime_ms = (time.perf_counter() - t0) * 1000
        writer.writerow(
            [
                instance_seed,
                trial,
                election.rule,
                election.num_districts,
                election.num_candidates,
                election.budget_attacker,
                election.budget_defender,
                int(args.regular),
                int(attacker_wins),
                greedy_sw,
                opt_sw,
                f"{greedy_sw / opt_sw:.6f}" if opt_sw else "1.000000",
                f"{runtime_ms:.3f}",
            ]
        )


def _add_random_params(parser):
    parser.add_argument("--rule", default="pv", choices=["pv", "pd", "PV", "PD"])
    parser.add_argument("--districts", type=int, default=4)
    parser.add_argument("--candidates", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--w-max", type=int, default=1)
    parser.add_argument("--gamma-mode", default="full", choices=["full", "random"])
    parser.add_argument("--attacker-budget", type=int, default=2)
    parser.add_argument("--defender-budget", type=int, default=1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="recountgame",
        description="Solve, verify and generate two-stage election recount games.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score an instance and report welfare")
    p_eval.add_argument("instance")
    p_eval.set_defaults(func=_cmd_eval)

    p_solve = sub.add_parser("solve", help="run a solver")
    solve_sub = p_solve.add_subparsers(dest="side", required=True)
    p_rec = solve_sub.add_parser("rec", help="defender: recount decision/optimization")
    p_rec.add_argument("instance")
    p_rec.add_argument("--target", help="decide whether this candidate can win")
    p_rec.add_argument(
        "--algo", default="brute", choices=["dp", "brute", "unweighted-pd", "greedy"]
    )
    p_rec.set_defaults(func=_cmd_solve_rec)
    p_man = solve_sub.add_parser("man", help="attacker: winning-strategy decision")
    p_man.add_argument("instance")
    p_man.add_argument("--regular", action="store_true", help="restrict to regular attacks")
    p_man.add_argument("--algo", default="auto", choices=["auto", "brute", "pd-reg"])
    p_man.set_defaults(func=_cmd_solve_man)

    p_gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    for name in ("subsetsum-pv-rec", "subsetsum-pv-man", "sss-pd-man", "partition-pv-recreg"):
        g = gen_sub.add_parser(name)
        g.add_argument("--values", required=True, help="comma separated integers")
        if name == "subsetsum-pv-rec":
            g.add_argument("--weighted", action="store_true")
        if name == "sss-pd-man":
            g.add_argument("--size", type=int, required=True)
        if name == "partition-pv-recreg":
            g.add_argument("--epsilon", type=float, required=True)
        g.add_argument("--out")
        g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("x3c-pv-rec")
    g.add_argument("--elements", required=True, help="comma separated elements")
    g.add_argument("--sets", required=True, help="semicolon separated 3-sets, e.g. 1,2,3;2,3,4")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("is-pd-rec")
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--edges", required=True, help="semicolon separated edges, e.g. 0-1;1-2")
    g.add_argument("--size", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("random")
    _add_random_params(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="seeded benchmark, CSV on stdout")
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--trials", type=int, required=True)
    p_bench.add_argument("--regular", action="store_true")
    _add_random_params(p_bench)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        return 0
    except GameError as exc:
        error = exc
    except OSError as exc:  # a path that cannot be read or written
        error = ValidationError(str(exc))
    except MemoryError:  # a request that outgrew memory before any cap priced it
        error = ResourceLimitError("out of memory")
    print(json.dumps({"error": error.kind, "detail": str(error)}), file=sys.stderr)
    return error.exit_code


def entrypoint():  # console-script hook
    sys.exit(main())
