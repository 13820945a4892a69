"""Spans around the package's layers, installed from outside the package.

:class:`Recorder` replaces module attributes (for example
``recountgame.attacker._optimize_walk`` or ``networkx.min_cost_flow``) with
timing wrappers.  Every binding of the same function object in the
package's modules is replaced, so calls through ``from .model import tally``
aliases are seen too.  Each call records a span (operation id, name, start,
end, parent span) in flat in-memory arrays; :meth:`Recorder.aggregate`
turns them into per-layer ``calls``/``self_s`` figures, where self time is a
span's duration minus the duration of its child spans.

Run as a script, this module is the traced stand-in for
``python -m recountgame``::

    python3 perfbench/tracing.py SPANS_FILE -- solve rec inst.json --algo dp

It installs the same wrappers in a fresh interpreter, runs the CLI's
``main`` with the given arguments, writes the spans to ``SPANS_FILE`` and
exits with the CLI's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _explored(report):
    return report.stats["explored"]


# (module, attribute, {counter: extractor applied to the return value}).
# Spans are named "<module without the package prefix>.<attribute>"; the
# networkx flow calls are the "flow" layer.
SPANNED = [
    ("recountgame.model", "tally", {}),
    ("recountgame.model", "validate_manipulation", {}),
    ("recountgame.model", "defender_preference_order", {}),
    ("recountgame.model", "social_welfare_vector", {}),
    ("recountgame.defender", "rec_decide_dp", {"states_created": _explored}),
    ("recountgame.defender", "rec_decide_brute", {"nodes": _explored}),
    ("recountgame.defender", "_optimize_walk", {"nodes": lambda result: result[2]}),
    ("recountgame.defender", "rec_optimize", {}),
    ("recountgame.defender", "greedy_recount", {}),
    ("recountgame.defender", "rec_pd_unweighted", {}),
    ("recountgame.attacker", "man_decide_brute", {"nodes": _explored}),
    ("recountgame.attacker", "man_pd_regular", {}),
    ("recountgame.attacker", "district_min_steal", {}),
    ("recountgame.instancefile", "parse_instance", {}),
    ("recountgame.cli", "main", {}),
    ("networkx", "min_cost_flow", {}),
    ("networkx", "maximum_flow", {}),
    ("recountgame.generators", "gen_subsetsum_pv_rec", {}),
    ("recountgame.generators", "gen_x3c_pv_rec", {}),
    ("recountgame.generators", "gen_subsetsum_pv_man", {}),
    ("recountgame.generators", "gen_is_pd_rec", {}),
    ("recountgame.generators", "gen_partition_pv_recreg", {}),
    ("recountgame.generators", "gen_random", {}),
    ("recountgame.generators", "random_manipulation", {}),
]

# Generator functions get no span (their time is spent in the consumer's
# frame and counts as the consumer's self time); they count items yielded.
COUNTED_GENERATORS = [("recountgame.attacker", "enumerate_distortions")]


def span_name(module: str, attribute: str) -> str:
    if module == "networkx":
        return f"flow.{attribute}"
    return f"{module.removeprefix('recountgame.')}.{attribute}"


class Recorder:
    """Timing wrappers plus the spans and counters they record."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.current_op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, name, fn, extractors):
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters

        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.op.append(self.current_op)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            for counter, extract in extractors.items():
                counters[name, counter] += extract(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name, "calls"] += 1
            for item in fn(*args, **kwargs):
                counters[name, "yielded"] += 1
                yield item

        return wrapper

    def install(self):
        """Wrap every target in every recountgame module that binds it."""
        modules = {name: importlib.import_module(name) for name, _, _ in SPANNED}
        bound = [m for n, m in sys.modules.items() if n == "recountgame" or n.startswith("recountgame.")]
        bound.append(modules["networkx"])
        wrappers = {}
        for module, attribute, extractors in SPANNED:
            fn = getattr(modules[module], attribute)
            wrappers[id(fn)] = (fn, self._spanned(span_name(module, attribute), fn, extractors))
        for module, attribute in COUNTED_GENERATORS:
            fn = getattr(modules[module], attribute)
            wrappers[id(fn)] = (fn, self._counted(span_name(module, attribute), fn))
        for mod in bound:
            for attribute, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attribute, entry[1])
                    self._patches.append((mod, attribute, value))

    def uninstall(self):
        for mod, attribute, original in reversed(self._patches):
            setattr(mod, attribute, original)
        self._patches.clear()

    def clear(self):
        for column in (self.op, self.name, self.start, self.end, self.parent):
            del column[:]
        self.counters.clear()

    def extend(self, payload: dict, op: int):
        """Append the spans a traced child process wrote (see :meth:`dump`)."""
        offset = len(self.start)
        ids = [self._name_id(name) for name in payload["names"]]
        for name_id, start, end, parent in payload["spans"]:
            self.op.append(op)
            self.name.append(ids[name_id])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else -1)
        for key, value in payload["counters"]:
            self.counters[tuple(key)] += value

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i]]
                for i in range(len(self.start))
            ],
            "counters": [[list(key), value] for key, value in self.counters.items()],
        }

    def write_csv(self, path: Path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,op,name,start,end,parent\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.op[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n"
                )

    def aggregate(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.self_s`` and every counter, by name."""
        self_time = [e - s for s, e in zip(self.start, self.end)]
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                self_time[parent] -= self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for name_id, own in zip(self.name, self_time):
            name = self.names[name_id]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        for (name, counter), value in self.counters.items():
            out[f"{name}.{counter}"] += value
        return dict(out)

    def ops_with(self, prefix: str) -> set[int]:
        """Operation ids with at least one span whose name starts with ``prefix``."""
        wanted = {i for i, name in enumerate(self.names) if name.startswith(prefix)}
        return {op for op, name_id in zip(self.op, self.name) if name_id in wanted}


def _traced_cli(argv: list[str]) -> int:
    spans_file, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracing.py SPANS_FILE -- CLI_ARGS...")
    sys.path.insert(0, str(SRC))
    recorder = Recorder()
    recorder.install()
    cli = sys.modules["recountgame.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        recorder.uninstall()
        Path(spans_file).write_text(json.dumps(recorder.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
