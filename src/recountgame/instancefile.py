"""Reading and writing game instances as structured text (JSON).

One format serves both question kinds: a recount input carries the optional
``manipulation`` block, an attacker input leaves it out.  Serialization is
canonical (candidates and districts in declared order, all object keys
sorted, zero counts omitted), so it round-trips byte-identically.  The formal
schema ships with the package, see :func:`schema_path`.
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import ValidationError
from .model import District, Election, Manipulation, _is_int, _plain_ints, _shared, ensure_valid


def schema_path() -> str:
    """Filesystem path of the JSON schema describing the instance format."""
    return str(resources.files("recountgame").joinpath("schema/instance.schema.json"))


def _expect(condition, message):
    if not condition:
        raise ValidationError(message)


def _object(payload, where, required, optional=()):
    """Reject ``payload`` unless it is an object with every ``required`` key
    and no key outside ``required`` and ``optional``."""
    _expect(isinstance(payload, dict), f"{where}: expected an object")
    for key in payload:
        _expect(key in required or key in optional, f"{where}: unknown key {key!r}")
    for key in required:
        _expect(key in payload, f"{where}: missing key {key!r}")


def _votes_vector(payload, candidates, where):
    _expect(isinstance(payload, dict), f"{where}: votes must be an object")
    index = {name: i for i, name in enumerate(candidates)}
    votes = [0] * len(candidates)
    for name, count in payload.items():
        _expect(name in index, f"{where}.{name}: unknown candidate")
        votes[index[name]] = count
    return tuple(votes)


def parse_instance(text: str):
    """Parse instance text into ``(Election, Manipulation | None)``.

    Raises :class:`ValidationError` with a line-precise message on malformed
    JSON, also for JSON that Python cannot hold (an integer past its digit
    limit, arrays nested past the recursion limit), and a field-path message
    on a shape or name violation; the numbers are checked by the
    :mod:`~.model` constructors, which name the field.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"unreadable JSON: {exc}") from None
    required = ("rule", "candidates", "tiebreak", "budget_attacker", "budget_defender", "districts")
    _object(payload, "top level", required, ("preferred", "manipulation"))

    candidates = payload["candidates"]
    _expect(
        isinstance(candidates, list) and all(isinstance(c, str) for c in candidates),
        "candidates: expected a list of names",
    )
    tiebreak_names = payload["tiebreak"]
    _expect(
        isinstance(tiebreak_names, list)
        and all(isinstance(c, str) for c in tiebreak_names)
        and sorted(tiebreak_names) == sorted(candidates),
        "tiebreak: expected a permutation of the candidate names",
    )
    tiebreak = tuple(candidates.index(name) for name in tiebreak_names)

    preferred = None
    if payload.get("preferred") is not None:
        name = payload["preferred"]
        _expect(name in candidates, f"preferred: unknown candidate {name!r}")
        preferred = candidates.index(name)

    raw_districts = payload["districts"]
    _expect(isinstance(raw_districts, list) and raw_districts, "districts: expected a non-empty list")
    districts = []
    # Equal districts share one object, the generators' own included, so that
    # validation looks up their repeats by identity.  Only all-``int``
    # districts are shared: for them equal means identical (``1.0 == 1``).
    for i, entry in enumerate(raw_districts):
        where = f"districts[{i}]"
        _object(entry, where, ("votes",), ("weight", "gamma"))
        votes = _votes_vector(entry["votes"], candidates, f"{where}.votes")
        weight, gamma = entry.get("weight", 1), entry.get("gamma", 0)
        if _plain_ints((weight, gamma, *votes)):
            district = _shared(District, votes, weight, gamma)
        else:
            district = District(votes, weight, gamma)
        districts.append(district)

    election = Election(
        rule=payload["rule"],
        candidates=tuple(candidates),
        districts=tuple(districts),
        tiebreak=tiebreak,
        budget_attacker=payload["budget_attacker"],
        budget_defender=payload["budget_defender"],
        preferred=preferred,
    )

    manipulation = None
    if payload.get("manipulation") is not None:
        raw = payload["manipulation"]
        _expect(isinstance(raw, list), "manipulation: expected a list")
        entries = {}
        for j, entry in enumerate(raw):
            where = f"manipulation[{j}]"
            _object(entry, where, ("index", "votes"))
            idx = entry["index"]
            _expect(
                _is_int(idx) and 0 <= idx < len(districts),
                f"{where}.index: must be a district index in [0, {len(districts) - 1}]",
            )
            _expect(idx not in entries, f"{where}.index: district {idx} listed twice")
            entries[idx] = _votes_vector(entry["votes"], candidates, f"{where}.votes")
        manipulation = Manipulation(entries)
        ensure_valid(election, manipulation)
    return election, manipulation


def load_instance(path: str):
    """:func:`parse_instance` of a UTF-8 file, or of standard input for
    ``"-"``; other bytes raise :class:`ValidationError`."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = "stdin" if path == "-" else path
        raise ValidationError(f"{where}: not UTF-8 text: {exc}") from None
    return parse_instance(text)


def _votes_payload(candidates, votes):
    return {name: count for name, count in zip(candidates, votes) if count}


def _manipulation_payload(election: Election, manipulation: Manipulation) -> list:
    """The attack as JSON: per attacked district, ascending, its index and votes."""
    return [
        {"index": i, "votes": _votes_payload(election.candidates, votes)}
        for i, votes in manipulation.items()
    ]


def serialize_instance(election: Election, manipulation: Optional[Manipulation] = None) -> str:
    """Canonical text for an instance; identical inputs give identical bytes."""
    payload = {
        "rule": election.rule,
        "candidates": list(election.candidates),
        "tiebreak": [election.candidates[c] for c in election.tiebreak],
        "budget_attacker": election.budget_attacker,
        "budget_defender": election.budget_defender,
        "districts": [
            {
                "weight": d.weight,
                "gamma": d.gamma,
                "votes": _votes_payload(election.candidates, d.votes),
            }
            for d in election.districts
        ],
    }
    if election.preferred is not None:
        payload["preferred"] = election.candidates[election.preferred]
    if manipulation is not None:
        payload["manipulation"] = _manipulation_payload(election, manipulation)
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
