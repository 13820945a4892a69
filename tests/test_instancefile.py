"""Instance file format: parsing, diagnostics, canonical round-trips."""

import json

import jsonschema
import pytest

from conftest import fixture_path
from recountgame import (
    ValidationError,
    gen_partition_pv_recreg,
    gen_random,
    load_instance,
    parse_instance,
    random_manipulation,
    schema_path,
    serialize_instance,
)


def test_example21_fixture_parses(example21_pd):
    election, manipulation = load_instance(fixture_path("example21_pd.json"))
    assert election.num_districts == 5
    assert tuple(d.weight for d in election.districts) == (49, 49, 9, 9, 9)
    assert manipulation is None
    assert election == example21_pd


def test_attacked_fixture_round_trips():
    path = fixture_path("example51_attacked.json")
    election, manipulation = load_instance(path)
    assert manipulation is not None and manipulation.districts == (0, 1)
    with open(path, encoding="utf-8") as handle:
        assert serialize_instance(election, manipulation) == handle.read()


def test_serialize_parse_is_canonical(example21_pv):
    text = serialize_instance(example21_pv)
    # a messy but equivalent spelling canonicalizes to the same bytes
    payload = json.loads(text)
    payload["districts"][0]["votes"]["b"] = 0
    messy = json.dumps(payload, indent=4)
    election, manipulation = parse_instance(messy)
    assert serialize_instance(election, manipulation) == text


def test_syntax_error_reports_line():
    with pytest.raises(ValidationError, match="line 2"):
        parse_instance('{\n  "rule": PV\n}')


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: p.__setitem__("rule", "IRV"), "unknown rule"),
        (lambda p: p.__setitem__("tiebreak", ["a", "b"]), "tiebreak"),
        (lambda p: p.__setitem__("preferred", "zz"), "preferred"),
        (lambda p: p.pop("districts"), "districts"),
        (lambda p: p.__setitem__("mystery", 1), "unknown key"),
        (lambda p: p["districts"][0]["votes"].__setitem__("nobody", 1), "unknown candidate"),
        (lambda p: p["districts"][0]["votes"].__setitem__("a", -1), "non-negative"),
        (lambda p: p["districts"][0].__setitem__("gamma", 99), "gamma"),
        (lambda p: p.__setitem__("tiebreak", [1, "a", "b"]), "tiebreak: expected a permutation"),
        (
            lambda p: p.__setitem__("manipulation", [{"index": True, "votes": {"p": 7}}]),
            r"manipulation\[0\]\.index",
        ),
        (lambda p: p["districts"][0].__setitem__("weight", 1.5), "district 0: weight .* got 1.5"),
        (lambda p: p["districts"][1].__setitem__("gamma", True), "district 1: gamma .* got True"),
        (lambda p: p.__setitem__("budget_defender", True), "budget_defender .* got True"),
        (lambda p: p["districts"][0]["votes"].__setitem__("a", 1.0), "district 0: votes for a .* got 1.0"),
        # equal to an earlier district by value, so it must not be interned as that district
        (lambda p: p["districts"][1].__setitem__("weight", 49.0), "district 1: weight .* got 49.0"),
        (lambda p: p["districts"][3]["votes"].__setitem__("b", 3.0), "district 3: votes for b .* got 3.0"),
        (lambda p: p["districts"][2].pop("votes"), r"districts\[2\]: missing key 'votes'"),
        (
            lambda p: p.__setitem__("manipulation", [{"votes": {"p": 7}}]),
            r"manipulation\[0\]: missing key 'index'",
        ),
    ],
)
def test_semantic_errors_have_field_paths(example21_pv, mutate, message):
    payload = json.loads(serialize_instance(example21_pv))
    mutate(payload)
    with pytest.raises(ValidationError, match=message):
        parse_instance(json.dumps(payload))


def test_manipulation_sum_mismatch_names_district(example21_pv):
    payload = json.loads(serialize_instance(example21_pv))
    payload["manipulation"] = [{"index": 1, "votes": {"p": 6}}]
    with pytest.raises(ValidationError, match="district 1"):
        parse_instance(json.dumps(payload))


def test_duplicate_manipulation_index(example21_pv):
    payload = json.loads(serialize_instance(example21_pv))
    payload["manipulation"] = [
        {"index": 0, "votes": {"p": 7}},
        {"index": 0, "votes": {"a": 7}},
    ]
    with pytest.raises(ValidationError, match="twice"):
        parse_instance(json.dumps(payload))


def test_random_instances_round_trip():
    from conftest import random_instance

    for seed in range(40):
        election, manipulation = random_instance(seed + 90_000)
        text = serialize_instance(election, manipulation)
        parsed_election, parsed_manipulation = parse_instance(text)
        assert parsed_election == election
        assert parsed_manipulation == manipulation
        assert serialize_instance(parsed_election, parsed_manipulation) == text


def test_fixtures_match_schema():
    with open(schema_path(), encoding="utf-8") as handle:
        schema = json.load(handle)
    for name in (
        "example21_pv.json",
        "example21_pd.json",
        "example21_pv_attacked.json",
        "example21_pd_attacked.json",
        "example51.json",
        "example51_attacked.json",
    ):
        with open(fixture_path(name), encoding="utf-8") as handle:
            jsonschema.validate(json.load(handle), schema)


def test_equal_districts_parse_to_one_object():
    """As in the generator's output, the padding districts of a round-tripped
    Partition instance are one object, so validation finds their repeats by
    identity; the text round-trips unchanged."""
    values = [8, 12, 12]
    text = serialize_instance(*gen_partition_pv_recreg(values, 1.6))
    election, attack = parse_instance(text)
    padding = range(len(values), election.num_districts - 2)
    assert len(padding) == 120 and len({id(election.districts[i]) for i in padding}) == 1
    assert serialize_instance(election, attack) == text


def test_parsed_districts_are_the_generated_objects():
    """Equal all-integer districts are one object across instances, so a
    parsed instance holds the very districts of the instance it was written from."""
    for seed in range(5):
        election = gen_random("PD", 6, 3, n_max=4, w_max=3, gamma_mode="random", seed=seed)
        attack = random_manipulation(election, seed=seed)
        parsed, parsed_attack = parse_instance(serialize_instance(election, attack))
        assert parsed == election and parsed_attack == attack
        assert all(a is b for a, b in zip(parsed.districts, election.districts))
