import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from absgate.canon import canonical_bytes, canonical_dumps, canonical_hash, sha256_hex
from absgate.model import Verdict


def test_keys_are_sorted_and_separators_compact():
    assert canonical_dumps({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'


def test_non_ascii_is_preserved():
    assert canonical_dumps({"note": "µg"}) == '{"note":"µg"}'
    assert canonical_bytes({"note": "µg"}) == '{"note":"µg"}'.encode("utf-8")


def test_floats_are_rejected_everywhere():
    with pytest.raises(TypeError):
        canonical_dumps(1.5)
    with pytest.raises(TypeError):
        canonical_dumps({"x": [1, {"y": 2.0}]})


def test_non_string_keys_are_rejected():
    with pytest.raises(TypeError):
        canonical_dumps({1: "x"})


def test_unsupported_types_are_rejected():
    with pytest.raises(TypeError):
        canonical_dumps({"x": object()})
    # Tuples are plain sequences here and serialize as arrays.
    assert canonical_dumps({"x": (1, 2)}) == '{"x":[1,2]}'


def test_hash_is_hex_sha256_of_canonical_bytes():
    value = {"k": [1, 2, "three"]}
    assert canonical_hash(value) == sha256_hex(canonical_bytes(value))
    assert len(canonical_hash(value)) == 64


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**12), max_value=10**12) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@given(_JSON)
def test_canonical_form_is_stable_and_parseable(value):
    first = canonical_bytes(value)
    assert first == canonical_bytes(value)
    assert json.loads(first) == value


@given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=5))
def test_key_order_cannot_influence_the_digest(mapping):
    reordered = dict(reversed(list(mapping.items())))
    assert canonical_hash(mapping) == canonical_hash(reordered)


@pytest.mark.parametrize(
    "value",
    [
        {"x": (1, 2.5)},  # a float inside a tuple inside a dict value
        [{"a": 1}, {2: "b"}],  # a non-string key nested under a list
        (1, object()),  # an unsupported object inside a tuple
    ],
)
def test_nested_unsupported_values_are_rejected(value):
    with pytest.raises(TypeError):
        canonical_dumps(value)


def test_str_mixin_enum_members_are_accepted():
    assert canonical_dumps(Verdict.FIRED) == '"fired"'
    assert canonical_dumps({"v": [Verdict.FIRED], "w": Verdict.VETOED}) == '{"v":["fired"],"w":"vetoed"}'
