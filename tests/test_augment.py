import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gandr.augment import (
    EXEMPLAR_SEP,
    PAIR_SEP,
    build_augmented_input,
    check_separator_safe,
    split_augmented,
)
from gandr.errors import QueryExceedsBudget, SeparatorCollision
from gandr.retrieval import Exemplar

CALL = Exemplar(1, "Start a call Spoken Word",
                "[IN:CREATE_CALL [SL:GROUP Spoken Word ] ]")
MSG = Exemplar(2, "message the anime group",
               "[IN:SEND_MESSAGE [SL:GROUP anime ] ]")


def test_wire_format():
    aug = build_augmented_input("connect me to the Musicals group",
                                [CALL, MSG])
    assert aug.text == (
        "connect me to the Musicals group"
        " || Start a call Spoken Word & [IN:CREATE_CALL [SL:GROUP Spoken Word ] ]"
        " || message the anime group & [IN:SEND_MESSAGE [SL:GROUP anime ] ]")
    assert aug.query == "connect me to the Musicals group"
    assert aug.exemplar_ids == (1, 2)
    assert aug.truncated is False


def test_zero_exemplars_is_just_the_query():
    aug = build_augmented_input("hello there", [])
    assert aug.text == "hello there"
    assert aug.exemplar_ids == ()


def test_budget_counts_whitespace_tokens_including_separators():
    # query: 2 tokens; CALL adds 1 (||) + 5 (utterance) + 1 (&) + 6 (parse)
    aug = build_augmented_input("hello there", [CALL], budget=15)
    assert aug.truncated is False
    assert len(aug.text.split()) == 15
    with_one_less = build_augmented_input("hello there", [CALL], budget=14)
    assert with_one_less.truncated is True


def test_budget_drops_whole_exemplars_from_the_tail():
    full = build_augmented_input("hello there", [CALL, MSG])
    n_full = len(full.text.split())
    aug = build_augmented_input("hello there", [CALL, MSG], budget=n_full - 1)
    assert aug.truncated is True
    assert aug.exemplar_ids == (1,)
    assert aug.text == build_augmented_input("hello there", [CALL]).text


def test_budget_can_drop_everything_but_the_query():
    aug = build_augmented_input("hello there", [CALL, MSG], budget=2)
    assert aug.text == "hello there"
    assert aug.truncated is True
    assert aug.exemplar_ids == ()


def test_tail_truncation_never_reorders():
    # MSG alone would fit in 13 tokens, but truncation cuts the tail at the
    # first exemplar that does not fit; it never skips ahead to shorter ones
    aug = build_augmented_input("hi", [CALL, MSG], budget=13)
    assert aug.exemplar_ids == ()
    assert aug.truncated is True


def test_query_over_budget_raises():
    with pytest.raises(QueryExceedsBudget):
        build_augmented_input("one two three", [], budget=2)


@pytest.mark.parametrize("bad", ["a || b", "a & b", "x ||  &  y",
                                 "play it ||", "|| play it", "play it &",
                                 "& play it", "||", "&"])
def test_separator_collision_in_query(bad):
    # "play it ||" once joined to 'play it || || u & [IN:P x ]', which
    # splits back to the query 'play it'
    with pytest.raises(SeparatorCollision):
        build_augmented_input(bad, [Exemplar(0, "u", "[IN:P x ]")])


def test_separator_collision_in_exemplar_fields():
    # exemplar fields are checked once, when the exemplar is constructed
    with pytest.raises(SeparatorCollision):
        Exemplar(0, "a & b", "[IN:X y ]")
    with pytest.raises(SeparatorCollision):
        check_separator_safe("left || right")
    # the join puts a space beside each field, so an edge can complete one
    with pytest.raises(SeparatorCollision):
        Exemplar(0, "u ||", "[IN:P x ]")
    with pytest.raises(SeparatorCollision):
        Exemplar(0, "|| u", "[IN:P x ]")
    with pytest.raises(SeparatorCollision):
        Exemplar(0, "u &", "[IN:P x ]")


def test_ambiguous_characters_without_spaces_are_fine():
    # only the spaced separator literals are reserved
    aug = build_augmented_input("a&b and c||d", [])
    assert aug.text == "a&b and c||d"


def test_split_round_trip():
    aug = build_augmented_input("connect me", [CALL, MSG])
    query, pairs = split_augmented(aug.text)
    assert query == "connect me"
    assert pairs == [(CALL.utterance, CALL.parse), (MSG.utterance, MSG.parse)]


def test_split_rejects_chunk_without_pair_separator():
    with pytest.raises(SeparatorCollision):
        split_augmented("query" + EXEMPLAR_SEP + "no pair separator here")


def test_split_bare_query():
    assert split_augmented("just a query") == ("just a query", [])


_field = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1,
    max_size=30,
).filter(lambda s: EXEMPLAR_SEP not in f" {s} " and PAIR_SEP not in f" {s} "
         and "[" not in s and "]" not in s and s.strip())

# the parse puts spaces around its slot value, so a value such as "&" that
# is safe on its own can still form a separator there
_parse = _field.map(lambda val: f"[IN:P [SL:Q {val} ] ]").filter(
    lambda parse: EXEMPLAR_SEP not in parse and PAIR_SEP not in parse)


def test_separator_formed_by_the_parse_is_rejected():
    with pytest.raises(SeparatorCollision):
        Exemplar(0, "u", "[IN:P [SL:Q & ] ]")


@settings(max_examples=200, deadline=None)
@given(query=_field, utterances=st.lists(_field, max_size=3),
       parses=st.lists(_parse, max_size=3))
def test_round_trip_arbitrary_fields(query, utterances, parses):
    exemplars = [
        Exemplar(i, utt, parse)
        for i, (utt, parse) in enumerate(zip(utterances, parses))
    ]
    aug = build_augmented_input(query, exemplars)
    got_query, got_pairs = split_augmented(aug.text)
    assert got_query == query
    assert got_pairs == [(e.utterance, e.parse) for e in exemplars]
