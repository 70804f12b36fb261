"""Tests for the rule query language: grammar, diagnostics, round-trips."""

from __future__ import annotations

from pathlib import Path

import pytest

from fcpd import (
    And,
    ArityError,
    Atom,
    DslSyntaxError,
    DslValueError,
    DuplicateNameError,
    Or,
    QueryDocument,
    QueryError,
    Rule,
    UnknownReferenceError,
    parse,
    print_document,
    to_fis,
)

QUERY_DIR = Path(__file__).resolve().parent.parent / "queries"

SCORE_VAR = "var score [0, 1] { low: tri(-0.4, 0, 0.4)  high: tri(0.6, 1, 1.4) }\n"
ABC_VARS = (
    "var a [0, 1] { s: smf(0, 1) }\n"
    "var b [0, 1] { s: smf(0, 1) }\n"
    "var c [0, 1] { s: smf(0, 1) }\n"
    + SCORE_VAR
)


def test_parses_a_minimal_document():
    doc = parse(SCORE_VAR + "IF (score is low), THEN (score is high)\n")
    assert [v.name for v in doc.variables] == ["score"]
    assert list(doc.variables[0].sets) == ["low", "high"]
    (rule,) = doc.rules
    assert rule.antecedent == Atom("score", "low")
    assert (rule.consequent_var, rule.consequent_set, rule.weight) == ("score", "high", 1.0)
    assert doc.options == {}


def test_negation_and_weight():
    doc = parse(SCORE_VAR + "IF (score is not low), THEN (score is high) weight 0.9\n")
    (rule,) = doc.rules
    assert rule.antecedent == Atom("score", "low", negated=True)
    assert rule.weight == 0.9


def test_and_binds_tighter_than_or():
    doc = parse(ABC_VARS + "IF (a is s) and (b is s) or (c is s), THEN (score is low)\n")
    assert doc.rules[0].antecedent == Or(And(Atom("a", "s"), Atom("b", "s")), Atom("c", "s"))
    doc = parse(ABC_VARS + "IF (a is s) or (b is s) and (c is s), THEN (score is low)\n")
    assert doc.rules[0].antecedent == Or(Atom("a", "s"), And(Atom("b", "s"), Atom("c", "s")))


def test_parentheses_override_precedence():
    doc = parse(ABC_VARS + "IF ((a is s) or (b is s)) and (c is s), THEN (score is low)\n")
    assert doc.rules[0].antecedent == And(Or(Atom("a", "s"), Atom("b", "s")), Atom("c", "s"))


def test_keywords_are_case_insensitive_but_names_are_not():
    doc = parse(
        "VAR score [0, 1] { low: TRI(-0.4, 0, 0.4) }\n"
        "if (score IS NOT low), Then (score is low) WEIGHT 0.5\n"
    )
    assert doc.rules[0].antecedent == Atom("score", "low", negated=True)
    with pytest.raises(UnknownReferenceError):
        parse(SCORE_VAR + "IF (Score is low), THEN (score is high)\n")


def test_comments_and_blank_lines_are_ignored():
    doc = parse(
        "# a header comment\n\n"
        + SCORE_VAR
        + "\n# rules\nIF (score is low), THEN (score is high)  # trailing\n\n"
    )
    assert len(doc.rules) == 1


def test_number_literal_forms():
    doc = parse("var x [-1e-1, 2.5] { a: tri(-0.5, .25, 1e1) }\n")
    var = doc.variables[0]
    assert (var.lo, var.hi) == (-0.1, 2.5)
    assert var.sets["a"].params == (-0.5, 0.25, 10.0)


def test_options_resolution_and_fixed_values():
    doc = parse(SCORE_VAR + "set resolution = 501\nset defuzz = centroid\nset and_op = min\n")
    assert doc.options == {"resolution": 501.0, "defuzz": "centroid", "and_op": "min"}


def test_empty_document_parses_and_prints_empty():
    doc = parse("")
    assert doc == QueryDocument(variables=(), rules=(), options={})
    assert print_document(doc) == ""


# ---------------------------------------------------------------------------
# Diagnostics.  Expected columns are located by a marker substring on the
# expected line so the table stays readable.

_BAD_INPUTS = [
    ("var x [0, 1] {\n  low: tri(0, 0.5)\n}\n", ArityError, 2, "tri"),
    ("var x [0, 1] {\n  low: trap(0, 1, 2, 3, 4)\n}\n", ArityError, 2, "trap"),
    ("var x [1, 0] { low: tri(0, 0.5, 1) }\n", DslValueError, 1, "1, 0"),
    ("var x [0, 1] { low: tri(1, 0.5, 0) }\n", DslValueError, 1, "tri"),
    ("var x [0, 1] { a: gauss(0, -1) }\n", DslValueError, 1, "gauss"),
    (SCORE_VAR + "var score [0, 1] { low: tri(0, 0.5, 1) }\n", DuplicateNameError, 2, "score"),
    ("var x [0, 1] {\n  a: tri(0, 0.5, 1)\n  a: smf(0, 1)\n}\n", DuplicateNameError, 3, "a:"),
    ("set resolution = 101\nset resolution = 101\n", DuplicateNameError, 2, "resolution"),
    ("set speed = 3\n", UnknownReferenceError, 1, "speed"),
    ("set defuzz = bisector\n", DslValueError, 1, "bisector"),
    ("set aggregation = sum\n", DslValueError, 1, "sum"),
    ("set resolution = 10.5\n", DslValueError, 1, "10.5"),
    ("set resolution = 1\n", DslValueError, 1, "1"),
    (SCORE_VAR + "IF (ghost is low), THEN (score is low)\n", UnknownReferenceError, 2, "ghost"),
    (SCORE_VAR + "IF (score is huge), THEN (score is low)\n", UnknownReferenceError, 2, "huge"),
    (SCORE_VAR + "IF (score is low), THEN (score is huge)\n", UnknownReferenceError, 2, "huge"),
    (SCORE_VAR + "IF (score is low) THEN (score is low)\n", DslSyntaxError, 2, "THEN"),
    (SCORE_VAR + "IF (score is low, THEN (score is low)\n", DslSyntaxError, 2, ", THEN"),
    (SCORE_VAR + "IF score is low, THEN (score is low)\n", DslSyntaxError, 2, "score"),
    ("hello\n", DslSyntaxError, 1, "hello"),
    ("var x% [0, 1] { a: smf(0, 1) }\n", DslSyntaxError, 1, "%"),
    ("var x [0, 1] { a: bell(0, 1) }\n", DslSyntaxError, 1, "bell"),
    (SCORE_VAR + "IF (score is low), THEN (score is low) weight 1.5\n", DslValueError, 2, "1.5"),
    (SCORE_VAR + "IF (score is low), THEN (score is low) weight 0\n", DslValueError, 2, "0"),
    ("var x [0, 1e999] { a: smf(0, 1) }\n", DslValueError, 1, "1e999"),
    ("var x [-1e999, 0] { a: smf(0, 1) }\n", DslValueError, 1, "-1e999"),
]


@pytest.mark.parametrize("text, exc_type, line, marker", _BAD_INPUTS)
def test_errors_carry_category_and_position(text, exc_type, line, marker):
    with pytest.raises(exc_type) as info:
        parse(text)
    err = info.value
    assert isinstance(err, QueryError)
    assert err.line == line
    expected_col = text.splitlines()[line - 1].index(marker) + 1
    assert err.col == expected_col
    assert f"line {line}, column {expected_col}" in str(err)


# Every message the parser can raise, pinned byte for byte: the category,
# the position and the wording a user sees.
_MESSAGES = [
    ("var x [0, 1] {\n  low: tri(0, 0.5)\n}\n", ArityError,
     "line 2, column 8: tri takes 3 parameters, got 2"),
    ("var x [0, 1] {\n  low: trap(0, 1, 2, 3, 4)\n}\n", ArityError,
     "line 2, column 8: trap takes 4 parameters, got 5"),
    ("var x [1, 0] { low: tri(0, 0.5, 1) }\n", DslValueError,
     "line 1, column 8: domain needs lo < hi, got [1, 0]"),
    ("var x [0, 1] { low: tri(1, 0.5, 0) }\n", DslValueError,
     "line 1, column 21: tri needs a <= b <= c with a < c, got (1.0, 0.5, 0.0)"),
    ("var x [0, 1] { a: gauss(0, -1) }\n", DslValueError,
     "line 1, column 19: gauss width must be > 0, got -1.0"),
    (SCORE_VAR + "var score [0, 1] { low: tri(0, 0.5, 1) }\n", DuplicateNameError,
     "line 2, column 5: variable 'score' already declared"),
    ("var x [0, 1] {\n  a: tri(0, 0.5, 1)\n  a: smf(0, 1)\n}\n", DuplicateNameError,
     "line 3, column 3: set 'a' already declared in this variable"),
    ("set resolution = 101\nset resolution = 101\n", DuplicateNameError,
     "line 2, column 5: option 'resolution' already set"),
    ("set speed = 3\n", UnknownReferenceError, "line 1, column 5: unknown option 'speed'"),
    ("set defuzz = bisector\n", DslValueError,
     "line 1, column 14: option 'defuzz' is fixed to 'centroid'"),
    ("set aggregation = sum\n", DslValueError,
     "line 1, column 19: option 'aggregation' is fixed to 'max'"),
    ("set resolution = 10.5\n", DslValueError,
     "line 1, column 18: resolution must be an integer, got 10.5"),
    ("set resolution = 1\n", DslValueError, "line 1, column 18: resolution must be >= 2, got 1"),
    (SCORE_VAR + "IF (ghost is low), THEN (score is low)\n", UnknownReferenceError,
     "line 2, column 5: variable 'ghost' is not declared"),
    (SCORE_VAR + "IF (score is huge), THEN (score is low)\n", UnknownReferenceError,
     "line 2, column 14: variable 'score' has no set 'huge'"),
    (SCORE_VAR + "IF (score is low), THEN (score is huge)\n", UnknownReferenceError,
     "line 2, column 35: variable 'score' has no set 'huge'"),
    (SCORE_VAR + "IF (score is low) THEN (score is low)\n", DslSyntaxError,
     "line 2, column 19: expected ',', got 'then'"),
    (SCORE_VAR + "IF (score is low, THEN (score is low)\n", DslSyntaxError,
     "line 2, column 17: expected ')', got ','"),
    (SCORE_VAR + "IF score is low, THEN (score is low)\n", DslSyntaxError,
     "line 2, column 4: expected '(', got 'score'"),
    ("hello\n", DslSyntaxError, "line 1, column 1: expected 'var', 'IF', or 'set', got 'hello'"),
    ("var x% [0, 1] { a: smf(0, 1) }\n", DslSyntaxError,
     "line 1, column 6: unexpected character '%'"),
    ("var x [0, 1] { a: bell(0, 1) }\n", DslSyntaxError,
     "line 1, column 19: expected a membership kind (tri, trap, gauss, zmf, smf), got 'bell'"),
    (SCORE_VAR + "IF (score is low), THEN (score is low) weight 1.5\n", DslValueError,
     "line 2, column 47: rule weight must be in (0, 1], got 1.5"),
    (SCORE_VAR + "IF (score is low), THEN (score is low) weight 0\n", DslValueError,
     "line 2, column 47: rule weight must be in (0, 1], got 0"),
    (SCORE_VAR + "IF (score is low), (score is low)\n", DslSyntaxError,
     "line 2, column 20: expected 'then', got '('"),
    (SCORE_VAR + "IF (score is low), THEN (score is low) weight high\n", DslSyntaxError,
     "line 2, column 47: expected a rule weight, got 'high'"),
    ("var x [0, 1] { }\n", DslSyntaxError,
     "line 1, column 16: expected at least one set declaration, got '}'"),
    ("set resolution = (\n", DslSyntaxError,
     "line 1, column 18: expected a number or identifier, got '('"),
    ("var x [0, 1] {\n  a: tri(0, 0.5, 1)\n", DslSyntaxError,
     "line 3, column 1: expected a set name, got 'end of input'"),
    ("var [0, 1] { a: smf(0, 1) }\n", DslSyntaxError,
     "line 1, column 5: expected a variable name, got '['"),
    ("var x (0, 1) { a: smf(0, 1) }\n", DslSyntaxError, "line 1, column 7: expected '[', got '('"),
    ("var x [a, 1] { a: smf(0, 1) }\n", DslSyntaxError,
     "line 1, column 8: expected the domain lower bound, got 'a'"),
    ("var x [0 1] { a: smf(0, 1) }\n", DslSyntaxError, "line 1, column 10: expected ',', got '1'"),
    ("var x [0, b] { a: smf(0, 1) }\n", DslSyntaxError,
     "line 1, column 11: expected the domain upper bound, got 'b'"),
    ("var x [0, 1 { a: smf(0, 1) }\n", DslSyntaxError, "line 1, column 13: expected ']', got '{'"),
    ("var x [0, 1] a: smf(0, 1) }\n", DslSyntaxError, "line 1, column 14: expected '{', got 'a'"),
    ("var x [0, 1] { 3: smf(0, 1) }\n", DslSyntaxError,
     "line 1, column 16: expected a set name, got '3'"),
    ("var x [0, 1] { a smf(0, 1) }\n", DslSyntaxError,
     "line 1, column 18: expected ':', got 'smf'"),
    ("var x [0, 1] { a: smf 0, 1) }\n", DslSyntaxError,
     "line 1, column 23: expected '(', got '0'"),
    ("var x [0, 1] { a: smf(0, z) }\n", DslSyntaxError,
     "line 1, column 26: expected a membership parameter, got 'z'"),
    ("var x [0, 1] { a: smf(0, 1 }\n", DslSyntaxError, "line 1, column 28: expected ')', got '}'"),
    (SCORE_VAR + "IF (score is low), THEN score is low)\n", DslSyntaxError,
     "line 2, column 25: expected '(', got 'score'"),
    (SCORE_VAR + "IF (score is low), THEN (1 is low)\n", DslSyntaxError,
     "line 2, column 26: expected the output variable, got '1'"),
    (SCORE_VAR + "IF (score is low), THEN (score low)\n", DslSyntaxError,
     "line 2, column 32: expected 'is', got 'low'"),
    (SCORE_VAR + "IF (score is low), THEN (score is 1)\n", DslSyntaxError,
     "line 2, column 35: expected an output set, got '1'"),
    (SCORE_VAR + "IF (score is low), THEN (score is low\n", DslSyntaxError,
     "line 3, column 1: expected ')', got 'end of input'"),
    (SCORE_VAR + "IF (score is 2), THEN (score is low)\n", DslSyntaxError,
     "line 2, column 14: expected a set name, got '2'"),
    (SCORE_VAR + "IF ((score is low), THEN (score is low)\n", DslSyntaxError,
     "line 2, column 19: expected ')', got ','"),
    ("set 3 = 4\n", DslSyntaxError, "line 1, column 5: expected an option name, got '3'"),
    ("set resolution 4\n", DslSyntaxError, "line 1, column 16: expected '=', got '4'"),
    ("var x [0, 1e999] { a: smf(0, 1) }\n", DslValueError,
     "line 1, column 11: variable 'x' hi must be a finite number, got inf"),
    ("var x [-1e999, 0] { a: smf(0, 1) }\n", DslValueError,
     "line 1, column 8: variable 'x' lo must be a finite number, got -inf"),
    ("var x [0, 1] { a: tri(0, 0.5, 1e999) }\n", DslValueError,
     "line 1, column 19: membership parameter must be a finite number, got inf"),
]


@pytest.mark.parametrize("text, exc_type, message", _MESSAGES)
def test_error_messages_are_exact(text, exc_type, message):
    with pytest.raises(exc_type) as info:
        parse(text)
    assert type(info.value) is exc_type
    assert str(info.value) == message


def test_truncated_input_points_past_the_last_line():
    with pytest.raises(DslSyntaxError) as info:
        parse("var x [0, 1] {\n  a: tri(0, 0.5, 1)\n")
    assert "end of input" in str(info.value)
    assert info.value.line == 3


# ---------------------------------------------------------------------------
# Printing and round-trips.


def test_print_produces_the_canonical_form():
    text = (
        "# noisy   layout\n"
        "var   x [0,2] {low:tri(0,0.5,1)\n high : smf( 1 , 2 ) }\n"
        + SCORE_VAR
        + "IF (x is low) AND (x is not high), THEN (score is low) weight 0.75\n"
        "set resolution = 501\n"
    )
    expected = (
        "var x [0, 2] {\n"
        "    low: tri(0, 0.5, 1)\n"
        "    high: smf(1, 2)\n"
        "}\n\n"
        "var score [0, 1] {\n"
        "    low: tri(-0.4, 0, 0.4)\n"
        "    high: tri(0.6, 1, 1.4)\n"
        "}\n\n"
        "IF (x is low) and (x is not high), THEN (score is low) weight 0.75\n\n"
        "set resolution = 501\n"
    )
    assert print_document(parse(text)) == expected


def test_round_trip_is_structurally_stable():
    samples = [
        SCORE_VAR + "IF (score is low), THEN (score is high)\n",
        ABC_VARS + "IF ((a is s) or (b is s)) and (c is not s), "
        "THEN (score is low) weight 0.35\n",
        ABC_VARS
        + "IF (a is s) or ((b is s) and ((c is s) or (a is not s))), THEN (score is high)\n"
        + "set resolution = 2001\nset defuzz = centroid\n",
    ]
    for text in samples:
        doc = parse(text)
        again = parse(print_document(doc))
        assert again == doc
        assert print_document(again) == print_document(doc)


def test_print_parenthesizes_a_right_nested_or_and_and():
    # The parser nests chains of one operator to the left; a right-nested
    # chain comes from the API and needs its parentheses to read back.
    variables = parse(
        "var x [0, 1] { a: smf(0, 1)  b: smf(0, 1)  c: smf(0, 1) }\n"
        + SCORE_VAR + "IF (x is a), THEN (score is high)\n"
    ).variables
    a, b, c = (Atom("x", name) for name in "abc")
    for antecedent, text in [
        (Or(a, Or(b, c)), "IF (x is a) or ((x is b) or (x is c)), THEN (score is high)"),
        (And(a, And(b, c)), "IF (x is a) and ((x is b) and (x is c)), THEN (score is high)"),
    ]:
        doc = QueryDocument(variables, (Rule(antecedent, "score", "high"),))
        printed = print_document(doc)
        assert printed.splitlines()[-1] == text
        assert parse(printed) == doc


def test_shipped_query_files_round_trip():
    files = sorted(QUERY_DIR.glob("*.fcq"))
    assert len(files) >= 6
    for path in files:
        doc = parse(path.read_text())
        assert doc.rules, path.name
        assert parse(print_document(doc)) == doc


# ---------------------------------------------------------------------------
# Assembling an inference system.


def test_to_fis_splits_inputs_from_the_output():
    doc = parse(
        ABC_VARS
        + "IF (a is s) and (b is s), THEN (score is high)\n"
        + "set resolution = 501\n"
    )
    fis = to_fis(doc)
    assert [v.name for v in fis.inputs] == ["a", "b", "c"]
    assert fis.output.name == "score"
    assert fis.resolution == 501
    assert fis.input_variables_referenced() == ("a", "b")


def test_to_fis_defaults_the_resolution():
    doc = parse(SCORE_VAR + "IF (score is low), THEN (score is high)\n")
    # A self-referential document has no separate inputs; build a two-variable
    # one instead to reach the assembly step.
    doc = parse(
        "var x [0, 1] { s: smf(0, 1) }\n"
        + SCORE_VAR
        + "IF (x is s), THEN (score is high)\n"
    )
    assert to_fis(doc).resolution == 1001


def test_to_fis_rejects_ruleless_and_split_consequents():
    with pytest.raises(DslValueError):
        to_fis(parse(SCORE_VAR))
    doc = parse(
        "var x [0, 1] { s: smf(0, 1) }\n"
        + SCORE_VAR
        + "IF (x is s), THEN (score is high)\n"
        + "IF (score is low), THEN (x is s)\n"
    )
    with pytest.raises(DslValueError):
        to_fis(doc)


def test_to_fis_rejects_a_rule_that_reads_the_output():
    doc = parse(
        "var x [0, 1] { s: smf(0, 1) }\n"
        + SCORE_VAR
        + "IF (x is s), THEN (score is high)\n"
        + "IF (x is s) and (score is high), THEN (score is low)\n"
    )
    with pytest.raises(DslValueError, match="rule 2 reads the output variable 'score'$") as info:
        to_fis(doc)
    assert (info.value.line, info.value.col) == (1, 1)


def test_to_fis_requires_a_declared_output():
    doc = parse(
        "var x [0, 1] { s: smf(0, 1) }\n"
        + SCORE_VAR
        + "IF (x is s), THEN (score is high)\n"
    )
    orphan = QueryDocument(variables=doc.variables[:1], rules=doc.rules, options={})
    with pytest.raises(UnknownReferenceError):
        to_fis(orphan)
