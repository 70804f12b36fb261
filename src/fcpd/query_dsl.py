"""Parser and printer for the rule-query language.

A query document declares linguistic variables with their fuzzy sets, a list
of IF-THEN rules over them, and inference options::

    # '#' starts a line comment
    var average [-2, 2] {
        negative: zmf(-1, 0)
        zero: gauss(0, 0.25)
        positive: smf(0, 1)
    }

    var score [0, 1] {
        low: tri(-0.4, 0, 0.4)
        high: tri(0.6, 1, 1.4)
    }

    IF (average is not zero), THEN (score is high)
    IF (average is zero), THEN (score is low) weight 0.8

    set resolution = 1001

Keywords (IF, THEN, is, not, and, or, var, set, weight) are case-insensitive;
identifiers are case-sensitive.  ``and`` binds tighter than ``or``; atoms are
always parenthesized and groups may be parenthesized freely.

Errors carry the 1-based line and column of the offending token and fall into
distinct categories: syntax (DslSyntaxError), references to undeclared
variables or sets (UnknownReferenceError), membership arity mismatches
(ArityError), duplicate names (DuplicateNameError), and semantic value errors
(DslValueError).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import FcpdError, InvalidConfigError
from .fuzzy_inference import (
    _MF_ARITY,
    And,
    Atom,
    Expr,
    FisConfig,
    LinguisticVariable,
    MembershipFunction,
    Or,
    Rule,
)

_KEYWORDS = frozenset({"if", "then", "is", "not", "and", "or", "var", "set", "weight"})
_PUNCT = frozenset("()[]{},:=")
_FIXED_OPTIONS = {
    "and_op": "min",
    "or_op": "max",
    "not_op": "complement",
    "implication": "min",
    "aggregation": "max",
    "defuzz": "centroid",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\]{},:=])
    """,
    re.VERBOSE,
)


class QueryError(FcpdError):
    """Base class for query-language errors; carries a 1-based line/column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DslSyntaxError(QueryError):
    """The input does not match the grammar."""


class UnknownReferenceError(QueryError):
    """A rule or option refers to a variable, set, or option that was never declared."""


class ArityError(QueryError):
    """A membership function was given the wrong number of parameters."""


class DuplicateNameError(QueryError):
    """A set, variable, or option name was declared twice."""


class DslValueError(QueryError):
    """A syntactically valid value violates a semantic constraint."""


@dataclass(frozen=True)
class _Token:
    kind: str  # 'keyword' | 'ident' | 'number' | 'punct' | 'eof'
    text: str
    line: int
    col: int
    value: float | None = None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise DslSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        lexeme = match.group()
        col = match.start() - line_start + 1
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind == "number":
            tokens.append(_Token("number", lexeme, line, col, value=float(lexeme)))
        elif kind == "ident":
            if lexeme.lower() in _KEYWORDS:
                tokens.append(_Token("keyword", lexeme.lower(), line, col))
            else:
                tokens.append(_Token("ident", lexeme, line, col))
        elif kind == "punct":
            tokens.append(_Token("punct", lexeme, line, col))
        pos = match.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


@dataclass(frozen=True)
class QueryDocument:
    """Parsed query: declarations, rules, and options, in source order."""

    variables: tuple[LinguisticVariable, ...]
    rules: tuple[Rule, ...]
    options: dict[str, float | str] = field(default_factory=dict)


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self.variables: dict[str, LinguisticVariable] = {}
        self.rules: list[Rule] = []
        self.options: dict[str, float | str] = {}
        # (variable token, set token) of every reference, checked at the end
        self.refs: list[tuple[_Token, _Token]] = []
        # (rule number, variable token) of every antecedent atom
        self.reads: list[tuple[int, _Token]] = []

    def _peek(self, offset: int = 0) -> _Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _at(self, kind: str, text: str | None = None, offset: int = 0) -> bool:
        tok = self._peek(offset)
        return tok.kind == kind and (text is None or tok.text == text)

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _fail(self, message: str, tok: _Token):
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise DslSyntaxError(f"{message}, got {shown!r}", tok.line, tok.col)

    def _expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token:
        if not self._at(kind, text):
            self._fail(f"expected {what or repr(text)}", self._peek())
        return self._advance()

    # document := (var_decl | rule | option)*
    def parse_document(self) -> QueryDocument:
        statements = {
            "var": self._parse_var_decl,
            "if": self._parse_rule,
            "set": self._parse_option,
        }
        while not self._at("eof"):
            tok = self._peek()
            if not self._at("keyword") or tok.text not in statements:
                self._fail("expected 'var', 'IF', or 'set'", tok)
            statements[tok.text]()
        self._validate_references()
        return QueryDocument(
            variables=tuple(self.variables.values()),
            rules=tuple(self.rules),
            options=dict(self.options),
        )

    def _parse_var_decl(self) -> None:
        self._expect("keyword", "var")
        name_tok = self._expect("ident", what="a variable name")
        if name_tok.text in self.variables:
            raise DuplicateNameError(
                f"variable {name_tok.text!r} already declared", name_tok.line, name_tok.col
            )
        self._expect("punct", "[")
        lo_tok = self._expect("number", what="the domain lower bound")
        self._expect("punct", ",")
        hi_tok = self._expect("number", what="the domain upper bound")
        self._expect("punct", "]")
        if not lo_tok.value < hi_tok.value:
            raise DslValueError(
                f"domain needs lo < hi, got [{lo_tok.text}, {hi_tok.text}]",
                lo_tok.line,
                lo_tok.col,
            )
        self._expect("punct", "{")
        sets: dict[str, MembershipFunction] = {}
        if self._at("punct", "}"):
            self._fail("expected at least one set declaration", self._peek())
        while not self._at("punct", "}"):
            set_name, mf = self._parse_set_decl(sets)
            sets[set_name] = mf
        self._expect("punct", "}")
        try:
            self.variables[name_tok.text] = LinguisticVariable(
                name=name_tok.text, lo=lo_tok.value, hi=hi_tok.value, sets=sets
            )
        except InvalidConfigError as exc:  # a bound such as 1e999 reads as inf
            bound_tok = hi_tok if math.isfinite(lo_tok.value) else lo_tok
            raise DslValueError(str(exc), bound_tok.line, bound_tok.col) from None

    def _parse_set_decl(self, existing: dict) -> tuple[str, MembershipFunction]:
        name_tok = self._expect("ident", what="a set name")
        if name_tok.text in existing:
            raise DuplicateNameError(
                f"set {name_tok.text!r} already declared in this variable",
                name_tok.line,
                name_tok.col,
            )
        self._expect("punct", ":")
        kind_tok = self._peek()
        if not self._at("ident") or kind_tok.text.lower() not in _MF_ARITY:
            self._fail(
                "expected a membership kind (tri, trap, gauss, zmf, smf)", kind_tok
            )
        self._advance()
        kind = kind_tok.text.lower()
        self._expect("punct", "(")
        params = [self._expect("number", what="a membership parameter").value]
        while self._at("punct", ","):
            self._advance()
            params.append(self._expect("number", what="a membership parameter").value)
        self._expect("punct", ")")
        if len(params) != _MF_ARITY[kind]:
            raise ArityError(
                f"{kind} takes {_MF_ARITY[kind]} parameters, got {len(params)}",
                kind_tok.line,
                kind_tok.col,
            )
        try:
            mf = MembershipFunction(kind, tuple(params))
        except InvalidConfigError as exc:
            raise DslValueError(str(exc), kind_tok.line, kind_tok.col) from None
        return name_tok.text, mf

    def _parse_rule(self) -> None:
        self._expect("keyword", "if")
        antecedent = self._parse_or()
        self._expect("punct", ",")
        self._expect("keyword", "then")
        self._expect("punct", "(")
        var_tok = self._expect("ident", what="the output variable")
        self._expect("keyword", "is")
        set_tok = self._expect("ident", what="an output set")
        self._expect("punct", ")")
        weight = 1.0
        if self._at("keyword", "weight"):
            self._advance()
            w_tok = self._expect("number", what="a rule weight")
            if not 0.0 < w_tok.value <= 1.0:
                raise DslValueError(
                    f"rule weight must be in (0, 1], got {w_tok.text}",
                    w_tok.line,
                    w_tok.col,
                )
            weight = w_tok.value
        self.refs.append((var_tok, set_tok))
        self.rules.append(
            Rule(
                antecedent=antecedent,
                consequent_var=var_tok.text,
                consequent_set=set_tok.text,
                weight=weight,
            )
        )

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._at("keyword", "or"):
            self._advance()
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_term()
        while self._at("keyword", "and"):
            self._advance()
            left = And(left, self._parse_term())
        return left

    def _parse_term(self) -> Expr:
        self._expect("punct", "(")
        if self._at("ident") and self._at("keyword", "is", offset=1):
            var_tok = self._advance()
            self._expect("keyword", "is")
            negated = self._at("keyword", "not")
            if negated:
                self._advance()
            set_tok = self._expect("ident", what="a set name")
            self._expect("punct", ")")
            self.refs.append((var_tok, set_tok))
            self.reads.append((len(self.rules) + 1, var_tok))
            return Atom(variable=var_tok.text, fuzzy_set=set_tok.text, negated=negated)
        expr = self._parse_or()
        self._expect("punct", ")")
        return expr

    def _parse_option(self) -> None:
        self._expect("keyword", "set")
        name_tok = self._expect("ident", what="an option name")
        self._expect("punct", "=")
        value_tok = self._peek()
        if not (self._at("number") or self._at("ident")):
            self._fail("expected a number or identifier", value_tok)
        self._advance()
        name = name_tok.text
        if name in self.options:
            raise DuplicateNameError(
                f"option {name!r} already set", name_tok.line, name_tok.col
            )
        if name == "resolution":
            if value_tok.kind != "number" or not float(value_tok.value).is_integer():
                raise DslValueError(
                    f"resolution must be an integer, got {value_tok.text}",
                    value_tok.line,
                    value_tok.col,
                )
            if value_tok.value < 2:
                raise DslValueError(
                    f"resolution must be >= 2, got {value_tok.text}",
                    value_tok.line,
                    value_tok.col,
                )
            self.options[name] = value_tok.value
        elif name in _FIXED_OPTIONS:
            if value_tok.kind != "ident" or value_tok.text != _FIXED_OPTIONS[name]:
                raise DslValueError(
                    f"option {name!r} is fixed to {_FIXED_OPTIONS[name]!r}",
                    value_tok.line,
                    value_tok.col,
                )
            self.options[name] = value_tok.text
        else:
            raise UnknownReferenceError(
                f"unknown option {name!r}", name_tok.line, name_tok.col
            )

    def _validate_references(self) -> None:
        for var_tok, set_tok in self.refs:
            var = self.variables.get(var_tok.text)
            if var is None:
                raise UnknownReferenceError(
                    f"variable {var_tok.text!r} is not declared", var_tok.line, var_tok.col
                )
            if set_tok.text not in var.sets:
                raise UnknownReferenceError(
                    f"variable {var_tok.text!r} has no set {set_tok.text!r}",
                    set_tok.line,
                    set_tok.col,
                )
        outputs = {rule.consequent_var for rule in self.rules}
        if len(outputs) == 1:  # with more, to_fis reports the multiple variables
            for number, var_tok in self.reads:
                if var_tok.text in outputs:
                    raise DslValueError(
                        f"rule {number} reads the output variable {var_tok.text!r}",
                        var_tok.line,
                        var_tok.col,
                    )


def parse(text: str) -> QueryDocument:
    """Parse query text into a QueryDocument."""
    return _Parser(_tokenize(text)).parse_document()


def _format_number(value: float) -> str:
    number = float(value)
    if number.is_integer() and abs(number) < 1e16:
        return str(int(number))
    return repr(number)


def _expr_text(expr: Expr) -> str:
    if isinstance(expr, Atom):
        negation = "not " if expr.negated else ""
        return f"({expr.variable} is {negation}{expr.fuzzy_set})"
    if isinstance(expr, And):
        left = _expr_text(expr.left)
        if isinstance(expr.left, Or):
            left = f"({left})"
        right = _expr_text(expr.right)
        if isinstance(expr.right, (And, Or)):
            right = f"({right})"
        return f"{left} and {right}"
    if isinstance(expr, Or):
        left = _expr_text(expr.left)
        right = _expr_text(expr.right)
        if isinstance(expr.right, Or):
            right = f"({right})"
        return f"{left} or {right}"
    raise InvalidConfigError(f"unknown antecedent node {expr!r}")


def print_document(doc: QueryDocument) -> str:
    """Render a QueryDocument as canonical query text.

    parse(print_document(parse(text))) is structurally identical to
    parse(text); comments are not preserved.
    """
    blocks: list[str] = []
    for variable in doc.variables:
        lines = [
            f"var {variable.name} "
            f"[{_format_number(variable.lo)}, {_format_number(variable.hi)}] {{"
        ]
        for set_name, mf in variable.sets.items():
            params = ", ".join(_format_number(p) for p in mf.params)
            lines.append(f"    {set_name}: {mf.kind}({params})")
        lines.append("}")
        blocks.append("\n".join(lines))
    if doc.rules:
        lines = []
        for rule in doc.rules:
            text = (
                f"IF {_expr_text(rule.antecedent)}, "
                f"THEN ({rule.consequent_var} is {rule.consequent_set})"
            )
            if rule.weight != 1.0:
                text += f" weight {_format_number(rule.weight)}"
            lines.append(text)
        blocks.append("\n".join(lines))
    if doc.options:
        lines = []
        for name, value in doc.options.items():
            rendered = value if isinstance(value, str) else _format_number(value)
            lines.append(f"set {name} = {rendered}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def to_fis(doc: QueryDocument) -> FisConfig:
    """Assemble the inference system a document describes.

    The output variable is the one all rule consequents agree on; every other
    declared variable becomes an input.  The output grid has the document's
    ``set resolution`` points, FisConfig's by default.
    """
    if not doc.rules:
        raise DslValueError("document declares no rules", 1, 1)
    consequents = {rule.consequent_var for rule in doc.rules}
    if len(consequents) != 1:
        raise DslValueError(
            f"rules conclude on multiple variables: {sorted(consequents)}", 1, 1
        )
    output_name = next(iter(consequents))
    output = next((v for v in doc.variables if v.name == output_name), None)
    if output is None:
        raise UnknownReferenceError(f"variable {output_name!r} is not declared", 1, 1)
    inputs = tuple(v for v in doc.variables if v.name != output_name)
    resolution = int(doc.options.get("resolution", FisConfig.resolution))
    try:
        return FisConfig(inputs=inputs, output=output, rules=doc.rules, resolution=resolution)
    except InvalidConfigError as exc:
        raise DslValueError(str(exc), 1, 1) from None
