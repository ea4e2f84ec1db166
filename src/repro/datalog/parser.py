"""Parser for a Prolog-ish Datalog surface syntax.

Grammar (informal)::

    program   := (clause | query | comment)*
    clause    := literal ( ":-" blit ("," blit)* )? "."
    query     := "?-" literal "." | literal "?"
    blit      := ( "not" | "\\+" )? literal
    literal   := NAME ( "(" term ("," term)* ")" )?
    term      := VARIABLE | NAME | NUMBER | STRING
               | NAME "(" term ("," term)* ")"
               | "[" "]" | "[" term ("," term)* ("|" term)? "]"

Conventions follow the paper (Section 1.1): identifiers beginning with an
uppercase letter or underscore are variables; lowercase identifiers and
numerals are constants or predicate/function names.  Each bare ``_`` is
a variable of its own, named ``_1``, ``_2``, ... apart from the names
its clause spells (``_X`` is an ordinary, shared variable).  ``%`` starts a
line comment.  Body literals may be negated (negation as failure,
stratified semantics): ``not p(X)`` or ``\\+ p(X)``; heads and queries
must stay positive.  Inside a STRING, ``\\\\`` is a backslash and
``\\"`` a quote; any other backslash pair stands for itself.

:func:`parse_program` returns ``(Program, facts, queries)`` so a single
source file can carry rules, ground facts (loaded into a database by the
caller) and queries.

One scan, two speeds
--------------------

Section 1.1 puts the facts in the database, and a source file is mostly
facts, so :func:`parse_program` walks the text clause by clause from an
offset and never tokenizes it as a whole.  At each clause start one
compiled pattern, :data:`_FACT_RE`, recognizes a *flat ground fact* --
``name(c1, ..., cn).`` with every ``ci`` a NAME, NUMBER or STRING --
and the fact becomes an interned ID row on the spot: spelling -> term ID
through a per-parse dict, one :class:`Constant` built per distinct
spelling, no token, ``Term`` tuple or :class:`Literal`.  Everything
else falls through to the recursive-descent :class:`_Parser`, which
lexes tokens on demand from that offset: rules, queries, unit rules
with variables, ``Struct``/list arguments, zero-arity facts, and a fact
with a comment inside it.  The pattern is built from the same NAME /
NUMBER / STRING pieces as the token pattern and only recognizes a shape
the text itself shows, so the grammar keeps one definition; it never
raises, so every diagnostic is the general path's
(``tests/test_parser.py`` checks pattern == grammar on random sources).

Positions are lazy: a token carries its offset, and line and column are
computed from it only when a :class:`ParseError` is raised.  Errors
surface in source order -- a clause is lexed when it is parsed, so a
bad character later in the file no longer preempts a syntax error
before it.

Interning happens at parse time: ``ParsedSource.fact_rows`` holds
``(pred_key, id_row)`` pairs ready for ``Database.add_fact_rows``, so a
:func:`parse_program` whose result is never loaded still grows the
append-only process-wide ``TermCatalog`` by the source's distinct
constants.  Every caller in ``src/`` loads what it parses; the
alternative (rows of shared canonical constants, interned at load)
measured 0.32-0.42 s against 0.27-0.28 s from text to loaded database
on a 65k-fact source, and hashes every constant of every row again.
:func:`parse_literal`, :func:`parse_query`, :func:`parse_rule` and
:func:`parse_term` -- the per-request parsers -- intern nothing, so a
read or a retract that names an unknown constant still cannot grow the
catalog.
"""

from __future__ import annotations

import re
from itertools import count
from typing import List, Optional, Tuple

from .ast import Literal, Program, Query, Rule
from .catalog import term_catalog
from .database import FactRow
from .errors import ParseError
from .terms import Constant, EMPTY_LIST, Struct, Term, Variable, make_list

__all__ = [
    "parse_program",
    "parse_rule",
    "parse_literal",
    "parse_term",
    "parse_query",
    "ParsedSource",
]

_CATALOG = term_catalog()

# The three constant spellings, written once: the token pattern and the
# fact pattern are built from the same pieces, so they cannot drift.
_NAME = r"[a-z][A-Za-z0-9_]*"
_NUMBER = r"-?\d+"
# "(?:[^"\\]|\\.)*" unrolled: the same language, but a long string is
# one run per backslash instead of one alternation per character
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_CONSTANT = f"(?:{_NAME}|{_NUMBER}|{_STRING})"

_TOKEN_RE = re.compile(
    rf"""
    (?P<implies>:-)
  | (?P<qmark>\?-)
  | (?P<naf>\\\+)
  | (?P<punct>[()\[\],.|?])
  | (?P<number>{_NUMBER})
  | (?P<string>{_STRING})
  | (?P<name>{_NAME})
  | (?P<variable>[A-Z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

#: Whitespace and ``%`` comments.  Always matches (possibly nothing) and
#: nothing follows it in the pattern, so it never backtracks.
_SKIP_RE = re.compile(r"(?:\s+|%[^\n]*)*")

#: A flat ground fact at a clause start, with the whitespace after it:
#: group 1 the predicate name, group 2 the argument list.  Every
#: repetition is followed by a character it cannot itself match, so a
#: near miss is rejected in time linear in its length.
_FACT_RE = re.compile(
    rf"({_NAME})\s*\(\s*({_CONSTANT}(?:\s*,\s*{_CONSTANT})*)\s*\)\s*\.\s*"
)

#: The constant spellings of an argument list :data:`_FACT_RE` accepted.
_ARGUMENT_RE = re.compile(rf'{_STRING}|[^\s,"]+')

_ESCAPE_RE = re.compile(r'\\([\\"])')


def _unquote(text: str) -> str:
    """The value of a STRING token: quotes dropped, ``\\\\`` and ``\\"``
    decoded, any other backslash pair left as written."""
    return _ESCAPE_RE.sub(r"\1", text[1:-1])


def _constant(text: str) -> Constant:
    """The constant a NAME, NUMBER or STRING token spells."""
    first = text[0]
    if first == '"':
        return Constant(_unquote(text))
    if "a" <= first <= "z":
        return Constant(text)
    return Constant(int(text))


def _position(source: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of ``offset``; paid only by an error."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r})"


class _Parser:
    """Recursive descent over tokens lexed on demand from ``offset``."""

    def __init__(self, source: str):
        self.source = source
        #: where the next token is lexed from
        self.offset = 0
        #: tokens lexed but not consumed (the grammar looks two ahead)
        self.ahead: List[_Token] = []
        #: the number of bare ``_`` in the clause at hand (see :meth:`named`)
        self.anonymous = 0

    # ------------------------------------------------------------------
    def error(self, message: str, offset: int) -> ParseError:
        line, column = _position(self.source, offset)
        return ParseError(message, line=line, column=column)

    def tell(self) -> int:
        """The offset of the first unconsumed token (or of the end)."""
        return self.ahead[0].offset if self.ahead else self.offset

    def seek(self, offset: int) -> None:
        self.offset = offset
        del self.ahead[:]

    def peek(self, skip: int = 0) -> Optional[_Token]:
        """The token ``skip`` past the next one; None at end of input."""
        ahead = self.ahead
        source = self.source
        while len(ahead) <= skip:
            start = self.offset = _SKIP_RE.match(source, self.offset).end()
            if start == len(source):
                return None
            match = _TOKEN_RE.match(source, start)
            if match is None:
                raise self.error(
                    f"unexpected character {source[start]!r}", start
                )
            self.offset = match.end()
            ahead.append(_Token(match.lastgroup, match.group(), start))
        return ahead[skip]

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of input", len(self.source))
        del self.ahead[0]
        return token

    def expect(self, text: str) -> _Token:
        token = self.next()
        if token.text != text:
            raise self.error(
                f"expected {text!r}, found {token.text!r}", token.offset
            )
        return token

    def at(self, text: str) -> bool:
        token = self.peek()
        return token is not None and token.text == text

    def expect_end(self, what: str) -> None:
        token = self.peek()
        if token is not None:
            raise self.error(
                f"trailing input after {what}: {token.text!r}", token.offset
            )

    # ------------------------------------------------------------------
    def parse_term(self) -> Term:
        token = self.next()
        if token.kind == "variable":
            if token.text == "_":
                # a placeholder no clause can spell, until named()
                self.anonymous += 1
                return Variable(f"_#{self.anonymous}")
            return Variable(token.text)
        if token.kind in ("number", "string"):
            return _constant(token.text)
        if token.kind == "name":
            if self.at("("):
                self.next()
                args = [self.parse_term()]
                while self.at(","):
                    self.next()
                    args.append(self.parse_term())
                self.expect(")")
                return Struct(token.text, tuple(args))
            return _constant(token.text)
        if token.text == "[":
            return self._parse_list()
        raise self.error(
            f"unexpected token {token.text!r} while parsing a term",
            token.offset,
        )

    def _parse_list(self) -> Term:
        if self.at("]"):
            self.next()
            return EMPTY_LIST
        items = [self.parse_term()]
        while self.at(","):
            self.next()
            items.append(self.parse_term())
        tail: Term = EMPTY_LIST
        if self.at("|"):
            self.next()
            tail = self.parse_term()
        self.expect("]")
        return make_list(items, tail)

    def parse_literal(self) -> Literal:
        token = self.next()
        if token.kind != "name":
            raise self.error(
                f"expected a predicate name, found {token.text!r}",
                token.offset,
            )
        args: List[Term] = []
        if self.at("("):
            self.next()
            args.append(self.parse_term())
            while self.at(","):
                self.next()
                args.append(self.parse_term())
            self.expect(")")
        return Literal(token.text, tuple(args))

    def parse_body_literal(self) -> Literal:
        """A body literal, optionally negated (``not p(X)`` / ``\\+ p(X)``).

        ``not`` is an ordinary lowercase name, so it only reads as the
        negation keyword when another predicate name follows it --
        ``not(X)`` stays a literal of the predicate ``not``.
        """
        token = self.peek()
        if token is not None and token.kind == "naf":
            self.next()
            return self.parse_literal().negate()
        if token is not None and token.kind == "name" and token.text == "not":
            after = self.peek(1)
            if after is not None and after.kind == "name":
                self.next()
                return self.parse_literal().negate()
        return self.parse_literal()

    def named(self, parsed):
        """``parsed`` (a term, literal or rule) with each bare ``_`` a
        variable of its own: ``_1``, ``_2``, ... in source order,
        skipping every name the clause spells."""
        if not self.anonymous:
            return parsed
        spelled = {var.name for var in parsed.variables()}
        fresh = (f"_{k}" for k in count(1) if f"_{k}" not in spelled)
        names = {
            Variable(f"_#{i}"): Variable(next(fresh))
            for i in range(1, self.anonymous + 1)
        }
        self.anonymous = 0
        return parsed.substitute(names)

    def parse_clause(self):
        """Parse one clause; returns ('query', Query) / ('rule', Rule)."""
        if self.at("?-"):
            self.next()
            literal = self.named(self.parse_literal())
            self.expect(".")
            return ("query", Query(literal))
        head = self.parse_literal()
        if self.at("?"):
            self.next()
            if self.at("."):
                self.next()
            return ("query", Query(self.named(head)))
        body: List[Literal] = []
        if self.at(":-"):
            self.next()
            body.append(self.parse_body_literal())
            while self.at(","):
                self.next()
                body.append(self.parse_body_literal())
        self.expect(".")
        return ("rule", self.named(Rule(head, tuple(body))))


class ParsedSource:
    """Result of :func:`parse_program`: rules, ground facts, queries.

    The facts are held as ``fact_rows``: interned ``(pred_key, id_row)``
    pairs in source order, the form :meth:`Database.add_fact_rows
    <repro.datalog.database.Database.add_fact_rows>` loads.  ``facts``
    decodes them to the equal :class:`Literal` tuple on first access;
    unpacking (``program, facts, queries = parse_program(...)``) does
    the same.
    """

    __slots__ = ("program", "fact_rows", "queries", "_facts")

    def __init__(
        self,
        program: Program,
        fact_rows: List[FactRow],
        queries: Tuple[Query, ...],
    ):
        self.program = program
        self.fact_rows = fact_rows
        self.queries = queries
        self._facts: Optional[Tuple[Literal, ...]] = None

    @property
    def facts(self) -> Tuple[Literal, ...]:
        facts = self._facts
        if facts is None:
            resolve_row = _CATALOG.resolve_row
            facts = self._facts = tuple(
                Literal(pred_key, resolve_row(id_row))
                for pred_key, id_row in self.fact_rows
            )
        return facts

    def __iter__(self):
        return iter((self.program, self.facts, self.queries))


class _SpellingIds(dict):
    """Constant spelling -> term ID, for one parse.

    A miss builds the constant and interns it, so a parse constructs one
    :class:`Constant` per distinct spelling and a repeated spelling is a
    plain dict hit.
    """

    __slots__ = ()

    def __missing__(self, text: str) -> int:
        term_id = self[text] = _CATALOG.intern(_constant(text))
        return term_id


def parse_program(source: str) -> ParsedSource:
    """Parse a full source text into rules, facts, and queries.

    Clauses with an empty body whose head is ground are treated as facts
    (Section 1.1: facts are part of the database) and interned; non-ground
    empty-body clauses are kept as unit rules of the program (the paper's
    list-reverse example relies on this).
    """
    rules: List[Rule] = []
    fact_rows: List[FactRow] = []
    queries: List[Query] = []
    add_fact_row = fact_rows.append
    match_fact = _FACT_RE.match
    spellings = _ARGUMENT_RE.findall
    term_id = _SpellingIds().__getitem__
    #: one str object per predicate name, not one per fact
    shared_name = {}.setdefault
    parser = _Parser(source)
    offset = 0
    while True:
        fact = match_fact(source, offset)
        if fact is None:
            offset = _SKIP_RE.match(source, offset).end()
            fact = match_fact(source, offset)
        if fact is not None:
            name, arguments = fact.groups()
            row = tuple(map(term_id, spellings(arguments)))
            add_fact_row((shared_name(name, name), row))
            offset = fact.end()
            continue
        if offset == len(source):
            break
        parser.seek(offset)
        kind, payload = parser.parse_clause()
        offset = parser.tell()
        if kind == "query":
            queries.append(payload)
        elif payload.is_fact() and payload.head.is_ground():
            head = payload.head
            add_fact_row((head.pred_key, _CATALOG.intern_row(head.args)))
        else:
            rules.append(payload)
    return ParsedSource(Program(tuple(rules)), fact_rows, tuple(queries))


def parse_rule(source: str) -> Rule:
    """Parse a single rule, e.g. ``"anc(X,Y) :- par(X,Y)."``."""
    parser = _Parser(source)
    kind, payload = parser.parse_clause()
    if kind != "rule":
        raise ParseError("expected a rule, found a query")
    parser.expect_end("rule")
    return payload


def parse_literal(source: str) -> Literal:
    """Parse a single literal, e.g. ``"anc(john, Y)"``."""
    parser = _Parser(source)
    literal = parser.named(parser.parse_literal())
    parser.expect_end("literal")
    return literal


def parse_term(source: str) -> Term:
    """Parse a single term, e.g. ``"[a, b | T]"``."""
    parser = _Parser(source)
    term = parser.named(parser.parse_term())
    parser.expect_end("term")
    return term


def parse_query(source: str) -> Query:
    """Parse a query, e.g. ``"anc(john, Y)?"`` or ``"?- anc(john, Y)."``."""
    parser = _Parser(source)
    kind, payload = parser.parse_clause()
    if kind != "query":
        raise ParseError("expected a query")
    return payload
