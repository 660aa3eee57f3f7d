"""Concrete syntax: a hand-rolled lexer and recursive-descent parser.

Grammar, loosest to tightest (both binary operators associate right):

    par     := sum ('|' par)?
    sum     := prefix ('+' sum)?
    prefix  := '0'
             | action '.' prefix | action ':' prefix
             | '[' action '#' INT ']' '.' prefix
             | '[' action '#' INT ']' ':' prefix
             | NAME                      -- constant
             | '[]'                      -- context hole
             | '(' par ')'
    action  := '~'? NAME                 -- NAME may not be 'tau'

``#`` starts a line comment everywhere except between the brackets of a
frozen prefix, where it separates the action from its identifier.
Definitions files are sequences of ``Name := par ;`` with ``tau`` reserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DuplicateDefinition, IllFormedPlacement, ParseError, TauInPrefix
from .syntax import (
    HOLE,
    NIL,
    Action,
    Const,
    Definitions,
    FrozenConserve,
    FrozenConsume,
    Par,
    PrefixConserve,
    PrefixConsume,
    Sum,
    Term,
    check_context,
    is_process,
)

__all__ = ["parse_process", "parse_context", "parse_definitions", "parse_model"]

_RESERVED = "tau"

# the idle and the running prefix node for each separator
_PREFIX_NODES = {".": (PrefixConsume, FrozenConsume), ":": (PrefixConserve, FrozenConserve)}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    in_brackets = False
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#" and not in_brackets:
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == ":" and i + 1 < n and text[i + 1] == "=":
            tokens.append(_Token(":=", ":=", line, start_col))
            i += 2
            col += 2
            continue
        if ch in ".:+|()[]#~;":
            if ch == "[":
                in_brackets = True
            elif ch == "]":
                in_brackets = False
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_hole: bool = False):
        self.tokens = _lex(text)
        self.pos = 0
        self.allow_hole = allow_hole

    # -- token plumbing

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return self.next()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # -- grammar

    def parse_par(self) -> Term:
        left = self.parse_sum()
        if self.peek().kind == "|":
            self.next()
            return Par(left, self.parse_par())
        return left

    def parse_sum(self) -> Term:
        left = self.parse_prefix()
        if self.peek().kind == "+":
            self.next()
            return Sum(left, self.parse_sum())
        return left

    def parse_action(self) -> Action:
        complemented = False
        if self.peek().kind == "~":
            self.next()
            complemented = True
        tok = self.expect("name")
        if tok.text == _RESERVED:
            raise TauInPrefix("tau cannot be used as a prefix action",
                              tok.line, tok.column)
        return Action(tok.text, complemented)

    def parse_prefix(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            if tok.text != "0":
                raise self.fail(f"a bare number other than 0 is not a process: {tok.text!r}")
            self.next()
            return NIL
        if tok.kind == "(":
            self.next()
            inner = self.parse_par()
            self.expect(")")
            return inner
        if tok.kind == "[":
            if self.peek(1).kind == "]":
                if not self.allow_hole:
                    raise self.fail("context hole '[]' is not allowed here")
                self.next()
                self.next()
                return HOLE
            return self.parse_frozen()
        if tok.kind == "~" or tok.kind == "name" and self.peek(1).kind in _PREFIX_NODES:
            return self.finish_prefix(self.parse_action())
        if tok.kind == "name":
            self.next()
            if tok.text == _RESERVED:
                raise ParseError("tau is not a process", tok.line, tok.column)
            return Const(tok.text)
        raise self.fail(f"expected a process, found {tok.text or 'end of input'!r}")

    def finish_prefix(self, action: Action, *ident: int) -> Term:
        """The separator and continuation after an action, or after the
        ``[action#ident]`` of a running prefix when ``ident`` is given."""
        tok = self.peek()
        if tok.kind not in _PREFIX_NODES:
            what = "a running prefix" if ident else "an action"
            raise self.fail(f"{what} must be followed by '.' or ':'")
        self.next()
        cont = self.parse_prefix()
        try:
            return _PREFIX_NODES[tok.kind][bool(ident)](action, *ident, cont)
        except IllFormedPlacement as exc:
            raise ParseError(str(exc), tok.line, tok.column) from None

    def parse_frozen(self) -> Term:
        self.expect("[")
        action = self.parse_action()
        self.expect("#")
        num = self.expect("int")
        ident = int(num.text)
        if ident < 1:
            raise ParseError("running-action identifiers start at 1", num.line, num.column)
        self.expect("]")
        return self.finish_prefix(action, ident)

    def parse_bindings(self) -> list[tuple[_Token, Term]]:
        out: list[tuple[_Token, Term]] = []
        while self.peek().kind != "eof":
            name = self.expect("name")
            if name.text == _RESERVED:
                raise ParseError("'tau' is reserved and cannot be defined",
                                 name.line, name.column)
            self.expect(":=")
            body = self.parse_par()
            self.expect(";")
            out.append((name, body))
        return out


def parse_process(text: str) -> Term:
    """Parse a configuration (plain processes included) from its text form."""
    parser = _Parser(text)
    term = parser.parse_par()
    parser.expect("eof")
    return term


def parse_context(text: str) -> Term:
    """Parse a process-shaped term containing exactly one hole ``[]``."""
    parser = _Parser(text, allow_hole=True)
    term = parser.parse_par()
    parser.expect("eof")
    check_context(term)
    return term


def _parse_equations(text: str, root_name: Optional[str]) -> tuple[Definitions, Optional[Term]]:
    """The binding loop shared by ``parse_definitions`` and ``parse_model``:
    the equation named ``root_name`` becomes the root, every other body must
    be a plain process, and no name may be bound twice."""
    bindings: dict[str, Term] = {}
    root: Optional[Term] = None
    for name, body in _Parser(text).parse_bindings():
        if name.text == root_name:
            if root is not None:
                raise DuplicateDefinition(f"the model declares {root_name!r} twice")
            root = body
            continue
        if name.text in bindings:
            raise DuplicateDefinition(f"constant {name.text!r} is defined twice")
        if not is_process(body):
            raise ParseError(
                f"definition body of {name.text!r} must be a plain process",
                name.line, name.column,
            )
        bindings[name.text] = body
    return Definitions(bindings), root


def parse_definitions(text: str) -> Definitions:
    """Parse ``Name := process ;`` lines into a definitions set.

    Bodies must be plain processes; rebinding a name raises
    DuplicateDefinition.
    """
    return _parse_equations(text, None)[0]


def parse_model(text: str) -> tuple[Definitions, Optional[Term]]:
    """Parse a model file: defining equations plus an optional ``system`` root.

    The ``system`` entry names the initial configuration and may contain
    running prefixes; every other body must be a plain process.
    """
    return _parse_equations(text, "system")
