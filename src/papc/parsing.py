"""Concrete syntax: a hand-rolled lexer and an operator-precedence parser,
one loop over an explicit stack, so any nesting parses without recursion.

Grammar, loosest to tightest (both binary operators associate right):

    par     := sum ('|' sum)*
    sum     := prefix ('+' prefix)*
    prefix  := '0'
             | action '.' prefix | action ':' prefix
             | '[' action '#' INT ']' '.' prefix    -- INT from 1 to MAX_IDENT
             | '[' action '#' INT ']' ':' prefix
             | NAME                      -- constant
             | '(' par ')'
    action  := '~'? NAME                 -- NAME may not be 'tau'

``#`` starts a line comment everywhere except between the brackets of a
frozen prefix, where it separates the action from its identifier.
Definitions files are sequences of ``Name := par ;`` with ``tau`` reserved.

Tokens are plain tuples ``(kind, text, line, column)``.  The lexer tests a
character against the common cases first (space, then punctuation, then
names and digits) and takes a column from the character's index in the
text, so a character costs one branch and a token one tuple.  The token
list ends in two ``eof`` tokens, so the parser's one token of lookahead
past the current one reads ``tokens[pos + 1]`` with no bounds check, and the
parse loop indexes the list itself: a token costs about one list read.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import DuplicateDefinition, IllFormedPlacement, ParseError, TauInPrefix
from .syntax import (
    MAX_IDENT,
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
)

__all__ = ["parse_process", "parse_definitions", "parse_model"]

_RESERVED = "tau"

# the constructors of the idle and the running prefix for each separator
_PREFIX_NODES = {".": (PrefixConsume.make, FrozenConsume.make),
                 ":": (PrefixConserve.make, FrozenConserve.make)}
# the binding and the node constructor of each binary operator
_OPERATORS = {"|": (1, Par.make), "+": (2, Sum.make)}
_NO_OPERATOR = (0, None)


# The kind of a punctuation token is its own text; the other kinds are
# "name", "int", ":=" and "eof".
_Token = tuple[str, str, int, int]
_PUNCTUATION = frozenset(".:+|()[]#~;")


def _lex(text: str) -> list[_Token]:
    """The tokens of ``text``, then two ``eof`` tokens."""
    tokens: list[_Token] = []
    append = tokens.append
    line, base = 1, -1  # a character's column is its index minus base
    i, n = 0, len(text)
    in_brackets = False
    while i < n:
        ch = text[i]
        if ch == " ":
            i += 1
        elif ch in _PUNCTUATION:
            if ch == "#" and not in_brackets:  # a comment, up to the end of the line
                end = text.find("\n", i)
                if end < 0:  # the end of input is reported at the '#'
                    break
                i = end
            elif ch == ":" and text.startswith("=", i + 1):
                append((":=", ":=", line, i - base))
                i += 2
            else:
                if ch == "[":
                    in_brackets = True
                elif ch == "]":
                    in_brackets = False
                append((ch, ch, line, i - base))
                i += 1
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            append(("name", text[i:j], line, i - base))
            i = j
        elif "0" <= ch <= "9":  # ASCII only: int() rejects some str.isdigit() digits
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            append(("int", text[i:j], line, i - base))
            i = j
        elif ch == "\n":
            line, base = line + 1, i
            i += 1
        elif ch == "\t" or ch == "\r":
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, i - base)
    tokens += [("eof", "", line, i - base)] * 2
    return tokens


def _expect(tokens: list[_Token], pos: int, kind: str) -> _Token:
    tok = tokens[pos]
    if tok[0] != kind:
        raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
    return tok


def _not_a_process(tok: _Token) -> ParseError:
    kind, text, line, column = tok
    if kind == "int":
        message = f"a bare number other than 0 is not a process: {text!r}"
    elif kind == "[":
        message = "context hole '[]' is not allowed here"
    elif kind == "name":
        message = "tau is not a process"
    else:
        message = f"expected a process, found {text or 'end of input'!r}"
    return ParseError(message, line, column)


def _parse_par(tokens: list[_Token], pos: int) -> tuple[Term, int]:
    """The process that starts at ``tokens[pos]``, and the position after it.

    One loop over an explicit operator stack, so that neither nesting nor
    width costs Python frames.  Each entry waits for the operand to its
    right: a '(' (binding 0), a '|' (1) or a '+' (2) over its left operand,
    or a prefix (3) with its separator token.  An operator applies the
    entries that bind tighter than it, so both binary operators nest to the
    right; a ')' or any other token applies all of them down to the nearest
    '('.  The token after the current one decides between a constant and an
    action, and between a running prefix and a context hole ``[]``, which no
    process holds."""
    stack: list[tuple[int, Optional[Callable[..., Term]], tuple, _Token]] = []
    while True:
        tok = tokens[pos]
        kind = tok[0]
        if kind == "(":
            stack.append((0, None, (), tok))
            pos += 1
            continue
        after = tokens[pos + 1][0]
        running = kind == "[" and after != "]"
        if running or kind == "~" or kind == "name" and after in _PREFIX_NODES:
            # an action, or the [action#ident] of a running prefix, then the separator
            if running:
                pos += 1
                tok = tokens[pos]
            complemented = tok[0] == "~"
            if complemented:
                pos += 1
                tok = tokens[pos]
            _expect(tokens, pos, "name")
            if tok[1] == _RESERVED:
                raise TauInPrefix("tau cannot be used as a prefix action", tok[2], tok[3])
            fields: tuple = (Action.make(tok[1], complemented),)
            pos += 1
            if running:
                _expect(tokens, pos, "#")
                num = _expect(tokens, pos + 1, "int")
                digits = num[1].lstrip("0")  # compared by length first: no huge int is made
                if not digits:
                    raise ParseError("running-action identifiers start at 1", num[2], num[3])
                if len(digits) > len(str(MAX_IDENT)) or int(digits) > MAX_IDENT:
                    raise ParseError(f"running-action identifiers stop at {MAX_IDENT}",
                                     num[2], num[3])
                ident = int(digits)
                _expect(tokens, pos + 2, "]")
                fields += (ident,)
                pos += 3
            tok = tokens[pos]
            nodes = _PREFIX_NODES.get(tok[0])
            if nodes is None:
                what = "a running prefix" if running else "an action"
                raise ParseError(f"{what} must be followed by '.' or ':'", tok[2], tok[3])
            stack.append((3, nodes[running], fields, tok))
            pos += 1
            continue
        if kind == "name" and tok[1] != _RESERVED:
            term = Const.make(tok[1])
        elif kind == "int" and tok[1] == "0":
            term = NIL
        else:
            raise _not_a_process(tok)
        pos += 1
        while True:
            tok = tokens[pos]
            binding, node = _OPERATORS.get(tok[0], _NO_OPERATOR)
            while stack and stack[-1][0] > binding:
                _, apply, fields, at = stack.pop()
                try:
                    term = apply(*fields, term)
                except IllFormedPlacement as exc:
                    raise ParseError(str(exc), at[2], at[3]) from None
            if node is not None:
                stack.append((binding, node, (term,), tok))
                pos += 1
                break
            if not stack:
                return term, pos
            _expect(tokens, pos, ")")
            stack.pop()
            pos += 1


def _parse_bindings(text: str) -> list[tuple[_Token, Term]]:
    tokens = _lex(text)
    pos = 0
    out: list[tuple[_Token, Term]] = []
    while tokens[pos][0] != "eof":
        name = _expect(tokens, pos, "name")
        if name[1] == _RESERVED:
            raise ParseError("'tau' is reserved and cannot be defined", name[2], name[3])
        _expect(tokens, pos + 1, ":=")
        body, pos = _parse_par(tokens, pos + 2)
        _expect(tokens, pos, ";")
        pos += 1
        out.append((name, body))
    return out


def parse_process(text: str) -> Term:
    """Parse a configuration (plain processes included) from its text form."""
    tokens = _lex(text)
    term, pos = _parse_par(tokens, 0)
    _expect(tokens, pos, "eof")
    return term


def _parse_equations(text: str, root_name: Optional[str]) -> tuple[Definitions, Optional[Term]]:
    """The binding loop shared by ``parse_definitions`` and ``parse_model``:
    the equation named ``root_name`` becomes the root, every other body must
    be a plain process, and no name may be bound twice."""
    bindings: dict[str, Term] = {}
    root: Optional[Term] = None
    for (_, name, line, column), body in _parse_bindings(text):
        if name == root_name:
            if root is not None:
                raise DuplicateDefinition(f"the model declares {root_name!r} twice")
            root = body
            continue
        if name in bindings:
            raise DuplicateDefinition(f"constant {name!r} is defined twice")
        if body.mask:  # running prefixes make it no plain process
            raise ParseError(f"definition body of {name!r} must be a plain process", line, column)
        bindings[name] = body
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
