"""The tokenizer shared by the Datalog, GraphLog, p.r.e. and RPQ parsers:
one compiled pattern, one match per token."""

from __future__ import annotations

import re

from repro.errors import ParseError

# Multi-character punctuation must be listed before its prefixes.
PUNCTUATION = (
    ":-",
    "=>",
    "->",
    "==",
    "!=",
    "<=",
    ">=",
    "<",
    ">",
    "=",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ".",
    ";",
    ":",
    "+",
    "-",
    "*",
    "/",
    "%",
    "|",
    "?",
    "!",
    "~",
    "^",
    "_",
    "@",
)


class Token:
    """A lexical token with source position for error messages."""

    __slots__ = ("kind", "text", "value", "line", "column")

    def __init__(self, kind, text, value, line, column):
        self.kind = kind  # 'ident' | 'var' | 'number' | 'string' | 'punct' | 'eof'
        self.text = text
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


_WORD_TAIL = r"\w*(?:-[^\W_]\w*)*"  # a hyphen only before an alphanumeric
#: One alternative per token kind, tried in order after the blanks before a
#: token.  Punctuation comes first, less the characters that start
#: something else: ``%`` a comment, ``_`` a variable, ``/`` a ``/*``
#: comment.  ``word`` takes the identifiers that start with a non-ASCII
#: character, ``quote`` / ``open`` an unterminated string / comment, and
#: ``bad`` any other character.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<punct>" + "|".join(re.escape(p) for p in PUNCTUATION if p not in "%_/") + r")"
    r"|(?P<var>[A-Z_]" + _WORD_TAIL + r")"
    r"|(?P<ident>[a-z]" + _WORD_TAIL + r")"
    r"|(?P<nl>\n)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<string>'[^'\\]*(?:\\.[^'\\]*)*'|\"[^\"\\]*(?:\\.[^\"\\]*)*\")"
    r"|(?P<comment>[%#][^\n]*)"
    r"|(?P<block>/\*.*?\*/)|(?P<open>/\*)|(?P<slash>/)"
    r"|(?P<word>[^\W\d]" + _WORD_TAIL + r")"
    r"|(?P<quote>['\"])|(?P<bad>.)|(?P<end>\Z))",
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def tokenize(source):
    """Tokenize *source* into a list of :class:`Token` ending with EOF.

    - identifiers starting lowercase -> ``ident``
    - identifiers starting uppercase or underscore -> ``var``
    - numbers (runs of decimal digits, optionally ``.`` and more) -> ``number``
    - single- or double-quoted strings -> ``string``
    - ``%`` and ``#`` start line comments, ``/* ... */`` spans lines

    A token's column counts the characters since the last newline outside
    a string (a newline inside a string does not start a line), and the
    column at the end of a ``%`` comment is the comment's own.
    """
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        start = match.start(kind)
        column = start - line_start + 1
        if kind == "punct" or kind == "var" or kind == "ident":
            text = match[kind]
            append(Token(kind, text, text, line, column))
        elif kind == "slash":
            append(Token("punct", "/", "/", line, column))
        elif kind == "nl":
            line += 1
            line_start = start + 1
        elif kind == "number":
            text = match[kind]
            append(Token(kind, text, float(text) if "." in text else int(text), line, column))
        elif kind == "string":
            text = match[kind]
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
            append(Token(kind, text, value, line, column))
        elif kind == "comment":
            if match.end() == len(source):
                break
        elif kind == "block":
            text = match[kind]
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rfind("\n") + 1
        elif kind == "word":
            text = match[kind]
            if not text[0].isalpha():
                raise ParseError(f"unexpected character {text[0]!r}", line, column)
            append(Token("var" if text[0].isupper() else "ident", text, text, line, column))
        elif kind == "end":
            break
        else:
            message = {"quote": "unterminated string", "open": "unterminated comment"}
            raise ParseError(
                message.get(kind) or f"unexpected character {match[kind]!r}", line, column
            )
    append(Token("eof", "", None, line, column))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers.  The
    cursor never passes the closing EOF token, so the current token is
    always ``_tokens[_pos]``."""

    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead=0):
        tokens, index = self._tokens, self._pos + ahead
        return tokens[index] if index < len(tokens) else tokens[-1]

    def next(self):
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def at(self, kind, text=None):
        token = self._tokens[self._pos]
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def at_punct(self, *texts):
        token = self._tokens[self._pos]
        return token.kind == "punct" and token.text in texts

    def accept(self, kind, text=None):
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind, text=None):
        token = self._tokens[self._pos]
        if not self.at(kind, text):
            wanted = text if text is not None else kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text or token.kind!r}",
                token.line,
                token.column,
            )
        return self.next()

    @property
    def exhausted(self):
        return self.peek().kind == "eof"
