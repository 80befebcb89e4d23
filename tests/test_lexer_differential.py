"""The one-pattern tokenizer against the character loop it replaced.

``reference_tokenize`` below is that loop, kept here and nowhere in
``src`` as the oracle: on every input the two must produce the same
tokens (kind, text, value, line and column) or the same ``ParseError``
message.  The one intended difference is a number's digits: the loop
started a number at any ``str.isdigit`` character, so a superscript
(``²``) raised ``ValueError`` from ``int``; a number is now a run of
decimal digits (``\\d``), and such a character is an unexpected one.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datalog.lexer import PUNCTUATION, tokenize
from repro.errors import ParseError
from repro.service import protocol
from repro.service.server import ServiceServer


class _Tok:
    __slots__ = ("kind", "text", "value", "line", "column")

    def __init__(self, kind, text, value, line, column):
        self.kind, self.text, self.value, self.line, self.column = kind, text, value, line, column


def reference_tokenize(source):
    """The character loop the tokenizer used to be, unchanged but for
    ``keep_underscore_var`` (always true), which no caller ever cleared."""
    tokens = []
    line = 1
    column = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch in "%#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated comment", line, column)
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            i = end + 2
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            buf = []
            while j < n and source[j] != quote:
                if source[j] == "\\" and j + 1 < n:
                    buf.append(source[j + 1])
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, column)
            text = source[i : j + 1]
            tokens.append(_Tok("string", text, "".join(buf), line, column))
            column += len(text)
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            is_float = False
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            text = source[i:j]
            value = float(text) if is_float else int(text)
            tokens.append(_Tok("number", text, value, line, column))
            column += len(text)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_-"):
                if source[j] == "-":
                    if not (j + 1 < n and source[j + 1].isalnum()):
                        break
                j += 1
            text = source[i:j]
            if text == "_" or text[0].isupper() or text[0] == "_":
                kind = "var"
            else:
                kind = "ident"
            tokens.append(_Tok(kind, text, text, line, column))
            column += len(text)
            i = j
            continue
        for punct in PUNCTUATION:
            if source.startswith(punct, i):
                tokens.append(_Tok("punct", punct, punct, line, column))
                column += len(punct)
                i += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Tok("eof", "", None, line, column))
    return tokens


def _outcome(tokenizer, source):
    try:
        tokens = tokenizer(source)
    except ParseError as exc:
        return ("error", str(exc))
    return [(t.kind, t.text, type(t.value).__name__, t.value, t.line, t.column) for t in tokens]


#: Not decimal, yet ``str.isdigit``: the loop read these as numbers.
_NON_DECIMAL_DIGITS = "²³¹⁴₀①"

_PIECES = st.sampled_from(
    [
        *PUNCTUATION,
        " ", "  ", "\t", "\r", "\n", "\n\n",
        "p", "q1", "Xy", "_", "_v", "not-desc-of", "a-", "a-_b", "a--b", "b-1",
        "0", "12", "3.5", "7.", ".5", "1.2.3", "٣", "1٣", "٣.٣",
        "'s'", '"d"', "'it\\'s'", '"a\\"b"', "'x\\\\'", "'\\", "'multi\nline'",
        '"unterminated', "'", '"', "\\",
        "% note", "%", "# note\n", "#", "/* c */", "/* two\nlines */", "/*", "/* open", "*/",
        "zoë", "Émile", "北京", "ǅx", "ⅫX", "½", "b²", "x٣", "é",
        "$", "\f", " ", " ", "`",
        *_NON_DECIMAL_DIGITS,
    ]
)
_SOURCES = st.lists(_PIECES, max_size=24).map("".join) | st.text(max_size=40)


def _has_non_decimal_digit(source):
    return any(ch.isdigit() and not ch.isdecimal() for ch in source)


class TestAgainstTheCharacterLoop:
    @given(_SOURCES)
    @settings(max_examples=1000, deadline=None)
    @example("p(X) :- q(X, 'a b'), not r(X). % trailing")
    @example("  % only a comment")
    @example("a. /* x\ny */ b 'c\nd' e")
    @example("p(²).")
    def test_same_tokens_positions_and_errors(self, source):
        try:
            expected = _outcome(reference_tokenize, source)
        except ValueError:
            assert _has_non_decimal_digit(source)
            with pytest.raises(ParseError, match="unexpected character"):
                tokenize(source)
            return
        assert _outcome(tokenize, source) == expected

    @pytest.mark.parametrize("punct", PUNCTUATION)
    def test_every_punctuation_entry(self, punct):
        source = f"a{punct}b {punct}"
        assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)

    def test_eof_column_after_a_trailing_comment_is_the_comments(self):
        tokens = tokenize("p.  % a comment to the end")
        assert (tokens[-1].line, tokens[-1].column) == (1, 5)
        assert tokenize("p.  % c\n")[-1].column == 1


class TestDecimalDigits:
    def test_a_superscript_is_a_parse_error_not_a_value_error(self):
        with pytest.raises(ParseError, match=r"unexpected character '²' at line 1, column 3"):
            tokenize("p(²).")

    def test_a_superscript_inside_an_identifier_stays_in_it(self):
        tokens = tokenize("p(b²).")
        assert [(t.kind, t.value) for t in tokens[2:3]] == [("ident", "b²")]

    def test_other_decimal_digits_are_numbers(self):
        assert [t.value for t in tokenize("٣ 1.٥")[:2]] == [3, 1.5]

    def test_over_the_wire_it_answers_a_parse_error(self):
        server = ServiceServer()
        line = protocol.encode({"id": 1, "op": "datalog", "query": "p(²)."})
        response, _encoded = asyncio.run(server._handle_request(line))
        assert response["error"]["kind"] == "ParseError", response
        assert response["error"]["message"] == "unexpected character '²' at line 1, column 3"
        assert server.service.metrics.snapshot()["counters"].get("errors.internal", 0) == 0
