"""Tokenizer for the CleanM language (Listing 1 grammar)."""

from __future__ import annotations

from .._records import Record
from ..errors import ParseError

KEYWORDS = {
    "SELECT", "ALL", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "FD", "DEDUP", "CLUSTER", "AND", "OR", "NOT", "AS", "TRUE", "FALSE",
    "NULL", "ON",
}

SYMBOLS = [
    "<=", ">=", "!=", "<>", "==", "(", ")", ",", ".", "*", "=", "<", ">",
    "+", "-", "/", "%",
]


class Token(Record, frozen=True):
    kind: str  # KEYWORD | IDENT | NUMBER | STRING | SYMBOL | EOF
    value: str
    position: int
    line: int


def tokenize(text: str) -> list[Token]:
    """Split CleanM query text into tokens.

    Keywords are case-insensitive; identifiers keep their original case.
    String literals use single quotes with ``''`` as the escaped quote.
    """
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i : i + 2] == "--":
            # Line comment.
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            j = i + 1
            buf: list[str] = []
            while j < n:
                if text[j] == "'" and text[j : j + 2] == "''":
                    buf.append("'")
                    j += 2
                elif text[j] == "'":
                    break
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string literal", position=i, line=line)
            tokens.append(Token("STRING", "".join(buf), i, line))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit is a projection, not a decimal.
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token("NUMBER", text[i:j], i, line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, i, line))
            else:
                tokens.append(Token("IDENT", word, i, line))
            i = j
            continue
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token("SYMBOL", symbol, i, line))
                i += len(symbol)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", position=i, line=line)
    tokens.append(Token("EOF", "", n, line))
    return tokens
