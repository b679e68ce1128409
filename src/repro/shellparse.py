"""A small POSIX-ish shell lexer.

Build processes arrive as shell command lines (Dockerfile ``RUN``
instructions, build scripts).  This module splits scripts into logical
statements and tokenizes single statements with quoting, ``$VAR``/
``${NAME}`` expansion, comments, and the ``&&``/``||``/``;`` operators.

Lexing and expansion are separate phases: the lexer produces
:class:`WordToken` objects made of :class:`Part` fragments; expansion
happens per-command at execution time (so ``X=1; echo $X`` sees the
assignment).  Globs (unquoted ``*``/``?``) are flagged at expansion time
and resolved by the shell executor against the virtual filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

OP_AND = "&&"
OP_OR = "||"
OP_SEQ = ";"


class ShellSyntaxError(Exception):
    pass


@dataclass(frozen=True)
class Part:
    """A fragment of a word: raw (expand+glob), dquote (expand), literal."""

    text: str
    expand: bool = True
    glob_ok: bool = True


@dataclass(frozen=True)
class WordToken:
    """One word or operator token."""

    parts: Tuple[Part, ...] = ()
    is_operator: bool = False

    @property
    def raw(self) -> str:
        return "".join(p.text for p in self.parts)

    def expanded(self, env: Dict[str, str]) -> Tuple[str, bool]:
        """Expand against *env*; returns (text, may_glob)."""
        chunks: List[str] = []
        may_glob = False
        for part in self.parts:
            text = expand_variables(part.text, env) if part.expand else part.text
            if part.glob_ok and any(c in text for c in "*?"):
                may_glob = True
            chunks.append(text)
        return "".join(chunks), may_glob


@dataclass(frozen=True)
class Token:
    """Eagerly-expanded token (convenience view used by tests/tools)."""

    text: str
    is_operator: bool = False
    glob: bool = False


def split_statements(script: str) -> List[str]:
    """Split a script into logical lines.

    Handles backslash-newline continuations and full-line/trailing
    comments (a ``#`` that starts a word).  Quote-aware: ``#`` inside
    quotes is literal.
    """
    joined: List[str] = []
    pending = ""
    for raw_line in script.split("\n"):
        line = pending + raw_line
        pending = ""
        if line.endswith("\\") and not line.endswith("\\\\"):
            pending = line[:-1] + " "
            continue
        joined.append(line)
    if pending:
        joined.append(pending)

    statements: List[str] = []
    for line in joined:
        stripped = _strip_comment(line).strip()
        if stripped:
            statements.append(stripped)
    return statements


def _strip_comment(line: str) -> str:
    in_single = in_double = False
    previous = ""
    for i, char in enumerate(line):
        if char == "'" and not in_double:
            in_single = not in_single
        elif char == '"' and not in_single:
            in_double = not in_double
        elif (
            char == "#"
            and not in_single
            and not in_double
            and (i == 0 or previous in " \t;")
        ):
            return line[:i]
        previous = char
    return line


def expand_variables(text: str, env: Dict[str, str]) -> str:
    """Expand ``$NAME`` and ``${NAME}`` (undefined names expand empty)."""
    out: List[str] = []
    i = 0
    while i < len(text):
        char = text[i]
        if char == "$" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "{":
                end = text.find("}", i + 2)
                if end == -1:
                    raise ShellSyntaxError(f"unterminated ${{...}} in {text!r}")
                out.append(env.get(text[i + 2:end], ""))
                i = end + 1
                continue
            if nxt.isalpha() or nxt == "_":
                j = i + 1
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(env.get(text[i + 1:j], ""))
                i = j
                continue
        out.append(char)
        i += 1
    return "".join(out)


def lex(line: str) -> List[WordToken]:
    """Tokenize one statement into deferred-expansion tokens."""
    tokens: List[WordToken] = []
    parts: List[Part] = []
    started = False

    def flush() -> None:
        nonlocal parts, started
        if started:
            tokens.append(WordToken(parts=tuple(parts)))
        parts = []
        started = False

    i = 0
    while i < len(line):
        char = line[i]
        if char in " \t":
            flush()
            i += 1
            continue
        if char == ";":
            flush()
            tokens.append(WordToken(parts=(Part(OP_SEQ),), is_operator=True))
            i += 1
            continue
        if line.startswith("&&", i):
            flush()
            tokens.append(WordToken(parts=(Part(OP_AND),), is_operator=True))
            i += 2
            continue
        if line.startswith("||", i):
            flush()
            tokens.append(WordToken(parts=(Part(OP_OR),), is_operator=True))
            i += 2
            continue
        if char == "'":
            end = line.find("'", i + 1)
            if end == -1:
                raise ShellSyntaxError(f"unterminated single quote: {line!r}")
            parts.append(Part(line[i + 1:end], expand=False, glob_ok=False))
            started = True
            i = end + 1
            continue
        if char == '"':
            end = i + 1
            buf: List[str] = []
            while end < len(line):
                if line[end] == "\\" and end + 1 < len(line) and line[end + 1] in '"\\$':
                    buf.append(line[end + 1])
                    end += 2
                    continue
                if line[end] == '"':
                    break
                buf.append(line[end])
                end += 1
            else:
                raise ShellSyntaxError(f"unterminated double quote: {line!r}")
            parts.append(Part("".join(buf), expand=True, glob_ok=False))
            started = True
            i = end + 1
            continue
        if char == "\\":
            # A trailing backslash escapes nothing and stands for itself:
            # ``sh -c 'echo a\'`` prints ``a\``.
            parts.append(Part(line[i + 1:i + 2] or "\\", expand=False,
                              glob_ok=False))
            started = True
            i += 2
            continue
        j = i
        while j < len(line) and line[j] not in " \t;'\"\\" and not (
            line[j] == "&" and line.startswith("&&", j)
        ) and not (line[j] == "|" and line.startswith("||", j)):
            j += 1
        parts.append(Part(line[i:j], expand=True, glob_ok=True))
        started = True
        i = j
    flush()
    return tokens


def tokenize(line: str, env: Optional[Dict[str, str]] = None) -> List[Token]:
    """Eagerly-expanded tokenization (convenience/testing view)."""
    env = env or {}
    out: List[Token] = []
    for token in lex(line):
        if token.is_operator:
            out.append(Token(token.raw, is_operator=True))
        else:
            text, may_glob = token.expanded(env)
            out.append(Token(text, glob=may_glob))
    return out


def parse_statement_lazy(line: str) -> List[Tuple[str, List[WordToken]]]:
    """Split a statement into an and-or list of unexpanded commands.

    Returns ``[(connector, word_tokens), ...]``; the first connector is
    ``";"``, later ones are the operators joining the commands.
    """
    tokens = lex(line)
    groups: List[Tuple[str, List[WordToken]]] = []
    connector = OP_SEQ
    current: List[WordToken] = []
    for token in tokens:
        if token.is_operator:
            if current:
                groups.append((connector, current))
            elif token.raw != OP_SEQ:
                raise ShellSyntaxError(f"syntax error near {token.raw!r}")
            connector = token.raw
            current = []
        else:
            current.append(token)
    if current:
        groups.append((connector, current))
    return groups


def parse_statement(
    line: str, env: Optional[Dict[str, str]] = None
) -> List[Tuple[str, List[Token]]]:
    """Eagerly-expanded variant of :func:`parse_statement_lazy`."""
    env = env or {}
    out: List[Tuple[str, List[Token]]] = []
    for connector, words in parse_statement_lazy(line):
        expanded: List[Token] = []
        for word in words:
            text, may_glob = word.expanded(env)
            expanded.append(Token(text, glob=may_glob))
        out.append((connector, expanded))
    return out
