"""Tests for the shell lexer."""

import contextlib
import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.shellparse import (
    ShellSyntaxError,
    Token,
    expand_variables,
    lex,
    parse_statement,
    split_statements,
    tokenize,
)


class TestSplitStatements:
    def test_simple_lines(self):
        assert split_statements("a\nb\n") == ["a", "b"]

    def test_blank_and_comment_lines_dropped(self):
        assert split_statements("\n# comment\n  \ncmd\n") == ["cmd"]

    def test_trailing_comment_stripped(self):
        assert split_statements("cmd arg # note") == ["cmd arg"]

    def test_hash_inside_word_kept(self):
        assert split_statements("echo foo#bar") == ["echo foo#bar"]

    def test_hash_in_quotes_kept(self):
        assert split_statements("echo '#literal'") == ["echo '#literal'"]

    def test_continuation(self):
        assert split_statements("gcc -c \\\n  main.c") == ["gcc -c    main.c"]


class TestExpand:
    def test_simple_var(self):
        assert expand_variables("$CC -c", {"CC": "gcc"}) == "gcc -c"

    def test_braced_var(self):
        assert expand_variables("${PREFIX}/bin", {"PREFIX": "/usr"}) == "/usr/bin"

    def test_undefined_empty(self):
        assert expand_variables("$NOPE!", {}) == "!"

    def test_dollar_literal(self):
        assert expand_variables("a$", {}) == "a$"

    def test_unterminated_brace_raises(self):
        with pytest.raises(ShellSyntaxError):
            expand_variables("${X", {})


class TestTokenize:
    def test_simple(self):
        tokens = tokenize("gcc -O2 -c main.c")
        assert [t.text for t in tokens] == ["gcc", "-O2", "-c", "main.c"]

    def test_single_quotes_literal(self):
        tokens = tokenize("echo '$HOME x'", {"HOME": "/root"})
        assert tokens[1].text == "$HOME x"

    def test_double_quotes_expand(self):
        tokens = tokenize('echo "$CC done"', {"CC": "gcc"})
        assert tokens[1].text == "gcc done"

    def test_adjacent_parts_joined(self):
        tokens = tokenize("echo pre'mid'post")
        assert tokens[1].text == "premidpost"

    def test_operators(self):
        tokens = tokenize("a && b || c; d")
        texts = [(t.text, t.is_operator) for t in tokens]
        assert texts == [("a", False), ("&&", True), ("b", False),
                         ("||", True), ("c", False), (";", True), ("d", False)]

    def test_glob_marked(self):
        tokens = tokenize("gcc *.o -o app")
        assert tokens[1].glob
        assert not tokens[0].glob

    def test_quoted_glob_not_marked(self):
        tokens = tokenize("echo '*.o'")
        assert not tokens[1].glob

    def test_backslash_escape(self):
        tokens = tokenize(r"echo a\ b")
        assert tokens[1].text == "a b"

    def test_unterminated_quote_raises(self):
        with pytest.raises(ShellSyntaxError):
            tokenize("echo 'oops")

    def test_var_expansion_in_bare_word(self):
        tokens = tokenize("$CC -c x.c", {"CC": "g++"})
        assert tokens[0].text == "g++"


@contextlib.contextmanager
def _returns_within_one_second():
    """Fail the test instead of letting a lexer that never returns grow
    memory until the process is killed."""
    def _expired(signum, frame):
        raise TimeoutError("the lexer did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(1)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTrailingBackslash:
    """A line ending in a lone backslash lexes it as a literal ``\\``,
    as ``sh -c 'echo a\\'`` prints ``a\\``."""

    def test_lone_backslash(self):
        with _returns_within_one_second():
            tokens = lex("\\")
        assert [t.expanded({}) for t in tokens] == [("\\", False)]

    def test_word_ending_in_backslash(self):
        with _returns_within_one_second():
            tokens = lex("echo a\\")
        assert [t.expanded({}) for t in tokens] == [("echo", False), ("a\\", False)]

    def test_tokenize_word_ending_in_backslash(self):
        with _returns_within_one_second():
            tokens = tokenize("a\\")
        assert tokens == [Token("a\\")]


class TestParseStatement:
    def test_single_group(self):
        groups = parse_statement("gcc -c x.c")
        assert len(groups) == 1
        assert groups[0][0] == ";"

    def test_and_or_chain(self):
        groups = parse_statement("a && b || c")
        assert [g[0] for g in groups] == [";", "&&", "||"]
        assert [g[1][0].text for g in groups] == ["a", "b", "c"]

    def test_leading_operator_raises(self):
        with pytest.raises(ShellSyntaxError):
            parse_statement("&& a")

    def test_trailing_semicolon_ok(self):
        groups = parse_statement("a;")
        assert len(groups) == 1


@given(st.lists(st.text(alphabet="abcXYZ09_./-", min_size=1, max_size=8),
                min_size=1, max_size=6))
def test_plain_words_roundtrip(words):
    tokens = tokenize(" ".join(words))
    assert [t.text for t in tokens] == words
