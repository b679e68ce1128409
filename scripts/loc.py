"""Count the code lines and the docstring/comment lines of ``src/``.

    python scripts/loc.py [BASE]

Prints per-file and total counts for the working tree; with a git
revision BASE, also BASE's counts and the delta, listing only the files
whose counts differ.  A line is *code* if it holds any token other than
a comment or a docstring, and *doc* if it holds only comment or
docstring text; blank lines are neither.
"""

import io
import subprocess
import sys
import tokenize
from pathlib import Path

#: Tokens that never make a line code.
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}
#: Tokens after which a new statement starts.
STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def count(source):
    """(code lines, docstring/comment lines) of one Python source."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type != tokenize.NL]
    code, doc = set(), set()
    prev = None
    for i, tok in enumerate(tokens):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            doc.update(lines)
            continue
        if (tok.type == tokenize.STRING and prev in STATEMENT_START
                and next((t.type for t in tokens[i + 1:]
                          if t.type != tokenize.COMMENT), None)
                in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            doc.update(lines)   # a statement that is one string: a docstring
        elif tok.type not in LAYOUT:
            code.update(lines)
        prev = tok.type
    return len(code), len(doc - code)


def tree_counts():
    return {str(p): count(p.read_text(encoding="utf-8"))
            for p in sorted(Path("src").rglob("*.py"))}


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def base_counts(rev):
    paths = git("ls-tree", "-r", "--name-only", rev, "--", "src").split()
    return {p: count(git("show", f"{rev}:{p}"))
            for p in paths if p.endswith(".py")}


def total(counts):
    return tuple(sum(c[i] for c in counts.values()) for i in (0, 1))


def delta(now, then):
    return [*now, *then, f"{now[0] - then[0]:+d}", f"{now[1] - then[1]:+d}"]


def main(argv):
    tree = tree_counts()
    rows = [["file", "code", "doc"]]
    if not argv:
        rows += [[path, *counts] for path, counts in tree.items()]
        rows.append(["total", *total(tree)])
    else:
        base = base_counts(argv[0])
        rows[0] += [f"code@{argv[0][:12]}", f"doc@{argv[0][:12]}",
                    "Δcode", "Δdoc"]
        for path in sorted(set(tree) | set(base)):
            now, then = tree.get(path, (0, 0)), base.get(path, (0, 0))
            if now != then:
                rows.append([path, *delta(now, then)])
        rows.append(["total", *delta(total(tree), total(base))])
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        cells = [str(cell).rjust(width) for cell, width in zip(row, widths)]
        cells[0] = str(row[0]).ljust(widths[0])
        print("  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
