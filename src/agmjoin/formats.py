"""Text formats: relation files and the rule-style query language.

Relation files are line-oriented and round-trip stable:

    # relation R schema A,B
    0,1
    0,2

— a single header naming the table and its columns, then one
comma-separated tuple of decimal integers per line, UTF-8 with LF
endings.  Written rows are sorted lexicographically and distinct: rows
that arrive strictly increasing are written as given, in one pass;
others are deduplicated and sorted first.

A query file holds one rule, plus optional dependency lines and
comments:

    # triangles
    Q(A,B,C) :- R(A,B), S(B,C), T(A,C).
    fd R: 1 -> 2

The head may project to (and repeat) a subset of the body's variables;
body atoms may repeat symbols and variables.  All parse failures raise
:class:`QueryFormatError` carrying line and column numbers, prefixed by
the path when a relation file is read from disk.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import lt
from pathlib import Path
from typing import Collection, Iterable, Sequence

from .errors import QueryFormatError, SchemaError
from .relational import Row
from .rewrite import Atom, ConjunctiveQuery, SimpleFD

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HEADER = re.compile(r"#\s*relation\s+(\S+)\s+schema\s+(\S+)\s*$")
# a dependency line is "fd", whitespace, then a name; fd(A) or fd_out(A) start a rule
_FD_START = re.compile(r"fd\s+[A-Za-z_]")
_FD_LINE = re.compile(r"fd\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(\d+)\s*->\s*(\d+)\s*$")
_VALUE = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)  # an optional '-', then ASCII digits


def _fail(msg: str, line: int, col: int) -> "QueryFormatError":
    return QueryFormatError(f"line {line}, column {col}: {msg}")


# --------------------------------------------------------------------------
# relation files


def _parse_header(line: str) -> tuple[str, tuple[str, ...]]:
    """A relation file's first line as (name, column names)."""
    if not line.strip():
        raise _fail("missing '# relation <name> schema <cols>' header", 1, 1)
    m = _HEADER.match(line.strip())
    if not m:
        raise _fail("malformed header, expected '# relation <name> schema <cols>'", 1, 1)
    cols = tuple(c for c in m.group(2).split(",") if c)
    if not cols:
        raise _fail("schema lists no columns", 1, 1)
    return m.group(1), cols


def parse_relation_text(text: str) -> tuple[str, tuple[str, ...], tuple[Row, ...]]:
    """Parse a relation file into (name, column names, rows)."""
    head, _, body = text.partition("\n")
    name, cols = _parse_header(head)
    return name, cols, _parse_rows(body, cols)


def _parse_rows(text: str, cols: tuple[str, ...]) -> tuple[Row, ...]:
    """The rows of a relation file's text after its header line."""
    rows = []
    for ln, raw in enumerate(text.split("\n"), start=2):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split(",")
        if len(parts) != len(cols):
            raise _fail(f"expected {len(cols)} values, found {len(parts)}", ln, 1)
        try:
            if not body.isascii() or "_" in body or "+" in body:
                raise ValueError  # int() reads these, the format does not
            rows.append(tuple(map(int, parts)))
        except ValueError:
            k = next(i for i, p in enumerate(parts) if not _VALUE.fullmatch(p))
            col = 1 + sum(len(p) + 1 for p in parts[:k])
            raise _fail(f"not an integer: {parts[k].strip()!r}", ln, col) from None
    return tuple(rows)


def format_relation(name: str, cols: Sequence[str], rows: Iterable[Row]) -> str:
    """The relation file text: rows sorted and distinct, one line each.

    Rows that arrive strictly increasing (a ``Relation``'s rows, say) are
    written as given; any others are deduplicated and sorted first.  A
    row whose width is not the schema's raises :class:`SchemaError`.
    """
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)  # walked more than once below
    if set(map(len, rows)) - {len(cols)}:
        bad = next(t for t in rows if len(t) != len(cols))
        raise SchemaError(f"relation {name}: row {bad} has width {len(bad)}, "
                          f"schema {','.join(cols)} has width {len(cols)}")
    if not all(map(lt, rows, islice(rows, 1, None))):
        rows = sorted(set(rows))
    line = ",".join(["%s"] * len(cols)) + "\n"  # %s is str(), whatever the value's type
    return f"# relation {name} schema {','.join(cols)}\n" + "".join(map(line.__mod__, rows))


def read_relation_file(path: Path | str) -> tuple[str, tuple[str, ...], tuple[Row, ...]]:
    """Parse the relation file at ``path``; a parse error names the path."""
    try:
        return parse_relation_text(Path(path).read_text(encoding="utf-8"))
    except QueryFormatError as e:
        raise QueryFormatError(f"{path}: {e}") from None


def write_relation_file(path: Path | str, name: str, cols: Sequence[str], rows: Iterable[Row]) -> None:
    Path(path).write_text(format_relation(name, cols, rows), encoding="utf-8", newline="\n")


def load_data_dir(path: Path | str, names: Collection[str]) -> dict[str, tuple[Row, ...]]:
    """Read the .rel files in a directory, keyed by declared table name.

    Every file's header is read, so a table declared twice is refused
    whichever tables are asked for; only the tables in ``names`` have
    their rows parsed.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no data directory {str(path)!r}")
    if not path.is_dir():
        raise NotADirectoryError(f"{str(path)!r} is not a data directory")
    declared: set[str] = set()
    out: dict[str, tuple[Row, ...]] = {}
    for p in sorted(path.glob("*.rel")):
        with p.open(encoding="utf-8") as f:
            try:
                name, cols = _parse_header(f.readline())
                if name in declared:
                    raise QueryFormatError(f"table {name!r} declared twice")
                declared.add(name)
                if name in names:
                    out[name] = _parse_rows(f.read(), cols)
            except QueryFormatError as e:
                raise QueryFormatError(f"{p}: {e}") from None
    return out


# --------------------------------------------------------------------------
# query files


class _Scanner:
    """Single-line token walker with 1-based column error reporting."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def fail(self, msg: str) -> "QueryFormatError":
        return _fail(msg, self.line, self.pos + 1)

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise self.fail("expected a name")
        self.pos = m.end()
        return m.group(0)

    def literal(self, tok: str) -> None:
        self.skip_ws()
        if not self.text.startswith(tok, self.pos):
            raise self.fail(f"expected {tok!r}")
        self.pos += len(tok)

    def peek(self, tok: str) -> bool:
        self.skip_ws()
        return self.text.startswith(tok, self.pos)


def _parse_atom(sc: _Scanner, allow_empty: bool) -> Atom:
    sym = sc.ident()
    sc.literal("(")
    vars_: list[str] = []
    if sc.peek(")"):
        if not allow_empty:
            raise sc.fail("atom needs at least one variable")
        sc.literal(")")
        return Atom(sym, ())
    while True:
        vars_.append(sc.ident())
        if sc.peek(")"):
            sc.literal(")")
            return Atom(sym, tuple(vars_))
        sc.literal(",")


def parse_query_text(text: str) -> ConjunctiveQuery:
    """Parse one rule (and any dependency lines) into a query."""
    rule: tuple[int, str] | None = None
    fds: list[SimpleFD] = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        stripped = body.strip()
        if _FD_START.match(stripped):
            m = _FD_LINE.match(stripped)
            if not m:
                raise _fail("malformed dependency, expected 'fd R: i -> j'", ln, 1)
            src, dst = int(m.group(2)), int(m.group(3))
            if src < 1 or dst < 1:
                raise _fail("dependency positions are 1-based", ln, 1)
            if src == dst:
                raise _fail("dependency source equals target", ln, 1)
            fds.append(SimpleFD(m.group(1), src, dst))
            continue
        if rule is not None:
            raise _fail("a query file holds exactly one rule", ln, 1)
        rule = (ln, body)
    if rule is None:
        raise QueryFormatError("no rule found")
    ln, line = rule
    sc = _Scanner(line, ln)
    head = _parse_atom(sc, allow_empty=True)
    sc.literal(":-")
    atoms = [_parse_atom(sc, allow_empty=False)]
    while sc.peek(","):
        sc.literal(",")
        atoms.append(_parse_atom(sc, allow_empty=False))
    sc.literal(".")
    if not sc.done():
        raise sc.fail("trailing text after the rule")
    return ConjunctiveQuery(head, tuple(atoms), tuple(fds))


def format_query(c: ConjunctiveQuery) -> str:
    rule = f"{c.head} :- {', '.join(str(a) for a in c.body)}.\n"
    return rule + "".join(f"fd {fd.symbol}: {fd.source} -> {fd.target}\n" for fd in c.fds)


def read_query_file(path: Path | str) -> ConjunctiveQuery:
    return parse_query_text(Path(path).read_text(encoding="utf-8"))


def write_query_file(path: Path | str, c: ConjunctiveQuery) -> None:
    Path(path).write_text(format_query(c), encoding="utf-8", newline="\n")
