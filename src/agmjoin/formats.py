"""Text formats: relation files and the rule-style query language.

Relation files are line-oriented and round-trip stable:

    # relation R schema A,B
    0,1
    0,2

— a single header naming the table and its columns, then one
comma-separated tuple of decimal integers per line, UTF-8 with LF
endings.  A body whose fields are canonical integers (no leading zero,
no sign but '-', no padding but spaces and tabs) is read by one
``json.loads``; any other is read by ``int``, field by field, with the
same values and errors.  Written rows are sorted lexicographically and
distinct: a ``Relation``'s rows are written as given, with no second
check; other rows that arrive strictly increasing are written as given
too, and the rest are deduplicated and sorted first.  All rows are
rendered by one ``%`` call.

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

import json
import re
import sys
from itertools import chain, islice, repeat
from operator import lt
from pathlib import Path
from typing import Collection, Iterable, Sequence

from .errors import QueryFormatError, SchemaError
from .relational import Factorised, Relation, Row
from .rewrite import Atom, ConjunctiveQuery, SimpleFD

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HEADER = re.compile(r"#\s*relation\s+(\S+)\s+schema\s+(\S+)\s*$")
# a dependency line is "fd", whitespace, then a name; fd(A) or fd_out(A) start a rule
_FD_START = re.compile(r"fd\s+[A-Za-z_]")
_FD_LINE = re.compile(r"fd\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(\d+)\s*->\s*(\d+)\s*$")
_VALUE = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)  # an optional '-', then ASCII digits
# deletes every character a body of comma-joined JSON integers may hold
_JSON_INT_CHARS = str.maketrans("", "", "0123456789-, \t")


def _fail(msg: str, line: int, col: int) -> "QueryFormatError":
    return QueryFormatError(f"line {line}, column {col}: {msg}")


def _too_long(digits: str) -> str:
    """The message for a digit string that ``int`` refuses for its length alone."""
    n = len(digits.strip().lstrip("-"))
    return f"value too long: {n} digits, and Python reads at most {sys.get_int_max_str_digits()}"


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
    """The rows of a relation file's text after its header line.

    Parsed in bulk: every line that is not blank once its comment is cut
    holds ``len(cols) - 1`` commas, and the fields of all of them joined
    are read at once (:func:`_ints`).  A body that fails is walked line
    by line, only to name and word the first bad line.
    """
    n = len(cols)
    lines = text.split("\n")
    if "#" in text:
        lines = [ln.split("#", 1)[0] for ln in lines]
    bodies = list(filter(None, map(str.strip, lines)))
    if not bodies:
        return ()
    try:
        if set(map(str.count, bodies, repeat(","))) != {n - 1}:
            raise ValueError
        values = _ints(",".join(bodies))
    except ValueError:
        raise _first_bad_row(lines, n) from None
    return tuple(zip(*[iter(values)] * n))


def _ints(flat: str) -> list[int]:
    """The values of the comma-separated fields of ``flat``, in order;
    ValueError if any field is not a decimal integer the format accepts.

    JSON reads only ``-?(0|[1-9][0-9]*)`` fields padded by spaces and
    tabs, and reads them as ``int`` does, so a body of nothing but
    digits, '-', ',', spaces and tabs is tried as one JSON array first.
    What JSON refuses (a leading zero, a lone '-', an empty field, a
    value past ``int``'s digit limit) falls through to ``int``: from the
    field JSON refused on, when it names one, so the fields before it
    are read by JSON again rather than by ``int``.
    """
    head: list[int] = []
    if not flat.translate(_JSON_INT_CHARS):
        try:
            return json.loads("[" + flat + "]")
        except json.JSONDecodeError as e:
            # e.pos counts the '[': the fields before the comma ahead of it are JSON's
            cut = flat.rfind(",", 0, e.pos - 1)
            if cut > 0:
                head, flat = json.loads("[" + flat[:cut] + "]"), flat[cut + 1:]
        except ValueError:  # a value past the digit limit
            pass
    if not flat.isascii() or "_" in flat or "+" in flat:
        raise ValueError  # int() reads these, the format does not
    return head + list(map(int, flat.split(",")))


def _first_bad_row(lines: list[str], n: int) -> QueryFormatError:
    """The error for the first of ``lines`` (comments cut) that is not a
    row of ``n`` values; the bulk parse found one."""
    for ln, raw in enumerate(lines, start=2):
        body = raw.strip()
        if not body:
            continue
        parts = body.split(",")
        if len(parts) != n:
            return _fail(f"expected {n} values, found {len(parts)}", ln, 1)
        try:
            _ints(body)
        except ValueError:
            for k, p in enumerate(parts):
                col = 1 + sum(len(q) + 1 for q in parts[:k])
                if not _VALUE.fullmatch(p):
                    return _fail(f"not an integer: {p.strip()!r}", ln, col)
                try:
                    int(p)
                except ValueError:  # digits only, so refused for their number
                    return _fail(_too_long(p), ln, col)
    raise ValueError("the bulk parse refused rows that every line holds")


def format_relation(name: str, cols: Sequence[str],
                    rows: Relation | Factorised | Iterable[Row]) -> str:
    """The relation file text: rows sorted and distinct, one line each.

    A ``Relation``'s rows were checked for width and order when it was
    built, so only its arity is checked against ``cols`` and its rows
    are written as given; a ``Factorised`` join answer is rendered from
    its blocks without building its rows (:func:`_render`).  Other rows
    are checked: rows that arrive strictly increasing are written as
    given, any others are deduplicated and sorted first, and a row whose
    width is not the schema's raises :class:`SchemaError`.
    """
    if isinstance(rows, (Relation, Factorised)):
        if rows.arity != len(cols):
            raise SchemaError(f"relation {name}: rows have width {rows.arity}, "
                              f"schema {','.join(cols)} has width {len(cols)}")
        if isinstance(rows, Factorised):
            return f"# relation {name} schema {','.join(cols)}\n" + _render(rows.blocks,
                                                                             len(cols))
        rows = rows.rows
    else:
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)  # walked more than once below
        if set(map(len, rows)) - {len(cols)}:
            bad = next(t for t in rows if len(t) != len(cols))
            raise SchemaError(f"relation {name}: row {bad} has width {len(bad)}, "
                              f"schema {','.join(cols)} has width {len(cols)}")
        if not all(map(lt, rows, islice(rows, 1, None))):
            rows = sorted(set(rows))
    return f"# relation {name} schema {','.join(cols)}\n" + _lines(rows, len(cols))


def _lines(rows: Sequence[Row], width: int) -> str:
    """The text of ``rows`` of ``width`` values, one line each, by one ``%`` call."""
    line = ",".join(["%s"] * width) + "\n"  # %s is str(), whatever the value's type
    return (line * len(rows)) % tuple(chain.from_iterable(rows))


def _render(blocks: list[tuple[list[Row], list[Row]]], width: int) -> str:
    """The lines of a ``Factorised`` answer's blocks.  Where a block repeats
    rights of more than one row, their text is made once and each left's
    text is put before every line of it by ``str.replace``; the rows of
    every other block are built and go through one ``%`` call."""
    parts: list[str] = []
    pending: list[Row] = []
    texts: dict[int, str] = {}  # the text of each repeated rights list, by id

    def flush() -> None:
        if pending:
            parts.append(_lines(pending, width))
            pending.clear()

    for lefts, rights in blocks:
        if len(lefts) < 2 or len(rights) < 2:
            for left in lefts:
                pending += map(left.__add__, rights)
            continue
        flush()
        body = texts.get(id(rights))
        if body is None:  # its lines, the last without its newline
            body = texts[id(rights)] = _lines(rights, width - len(lefts[0]))[:-1]
        head = "%s," * len(lefts[0])
        for left in lefts:
            p = head % left
            parts += (p, body.replace("\n", "\n" + p), "\n")
    flush()
    return "".join(parts)


def read_relation_file(path: Path | str) -> tuple[str, tuple[str, ...], tuple[Row, ...]]:
    """Parse the relation file at ``path``; a parse error names the path."""
    try:
        return parse_relation_text(Path(path).read_text(encoding="utf-8"))
    except QueryFormatError as e:
        raise QueryFormatError(f"{path}: {e}") from None


def write_relation_file(path: Path | str, name: str, cols: Sequence[str],
                        rows: Relation | Iterable[Row]) -> None:
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


def _position(m: re.Match[str], g: int, line: int, pad: int) -> int:
    """Group ``g`` of a dependency line's match, a position; ``pad`` is the
    line's indent, which the match did not see."""
    try:
        return int(m.group(g))
    except ValueError:  # digits only, so refused for their number
        raise _fail(_too_long(m.group(g)), line, pad + m.start(g) + 1) from None


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
            pad = len(body) - len(body.lstrip())
            src, dst = (_position(m, g, ln, pad) for g in (2, 3))
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
