import pytest
from hypothesis import given
from hypothesis import strategies as st

from agmjoin import (
    Atom,
    ConjunctiveQuery,
    QueryFormatError,
    Relation,
    SchemaError,
    SimpleFD,
    make_attrs,
)
from agmjoin.formats import (
    _parse_rows,
    format_query,
    format_relation,
    load_data_dir,
    parse_query_text,
    parse_relation_text,
    read_query_file,
    read_relation_file,
    write_query_file,
    write_relation_file,
)
from conftest import parse_rows_by_line


def test_parse_relation_basic():
    name, cols, rows = parse_relation_text("# relation R schema A,B\n0,1\n0,2\n")
    assert name == "R"
    assert cols == ("A", "B")
    assert rows == ((0, 1), (0, 2))


def test_parse_relation_comments_blank_lines_and_negatives():
    text = "# relation R schema A\n\n-3   # a note\n7\n"
    _, _, rows = parse_relation_text(text)
    assert rows == ((-3,), (7,))


def test_parse_relation_errors_carry_positions():
    with pytest.raises(QueryFormatError, match=r"line 1, column 1"):
        parse_relation_text("0,1\n")
    with pytest.raises(QueryFormatError, match=r"line 2.*expected 2 values"):
        parse_relation_text("# relation R schema A,B\n0\n")
    with pytest.raises(QueryFormatError, match=r"line 3, column 3: not an integer"):
        parse_relation_text("# relation R schema A,B\n0,1\n0,x\n")
    with pytest.raises(QueryFormatError, match=r"line 2, column 3: not an integer: '1_0'"):
        parse_relation_text("# relation R schema A,B\n1,1_0\n")
    with pytest.raises(QueryFormatError, match=r"line 2, column 1: not an integer"):
        parse_relation_text("# relation R schema A\n\uff13\n")  # a full-width 3
    with pytest.raises(QueryFormatError, match=r"no columns"):
        parse_relation_text("# relation R schema ,\n")
    with pytest.raises(QueryFormatError):
        parse_relation_text("")


def test_parse_relation_refuses_a_value_past_pythons_digit_limit():
    # every field is digits, but int() reads at most sys.get_int_max_str_digits() of them
    long = "7" * 5000
    with pytest.raises(QueryFormatError, match=r"line 3, column 3: value too long: 5000 digits"):
        parse_relation_text(f"# relation R schema A,B\n0,1\n1,-{long}\n")
    with pytest.raises(QueryFormatError, match=r"line 2, column 1: not an integer: 'x'"):
        parse_relation_text(f"# relation R schema A,B\nx,{long}\n")


# field text: decimal integers past 2**64, valid ones that JSON refuses (a leading zero),
# what int() reads but the format refuses, and what JSON reads but the format refuses
_INT_TEXT = st.integers(-(2**70), 2**70).map(str) | st.sampled_from(["007", "-007", "00", "-0"])
_ODD_TEXT = st.sampled_from(["+5", "1_0", "-", "", "x", "\uff13", "\u0663", "0x1", "--1",
                             "1 2", "\xa01", "2\xa0", "\x85", "1\x1c",
                             "1.5", "1e3", "1E3", "NaN", "Infinity", "-Infinity"])
_PAD = st.text(alphabet=" \t\x0b\x0c\r", max_size=2)
_NOT_A_ROW = st.sampled_from(["", " ", "\t\r", "\x0b", "\r", "# a note_+\u00e9",
                              "  # 1,2,3", "\u3000", "#"])


def _cell(value=_INT_TEXT):
    return st.tuples(_PAD, value, _PAD).map("".join)


def _row(width):
    return st.lists(_cell(), min_size=width, max_size=width).map(",".join)


@st.composite
def relation_bodies(draw):
    """A relation file's body: rows of arity 1-4 with padding and comments,
    blank lines, and up to two faults: a row of the wrong width, or a row
    with one odd value."""
    n = draw(st.integers(1, 4))
    line = st.one_of(_row(n), _row(n).map(lambda r: r + " # note"), _NOT_A_ROW)
    lines = draw(st.lists(line, max_size=25))
    odd_row = st.tuples(st.lists(_cell(), min_size=n - 1, max_size=n - 1), _cell(_ODD_TEXT),
                        st.integers(0, n - 1))
    odd_row = odd_row.map(lambda t: ",".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:]))
    wrong_width = st.integers(1, 5).filter(lambda w: w != n).flatmap(_row)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(odd_row, wrong_width)))
    return tuple("ABCD"[:n]), "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, *args):
    try:
        return parse(*args)
    except QueryFormatError as e:
        return str(e)


@given(relation_bodies())
def test_bulk_row_parse_matches_the_line_parse(case):
    cols, body = case
    assert _outcome(_parse_rows, body, cols) == _outcome(parse_rows_by_line, body, cols)


def test_format_relation_sorts_and_dedups():
    text = format_relation("R", ("A", "B"), [(5, 0), (1, 2), (5, 0)])
    assert text == "# relation R schema A,B\n1,2\n5,0\n"


def _reference_body(rows):
    """The writer's body before it rendered rows through one template."""
    return "".join(",".join(str(v) for v in t) + "\n" for t in sorted(set(rows)))


@st.composite
def rows_of_one_arity(draw):
    arity = draw(st.integers(1, 4))
    values = st.integers(0, 2**64 + 10) | st.integers(0, 9)
    rows = draw(st.lists(st.tuples(*[values] * arity), max_size=30))
    shape = draw(st.sampled_from(["as drawn", "sorted", "sorted with duplicates", "reversed"]))
    if shape == "sorted":
        rows = sorted(set(rows))
    elif shape == "sorted with duplicates":
        rows = sorted(rows + rows[: len(rows) // 2])
    elif shape == "reversed":
        rows = sorted(set(rows), reverse=True)
    return arity, rows


@given(rows_of_one_arity(), st.sampled_from([list, tuple, iter, Relation]))
def test_format_relation_matches_the_reference_writer(case, container):
    arity, rows = case
    cols = tuple("ABCD"[:arity])
    if container is Relation:  # checked when built, so written with no second check
        given_rows = Relation(make_attrs(*cols), tuple(rows))
    else:
        given_rows = container(rows)
    text = format_relation("R", cols, given_rows)
    assert text == f"# relation R schema {','.join(cols)}\n" + _reference_body(rows)


def test_format_relation_rejects_rows_of_the_wrong_width(tmp_path):
    with pytest.raises(SchemaError, match=r"row \(1, 2, 3\) has width 3, schema A,B has width 2"):
        format_relation("R", ("A", "B"), [(0, 1), (1, 2, 3), (4,)])
    with pytest.raises(SchemaError, match=r"row \(4,\) has width 1"):
        format_relation("R", ("A", "B"), [(0, 1), (4,)])
    wide = Relation(make_attrs("A", "B", "C"), ((1, 2, 3),))
    with pytest.raises(SchemaError, match=r"relation R: rows have width 3, schema A,B has width 2"):
        format_relation("R", ("A", "B"), wide)
    with pytest.raises(SchemaError, match=r"rows have width 0, schema A has width 1"):
        format_relation("R", ("A",), Relation((), ()))
    dest = tmp_path / "r.rel"
    with pytest.raises(SchemaError):
        write_relation_file(dest, "R", ("A", "B"), [(1, 2, 3)])
    with pytest.raises(SchemaError):
        write_relation_file(dest, "R", ("A", "B"), wide)
    assert not dest.exists()


rows_strategy = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=20
)


@given(rows_strategy)
def test_relation_text_round_trips(rows):
    text = format_relation("T", ("A", "B"), rows)
    name, cols, parsed = parse_relation_text(text)
    assert name == "T"
    assert cols == ("A", "B")
    assert set(parsed) == set(rows)
    assert format_relation(name, cols, parsed) == text


def test_relation_file_round_trip(tmp_path):
    p = tmp_path / "r.rel"
    write_relation_file(p, "R", ("A", "B"), [(1, 2), (0, 9)])
    assert read_relation_file(p) == ("R", ("A", "B"), ((0, 9), (1, 2)))


def test_load_data_dir(tmp_path):
    write_relation_file(tmp_path / "a.rel", "R", ("A", "B"), [(1, 2)])
    write_relation_file(tmp_path / "b.rel", "S", ("B",), [(2,)])
    (tmp_path / "notes.txt").write_text("ignored")
    data = load_data_dir(tmp_path, {"R", "S", "T"})
    assert data == {"R": ((1, 2),), "S": ((2,),)}


def test_load_data_dir_rejects_duplicate_tables(tmp_path):
    write_relation_file(tmp_path / "a.rel", "R", ("A",), [(1,)])
    write_relation_file(tmp_path / "b.rel", "R", ("A",), [(2,)])
    with pytest.raises(QueryFormatError, match="declared twice"):
        load_data_dir(tmp_path, {"R"})


def test_load_data_dir_parses_only_the_named_tables(tmp_path):
    write_relation_file(tmp_path / "a.rel", "R", ("A", "B"), [(1, 2)])
    (tmp_path / "b.rel").write_text("# relation S schema B\nfoo\n", encoding="utf-8")
    assert load_data_dir(tmp_path, {"R"}) == {"R": ((1, 2),)}
    with pytest.raises(QueryFormatError, match="not an integer"):
        load_data_dir(tmp_path, {"R", "S"})


def test_load_data_dir_reads_every_header(tmp_path):
    write_relation_file(tmp_path / "a.rel", "R", ("A",), [(1,)])
    (tmp_path / "b.rel").write_text("R,S\n1\n", encoding="utf-8")
    with pytest.raises(QueryFormatError, match=r"b\.rel: line 1, column 1: malformed header"):
        load_data_dir(tmp_path, {"R"})
    write_relation_file(tmp_path / "b.rel", "R", ("A",), [(2,)])
    with pytest.raises(QueryFormatError, match="declared twice"):
        load_data_dir(tmp_path, {"S"})


def test_relation_file_parse_errors_name_the_file(tmp_path):
    p = tmp_path / "r.rel"
    p.write_text("# relation R schema A,B\n1,2\n3,x\n", encoding="utf-8")
    want = f"{p}: line 3, column 3: not an integer: 'x'"
    with pytest.raises(QueryFormatError) as e:
        read_relation_file(p)
    assert str(e.value) == want
    with pytest.raises(QueryFormatError) as e:
        load_data_dir(tmp_path, {"R"})
    assert str(e.value) == want


def test_parse_query_basic():
    c = parse_query_text("Q(A,B,C) :- R(A,B), S(B,C), T(A,C).\n")
    assert c.head == Atom("Q", ("A", "B", "C"))
    assert [a.symbol for a in c.body] == ["R", "S", "T"]
    assert c.fds == ()


def test_parse_query_with_dependencies_and_comments():
    text = "# a keyed query\nfd R: 1 -> 2\nQ(A) :- R(A,B), R(A,C).\nfd S: 2 -> 1\n"
    c = parse_query_text(text)
    assert c.fds == (SimpleFD("R", 1, 2), SimpleFD("S", 2, 1))
    assert len(c.body) == 2


def test_parse_query_whitespace_is_flexible():
    c = parse_query_text("Q( A , B ) :-  R(A,B) ,S( B , A ).")
    assert c.head.vars == ("A", "B")
    assert c.body[1].vars == ("B", "A")


def test_parse_query_empty_head_is_boolean():
    c = parse_query_text("Q() :- R(A,B).")
    assert c.head.vars == ()


def test_parse_query_errors_carry_positions():
    with pytest.raises(QueryFormatError, match="no rule"):
        parse_query_text("# only a comment\n")
    with pytest.raises(QueryFormatError, match=r"line 1, column 8: expected ':-'"):
        parse_query_text("Q(A,B) <- R(A,B).")
    with pytest.raises(QueryFormatError, match="at least one variable"):
        parse_query_text("Q(A) :- R().")
    with pytest.raises(QueryFormatError, match="trailing text"):
        parse_query_text("Q(A) :- R(A). extra")
    with pytest.raises(QueryFormatError, match=r"exactly one rule"):
        parse_query_text("Q(A) :- R(A).\nP(B) :- S(B).")
    with pytest.raises(QueryFormatError, match=r"expected '\.'"):
        parse_query_text("Q(A) :- R(A)")
    with pytest.raises(QueryFormatError, match="expected a name"):
        parse_query_text("Q(A) :- R(A,).")


def test_parse_query_fd_line_errors():
    with pytest.raises(QueryFormatError, match="malformed dependency"):
        parse_query_text("fd R 1 -> 2\nQ(A) :- R(A,B).")
    with pytest.raises(QueryFormatError, match="source equals target"):
        parse_query_text("fd R: 2 -> 2\nQ(A) :- R(A,B).")
    with pytest.raises(QueryFormatError, match="1-based"):
        parse_query_text("fd R: 0 -> 2\nQ(A) :- R(A,B).")


def test_parse_query_fd_position_past_pythons_digit_limit():
    long = "1" * 5000
    with pytest.raises(QueryFormatError, match=r"line 2, column 9: value too long: 5000 digits"):
        parse_query_text(f"Q(A) :- R(A,B).\n  fd R: {long} -> 2\n")
    with pytest.raises(QueryFormatError, match=r"line 1, column 12: value too long"):
        parse_query_text(f"fd R: 1 -> {long}\nQ(A) :- R(A,B).")


@pytest.mark.parametrize("text,symbols", [
    ("Q(A) :- fdR(A).", ("Q", "fdR")),
    ("fd(A) :- R(A).", ("fd", "R")),
    ("fd_out(A) :- R(A).", ("fd_out", "R")),
    ("fd (A) :- R(A).", ("fd", "R")),
], ids=["fdR-body", "fd-head", "fd_out-head", "fd-space-head"])
def test_fd_prefixed_symbols_are_not_dependency_lines(text, symbols):
    # Only "fd", whitespace and a name starts a dependency line; a rule
    # whose head or body symbol starts with fd is a rule.
    c = parse_query_text(text)
    assert (c.head.symbol, c.body[0].symbol) == symbols


def test_query_round_trip(tmp_path):
    c = ConjunctiveQuery(
        Atom("Q", ("W", "W", "Y")),
        (Atom("R", ("W", "X")), Atom("R", ("W", "W")), Atom("S", ("X", "Y"))),
        (SimpleFD("R", 1, 2),),
    )
    p = tmp_path / "q.txt"
    write_query_file(p, c)
    back = read_query_file(p)
    assert back.head == c.head
    assert back.body == c.body
    assert back.fds == c.fds
    assert format_query(back) == format_query(c)


def test_format_query_text():
    c = ConjunctiveQuery(
        Atom("Q", ("A",)), (Atom("R", ("A", "B")),), (SimpleFD("R", 1, 2),)
    )
    assert format_query(c) == "Q(A) :- R(A,B).\nfd R: 1 -> 2\n"
