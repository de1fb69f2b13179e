import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from helpers import dumps_json, fstring_dot
from hypothesis import given, settings
from hypothesis import strategies as st

import barcomb.barcode
import barcomb.lattice
import barcomb.multiperm
import barcomb.polytope
from barcomb.cli import main
from barcomb.errors import ParseError
from barcomb.lattice import LatticeSpec, enumerate_lattice
from barcomb.multiperm import Multipermutation, f_k, g_k, newman_leq

B1_CSV = "1.0,2.0\n1.5,3.0\n2.5,2.75\n"
B2_CSV = "1.5,3.0\n1.0,2.0\n2.5,2.75\n"


@pytest.fixture
def b1(tmp_path):
    path = tmp_path / "b1.csv"
    path.write_text(B1_CSV)
    return str(path)


@pytest.fixture
def b2(tmp_path):
    path = tmp_path / "b2.csv"
    path.write_text(B2_CSV)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariant(capsys, b1, b2):
    assert run(capsys, "invariant", "--input", b1, "--k", "0") == (0, "1 2 1 3 3 2\n")
    assert run(capsys, "invariant", "--input", b2, "--k", "0", "--labeled") == (
        0,
        "2 1 2 3 3 1\n",
    )
    assert run(capsys, "invariant", "--input", b2, "--k", "0") == (0, "1 2 1 3 3 2\n")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
@pytest.mark.parametrize(
    "bars,k,word",
    [
        ([(0.24580338977940386, 2.496985658635519), (-0.5413572492845272, 0.24580338977940383)],
         0, "1 1 2 2"),
        ([(0.03418170443210422, 2.1146357160173235), (0.44637923687007686, 1.702438183579351)],
         1, "1 2 1 2 2 1"),
    ],
    ids=["k0-false-tie", "k1-swap"],
)
def test_invariant_of_near_ties_is_the_exact_order(capsys, tmp_path, bars, k, word):
    # four distinct endpoints, so both barcodes are k-strict; the words are
    # the labels of the sample points in exact (Fraction) order.  The float
    # sample table ties two points of the first (exit 3) and swaps two of the
    # second (a wrong word, exit 0)
    path = tmp_path / "near.csv"
    path.write_text("".join(f"{b!r},{d!r}\n" for b, d in bars))
    assert run(capsys, "invariant", "--input", str(path), "--k", str(k)) == (0, word + "\n")


def test_invariant_writes_the_word_in_blocks(capsys, tmp_path, monkeypatch):
    # the bytes of print(word), from blocks of a few symbols each, written
    # from the label array: never from str(word), and with no
    # Multipermutation built on the way, by the private constructor
    barcode = barcomb.barcode.generate_barcode(40, seed=3, k=1)
    path = tmp_path / "b.csv"
    path.write_text(barcomb.barcode.format_barcode_csv(barcode))
    want = {flag: f"{word_map(barcode, 1)}\n" for flag, word_map in (("", g_k), ("--labeled", f_k))}
    writes = []
    monkeypatch.setattr(barcomb.multiperm, "_CELLS", 16)
    monkeypatch.setattr(Multipermutation, "__str__", None)
    monkeypatch.setattr(Multipermutation, "_of_array", None)
    monkeypatch.setattr(sys.stdout, "writelines", lambda blocks: writes.extend(blocks))
    for flag, text in want.items():
        writes.clear()
        code = main(["invariant", "--input", str(path), "--k", "1", *filter(None, [flag])])
        assert code == 0 and "".join(writes) == text
        assert len(writes) > 10


def test_invariant_json_input(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text("[[1.0, 2.0], [1.5, 3.0], [2.5, 2.75]]")
    assert run(capsys, "invariant", "--input", str(path), "--k", "0") == (
        0,
        "1 2 1 3 3 2\n",
    )


def test_invariant_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,zero\n")
    code, _ = run(capsys, "invariant", "--input", str(bad), "--k", "0")
    assert code == 2
    tie = tmp_path / "tie.csv"
    tie.write_text("0,1\n0,2\n")
    code, _ = run(capsys, "invariant", "--input", str(tie), "--k", "0")
    assert code == 3
    err = capsys.readouterr().err


def test_rank(capsys, b1, tmp_path):
    assert run(capsys, "rank", "--input", b1, "--k", "0") == (0, "3\n")
    code, out = run(capsys, "rank", "--input", b1, "--k", "0", "--verbose")
    assert code == 0
    assert out.splitlines() == [
        "cross(1,2) = 1",
        "cross(1,3) = 0",
        "cross(2,3) = 2",
        "3",
    ]
    nested = tmp_path / "nested.csv"
    nested.write_text("0,10\n1,9\n2,8\n")
    assert run(capsys, "rank", "--input", str(nested), "--k", "0") == (0, "6\n")
    disjoint = tmp_path / "disjoint.csv"
    disjoint.write_text("0,1\n2,3\n")
    assert run(capsys, "rank", "--input", str(disjoint), "--k", "0") == (0, "0\n")


def test_rank_verbose_builds_no_bar(capsys, b1, monkeypatch):
    # the crossing numbers read the endpoint array, not Bar views of it
    built = []
    post_init = barcomb.barcode.Bar.__post_init__
    monkeypatch.setattr(
        barcomb.barcode.Bar, "__post_init__", lambda bar: built.append(bar) or post_init(bar)
    )
    code, out = run(capsys, "rank", "--input", b1, "--k", "0", "--verbose")
    assert code == 0 and out.splitlines()[-1] == "3"
    assert built == []


@pytest.mark.parametrize("rows", ["0,1\n-1e308,1e308\n", "-1e308,1e308\n0,1\n"])
@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--input", "A", "--k", "0"],
        ["invariant", "--input", "A", "--k", "2", "--labeled"],
        ["rank", "--input", "A", "--k", "0"],
        ["bound-check", "--k", "0", "A", "A"],
        ["bound-check", "--k", "2", "A", "A"],
    ],
)
def test_an_overflowing_bar_length_exits_2_in_one_line(capsys, tmp_path, rows, argv):
    # the long bar contains the short one, so the level-0 invariant is
    # 1 2 2 1 and the rank 2; with the short bar first, the overflowing
    # length gave 1 1 2 2 and rank 0, with exit 0
    path = tmp_path / "big.csv"
    path.write_text(rows)
    label = 2 if rows.startswith("0") else 1
    code = main([str(path) if arg == "A" else arg for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"barcomb: bar {label} (-1e+308, 1e+308) has a level-")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_one_sample_pass_per_barcode(capsys, b1, monkeypatch):
    # f_k then g_k on one barcode build and sort the sample points once in
    # all, and rank --verbose once; crossing numbers read only the endpoints
    # of their two bars
    calls = []
    sample_table = barcomb.barcode._sample_table

    def counted(barcode, k):
        calls.append((len(barcode), k))
        return sample_table(barcode, k)

    monkeypatch.setattr(barcomb.barcode, "_sample_table", counted)
    bc = barcomb.barcode.read_barcode(b1)
    f_k(bc, 0)
    g_k(bc, 0)
    assert calls == [(3, 0)]
    calls.clear()
    code, out = run(capsys, "rank", "--input", b1, "--k", "0", "--verbose")
    assert code == 0 and len(out.splitlines()) == 4
    assert calls == [(3, 0)]


def test_levels_beyond_the_sample_cap_exit_4(b1, b2):
    for argv in (
        ["invariant", "--input", b1, "--k", "40"],
        ["invariant", "--input", b1, "--k", "40", "--labeled"],
        ["rank", "--input", b1, "--k", "40"],
        ["compare", "--k", "40", b1, b2],
        ["bound-check", "--k", "40", b1, b2],
        ["gen", "--n", "2", "--seed", "1", "--k", "40"],
        ["invariant", "--input", b1, "--k", "30"],
    ):
        code, err = run_isolated(argv)
        assert code == 4, (argv, err)
        assert "sample points" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hasse", "--n", "2", "--k", "10000000000", "--json", "-"],
        ["meetjoin", "--n", "2", "--k", "10000000000", "--op", "join", "1 2", "2 1"],
        ["compare", "--k", "10000000000", "WORD", "WORD"],
    ],
)
def test_oversized_levels_exit_4_before_building_2_to_the_k(tmp_path, argv):
    # 2^(10^10) alone would take 1.25 GB; the child may use at most 1 GB
    word = tmp_path / "w.txt"
    word.write_text("1 2 2 1\n")
    argv = [str(word) if arg == "WORD" else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "barcomb.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 4, proc.stderr
    assert "word positions, cap is" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("metric", ["bottleneck", "wasserstein"])
def test_distance_out_of_memory_exits_4(tmp_path, metric):
    # the first 12000 x 12000 cost matrix alone takes 1.15 GB; the child may
    # use at most 1 GB
    for name, shift in (("a.csv", 0.0), ("b.csv", 0.25)):
        rows = (f"{i + shift},{i + shift + 3.5}" for i in range(12000))
        (tmp_path / name).write_text("\n".join(rows) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "barcomb.cli", "distance", "--metric", metric,
         str(tmp_path / "a.csv"), str(tmp_path / "b.csv")],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_meetjoin_of_32770_positions_fits_in_1_gib():
    # 32 770 positions: the join holds one int row of larger copies per
    # copy, at most N^2/8 bytes (134 MB), so it must not exit 4 when the
    # child may use at most 1 GiB.  Each word is a 65 KB argument, and a
    # word joined with itself is that word
    word = " ".join(["1 2"] * 16385)
    proc = subprocess.run(
        [sys.executable, "-m", "barcomb.cli", "meetjoin", "--n", "2", "--k", "14",
         "--op", "join", word, word],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == word + "\n" and proc.stderr == ""


def test_meetjoin_out_of_memory_exits_4(capsys, monkeypatch):
    # a MemoryError inside the join is one line on stderr and exit 4, with
    # no traceback
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(barcomb.lattice, "_join_words", out_of_memory)
    for op in ("meet", "join"):
        assert main(["meetjoin", "--n", "2", "--k", "0", "--op", op, "1 2 2 1", "1 1 2 2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "barcomb: out of memory\n"


def _child(*argv):
    return subprocess.run(
        [sys.executable, "-m", "barcomb.cli", *argv], capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--input", "B1", "--k", "-1"],
        ["gen", "--n", "3", "--seed", "1", "--k", "-1"],
        ["compare", "--k", "-1", "B1", "B1"],
        ["bound-check", "--k", "-1", "B1", "B1"],
    ],
)
def test_negative_levels_exit_2_naming_the_level(b1, argv):
    proc = _child(*(b1 if arg == "B1" else arg for arg in argv))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr == "barcomb: level -1 is negative; need k >= 0\n"


def test_compare_rejects_a_float_in_a_word_json(tmp_path):
    # the entry 1.7 once read as 1, so this printed EQ and exited 0
    (tmp_path / "w.json").write_text('{"word": [1.7, 2, 2, 1]}')
    (tmp_path / "w.txt").write_text("1 2 2 1\n")
    proc = _child("compare", "--k", "0", str(tmp_path / "w.json"), str(tmp_path / "w.txt"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "array of integers" in proc.stderr


def test_rank_verbose_needs_level_zero(capsys, b1):
    with pytest.raises(SystemExit):
        main(["rank", "--input", b1, "--k", "1", "--verbose"])


def test_compare_words(capsys, tmp_path):
    w = tmp_path / "a.txt"
    w.write_text("1 2 2 1 1 2\n")
    v = tmp_path / "b.txt"
    v.write_text("1 1 2 2 2 1\n")
    assert run(capsys, "compare", "--k", "1", str(w), str(v)) == (0, "INCOMPARABLE\n")
    assert run(capsys, "compare", "--k", "1", str(w), str(w)) == (0, "EQ\n")
    lo = tmp_path / "lo.txt"
    lo.write_text("1 1 2 1 2 2\n")
    hi = tmp_path / "hi.txt"
    hi.write_text("1 2 1 2 1 2\n")
    assert run(capsys, "compare", "--k", "1", str(lo), str(hi)) == (0, "LT\n")
    assert run(capsys, "compare", "--k", "1", str(hi), str(lo)) == (0, "GT\n")


def test_compare_barcodes_and_shape_check(capsys, b1, b2, tmp_path):
    assert run(capsys, "compare", "--k", "0", b1, b2) == (0, "EQ\n")
    w = tmp_path / "w.txt"
    w.write_text("1 2 2 1\n")  # multiplicity 2 is level 0, not level 1
    code, _ = run(capsys, "compare", "--k", "1", str(w), str(w))
    assert code == 3


def test_compare_word_json(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"n": 2, "m": 2, "word": [2, 1, 1, 2]}))
    other = tmp_path / "v.json"
    other.write_text(json.dumps({"n": 2, "m": 2, "word": [1, 2, 2, 1]}))
    # non-canonical input denotes its orbit: (2 1 1 2) canonicalizes to
    # (1 2 2 1), the same element
    assert run(capsys, "compare", "--k", "0", str(path), str(other)) == (0, "EQ\n")


def test_compare_loads_each_json_barcode_once(capsys, tmp_path, monkeypatch):
    # the value that tells a barcode from a word is the value the barcode is
    # read from, with parse_barcode_json's messages
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text("[[1.0, 2.0], [1.5, 3.0], [2.5, 2.75]]")
    b.write_text("[[1.5, 3.0], [1.0, 2.0], [2.5, 2.75]]")
    loads, real = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: loads.append(text) or real(text, **kw))
    assert run(capsys, "compare", "--k", "0", str(a), str(b)) == (0, "EQ\n")
    assert loads == [a.read_text(), b.read_text()]
    for text in ("[", "[]", "[[0, 1], [2, 2]]", "[[0, true]]"):
        with pytest.raises(ParseError) as info:
            barcomb.barcode.parse_barcode_json(text)
        a.write_text(text)
        loads.clear()
        assert main(["compare", "--k", "0", str(a), str(b)]) == 2
        assert capsys.readouterr().err == f"barcomb: {info.value}\n"
        assert loads == [text]


def test_hasse_dot_and_json(capsys, tmp_path):
    code, out = run(capsys, "hasse", "--n", "2", "--k", "1", "--dot", "-")
    assert code == 0
    assert out.count(" -> ") == 12
    assert out.count("[label=") == 10
    json_file = tmp_path / "h.json"
    code, _ = run(capsys, "hasse", "--n", "2", "--k", "0", "--json", str(json_file))
    assert code == 0
    payload = json.loads(json_file.read_text())
    assert payload["elements"] == [[1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 2, 1]]
    assert payload["covers"] == [[0, 1], [1, 2]]
    assert payload["ranks"] == [0, 1, 2]


def test_hasse_writes_the_emitters_text_block_by_block(capsys, tmp_path, monkeypatch):
    diagram = enumerate_lattice(LatticeSpec(3, 1))
    monkeypatch.setattr(barcomb.multiperm, "_CELLS", 1000)  # dozens of blocks
    code, out = run(capsys, "hasse", "--n", "3", "--k", "1", "--dot", "-", "--json", "-")
    assert code == 0 and out == fstring_dot(diagram) + dumps_json(diagram) + "\n"
    json_file = tmp_path / "h.json"
    assert run(capsys, "hasse", "--n", "3", "--k", "1", "--json", str(json_file))[0] == 0
    assert json_file.read_text() == dumps_json(diagram) + "\n"


def test_hasse_size_cap(capsys):
    code, _ = run(capsys, "hasse", "--n", "9", "--k", "1", "--dot", "-")
    assert code == 4


def test_one_bar_at_level_11_exits_0(capsys):
    # 2049 positions, more than Python's default recursion limit: the word
    # table is built one position at a time, so hasse and polytope answer
    # rather than end in a RecursionError traceback
    size = ["--n", "1", "--k", "11", "--cap", "5000"]
    assert main(["hasse", *size, "--json", "-"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"elements": [[1] * 2049], "covers": [], "ranks": [0]}
    assert err == ""
    assert main(["polytope", *size, "--dim"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"ambient": 2049, "dim": 0, "expected": 0, "blocks": 2049}
    assert err == ""
    # one bar has one word: the polytope is a point, of dimension 0
    assert main(["polytope", "--n", "1", "--k", "1", "--dim"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"ambient": 3, "dim": 0, "expected": 0, "blocks": 3}
    assert err == ""


def test_meetjoin(capsys):
    code, out = run(
        capsys,
        "meetjoin", "--n", "2", "--k", "1", "--op", "join",
        "1 2 2 1 1 2", "1 1 2 2 2 1",
    )
    assert (code, out) == (0, "1 2 2 1 2 1\n")
    code, out = run(
        capsys,
        "meetjoin", "--n", "2", "--k", "0", "--op", "meet",
        "1 2 1 2", "1 2 1 2",
    )
    assert (code, out) == (0, "1 2 1 2\n")
    code, _ = run(
        capsys,
        "meetjoin", "--n", "2", "--k", "0", "--op", "meet",
        "2 1 1 2", "1 2 2 1",
    )
    assert code == 3  # not canonical, so not an element


def test_meetjoin_beyond_enumeration(capsys):
    # (5,1) has 1.4 million elements; meet and join must not enumerate them
    s, t = "1 2 3 1 4 5 2 3 4 5 1 2 3 4 5", "1 1 2 3 2 4 4 5 3 5 1 2 5 3 4"
    words = [Multipermutation.from_string(w) for w in (s, t)]
    for op in ("meet", "join"):
        code, out = run(capsys, "meetjoin", "--n", "5", "--k", "1", "--op", op, s, t)
        assert code == 0
        bound = Multipermutation.from_string(out)
        assert bound.is_canonical
        for w in words:
            assert newman_leq(bound, w) if op == "meet" else newman_leq(w, bound)


def test_meetjoin_has_no_position_cap():
    # 18 positions, past the enumeration cap of 16; meet and join never enumerate
    s = "1 2 3 4 5 6 1 2 3 4 5 6 1 2 3 4 5 6"
    t = "1 1 1 2 2 2 3 3 3 4 4 4 5 5 5 6 6 6"
    argv = ["meetjoin", "--n", "6", "--k", "1", "--op", "join", s, t]
    code, err = run_isolated(argv)
    assert code == 0, err
    code, err = run_isolated([*argv, "--cap", "18"])
    assert code == 2 and "--cap" in err


def run_isolated(argv):
    """Exit code and stderr of ``main``, counting argparse's exit as a code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


word_text = st.one_of(
    st.lists(st.integers(-1, 5), max_size=20).map(lambda xs: " ".join(map(str, xs))),
    st.text(alphabet=st.sampled_from("0123456789 -+_x"), max_size=30),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
sizes = st.one_of(st.integers(-1, 5), st.integers(-2, 70)).map(str)


@settings(deadline=None)
@given(st.sampled_from(["meet", "join"]), sizes, sizes, word_text, word_text)
def test_meetjoin_fuzz_exits_cleanly(op, n, k, s, t):
    code, err = run_isolated(["meetjoin", "--n", n, "--k", k, "--op", op, "--", s, t])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


@settings(deadline=None)
@given(sizes, word_text, word_text)
def test_compare_fuzz_exits_cleanly(tmp_path_factory, k, s, t):
    directory = tmp_path_factory.mktemp("words")
    a, b = directory / "a.txt", directory / "b.txt"
    a.write_text(s, encoding="utf-8")
    b.write_text(t, encoding="utf-8")
    code, err = run_isolated(["compare", "--k", k, str(a), str(b)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
value = st.one_of(
    finite,
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "", "x", "true", "0x1p3"]),
)
csv_text = st.one_of(
    st.lists(st.tuples(value, value), max_size=6).map(
        lambda rows: "\n".join(f"{b},{d}" for b, d in rows)
    ),
    st.lists(st.tuples(finite, finite), min_size=1, max_size=6).map(
        lambda rows: "".join(f"{b},{b + abs(d) + 1}\n" for b, d in rows)
    ),
    st.text(max_size=40),
)
json_value = st.one_of(
    st.floats(), st.integers(-(10**400), 10**400), st.booleans(), st.none(), st.text(max_size=3)
)
json_text = st.one_of(
    st.lists(st.lists(json_value, max_size=3), max_size=6).map(json.dumps),
    st.lists(st.tuples(finite, finite), min_size=1, max_size=6).map(
        lambda rows: json.dumps([[b, b + abs(d) + 1] for b, d in rows])
    ),
    st.dictionaries(st.text(max_size=4), json_value, max_size=3).map(json.dumps),
    st.text(max_size=40),
)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_barcode_commands_fuzz_exits_cleanly(tmp_path_factory, data):
    ext = data.draw(st.sampled_from([".csv", ".json"]))
    text = csv_text if ext == ".csv" else json_text
    directory = tmp_path_factory.mktemp("bars")
    a, b = str(directory / f"a{ext}"), str(directory / f"b{ext}")
    with open(a, "w", encoding="utf-8") as fh:
        fh.write(data.draw(text))
    with open(b, "w", encoding="utf-8") as fh:
        fh.write(data.draw(text))
    k = str(data.draw(st.integers(-1, 3)))
    q = str(data.draw(st.sampled_from([1, 2, 0.5, 0, -1, 1000])))
    for argv in (
        ["invariant", "--input", a, "--k", k],
        ["invariant", "--input", a, "--k", k, "--labeled"],
        ["rank", "--input", a, "--k", k],
        ["rank", "--input", a, "--k", "0", "--verbose"],
        ["distance", a, b],
        ["distance", "--metric", "wasserstein", "--q", q, "--witness", a, b],
        ["distance", "--align", a, b],
        ["bound-check", "--k", k, "--q", q, a, b],
        ["compare", "--k", k, a, b],
    ):
        code, err = run_isolated(argv)
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err


def test_compare_treats_extensionless_files_as_words(capsys, tmp_path):
    word = tmp_path / "word"
    word.write_text("1 2 2 1\n")
    assert run(capsys, "compare", "--k", "0", str(word), str(word)) == (0, "EQ\n")


def test_polytope_enumerates_once(capsys, tmp_path, monkeypatch):
    calls = []
    word_table = barcomb.polytope._word_table

    def counted(*args):
        calls.append(args)
        return word_table(*args)

    monkeypatch.setattr(barcomb.polytope, "_word_table", counted)
    out_file = tmp_path / "v.csv"
    code, out = run(
        capsys, "polytope", "--n", "3", "--k", "0", "--vertices", str(out_file), "--dim"
    )
    assert code == 0 and json.loads(out)["dim"] == 4
    assert len(calls) == 1


def test_distance(capsys, tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("0,2\n")
    b = tmp_path / "b.csv"
    b.write_text("0,3\n")
    assert run(capsys, "distance", str(a), str(b)) == (0, "1\n")
    assert run(capsys, "distance", str(a), str(a)) == (0, "0\n")
    code, out = run(
        capsys, "distance", "--metric", "wasserstein", "--q", "1",
        str(a), str(b), "--witness",
    )
    assert code == 0
    assert json.loads(out) == {"distance": 1.0, "pairs": [[1, 1]]}


def test_distance_align(capsys, tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("0,1\n0.25,0.5\n")
    b = tmp_path / "b.csv"
    b.write_text("10,12\n10.5,11\n")  # the same barcode, scaled and shifted
    code, out = run(capsys, "distance", str(a), str(b), "--align")
    payload = json.loads(out)
    assert code == 0
    assert payload["alpha"] == 0.5 and payload["delta"] == -5.0
    assert payload["distance"] == 0.0
    # no finite map aligns these: a violated precondition, in one line
    a.write_text("0,1e300\n0.5,2\n")
    b.write_text("0,1e-300\n1e-301,5e-301\n")
    proc = _child("distance", str(a), str(b), "--align")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("barcomb: no finite alignment")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_bound_check(capsys, tmp_path):
    base = tmp_path / "base.csv"
    code, gen_out = run(
        capsys, "gen", "--n", "4", "--seed", "42", "--k", "2", "--contained"
    )
    assert code == 0
    base.write_text(gen_out)
    code, out = run(capsys, "bound-check", "--k", "2", "--q", "2", str(base), str(base))
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["d_inf"] == 0.0
    no_container = tmp_path / "flat.csv"
    no_container.write_text("0,2\n1,3\n")
    code, _ = run(
        capsys, "bound-check", "--k", "0", "--q", "1",
        str(no_container), str(no_container),
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "A", "A"],
        ["distance", "--metric", "wasserstein", "A", "A"],
        ["distance", "--metric", "wasserstein", "--q", "3", "--witness", "A", "A"],
        ["bound-check", "--k", "0", "A", "A"],
    ],
)
def test_distances_refuse_an_overflowing_bar_length_in_one_line(tmp_path, argv):
    # the length of bar 2 overflows; the bottleneck answered 0 from an
    # infinite diagonal cost and Wasserstein failed in scipy, each after
    # numpy warnings with their source lines
    path = tmp_path / "big.csv"
    path.write_text("0,1\n-1e308,1e308\n")
    proc = _child(*(str(path) if arg == "A" else arg for arg in argv))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("barcomb: bar 2 (-1e+308, 1e+308) ")
    assert proc.stderr.endswith("its length overflows\n")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, out",
    [
        (["distance"], "4.9999999999999981e+306\n"),
        (["distance", "--metric", "wasserstein"], "9.9999999999999961e+306\n"),
        (
            ["distance", "--metric", "wasserstein", "--q", "3", "--witness"],
            '{"distance": 6.299605249474363e+306, "pairs": [[1, null], [null, 1]]}\n',
        ),
    ],
)
def test_distances_answer_when_a_cross_cost_overflows(tmp_path, argv, out):
    # the two bars are 3e308 apart, beyond the double range, while each is
    # 5e306 from the diagonal: both go there, silently
    low, high = tmp_path / "low.csv", tmp_path / "high.csv"
    low.write_text("-1.5e308,-1.4e308\n")
    high.write_text("1.5e308,1.6e308\n")
    proc = _child(*argv, str(low), str(high))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize("argv", [["distance", "--align"], ["distance", "--align", "--witness"]])
def test_an_alignment_that_overflows_exits_2_in_one_line(tmp_path, argv):
    # alpha = 1e300 carries the death of bar 2 of b past the double range;
    # numpy warned with its source line, and the message named no bar
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("0,1e300\n1,2\n")
    b.write_text("0,1\n0.5,1e10\n")
    proc = _child(*argv, str(a), str(b))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "barcomb: aligning the second barcode onto the first: bar 2 "
        "(0.5, 10000000000.0) maps to (5e+299, inf) under x -> 1e+300 * x + 0.0, "
        "which is not finite\n"
    )


def test_an_alignment_that_collapses_a_bar_exits_2_in_one_line(tmp_path):
    # alpha = 32768 and delta = 1e20 round both ends of bar 2 of d to 1e20;
    # the message named no bar
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    c.write_text("1e20,100000000000000032768\n1e21,2e21\n")
    d.write_text("0,1\n0.1,0.2\n")
    proc = _child("distance", "--align", str(c), str(d))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "barcomb: aligning the second barcode onto the first: bar 2 (0.1, 0.2) maps to"
        " (1e+20, 1e+20) under x -> 32768.0 * x + 1e+20, which needs birth < death\n"
    )


def test_polytope(capsys, tmp_path):
    code, out = run(capsys, "polytope", "--n", "2", "--k", "0")
    assert code == 0
    assert json.loads(out) == {"ambient": 4, "dim": 2, "expected": 2, "blocks": 2}
    csv_file = tmp_path / "v.csv"
    code, out = run(
        capsys, "polytope", "--n", "2", "--k", "0", "--vertices", str(csv_file)
    )
    assert code == 0 and out == ""
    assert csv_file.read_text() == "1,2,3,4\n1,3,2,4\n1,3,4,2\n"
    json_file = tmp_path / "v.json"
    code, out = run(
        capsys,
        "polytope", "--n", "2", "--k", "0", "--vertices", str(json_file), "--dim",
    )
    assert code == 0
    assert json.loads(json_file.read_text()) == [
        [1, 2, 3, 4], [1, 3, 2, 4], [1, 3, 4, 2],
    ]
    assert json.loads(out)["dim"] == 2


def test_gen_deterministic_and_round_trips(capsys, tmp_path):
    args = ["gen", "--n", "3", "--seed", "7", "--k", "1", "--contained"]
    code_a, out_a = run(capsys, *args)
    code_b, out_b = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-identical
    path = tmp_path / "gen.csv"
    path.write_text(out_a)
    # every command ingests generated output without error
    assert run(capsys, "invariant", "--input", str(path), "--k", "1")[0] == 0
    assert run(capsys, "rank", "--input", str(path), "--k", "1")[0] == 0
    assert run(capsys, "compare", "--k", "1", str(path), str(path)) == (0, "EQ\n")
    assert run(capsys, "distance", str(path), str(path)) == (0, "0\n")
    assert (
        run(capsys, "bound-check", "--k", "1", "--q", "1", str(path), str(path))[0]
        == 0
    )


def test_gen_spread(capsys):
    code, out = run(capsys, "gen", "--n", "2", "--seed", "1", "--spread", "1.0")
    assert code == 0
    values = [float(v) for line in out.splitlines() for v in line.split(",")]
    assert all(-1.0 <= v <= 2.0 for v in values)


@pytest.mark.parametrize("spread", ["0", "-1", "nan", "inf"])
def test_gen_refuses_a_spread_that_is_not_finite_and_positive(capsys, spread):
    assert main(["gen", "--n", "3", "--seed", "1", "--k", "1", f"--spread={spread}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"barcomb: need a finite spread > 0, got {float(spread)}\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "barcomb.cli", "polytope", "--n", "2", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 4


_SCIPY_CHILD = """
import contextlib, io, json, sys
from barcomb.cli import main
from barcomb.errors import ParseError

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

stages = []
for argvs in json.loads(sys.argv[1]):
    outs = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        outs.append((code, out.getvalue()))
    stages.append((outs, scipy_modules()))
print(json.dumps(stages))
"""


def test_only_the_distance_solvers_load_scipy(tmp_path):
    # one fresh interpreter: the combinatorial subcommands load no scipy
    # module, the bottleneck loads no scipy.optimize, and Wasserstein, which
    # does, answers as before
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for path, seed in ((a, 11), (b, 12)):
        barcode = barcomb.barcode.generate_barcode(6, seed=seed, k=1)
        with open(path, "w") as fh:
            fh.write(barcomb.barcode.format_barcode_csv(barcode))
    combinatorial = [
        ["gen", "--n", "4", "--seed", "1", "--k", "1"],
        ["invariant", "--input", a, "--k", "1"],
        ["rank", "--input", a, "--k", "0"],
        ["compare", "--k", "0", a, b],
        ["hasse", "--n", "2", "--k", "1", "--json", "-"],
        ["meetjoin", "--n", "2", "--k", "1", "--op", "join", "1 2 1 2 1 2", "1 1 2 2 1 2"],
        ["polytope", "--n", "2", "--k", "1", "--dim"],
    ]
    stages = [
        combinatorial,
        [["distance", a, b]],
        [["distance", "--metric", "wasserstein", "--q", "2", "--witness", a, b]],
    ]
    src = os.path.dirname(os.path.dirname(barcomb.barcode.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_CHILD, json.dumps(stages)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    (words, none), (bottleneck, sparse_only), (wasserstein, solvers) = json.loads(
        proc.stdout
    )
    assert [code for code, _ in words] == [0] * len(combinatorial)
    assert words[2:4] == [[0, "13\n"], [0, "INCOMPARABLE\n"]]
    assert none == []
    assert bottleneck == [[0, "1.8532657414033444\n"]]
    assert "scipy.sparse" in sparse_only and "scipy.optimize" not in sparse_only
    assert wasserstein == [
        [
            0,
            '{"distance": 3.3938266208881878, "pairs": [[1, 5], [2, 1], [3, null],'
            ' [4, 4], [5, 2], [6, null], [null, 3], [null, 6]]}\n',
        ]
    ]
    assert "scipy.optimize" in solvers
