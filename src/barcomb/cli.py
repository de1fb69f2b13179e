"""Command-line front end.

Subcommands: invariant, rank, compare, hasse, meetjoin, distance,
bound-check, polytope, gen.  Outputs are byte-deterministic given identical
flags and input files.  Exit codes: 0 success, 2 input or parse problems,
3 violated preconditions (strictness, canonicity, shape, ...), 4 size caps
and running out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import Iterable

from . import barcode as bc
from . import distances as dist
from . import lattice as lat
from . import multiperm as mp
from . import polytope as poly
from .errors import (
    BarcombError,
    InvalidBarError,
    InvalidWordError,
    ParseError,
    ShapeMismatchError,
    TooLargeError,
)

_PARSE_ERRORS = (ParseError, InvalidBarError, InvalidWordError)


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks in turn to a file, or to stdout for "-"."""
    if path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _print_json(obj) -> None:
    print(json.dumps(obj))


def _cmd_invariant(args) -> int:
    # the labels of f_k; the barcode, and the sample order it keeps, is
    # dropped before the word is relabeled and written
    word = bc.require_k_strict(bc.read_barcode(args.input, args.format), args.k)
    if not args.labeled:
        word = mp._canonical(word, (1 << args.k) + 1)  # g_k
    # the text of print(word), written block by block, never as one string
    blocks = lat._text_blocks(len(word), [" ", word])
    _write("-", chain([next(blocks)[1:]], blocks, ["\n"]))
    return 0


def _cmd_rank(args) -> int:
    barcode = bc.read_barcode(args.input, args.format)
    value = mp.rank(mp.g_k(barcode, args.k))
    if args.verbose:
        n = len(barcode)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                print(f"cross({i},{j}) = {bc.crossing_number(barcode, i, j)}")
    print(value)
    return 0


def _load_comparand(path: str, k: int, fmt: str | None) -> mp.Multipermutation:
    """A canonical invariant from a barcode file or a word file."""
    if fmt is None:
        fmt = bc.format_from_extension(path) or "word"
    if fmt in ("csv", "json"):
        if fmt == "json":
            # barcode files hold an array; word files hold an object
            with open(path, "r", encoding="utf-8") as fh:
                data = bc._load_json(fh.read())
            if isinstance(data, dict):
                word = mp.Multipermutation.from_json_dict(data)
                return _as_level_word(word, k)
            barcode = bc._barcode_of_json(data)
        else:
            barcode = bc.read_barcode(path, "csv")
        return mp.g_k(barcode, k)
    if fmt == "word":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines:
            raise ParseError(f"no word found in {path!r}")
        return _as_level_word(mp.Multipermutation.from_string(lines[0]), k)
    raise ParseError(f"unknown format {fmt!r}")


def _as_level_word(word: mp.Multipermutation, k: int) -> mp.Multipermutation:
    bc.require_level_size(word.n, k, "word positions")
    if word.m != (1 << k) + 1:
        raise ShapeMismatchError(
            f"word has multiplicity {word.m}, level {k} needs {(1 << k) + 1}"
        )
    return mp.canonicalize(word)


def _cmd_compare(args) -> int:
    left = _load_comparand(args.a, args.k, args.format)
    right = _load_comparand(args.b, args.k, args.format)
    if left == right:
        print("EQ")
    elif mp.newman_leq(left, right):
        print("LT")
    elif mp.newman_leq(right, left):
        print("GT")
    else:
        print("INCOMPARABLE")
    return 0


def _cmd_hasse(args) -> int:
    diagram = lat.enumerate_lattice(lat.LatticeSpec(args.n, args.k), args.cap)
    if args.dot:
        _write(args.dot, diagram.dot_chunks())
    if args.json:
        _write(args.json, chain(diagram.json_chunks(), ["\n"]))
    return 0


def _cmd_meetjoin(args) -> int:
    spec = lat.LatticeSpec(args.n, args.k)
    s = mp.Multipermutation.from_string(args.s)
    t = mp.Multipermutation.from_string(args.t)
    op = lat.meet if args.op == "meet" else lat.join
    print(op(s, t, spec, spec.positions))  # meet and join never enumerate
    return 0


def _cmd_distance(args) -> int:
    left = bc.read_barcode(args.a, args.format)
    right = bc.read_barcode(args.b, args.format)
    payload: dict = {}
    if args.align:
        alignment, right = dist._aligned(left, right)
        payload["alpha"] = alignment.alpha
        payload["delta"] = alignment.delta
    if args.metric == "bottleneck":
        value, witness = dist.bottleneck(left, right)
    else:
        value, witness = dist.wasserstein(left, right, args.q)
    if args.witness or args.align:
        payload["distance"] = value
        if args.witness:
            payload["pairs"] = [list(p) for p in witness.pairs]
        _print_json(payload)
    else:
        print(bc.fmt17(value))
    return 0


def _cmd_bound_check(args) -> int:
    left = bc.read_barcode(args.a, args.format)
    right = bc.read_barcode(args.b, args.format)
    report = dist.check_convergence_bounds(left, right, args.k, args.q)
    _print_json(report.to_json_dict())
    return 0


def _cmd_polytope(args) -> int:
    spec = lat.LatticeSpec(args.n, args.k)
    vertex_set = poly.vertices(spec, args.cap)
    if args.vertices:
        if bc.format_from_extension(args.vertices) == "json":
            _write(args.vertices, chain(poly.vertices_json_chunks(vertex_set), ["\n"]))
        else:
            _write(args.vertices, poly.vertices_csv_chunks(vertex_set))
    if args.dim or not args.vertices:
        _print_json(poly._dimension_report(spec, vertex_set))
    return 0


def _cmd_gen(args) -> int:
    barcode = bc.generate_barcode(
        args.n, seed=args.seed, k=args.k, spread=args.spread, contained=args.contained
    )
    sys.stdout.write(bc.format_barcode_csv(barcode))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barcomb",
        description="Combinatorial invariants, lattices, and polytopes of barcodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("csv", "json")):
        p.add_argument(
            "--format", choices=choices, help="input format (default: by extension)"
        )

    p = sub.add_parser("invariant", help="print the level-k word of a barcode")
    p.add_argument("--input", required=True, help="barcode file (.csv or .json)")
    p.add_argument("--k", type=int, required=True, help="level (multiplicity 2^k+1)")
    p.add_argument(
        "--labeled", action="store_true", help="print the labeled word, uncanonicalized"
    )
    add_format(p)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("rank", help="print the lattice rank of a barcode invariant")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also print the per-pair crossing numbers (k = 0 only)",
    )
    add_format(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "compare", help="order two invariants: LT, GT, EQ, or INCOMPARABLE"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("a", help="barcode file or multipermutation word file")
    p.add_argument("b")
    add_format(p, choices=("csv", "json", "word"))
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("hasse", help="emit a lattice Hasse diagram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dot", help="write Graphviz DOT here ('-' for stdout)")
    p.add_argument("--json", help="write JSON here ('-' for stdout)")
    p.add_argument("--cap", type=int, default=lat.DEFAULT_POSITION_CAP)
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("meetjoin", help="meet or join of two lattice elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--op", choices=("meet", "join"), required=True)
    p.add_argument("s", help="word, e.g. '1 2 2 1'")
    p.add_argument("t")
    p.set_defaults(func=_cmd_meetjoin)

    p = sub.add_parser("distance", help="bottleneck or q-Wasserstein distance")
    p.add_argument("--metric", choices=("bottleneck", "wasserstein"), default="bottleneck")
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--align", action="store_true", help="affinely align b onto a first"
    )
    p.add_argument("--witness", action="store_true", help="print the matching")
    add_format(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser(
        "bound-check", help="verify the aligned level-k distance bounds"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("a")
    p.add_argument("b")
    add_format(p)
    p.set_defaults(func=_cmd_bound_check)

    p = sub.add_parser("polytope", help="barcode polytope vertices and dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vertices", help="write vertex vectors here (.csv or .json)")
    p.add_argument("--dim", action="store_true", help="print the dimension report")
    p.add_argument("--cap", type=int, default=lat.DEFAULT_POSITION_CAP)
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("gen", help="print a seeded k-strict barcode as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--spread", type=float, default=10.0)
    p.add_argument(
        "--contained",
        action="store_true",
        help="force a bar containing all the others",
    )
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "rank" and args.verbose and args.k != 0:
        parser.error("--verbose is only available with --k 0")
    if args.command == "hasse" and not (args.dot or args.json):
        parser.error("need --dot and/or --json")
    try:
        return args.func(args)
    except (*_PARSE_ERRORS, ValueError) as exc:
        print(f"barcomb: {exc}", file=sys.stderr)
        return 2
    except (TooLargeError, MemoryError) as exc:
        print(f"barcomb: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"barcomb: {exc}", file=sys.stderr)
        return 2
    except BarcombError as exc:
        print(f"barcomb: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
