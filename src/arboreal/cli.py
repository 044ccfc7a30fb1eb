"""Batch command-line front end.

Subcommands wrap the library one-to-one and emit deterministic JSON records
(or aligned tables) with a provenance field naming the rule behind each
verdict.  Exit codes: 0 success, 1 input error, 2 inconclusive (with
partial output, or {"error": ...} when an adjusted-orbit value vanishes or a
budget runs out).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Sequence, Tuple

from . import curves as curves_mod
from . import galois, indexsets, treegroup
from .dynamics import (
    DegeneracyError,
    QuadPair,
    _as_json,
    adjusted_orbit,
    in_post_critical_orbit,
    is_exceptional,
    is_pcf,
    orbit_valuations,
    parse_rational,
)
from .primes import DEFAULT_BUDGET, BudgetExceeded
from .squares import square_class

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2

EXCEPTIONAL_NOTE = (
    "derived closed form: a finite backward orbit forces the normal form (x^2, 0)"
)


def classify_pair(
    pair: QuadPair,
    prime_bound: int = galois.DEFAULT_PRIME_BOUND,
    dim_N: int = galois.DEFAULT_DIM_N,
) -> dict:
    """Full classification record for one pair."""
    c, beta = pair.normal_form()
    record: dict = {
        "pair": _as_json(pair),
        "normal_form": {"c": str(c), "beta": str(beta)},
    }
    record["pcf"] = _as_json(is_pcf(pair))
    record["exceptional"] = is_exceptional(pair)
    record["degenerate"] = in_post_critical_orbit(pair)
    verdict = galois.classify_abelian(pair, prime_bound, dim_N)
    record["abelian"] = verdict.to_json()
    try:
        record["ab_dimension"] = galois.ab_dimension(pair, dim_N)
        record["ab_dimension_N"] = dim_N
    except DegeneracyError as exc:
        record["ab_dimension"] = None
        record["ab_dimension_note"] = str(exc)
    try:
        data = galois.level2_data(pair)
        record["level2"] = data.group.value
        record["level2_case"] = data.case
    except DegeneracyError as exc:
        record["level2"] = None
        record["level2_note"] = str(exc)
    record["inconclusive"] = False  # kept for the JSON contract: nothing here factors
    record["provenance"] = {
        "pcf": "orbit-iteration-with-escape-and-valuation-bounds",
        "exceptional": EXCEPTIONAL_NOTE,
        "abelian": verdict.provenance,
        "level2": "splitting-field-case-analysis",
        "ab_dimension": "square-class-span",
    }
    return record


def _emit(records: List[dict], output: str, table_fields: Sequence[str]) -> None:
    if output == "json":
        print(json.dumps(records, indent=2, sort_keys=True))
        return
    for record in records:
        cells = []
        for f in table_fields:
            value = record
            for part in f.split("."):
                value = value.get(part) if isinstance(value, dict) else None
            cells.append(str(value))
        print("\t".join(cells))


def _parse_pairs(args) -> List[QuadPair]:
    texts: List[str] = list(args.pairs or [])
    if args.csv:
        with open(args.csv, newline="") as fh:
            for row in csv.reader(fh):
                if row:
                    texts.append(",".join(row))
    if not texts:
        raise ValueError("no pairs given")
    return [QuadPair.parse(t) for t in texts]


def rationals_of_height(H: int) -> List[Fraction]:
    """All rationals p/q in lowest terms with |p| <= H and 1 <= q <= H, the
    point search's curves._lowest_terms(H), sorted.

    Height 0 still contains 0, so the smallest grid is {0} x {0}; a negative
    height is a ValueError.
    """
    if H < 0:
        raise ValueError(f"height must be nonnegative, got {H}")
    return sorted(Fraction(p, q) for p, q in curves_mod._lowest_terms(H)) if H else [Fraction(0)]


def _grid(H: int) -> List[Tuple[int, int, str, Fraction]]:
    """rationals_of_height(H) as (numerator, denominator, text, value)."""
    return [(v.numerator, v.denominator, str(v), v) for v in rationals_of_height(H)]


# Most (c, alpha) pairs one survey classifies: 30/30 has 1,234,321 pairs and
# peaks at 122 MB RSS, a tuple per row, each row written as it is formatted.
# The cap bounds time too: 50/50 (9,579,025 pairs) took 18 s before it.
_SURVEY_PAIR_CAP = 1_250_000


def _check_survey_size(c_height: int, alpha_height: int) -> None:
    """Reject a survey of more than _SURVEY_PAIR_CAP pairs before any grid is
    built.  A grid of height H holds the 2H + 1 integers -H..H, which bounds
    the heights before the exact count."""
    heights = (alpha_height, c_height)
    for H in heights:
        if H < 0:
            raise ValueError(f"height must be nonnegative, got {H}")
    if (
        math.prod(2 * H + 1 for H in heights) > _SURVEY_PAIR_CAP
        or math.prod(map(curves_mod._grid_size, heights)) > _SURVEY_PAIR_CAP
    ):
        raise ValueError(
            f"need at most {_SURVEY_PAIR_CAP} survey pairs, "
            f"heights {c_height} and {alpha_height} give more"
        )


def run_survey(
    c_height: int,
    alpha_height: int,
    prime_bound: int = galois.DEFAULT_PRIME_BOUND,
    dim_N: int = galois.DEFAULT_DIM_N,
) -> dict:
    """Classify every normal-form pair (x^2 + c, alpha) on the height grid.

    The level-2 D8 test decides most pairs on the integers
    galois._level2_classes reads off c = a/b and alpha = r/s.  Only the
    other pairs reach classify_abelian.  Each row is a (c, alpha, status,
    provenance) tuple of strings.  A grid of more than _SURVEY_PAIR_CAP pairs
    is a ValueError.
    """
    _check_survey_size(c_height, alpha_height)
    alphas = _grid(alpha_height)
    cs = _grid(c_height)
    galois._check_settings(prime_bound, dim_N)
    abelian: List[dict] = []
    counts = {"abelian": 0, "nonabelian": 0, "not_applicable": 0}
    rows: List[Tuple[str, str, str, str]] = []
    for a, b, c_text, c in cs:
        for r, s, alpha_text, alpha in alphas:
            q1, q2 = galois._level2_classes(a, b, r, s)
            if q1 and q2 and galois._independent_classes(q1, q2):
                status, provenance = galois.D8_STATUS, galois.D8_PROVENANCE
            else:
                pair = QuadPair.from_normal(c, alpha)
                verdict = galois.classify_abelian(pair, prime_bound, dim_N)
                status, provenance = verdict.status, verdict.provenance
                if status == "abelian":
                    abelian.append({"c": c_text, "alpha": alpha_text, "tag": verdict.tag})
            counts[status] += 1
            rows.append((c_text, alpha_text, status, provenance))
    return {
        "grid": {"c_height": c_height, "alpha_height": alpha_height},
        "counts": counts,
        "abelian_pairs": abelian,
        "rows": rows,
    }


def _cmd_classify(args) -> int:
    pairs = _parse_pairs(args)
    records = [classify_pair(p, args.prime_bound, args.dim_n) for p in pairs]
    _emit(records, args.format, ("normal_form.c", "normal_form.beta", "abelian.status"))
    return EXIT_OK


# one row of json.dumps(result, indent=2, sort_keys=True), whose keys are fixed
_ROW_JSON = (
    '    {\n      "alpha": %s,\n      "c": %s,\n      "provenance": %s,\n      "status": %s\n    }'
)


def _cmd_survey(args) -> int:
    """Write the survey row by row, so no string holds every row: the JSON is
    json.dumps(result, indent=2, sort_keys=True), with the rows, which sort
    last, written from _ROW_JSON."""
    result = run_survey(args.c_height, args.alpha_height, args.prime_bound, args.dim_n)
    write = sys.stdout.write
    if args.format == "json":
        head = json.dumps(dict(result, rows=[]), indent=2, sort_keys=True)
        write(head[: -len("]\n}")])
        esc, sep = encode_basestring_ascii, "\n"
        for c, alpha, status, provenance in result["rows"]:
            write(sep + _ROW_JSON % (esc(alpha), esc(c), esc(provenance), esc(status)))
            sep = ",\n"
        write("\n  ]\n}\n")
    else:
        for c, alpha, status, _ in result["rows"]:
            write(f"{c}\t{alpha}\t{status}\n")
        counts = "abelian=%(abelian)d nonabelian=%(nonabelian)d not_applicable=%(not_applicable)d"
        write("summary: " + counts % result["counts"] + "\n")
    return EXIT_OK


def _cmd_orbit(args) -> int:
    pair = QuadPair.parse(args.pair)
    orbit = adjusted_orbit(pair, args.n)
    record = {"pair": pair.describe(), **_as_json(orbit)}
    _emit([record], args.format, ("pair", "degeneracy_index"))
    return EXIT_OK


def _cmd_pcf(args) -> int:
    records = []
    for text in args.pairs:
        text = text.strip()  # main may have prefixed a space
        pair = QuadPair.parse(text) if "," in text else QuadPair.from_normal(parse_rational(text), 0)
        records.append({"input": text, "verdict": _as_json(is_pcf(pair))})
    _emit(records, args.format, ("input", "verdict.kind"))
    return EXIT_OK


def _cmd_contain(args) -> int:
    pair = QuadPair.parse(args.pair)
    vector = indexsets.IndexVector.parse(args.vector)
    result = galois.contained_in_Mv(pair, vector)
    record = {
        "pair": pair.describe(),
        "vector": list(vector.support),
        "contained": result,
        "provenance": "square-product-containment",
    }
    _emit([record], args.format, ("pair", "contained"))
    return EXIT_OK


def _cmd_abdim(args) -> int:
    pair = QuadPair.parse(args.pair)
    dim = galois.ab_dimension(pair, args.n)
    record = {"pair": pair.describe(), "N": args.n, "dimension": dim}
    try:
        orbit = adjusted_orbit(pair, args.n)
        record["classes"] = [
            square_class(v, args.factor_budget).to_vector().to_json()
            for v in orbit.adjusted
        ]
    except BudgetExceeded:
        record["classes"] = None  # only the display factors, not the dimension
    _emit([record], args.format, ("pair", "dimension"))
    return EXIT_OK


def _cmd_group2(args) -> int:
    pair = QuadPair.parse(args.pair)
    data = galois.level2_data(pair)
    record = {
        "pair": pair.describe(),
        "group": data.group.value,
        "case": data.case,
        "c1": str(data.c1),
        "c2": str(data.c2),
    }
    if args.frobenius:
        primes = galois.good_primes(pair, 2, args.frobenius)
        report = galois.frobenius_sample(pair, 2, primes)
        record["frobenius"] = {
            "primes": len(report.primes),
            "partitions": {
                "+".join(map(str, part)): count
                for part, count in sorted(report.partitions.items())
            },
            "compatible": sorted(g.value for g in report.compatible or ()),
        }
    _emit([record], args.format, ("pair", "group"))
    return EXIT_OK


def _cmd_valuations(args) -> int:
    report = orbit_valuations(parse_rational(args.c), args.p, args.n)
    _emit([_as_json(report)], args.format, ("c", "p", "pattern", "conformant"))
    return EXIT_OK


def _cmd_poonen(args) -> int:
    result = galois.poonen_check(parse_rational(args.c), parse_rational(args.alpha), args.p)
    record = {
        "c": args.c.strip(),  # main may have prefixed a space
        "alpha": args.alpha.strip(),
        "p": args.p,
        "infinitely_ramified": result.infinitely_ramified,
        "condition": result.condition,
        "details": result.details,
        "provenance": "odd-place-ramification-test",
    }
    _emit([record], args.format, ("p", "infinitely_ramified", "condition"))
    return EXIT_OK if result.infinitely_ramified else EXIT_INCONCLUSIVE


def _parse_family(text: Optional[str], path: Optional[str]) -> indexsets.IndexFamily:
    vectors: List[indexsets.IndexVector] = []
    if text:
        for part in text.split(";"):
            part = part.strip()
            if part:
                vectors.append(indexsets.IndexVector.parse(part))
    if path:
        with open(path) as fh:
            content = fh.read().strip()
        if content.startswith("["):
            # JSON array: entries are arrays of indices or "{...}" strings
            for entry in json.loads(content):
                if isinstance(entry, str):
                    vectors.append(indexsets.IndexVector.parse(entry))
                elif isinstance(entry, list) and all(type(i) is int for i in entry):
                    vectors.append(indexsets.IndexVector(entry))
                else:
                    raise ValueError(f"--family-file entry {entry!r} is neither a list of integers nor a string")
        else:
            for line in content.splitlines():
                line = line.strip()
                if line:
                    vectors.append(indexsets.IndexVector.parse(line))
    if not vectors:
        raise ValueError("no index vectors given")
    return indexsets.IndexFamily(vectors)


def _cmd_indexset(args) -> int:
    family = _parse_family(args.family, args.family_file)
    records = []
    if args.progression:
        what = f"--progression {args.progression.strip()!r}"
        values = indexsets.parse_ints(args.progression, what)
        if len(values) != 2:
            raise ValueError(f"{what}: expected 'k,l'")
        k, length = values
        targets = [indexsets.IndexVector.parse(t) for t in args.span or []]
        report = indexsets.progressing_witness(family, k, length, targets)
        records.append(
            {
                "check": "progressing",
                "k": k,
                "length": length,
                "ok": report.ok,
                "offenders": list(report.offenders),
                "span": [
                    {"in_span": inside, "certificate": list(cert) if cert is not None else None, "progression": prog}
                    for inside, cert, prog in report.span_results
                ],
            }
        )
    if args.coprime is not None:
        report = indexsets.m_coprime_witness(family, args.coprime)
        records.append({"check": "m-coprime", "M": args.coprime, **_as_json(report)})
    if not records:
        raise ValueError("choose --progression k,l and/or --coprime M")
    _emit(records, args.format, ("check", "ok"))
    return EXIT_OK


def _cmd_bertrand(args) -> int:
    if args.upto is not None:
        if args.upto < 1:
            raise ValueError(f"--upto must be positive, got {args.upto}")
        terms = list(range(1, args.upto + 1))
    else:
        terms = indexsets.parse_ints(args.terms, f"--terms {args.terms.strip()!r}")
    built = indexsets.bertrand_family(terms)
    record = {
        "terms": len(terms),
        "witnesses": list(built.witnesses) if len(terms) <= 200 else None,
        "max_witness": max(built.witnesses),
        "postulate_margin_ok": all(
            2 * w > t for t, w in zip(terms, built.witnesses) if t >= 2
        ),
    }
    if args.check_coprime:
        report = indexsets.m_coprime_witness(built.family, 0)
        record["coprime_ok"] = report.ok
        record["witnesses_match"] = tuple(report.witnesses) == built.witnesses
        record["unbounded_evidence"] = report.unbounded_evidence
    _emit([record], args.format, ("terms", "max_witness"))
    return EXIT_OK


def _cmd_tree_verify(args) -> int:
    counterexamples, scanned = treegroup.verify_noncommutation(
        args.depth, sample=args.sample, seed=args.seed
    )
    exhaustive = args.sample is None and args.depth <= treegroup.EXHAUSTIVE_DEPTH
    record = {
        "depth": args.depth,
        "pairs_scanned": scanned,
        "mode": "exhaustive" if exhaustive else "sampled",
        "counterexamples": [
            {"sigma": str(s), "tau": str(t)} for s, t in counterexamples
        ],
    }
    if args.format == "table":
        if counterexamples:
            print("counterexamples found: %d" % len(counterexamples))
        else:
            print("no counterexamples (%d pairs)" % scanned)
    else:
        _emit([record], "json", ())
    return EXIT_OK if not counterexamples else EXIT_INCONCLUSIVE


def _cmd_curve(args) -> int:
    pair = QuadPair.parse(args.pair)
    record: dict = {"pair": pair.describe()}
    if args.vector:
        vector = indexsets.IndexVector.parse(args.vector)
        # the vector's curve, whether or not its product is a square
        curve = curves_mod._progression_curve(pair, vector, args.i0, args.k)
        point = curves_mod.construct_point(pair, vector, args.i0, args.k)
        record["constructed_point"] = None if point is None else {"x": str(point.x), "y": str(point.y)}
    else:
        curve = curves_mod.CurveSpec(pair, 1 if args.k is None else args.k, args.l, args.i0)
    # --x and --search check depth and cap before the fields that grow with l
    if args.x is not None:
        record["rhs_at_x"] = str(curves_mod.rhs_eval(curve, parse_rational(args.x)))
    if args.search is not None:
        points = curves_mod.naive_point_search(curve, args.search)
        record["points"] = [[str(x), str(y)] for x, y in points]
        record["search_height"] = args.search
    record["curve"] = curve.describe()
    record["genus"] = curve.genus
    record["genus_at_least_2"] = curve.genus >= 2
    record["smooth"] = curves_mod.is_smooth(curve)
    _emit([record], args.format, ("pair", "genus", "smooth"))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="arboreal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def classifier_settings(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--prime-bound",
            type=int,
            default=galois.DEFAULT_PRIME_BOUND,
            help="odd primes scanned by the ramification test, at most 10^6 (default %(default)s)",
        )
        p.add_argument(
            "--dim-n",
            type=int,
            default=galois.DEFAULT_DIM_N,
            help="orbit values spanned by the faithful-node certificate (default %(default)s)",
        )

    p = sub.add_parser("classify", help="full classification records")
    p.add_argument("pairs", nargs="*", help="pairs as 'a,b,alpha' or 'c,alpha'")
    p.add_argument("--csv", help="CSV file of pairs")
    classifier_settings(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("survey", help="abelian survey over a height grid")
    p.add_argument("--c-height", type=int, required=True)
    p.add_argument("--alpha-height", type=int, required=True)
    classifier_settings(p)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("orbit", help="adjusted post-critical orbit")
    p.add_argument("pair")
    p.add_argument("-N", "--n", type=int, default=10)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("pcf", help="post-critical finiteness verdicts")
    p.add_argument("pairs", nargs="+", help="pairs, or bare c values")
    p.set_defaults(func=_cmd_pcf)

    p = sub.add_parser("contain", help="containment in a maximal subgroup")
    p.add_argument("pair")
    p.add_argument("vector", help="index vector like '{1,2}'")
    p.set_defaults(func=_cmd_contain)

    p = sub.add_parser("abdim", help="orbit span dimension modulo squares")
    p.add_argument("pair")
    p.add_argument("-N", "--n", type=int, default=galois.DEFAULT_DIM_N)
    p.add_argument(
        "--factor-budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="factoring units for the classes display: 1 per trial-division candidate, "
        "max(1, bits^2 >> 14) per rho step on a cofactor of that many bits "
        "(default %(default)s)",
    )
    p.set_defaults(func=_cmd_abdim)

    p = sub.add_parser("group2", help="exact level-2 Galois group")
    p.add_argument("pair")
    p.add_argument("--frobenius", type=int, default=0, help="cross-validate over N good primes")
    p.set_defaults(func=_cmd_group2)

    p = sub.add_parser("valuations", help="orbit valuations and divisibility pattern")
    p.add_argument("-c", required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-N", "--n", type=int, default=12)
    p.set_defaults(func=_cmd_valuations)

    p = sub.add_parser("poonen", help="odd-place infinite-ramification test")
    p.add_argument("-c", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_poonen)

    p = sub.add_parser("indexset", help="progression / coprimality checks")
    p.add_argument("--family", help="semicolon-separated vectors '{1,2};{2,3}'")
    p.add_argument("--family-file", help="file with one vector per line")
    p.add_argument("--progression", help="'k,l'")
    p.add_argument("--span", action="append", help="span target (repeatable)")
    p.add_argument("--coprime", type=int, help="threshold M")
    p.set_defaults(func=_cmd_indexset)

    p = sub.add_parser("bertrand", help="prefix family with prime witnesses")
    terms = p.add_mutually_exclusive_group(required=True)
    terms.add_argument("--terms", help="comma-separated strictly increasing a_n")
    terms.add_argument("--upto", type=int, help="use a_n = n for n <= UPTO")
    p.add_argument("--check-coprime", action="store_true")
    p.set_defaults(func=_cmd_bertrand)

    p = sub.add_parser("tree-verify", help="non-commutation search in the tree group")
    p.add_argument("depth", type=int)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument(
        "--seed", type=int, default=treegroup.DEFAULT_SEED, help="seed of a sampled scan (default %(default)s)"
    )
    p.set_defaults(func=_cmd_tree_verify)

    p = sub.add_parser("curve", help="orbit curves: points and search")
    p.add_argument("pair")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--i0", type=int, default=1)
    p.add_argument("--x", help="evaluate the right-hand side at x")
    p.add_argument("--vector", help="progression support like '{2,3}'")
    p.add_argument("--search", type=int, help="naive point search height")
    p.set_defaults(func=_cmd_curve)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "table"), default="json")
    return parser


_NUMERIC_TOKEN = re.compile(r"^-\d[-\d,/]*$")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # keep argparse from reading "-2,1" or "-5/2" as option switches
    argv = [(" " + a) if _NUMERIC_TOKEN.match(a) else a for a in argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # c_n has about 2^n digits, past CPython's default int-to-str limit of
    # 4300 digits by n = 15: lift it while the command runs (3.10.7 and up)
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"arboreal: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegeneracyError, BudgetExceeded) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return EXIT_INCONCLUSIVE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
