import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import arboreal
import arboreal.curves
import arboreal.galois
from arboreal.cli import _SURVEY_PAIR_CAP, build_parser, main, rationals_of_height
from arboreal.curves import _grid_size, _lowest_terms
from arboreal.dynamics import MAX_ORBIT_N, QuadPair, adjusted_orbit
from arboreal.primes import primes_from


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_rationals_of_height():
    h1 = rationals_of_height(1)
    assert [str(v) for v in h1] == ["-1", "0", "1"]
    assert len(rationals_of_height(5)) == 39
    with pytest.raises(ValueError):
        rationals_of_height(-1)


def test_rationals_of_height_matches_a_gcd_double_loop():
    # an enumeration of its own, independent of curves._lowest_terms: every
    # p/q with gcd(p, q) = 1, |p| <= H and q <= max(H, 1), so {0} at H = 0
    for H in range(31):
        expected = sorted(
            Fraction(p, q) for q in range(1, max(H, 1) + 1) for p in range(-H, H + 1) if math.gcd(p, q) == 1
        )
        assert rationals_of_height(H) == expected, H


def test_classify_abelian_pair(capsys):
    code, records = run_json(capsys, "classify", "-2,1")
    assert code == 0
    rec = records[0]
    assert rec["abelian"]["status"] == "abelian"
    assert rec["normal_form"] == {"c": "-2", "beta": "1"}
    assert rec["pcf"]["kind"] == "pcf"


def test_classify_faithful_node_pair(capsys):
    code, records = run_json(capsys, "classify", "-1,-1/2")
    assert code == 0
    cert = records[0]["abelian"]["certificate"]
    assert cert["kind"] == "FaithfulNode2Dim"


def test_classify_pci_pair(capsys):
    code, records = run_json(capsys, "classify", "1,0")
    assert code == 0
    rec = records[0]
    assert rec["pcf"]["kind"] == "pci"
    assert rec["level2"] == "D8"


def test_classify_three_field_pair(capsys):
    code, records = run_json(capsys, "classify", "1,2,0")
    assert code == 0
    assert records[0]["normal_form"] == {"c": "-3", "beta": "-1"}


def test_classify_deterministic(capsys):
    _, out1 = run(capsys, "classify", "5,1")
    _, out2 = run(capsys, "classify", "5,1")
    assert out1 == out2


def test_classify_csv_round_trip(tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    path.write_text("0,1\n-2,-1\n1/2,1,3/4\n")
    code, records = run_json(capsys, "classify", "--csv", str(path))
    assert code == 0
    assert len(records) == 3
    assert records[0]["abelian"]["status"] == "abelian"
    assert records[2]["pair"] == {"a": "1/2", "b": "1", "alpha": "3/4"}


def test_survey_height_zero_is_the_exceptional_pair(capsys):
    code, result = run_json(capsys, "survey", "--c-height", "0", "--alpha-height", "0")
    assert code == 0
    assert result["counts"] == {"abelian": 0, "nonabelian": 0, "not_applicable": 1}


def test_classify_budget_exhaustion_exit_code(capsys):
    # c2 is a huge perfect square, so level 2 works over Q(sqrt(c1)); that
    # field is read off num*den of c1 without factoring, so the record is
    # complete and classify takes no factoring budget at all
    s = 10**9 + 7
    code, records = run_json(capsys, "classify", f"0,-{s * s}")
    assert code == 0
    rec = records[0]
    assert rec["level2"] == "V4"
    assert rec["level2_case"] == "biquadratic-V4"
    assert rec["inconclusive"] is False
    assert rec["abelian"]["status"] == "nonabelian"


def test_abdim_classes_null_when_display_budget_runs_out(capsys):
    # only the classes display factors; its budget running out leaves the
    # dimension decided
    code, records = run_json(capsys, "abdim", "1/3,2", "-N", "5", "--factor-budget", "10")
    assert code == 0
    rec = records[0]
    assert rec["classes"] is None
    assert rec["dimension"] == 5


def test_decisions_never_factor(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decision core factored")

    monkeypatch.setattr("arboreal.primes.factorize", refuse)
    monkeypatch.setattr("arboreal.squares.factorize", refuse)
    monkeypatch.setattr("arboreal.primes._split", refuse)
    s = 10**9 + 7
    for pair in (f"0,-{s * s}", "-8,-8", "1/3,5/7"):
        assert run(capsys, "classify", pair)[0] == 0
    assert run(capsys, "group2", f"0,-{s * s}")[0] == 0
    assert run(capsys, "survey", "--c-height", "3", "--alpha-height", "3")[0] == 0
    primes = primes_from(10**30)
    pq = next(primes) * next(primes)
    assert run(capsys, "pcf", f"1/{pq}")[0] == 0
    assert run(capsys, "classify", f"1/{pq},0", "--dim-n", "3")[0] == 0


def test_indexset_json_family_file(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text('[[1,2],[2,3],"{3,4}"]')
    code, records = run_json(
        capsys, "indexset", "--family-file", str(path), "--progression", "1,2"
    )
    assert code == 0
    assert records[0]["ok"] is True


@pytest.mark.parametrize("entry", ["5", '["x"]', "[1.5, 2]", "[true]"])
def test_indexset_json_family_file_names_a_bad_entry(tmp_path, capsys, entry):
    path = tmp_path / "family.json"
    path.write_text(f'[[1,2],{entry}]')
    assert main(["indexset", "--family-file", str(path), "--coprime", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("arboreal: input error: --family-file entry ")
    assert "is neither a list of integers nor a string" in captured.err


def test_survey_height_one(capsys):
    code, result = run_json(capsys, "survey", "--c-height", "1", "--alpha-height", "1")
    assert code == 0
    abelian = {(r["c"], r["alpha"]) for r in result["abelian_pairs"]}
    assert abelian == {("0", "1"), ("0", "-1")}
    counts = result["counts"]
    assert counts["abelian"] == 2
    assert counts["not_applicable"] == 1  # the exceptional pair (0, 0)
    assert sum(counts.values()) == 9


def test_orbit_command(capsys):
    code, records = run_json(capsys, "orbit", "-1,-1/2", "-N", "3")
    assert code == 0
    assert records[0]["adjusted"] == ["1/2", "1/2", "-1/2"]


def test_pcf_command(capsys):
    code, records = run_json(capsys, "pcf", "-2", "1")
    assert code == 0
    assert records[0]["verdict"]["kind"] == "pcf"
    assert records[1]["verdict"]["kind"] == "pci"


def test_pcf_command_valuation_witness_beyond_factoring_budget(capsys):
    # c = 1/(P*Q) with P, Q the first primes above 10^30: den(c) has no prime
    # factor up to trial division's 10^6, and none is needed for the verdict
    primes = primes_from(10**30)
    p, q = next(primes), next(primes)
    code, records = run_json(capsys, "pcf", f"1/{p * q}")
    assert code == 0
    verdict = records[0]["verdict"]
    assert verdict["kind"] == "pci"
    assert verdict["witness"] == "valuation"
    assert verdict["prime"] is None


def test_contain_command(capsys):
    code, records = run_json(capsys, "contain", "-2,0", "{1,2}")
    assert code == 0
    assert records[0]["contained"] is True


def test_contain_degenerate_exit_code(capsys):
    code, out = run(capsys, "contain", "-1,0", "{1}")
    assert code == 2
    assert "error" in json.loads(out)


def test_abdim_command(capsys):
    code, records = run_json(capsys, "abdim", "1,0", "-N", "6")
    assert code == 0
    assert records[0]["dimension"] == 6
    assert records[0]["classes"][0] == ["sign"]  # class of c_{1,0} = -1
    assert records[0]["classes"][1] == ["p:2"]


def test_group2_with_frobenius(capsys):
    code, records = run_json(capsys, "group2", "0,1", "--frobenius", "60")
    assert code == 0
    rec = records[0]
    assert rec["group"] == "C2"
    assert rec["group"] in rec["frobenius"]["compatible"]


# `group2 -2,0 --frobenius 100`, recorded before factor_degrees gained its
# Frobenius matrix.
GROUP2_FROBENIUS_PIN = """\
[
  {
    "c1": "2",
    "c2": "2",
    "case": "biquadratic-C4",
    "frobenius": {
      "compatible": [
        "C4"
      ],
      "partitions": {
        "1+1+1+1": 24,
        "2+2": 23,
        "4": 53
      },
      "primes": 100
    },
    "group": "C4",
    "pair": "(x^2 + -2, 0)"
  }
]
"""


def test_group2_frobenius_output_is_pinned(capsys):
    assert run(capsys, "group2", "-2,0", "--frobenius", "100") == (0, GROUP2_FROBENIUS_PIN)


def test_valuations_command(capsys):
    code, records = run_json(capsys, "valuations", "-c", "5", "-p", "2", "-N", "12")
    assert code == 0
    assert records[0]["conformant"] is True
    assert records[0]["n0"] == 2


def test_poonen_command_exit_codes(capsys):
    code, records = run_json(capsys, "poonen", "-c", "-1", "--alpha", "2", "-p", "3")
    assert code == 0
    assert records[0]["condition"] == "b"
    code, _ = run(capsys, "poonen", "-c", "1", "--alpha", "5", "-p", "3")
    assert code == 2  # inconclusive


def test_indexset_command(capsys):
    code, records = run_json(
        capsys,
        "indexset",
        "--family",
        "{1,2};{2,3}",
        "--progression",
        "2,2",
        "--span",
        "{1,3}",
        "--coprime",
        "0",
    )
    assert code == 0
    prog, coprime = records
    assert prog["span"][0]["in_span"] and prog["span"][0]["progression"]
    assert coprime["ok"] is True


def test_bertrand_command(capsys):
    code, records = run_json(capsys, "bertrand", "--terms", "2,4,8,16", "--check-coprime")
    assert code == 0
    rec = records[0]
    assert rec["witnesses"] == [2, 3, 7, 13]
    assert rec["coprime_ok"] and rec["witnesses_match"]


def test_bertrand_terms_and_upto_exclude_each_other(capsys):
    assert main(["bertrand", "--terms", "2,3", "--upto", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --upto: not allowed with argument --terms" in captured.err


@pytest.mark.parametrize("terms", [["--upto", "50001"], ["--terms", "2,50001"]])
def test_bertrand_terms_are_capped(capsys, terms):
    start = time.perf_counter()
    assert main(["bertrand", *terms]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "arboreal: input error: need terms <= 50000, got 50001\n"


def test_bertrand_upto_zero_is_named(capsys):
    assert main(["bertrand", "--upto", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "arboreal: input error: --upto must be positive, got 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bertrand", "--terms", "2,,3"], "--terms '2,,3': '' is not an integer"),
        (["bertrand", "--terms", "2,x"], "--terms '2,x': 'x' is not an integer"),
        (["indexset", "--family", "{1,2}", "--progression", "1,y"], "--progression '1,y': 'y' is not an integer"),
        (["indexset", "--family", "{1,2}", "--progression", "1,2,3"], "--progression '1,2,3': expected 'k,l'"),
        (["indexset", "--family", "{1,,2}", "--coprime", "0"], "index vector '{1,,2}': '' is not an integer"),
    ],
)
def test_integer_list_errors_name_the_option_and_token(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"arboreal: input error: {message}\n"


def test_tree_verify_table(capsys):
    code, out = run(capsys, "tree-verify", "3", "--format", "table")
    assert code == 0
    assert out.strip() == "no counterexamples (16384 pairs)"


def test_tree_verify_bad_depth_and_sample_are_input_errors(capsys):
    for argv in (["64", "--sample", "1"], ["4", "--sample", "-5"], ["0"]):
        assert main(["tree-verify", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("arboreal: input error: ")
    code, records = run_json(capsys, "tree-verify", "4", "--sample", "0")
    assert code == 0 and records[0]["pairs_scanned"] == 0


def test_tree_verify_default_sample_shrinks_with_depth(capsys):
    # DEFAULT_SAMPLE_WORK >> depth pairs: 100,000 at depth 4, 1,562 at 10
    code, records = run_json(capsys, "tree-verify", "10")
    assert code == 0
    assert records[0]["mode"] == "sampled"
    assert records[0]["pairs_scanned"] == 1562


def test_curve_command(capsys):
    code, records = run_json(
        capsys, "curve", "-2,0", "--vector", "{2,3}", "--i0", "1", "--search", "5"
    )
    assert code == 0
    rec = records[0]
    assert rec["constructed_point"] == {"x": "0", "y": "2"}
    assert ["0", "2"] in rec["points"]
    assert rec["smooth"] is True


def test_curve_smoothness_of_a_deep_curve_ends(capsys):
    # the factors' gaps k*j reach 30 steps of beta's orbit, whose exact values
    # double in size each step; beta = 2 escapes under x^2 + 1/3 at once
    start = time.perf_counter()
    code, records = run_json(capsys, "curve", "1/3,2", "--k", "10", "--l", "4")
    assert time.perf_counter() - start < 1
    assert code == 0 and records[0]["smooth"] is True


def test_curve_right_hand_side_depth_is_capped(capsys):
    # exponents up to k*l + i0 = 41: each exact iterate doubles in size
    for extra in (["--x", "1"], ["--search", "1"]):
        start = time.perf_counter()
        assert main(["curve", "1/3,2", "--k", "10", "--l", "4", *extra]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"arboreal: input error: need exponents k*l+i0 <= {MAX_ORBIT_N}, got 41\n"


def test_curve_vector_depth_names_the_support(capsys):
    # curve has no N: its deepest index is the vector's
    assert main(["curve", "1/3,2", "--vector", "{20,22}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"arboreal: input error: need support indices <= {MAX_ORBIT_N}, got 22\n"


def test_curve_checks_x_and_search_before_the_record(capsys):
    # a million factors: the description, genus and smoothness grow with l,
    # so --x and --search report their depth before any of them is built
    for extra in (["--x", "1"], ["--search", "1"]):
        start = time.perf_counter()
        assert main(["curve", "1/3,2", "--k", "3", "--l", "1000000", *extra]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"arboreal: input error: need exponents k*l+i0 <= {MAX_ORBIT_N}, got 3000001\n"
    # of two errors, the vector's is still reported first
    assert main(["curve", "1/3,2", "--vector", "{2,4,7}", "--k", "3", "--l", "1000000", "--x", "1"]) == 1
    assert capsys.readouterr().err == "arboreal: input error: support must be an arithmetic progression\n"


def test_curve_search_work_is_capped(capsys):
    # about 80 right-hand sides of degree 2^18 at height 8 exceed the
    # total-degree cap: exit 2 before any value is formed
    start = time.perf_counter()
    code, out = run(capsys, "curve", "1/3,2", "--k", "17", "--search", "8")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out) == {
        "error": "point search capped at a total right-hand-side degree of 2097152 over "
        "the searched x: height 8 has more than 8 values of x at degree 262144"
    }
    # height 2 has 7 such values, within the cap
    code, records = run_json(capsys, "curve", "1/3,2", "--k", "17", "--search", "2")
    assert code == 0 and records[0]["points"] == [] and records[0]["search_height"] == 2


def test_curve_vector_names_its_curve_without_a_point(capsys):
    # {3,5,7} names k = 2, l = 3, and c_3 c_5 c_7 is not a square for (x^2 + 1, 0)
    code, records = run_json(capsys, "curve", "1,0", "--vector", "{3,5,7}", "--i0", "1", "--search", "2")
    assert code == 0
    curve = arboreal.curves.CurveSpec(QuadPair.parse("1,0"), 2, 3, 1)
    rec = records[0]
    assert rec["constructed_point"] is None
    assert rec["curve"] == curve.describe() and "f^7(x)" in rec["curve"]
    assert rec["genus"] == curve.genus == 83
    assert rec["smooth"] is arboreal.curves.is_smooth(curve)
    assert rec["points"] == [[str(x), str(y)] for x, y in arboreal.curves.naive_point_search(curve, 2)]


@pytest.mark.parametrize("flag", ["--k", "--l", "--i0"])
def test_curve_zero_parameter_is_input_error(capsys, flag):
    assert main(["curve", "1,0", flag, "0"]) == 1
    assert capsys.readouterr().err == "arboreal: input error: k, l, i0 must be positive\n"


def test_curve_degenerate_reports_json_error(capsys):
    # c_1 vanishes: main reports it as for every other command
    code, out = run(capsys, "curve", "-2,-2", "--vector", "{2,3}", "--i0", "1")
    assert code == 2
    assert json.loads(out) == {"error": "c_1 equals the basepoint shift (vanishing value)"}


def test_parse_error_exit_code(capsys):
    assert main(["classify", "not-a-pair"]) == 1
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize("text", ["1,,3", "1,2,3,", ",1,3"])
def test_blank_pair_field_is_input_error(capsys, text):
    assert main(["orbit", text, "-N", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"arboreal: input error: expected 'a,b,alpha' or 'c,alpha', got {text!r}\n"


def test_no_pairs_is_input_error(capsys):
    assert main(["classify"]) == 1


def test_setting_flag_reaches_the_record(capsys):
    code, records = run_json(capsys, "classify", "1,0", "--dim-n", "4")
    assert code == 0
    assert records[0]["ab_dimension_N"] == 4
    assert main(["orbit", "-1,0"]) == 0


# variables that once set the four numeric settings: output depends on argv alone
FORMER_SETTING_VARIABLES = ("ARBOREAL_PRIME_BOUND", "ARBOREAL_DIM_N", "ARBOREAL_FACTOR_BUDGET", "ARBOREAL_SEED")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "1,0"],
        ["survey", "--c-height", "2", "--alpha-height", "2"],
        ["abdim", "1,0", "-N", "3"],
        ["tree-verify", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_environment_does_not_change_output(capsys, monkeypatch, argv):
    for name in FORMER_SETTING_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    clean = run(capsys, *argv)
    for name in FORMER_SETTING_VARIABLES:
        monkeypatch.setenv(name, "abc")
    assert run(capsys, *argv) == clean
    assert clean[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["pcf", "1/0"],
        ["classify", "1/0,1"],
        ["valuations", "-c", "1/0", "-p", "3"],
        ["poonen", "-c", "1", "--alpha", "1/0", "-p", "3"],
        ["curve", "1,0", "--x", "1/0"],
        ["orbit", "1,1/0"],
    ],
    ids=lambda argv: argv[0],
)
def test_zero_denominator_is_input_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("arboreal: input error: ") and "'1/0'" in captured.err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["pcf", "1e10000000"], "1e10000000"),
        (["orbit", "1.5,0", "-N", "1"], "1.5"),
        (["classify", "1_000,0"], "1_000"),
        # without the space main prefixes to a negative number
        (["valuations", "-c", "-1.5", "-p", "3"], "-1.5"),
        # a bare c is parsed as typed, not as the pair "c,0"
        (["pcf", ""], ""),
    ],
)
def test_only_integers_and_fractions_are_rationals(capsys, argv, text):
    # Fraction("1e10000000") alone would build a ten-million-digit integer
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"arboreal: input error: expected an integer or p/q, got {text!r}\n")


def test_unicode_minus_is_a_sign(capsys):
    code, records = run_json(capsys, "pcf", "−2")
    assert code == 0 and records[0]["verdict"]["kind"] == "pcf"


def test_orbit_prints_values_past_the_int_digit_limit(capsys):
    # c_15 of (x^2 + 1/3, 2) has about 7,800 digits, past CPython's default
    # int-to-str limit of 4300 (3.10.7 and up), which main lifts while it runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert main(["orbit", "1/3,2", "-N", "15"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    last = json.loads(capsys.readouterr().out)[0]["adjusted"][-1]
    expected = adjusted_orbit(QuadPair.parse("1/3,2"), 15).adjusted[-1]
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert last == str(expected)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_orbit_depth_is_capped(capsys):
    code, records = run_json(capsys, "orbit", "1/3,2", "-N", str(MAX_ORBIT_N))
    assert code == 0 and len(records[0]["adjusted"]) == MAX_ORBIT_N
    assert main(["orbit", "1/3,2", "-N", str(MAX_ORBIT_N + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"arboreal: input error: need N <= {MAX_ORBIT_N}, got {MAX_ORBIT_N + 1}\n"


def test_valuations_depth_is_capped(capsys):
    code, records = run_json(capsys, "valuations", "-c", "1/3", "-p", "3", "-N", str(MAX_ORBIT_N))
    assert code == 0 and len(records[0]["values"]) == MAX_ORBIT_N
    assert main(["valuations", "-c", "1/3", "-p", "3", "-N", str(MAX_ORBIT_N + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"arboreal: input error: need N <= {MAX_ORBIT_N}, got {MAX_ORBIT_N + 1}\n"


# every command that lists exact orbit values, at depth MAX_ORBIT_N and one
# past it (`{n}` stands for the depth)
DEEP_ORBIT_ARGVS = [
    ["orbit", "1/3,2", "-N", "{n}"],
    ["valuations", "-c", "1/3", "-p", "3", "-N", "{n}"],
    ["abdim", "1/3,2", "-N", "{n}", "--factor-budget", "1000"],
    ["classify", "1/3,2", "--dim-n", "{n}"],
    ["contain", "1/3,2", "{{{n}}}"],
    ["contain", "-1,0", "{{{n}}}"],  # degenerate: the depth is reported first
    ["curve", "-1,1/2", "--vector", "{{{m},{n}}}"],
]


@pytest.mark.parametrize("argv", DEEP_ORBIT_ARGVS, ids=lambda argv: argv[0])
def test_exact_orbit_lists_stop_at_max_orbit_n(capsys, monkeypatch, argv):
    real_iterate = arboreal.dynamics.iterate

    def capped_iterate(c, z):
        for n, value in enumerate(real_iterate(c, z), start=1):
            assert n <= MAX_ORBIT_N, "an orbit value past c_18 was built"
            yield value

    # curves reads its orbits through dynamics
    for module in (arboreal.dynamics, arboreal.galois):
        monkeypatch.setattr(module, "iterate", capped_iterate)

    def at(n):
        return [a.format(n=n, m=n - 1) for a in argv]

    degenerate = argv[1] == "-1,0"
    assert main(at(MAX_ORBIT_N)) == (2 if degenerate else 0)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(at(MAX_ORBIT_N + 1)) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("arboreal: input error: need ")
    assert captured.err.endswith(f" <= {MAX_ORBIT_N}, got {MAX_ORBIT_N + 1}\n")


def test_orbit_depth_is_checked_before_the_prime(capsys):
    assert main(["valuations", "-c", "1/3", "-p", "4", "-N", str(MAX_ORBIT_N + 1)]) == 1
    assert capsys.readouterr().err == f"arboreal: input error: need N <= {MAX_ORBIT_N}, got {MAX_ORBIT_N + 1}\n"
    assert main(["valuations", "-c", "1/3", "-p", "4", "-N", str(MAX_ORBIT_N)]) == 1
    assert capsys.readouterr().err == "arboreal: input error: 4 is not prime\n"


def test_valuations_checks_the_prime_before_building_the_orbit(capsys):
    # c_18 of x^2 + 10^200 + 7 has about 2^17 * 200 digits
    start = time.perf_counter()
    assert main(["valuations", "-c", str(10**200 + 7), "-p", "15", "-N", str(MAX_ORBIT_N)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "arboreal: input error: 15 is not prime\n"
    # N < 1 is still reported before the prime
    assert main(["valuations", "-c", "1/3", "-p", "4", "-N", "0"]) == 1
    assert capsys.readouterr().err == "arboreal: input error: N must be >= 1\n"


def test_strong_pseudoprime_to_bases_up_to_37_is_composite(capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on every
    # prime base up to 37; the base 41 rejects it
    psi_12 = "318665857834031151167461"
    assert main(["valuations", "-c", "1/3", "-p", psi_12, "-N", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"arboreal: input error: {psi_12} is not prime\n"
    code, records = run_json(capsys, "abdim", f"{psi_12},0", "-N", "1")
    assert (code, records[0]["dimension"], records[0]["classes"]) == (0, 1, None)
    code, records = run_json(capsys, "abdim", f"{psi_12},0", "-N", "1", "--factor-budget", "20000000")
    assert records[0]["classes"] == [["sign", "p:399165290221", "p:798330580441"]]


def test_lazy_classifier_depth_is_not_capped(capsys):
    assert main(["survey", "--c-height", "2", "--alpha-height", "2", "--dim-n", "40"]) == 0
    deep = json.loads(capsys.readouterr().out)
    assert main(["survey", "--c-height", "2", "--alpha-height", "2"]) == 0
    assert deep == json.loads(capsys.readouterr().out)


# subcommands in turn on one parser, with a setting given and then left out,
# and a failing parse (exit 1) in the middle
PARSER_ROUND = [
    ["survey", "--c-height", "2", "--alpha-height", "1"],
    ["classify", "1,0", "--dim-n", "3", "--format", "table"],
    ["orbit", "1/3,2", "-N", "3"],
    ["survey", "--c-height", "1", "--dim-n", "x"],
    ["classify", "1,0", "--format", "table"],
    ["pcf", "-2", "1/2"],
    ["survey", "--c-height", "1", "--alpha-height", "2", "--format", "table"],
]


def test_cached_parser_matches_a_fresh_one(capsys, monkeypatch):
    assert build_parser() is build_parser()

    def outputs():
        seen = []
        for argv in PARSER_ROUND:
            code = main(list(argv))
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    cached = outputs()
    assert [code for code, _, _ in cached] == [0, 0, 0, 1, 0, 0, 0]
    monkeypatch.setattr("arboreal.cli.build_parser", build_parser.__wrapped__)
    assert outputs() == cached


# exit code and sha256 of stdout, taken before trial division worked by block
# gcds: the deep abdim panel, a classes display that runs out of budget in
# rho and one that runs out in trial division, and a PCF witness search that
# passes every trial block: 1000036000099 = (10^6 + 3)(10^6 + 33)
FACTORING_PINS = [
    pytest.param(
        ["abdim", "3/2,7/3", "-N", "7"],
        "3af71dfd737f844c3e6d9ca0c24eca37cfabf5c8bf21e92f68ea28eee55632e1",
        id="panel1-N7",
    ),
    pytest.param(
        ["abdim", "-4/7,1/2", "-N", "7"],
        "dc3581b1d633aadd1adf6d941330e0cf7f77401e4023eb60f2136bb185054d0f",
        id="panel2-N7",
    ),
    pytest.param(
        ["abdim", "3/7,8/5", "-N", "7"],
        "61d5a60fbc24a08d0aa976813f9990c4f0672be19388ec8c9a37149df19d78de",
        id="panel3-N7",
    ),
    pytest.param(
        ["abdim", "3/2,7/3", "-N", "8"],
        "8efa54aeffe94d2c7e01be0ac2483c96d6914970b18e571232e30a82f7e3b01e",
        id="panel1-N8-null",
    ),
    pytest.param(
        ["abdim", "1/3,2", "-N", "8", "--factor-budget", "1000"],
        "51d35710dee9ea34f9528e22cf4142514354e9192ec2d1a76071b26d102411ef",
        id="budget1000-null",
    ),
    pytest.param(
        ["pcf", "1/1000036000099"],
        "b864a06bc5cbce93bbe9a21da83cb224b6aae301f3a1b7920e2cdd86dea047a2",
        id="pcf-past-trial-limit",
    ),
]


@pytest.mark.parametrize("argv, digest", FACTORING_PINS)
def test_factoring_output_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_abdim_classes_on_a_1000_digit_value_end_in_bounded_time(capsys):
    # the cofactor left after trial division has 3277 bits, so each rho step
    # is charged 3277^2 >> 14 = 655 units and the budget left after trial
    # division runs out after about 2,600 steps (45.6 s of rho when each step
    # cost one unit)
    value = random.Random(1).randrange(10**999, 10**1000)
    start = time.perf_counter()
    code, records = run_json(capsys, "abdim", f"{value},0", "-N", "1")
    assert time.perf_counter() - start < 5
    assert code == 0 and records[0]["classes"] is None


def test_abdim_classes_past_the_bit_cost_budget_print_null(capsys):
    # the one record of the height-3 grid at -N 8 that the bit-cost charge
    # changes: its 200-bit cofactor splits after 909,438 rho steps, now
    # charged 2 units each, so the default budget no longer reaches the split
    # and classes is null; twice the budget prints the classes as before
    argv = ["abdim", "-2/3,-3", "-N", "8"]
    for extra, digest in (
        ([], "361483ba4bf9ad036c5ca7e92a27023add2c929bdee022602bbca65f7cd7d255"),
        (["--factor-budget", "4000000"], "0a0301583b6e30ac9f938337c6a7db35f16c9ed80087c74f9ef6ac6af045e54a"),
    ):
        code, out = run(capsys, *argv, *extra)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
        assert ('"classes": null' in out) == (not extra)


def test_survey_grid_is_capped_before_it_is_built(capsys):
    start = time.perf_counter()
    assert main(["survey", "--c-height", "1000000", "--alpha-height", "1"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "",
        "arboreal: input error: need at most 1250000 survey pairs, heights 1000000 and 1 give more\n",
    )


def test_survey_pair_count_is_exact():
    assert [_grid_size(H) for H in range(60)] == [len(rationals_of_height(H)) for H in range(60)]
    # the point search counts the same set; _lowest_terms(0) is empty, the grid is {0}
    assert [_grid_size(H) for H in range(1, 60)] == [len(list(_lowest_terms(H))) for H in range(1, 60)]
    # 30/30 has 1,234,321 pairs, within the cap; 31/31 has 1,515,361
    assert _grid_size(30) ** 2 <= _SURVEY_PAIR_CAP < _grid_size(31) ** 2


def test_low_degree_curve_search_is_capped(capsys):
    # about 514,000 values of x at degree 4, each charged as degree 256
    start = time.perf_counter()
    code, out = run(capsys, "curve", "1/3,2", "--k", "1", "--search", "650")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out) == {
        "error": "point search capped at a total right-hand-side degree of 2097152 over the "
        "searched x: height 650 has more than 8192 values of x at degree 4, each charged as degree 256"
    }
    # a height whose exact count would take long is rejected on its integers alone
    start = time.perf_counter()
    code, out = run(capsys, "curve", "1/3,2", "--k", "1", "--search", str(10**12))
    assert time.perf_counter() - start < 1
    assert code == 2 and "height 1000000000000 has more than 8192 values of x" in out


class _DigestSink:
    """A stdout that keeps only the byte count and sha256 of what it is sent."""

    def __init__(self):
        self.size, self.digest = 0, hashlib.sha256()

    def write(self, text):
        data = text.encode()
        self.size += len(data)
        self.digest.update(data)
        return len(text)


def test_survey_writes_rows_without_holding_the_output():
    sink = _DigestSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["survey", "--c-height", "9", "--alpha-height", "9"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.digest.hexdigest()) == (0, "8230c01b6ba7bcc9e882c51b8c6c8e6312fd911a9e41b1f356b87cee2c29199d")
    # each row is held once, as a tuple; one string of every row would be 1x alone
    assert peak < 2 * sink.size


# exit code and sha256 of stdout for records rendered from library results:
# every certificate kind and classifier provenance, both PCF verdict kinds,
# an adjusted orbit, two valuation patterns and an m-coprime report
RESULT_PINS = [
    pytest.param(
        ["classify", "-4,-4", "-4,-3", "-4,-2", "-4,4", "-2,-2", "-2,-1/4", "-4/3,-4/3", "0,0"],
        "de9f313862e9b645b28dbbb142192220a83d36987cb6f4c77aa43652ad5c388d",
        id="classify",
    ),
    pytest.param(
        ["pcf", "-2", "-1", "1", "1/2", "0,1/3"],
        "1514081689903958bbf2507f8cb724d16fbf45fbc61026e2eac32fffd12465d6",
        id="pcf",
    ),
    pytest.param(
        ["orbit", "-1,-1/2", "-N", "8"],
        "f073cad0e3644e781804be56283d349d9e3080593bd2812ee18c3cdf4277e121",
        id="orbit",
    ),
    pytest.param(
        ["valuations", "-c", "5", "-p", "2", "-N", "12"],
        "a3894cf91d7415720f141c91ded14eba2a8cc0dc66b87f92ee56883f2362385d",
        id="valuations-rigid",
    ),
    pytest.param(
        ["valuations", "-c", "1/3", "-p", "3", "-N", "6"],
        "cc5125ad3bc9571d4c8a4821a387c5f553699d4a1bada726ce9e5a5d007079d9",
        id="valuations-negative",
    ),
    pytest.param(
        ["indexset", "--family", "{1,2};{2,3};{3,5,7}", "--coprime", "1"],
        "3c3c1a5fec430bd73d0d2ed72f9b046689a07960defa8d4cc64d8cfeeb3806e9",
        id="indexset-coprime",
    ),
    pytest.param(
        ["survey", "--c-height", "12", "--alpha-height", "12"],
        "321e64c07b477b8dc7d8ff5ca9d739d6c3f1708b53e33324d73f82f0b9e24ff6",
        id="survey",
    ),
    pytest.param(
        ["survey", "--c-height", "12", "--alpha-height", "12", "--format", "table"],
        "a5c069018687cf05f06c7fa9961c9d02d4e21b61aaaa2bbe8a5deb5d382351e1",
        id="survey-table",
    ),
    pytest.param(
        ["group2", "1/3,2", "--frobenius", "200"],
        "7397ab648d8b2a1ebe2974eb00406649f5630946df8981604fcd44cf559473d4",
        id="group2-frobenius-d8",
    ),
    pytest.param(
        ["group2", "-2,0", "--frobenius", "100"],
        "aa08a6f5196213eab8839bb183f580c63bdf31413a0eb9f0aa0dd501a5ebaaa2",
        id="group2-frobenius-abelian",
    ),
    pytest.param(
        ["poonen", "-c", "-1", "--alpha", "2", "-p", "3"],
        "187332d0a94016abdac0ec143f3b87e737346eac91e4dfdb45b21ffc1b56bf78",
        id="poonen",
    ),
    pytest.param(
        ["indexset", "--family", "{1,2};{2,3};{1,3};{3,4};{1,4}", "--progression", "1,2",
         "--span", "{1,3}", "--span", "{2,4}", "--span", "{1,2}", "--span", "{5}"],
        # {1,3} is certified by [0, 1], not [2]: elimination keeps the first independent members
        "815b0e69cbe4c4284ce3bc42eb8f2432deb3c05d30812157fa8f952118aec336",
        id="indexset-span",
    ),
    pytest.param(
        ["tree-verify", "3"],
        "0830cc0ce80db5a331ef1dbf6bda16fbf3de3e0fd647e37079c287baefbd77b6",
        id="tree-verify",
    ),
    pytest.param(
        ["curve", "-2,0", "--vector", "{2,3}", "--i0", "1", "--search", "10"],
        "431cd90aa967d7fa446088ede8fb1e1b2ee05b7d6bb7de5b5acd446e2c8349e4",
        id="curve-vector-search",
    ),
    pytest.param(
        # the point search's height-0 grid is empty
        ["curve", "1/3,2", "--search", "0"],
        "842d51f3e30dbec37ef65f22333f62d23a1e92af71d7d77c5942522358491283",
        id="curve-search-0",
    ),
    pytest.param(
        # the survey's height-0 grid is {0}
        ["survey", "--c-height", "0", "--alpha-height", "0"],
        "c777bce0ce350c9ef044fd108e23d10f5c198d5f0a99f1b674f502a4bef38530",
        id="survey-0",
    ),
    pytest.param(
        ["contain", "2,1", "{2,4}"],
        "4794bd5e40daea8524bd90c474b73fb5cae106906316d56254cc8499cc67f8c4",
        id="contain-true",
    ),
    pytest.param(
        ["contain", "2,1", "{1}"],
        "19b672ce905fb16b050d8027ecb2295e04debd56008c7e92ad0e112b05d21f2b",
        id="contain-false",
    ),
]


@pytest.mark.parametrize("argv, digest", RESULT_PINS)
def test_result_json_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_negative_factor_budget_is_input_error(capsys):
    message = "arboreal: input error: factoring budget must be nonnegative, got {}\n"
    assert main(["abdim", "1,0", "-N", "3", "--factor-budget", "-5"]) == 1
    assert capsys.readouterr() == ("", message.format(-5))
    # a budget of 0 is spent at once, so only the classes display is dropped
    code, records = run_json(capsys, "abdim", "1,0", "-N", "3", "--factor-budget", "0")
    assert code == 0 and records[0]["classes"] is None and records[0]["dimension"] == 3


# Every subcommand's options and arguments: each takes --format, and the
# numeric settings only where it reads them.
SUBCOMMAND_OPTIONS = {
    "classify": {"pairs", "--csv", "--prime-bound", "--dim-n"},
    "survey": {"--c-height", "--alpha-height", "--prime-bound", "--dim-n"},
    "orbit": {"pair", "-N", "--n"},
    "pcf": {"pairs"},
    "contain": {"pair", "vector"},
    "abdim": {"pair", "-N", "--n", "--factor-budget"},
    "group2": {"pair", "--frobenius"},
    "valuations": {"-c", "-p", "-N", "--n"},
    "poonen": {"-c", "--alpha", "-p"},
    "indexset": {"--family", "--family-file", "--progression", "--span", "--coprime"},
    "bertrand": {"--terms", "--upto", "--check-coprime"},
    "tree-verify": {"depth", "--sample", "--seed"},
    "curve": {"pair", "--k", "--l", "--i0", "--x", "--vector", "--search"},
}


def test_each_subcommand_takes_only_the_settings_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: {s for a in p._actions for s in a.option_strings or [a.dest]} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert found == {name: opts | {"--format"} for name, opts in SUBCOMMAND_OPTIONS.items()}


def test_unread_setting_is_input_error(capsys):
    assert main(["orbit", "-1,0", "--seed", "1"]) == 1
    assert main(["classify", "1,0", "--factor-budget", "10"]) == 1
    assert main(["abdim", "1,0", "--dim-n", "3"]) == 1
    assert main(["contain", "1,0", "{1}", "--prime-bound", "5"]) == 1
    assert main(["tree-verify", "3", "--factor-budget", "2"]) == 1
    assert "unrecognized arguments: --factor-budget 2" in capsys.readouterr().err


def test_survey_negative_height_is_input_error(capsys):
    assert main(["survey", "--c-height", "-1", "--alpha-height", "2"]) == 1
    assert main(["survey", "--c-height", "2", "--alpha-height", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "height must be nonnegative" in captured.err


def test_bad_classifier_settings_are_input_errors(capsys):
    # each fails before any classifier step, whether or not a pair reaches it
    assert main(["survey", "--c-height", "1", "--alpha-height", "1", "--dim-n", "-1"]) == 1
    assert main(["survey", "--c-height", "2", "--alpha-height", "2", "--dim-n", "-1"]) == 1
    assert main(["classify", "1,0", "--prime-bound", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prime_bound >= 0" in captured.err


def test_group2_negative_frobenius_is_input_error(capsys):
    assert main(["group2", "1,0", "--frobenius", "-3"]) == 1
    assert "nonnegative" in capsys.readouterr().err
    code, records = run_json(capsys, "group2", "1,0", "--frobenius", "0")
    assert code == 0 and "frobenius" not in records[0]


def test_poonen_composite_p_is_input_error(capsys):
    assert main(["poonen", "-c", "-4", "--alpha", "0", "-p", "15"]) == 1
    assert main(["poonen", "-c", "1/3", "--alpha", "1", "-p", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "odd prime, got 9" in captured.err


def test_negative_inputs_echo_without_padding(capsys):
    code, records = run_json(capsys, "pcf", "-2")
    assert code == 0 and records[0]["input"] == "-2"
    assert run(capsys, "pcf", "-2", "--format", "table") == (0, "-2\tpcf\n")
    code, records = run_json(capsys, "poonen", "-c", "-1", "--alpha", "-1/3", "-p", "3")
    assert code == 0
    assert (records[0]["c"], records[0]["alpha"]) == ("-1", "-1/3")


# The public contract: every name `import arboreal` binds that does not start
# with "_", the submodules it imports included.
PUBLIC_NAMES = {
    "AbelianVerdict", "AdjustedOrbit", "BertrandFamily", "BudgetExceeded",
    "CapExceeded", "CurveSpec", "DegeneracyError", "DegenerateSquareWarning",
    "F2Vector", "GroupId", "IndexFamily", "IndexVector", "Label", "PCF", "PCI",
    "QuadElement", "QuadPair", "SIGN", "SquareClass", "SubgroupGens", "TreeAut",
    "ab_dimension", "abelianization", "act", "adjusted_orbit", "all_valuations_even",
    "base_label", "bertrand_family", "classify_abelian", "closure", "compose",
    "construct_point", "contained_in_Mv", "coprime_base", "curves", "dynamics", "f2",
    "factorize", "faithful_nodes", "frobenius_sample", "galois", "good_primes", "in_Mv",
    "in_post_critical_orbit", "in_span", "index_label", "indexsets", "inverse",
    "is_exceptional", "is_pcf", "is_perfect_square", "is_progression",
    "is_square_in_quad", "level", "level2_galois", "m_coprime_witness",
    "naive_point_search", "nonabelian_prime_search", "orbit_valuations", "phi", "polys",
    "poonen_check", "prime_label", "primes", "progressing_witness", "quad_independent",
    "rank", "replay_certificate", "restrict", "rhs_eval", "span_dimension",
    "square_class", "squares", "tilde_phi", "treegroup", "verify_noncommutation",
}


def test_public_names_are_pinned():
    # a fresh interpreter, since importing arboreal.cli here binds one more name
    src = os.path.dirname(os.path.dirname(arboreal.__file__))
    script = "import arboreal; print(' '.join(n for n in dir(arboreal) if not n.startswith('_')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    names = out.stdout.split()
    assert len(names) == len(PUBLIC_NAMES) == 76
    assert set(names) == PUBLIC_NAMES
