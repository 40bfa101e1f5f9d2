import importlib
import json
import os
import subprocess
import sys
from hashlib import sha256
from math import gcd

import pytest

from helpers import decimal_string_oracle, image_terms
from lodehn import cli, reps, twobridge
from lodehn.certify import analyze_roots, certify, check_rigidity
from lodehn.cli import build_parser, canonical_report, decimal_string, main
from lodehn.cohomology import ClosedFormMismatch, knot_walk
from lodehn.polynomials import LaurentPoly, Poly
from lodehn.quotient import ModulusBranch
from lodehn.reps import alexander_polynomial, tau_terms
from lodehn.twobridge import TwoBridgeFraction, build_presentation
from lodehn.words import Word
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from lodehn.cli import main; sys.exit(main(sys.argv[1:]))",
         *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_certify_family_j1_applies(tmp_path):
    out = tmp_path / "report.json"
    code = main(["certify", "--family-j", "1", "--json", str(out), "--quiet"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == "1"
    assert report["certificate"]["verdict"] == "APPLIES"
    assert report["alexander"] == [1, -7, 13, -7, 1]
    assert set(report) == {
        "schema_version", "input", "presentation", "alexander",
        "factors", "branches", "certificate", "timings",
    }


def test_report_json_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    main(["certify", "--family-j", "1", "--json", str(out), "--quiet"])
    text = out.read_text()
    report = json.loads(text)
    assert json.loads(json.dumps(report)) == report


def test_certify_trefoil_exit_1():
    code = main(["certify", "--pq", "3/1", "--quiet"])
    assert code == 1


def test_certify_even_p_exit_2(capsys):
    code = main(["certify", "--pq", "4/1", "--quiet"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_malformed_flags_exit_2():
    code, _, err = run_cli("certify")
    assert code == 2
    assert "usage" in err
    code, _, _ = run_cli("certify", "--pq", "3/1", "--family-j", "1")
    assert code == 2


def test_cli_output_deterministic():
    first = run_cli("certify", "--family-j", "1")
    second = run_cli("certify", "--family-j", "1")
    assert first == second
    assert first[0] == 0
    assert "verdict: APPLIES" in first[1]


def test_json_reports_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["certify", "--pq", "29/17", "--json", str(out1), "--quiet"])
    main(["certify", "--pq", "29/17", "--json", str(out2), "--quiet"])
    a = canonical_report(json.loads(out1.read_text()))
    b = canonical_report(json.loads(out2.read_text()))
    assert json.dumps(a) == json.dumps(b)


CANONICAL_DIGEST = "653eb8f1359ca5c1c9834c6b9ef056b7fc134013d8bdf907cc28cbb8d7167bba"
SPLIT_DIGEST = "8ebfc0701a0e7451f6a00aba412beb496676d932557e5e659f878b98037cc646"


def test_canonical_reports_match_the_pinned_digest():
    """The sha256 of the canonical reports (sorted keys, empty input
    echo, concatenated in this order) of every fraction with odd
    p <= 35 and six larger knots.  Any change to a verdict, a modulus,
    a lineage, a dimension, an interval or a trace check moves it.
    Regenerate it only together with a ``schema_version`` change."""
    fractions = [(p, q) for p in range(3, 36, 2) for q in range(1, p) if gcd(p, q) == 1]
    fractions += [(147, 53), (485, 283), (201, 77), (41, 1), (61, 1), (9, 1)]
    assert len(fractions) == 262
    text = "".join(
        json.dumps(
            canonical_report(cli.build_report(certify(TwoBridgeFraction(p, q)), {})),
            sort_keys=True,
        )
        for p, q in fractions
    )
    assert cli.SCHEMA_VERSION == "1"
    assert sha256(text.encode()).hexdigest() == CANONICAL_DIGEST


def test_split_report_matches_the_pinned_digest():
    """115/42 is the only knot class with p <= 151 whose elimination
    splits a branch, so its report is the one with a lineage; none of
    the fractions above splits."""
    report = canonical_report(cli.build_report(certify(TwoBridgeFraction(115, 42)), {}))
    assert [len(branch["lineage"]) for branch in report["branches"]] == [1, 1]
    text = json.dumps(report, sort_keys=True)
    assert sha256(text.encode()).hexdigest() == SPLIT_DIGEST


def test_alexander_family_j2(capsys):
    code = main(["alexander", "--family-j", "2"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "2 -13 23 -13 2"


def test_alexander_roots_figure_eight(capsys):
    code = main(["alexander", "--pq", "5/2", "--roots"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 -3 1"
    root_lines = lines[1:]
    assert len(root_lines) == 2
    assert "0.381966" in root_lines[0] and "positive" in root_lines[0]
    assert "2.618034" in root_lines[1] and "multiplicity 1" in root_lines[1]


def test_consecutive_in_process_calls_match_fresh_processes(capsys):
    # main keeps one parser for the process; no call may see another's
    # flags, so the last call's missing --roots must print no roots.
    calls = (
        ["alexander", "--pq", "5/2", "--roots"],
        ["certify", "--pq", "29/17"],
        ["alexander", "--pq", "5/2"],
    )
    in_process = []
    for argv in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        in_process.append((code, out, err))
    assert in_process == [run_cli(*argv) for argv in calls]
    assert in_process[2][1] == "1 -3 1\n"


def test_alexander_and_certify_construct_no_laurent_poly(monkeypatch, capsys):
    # Both Alexander routes and the certify pipeline work over integer
    # dicts, Poly and Q[t]/(m); Q[t, t^-1] is for the family checks.
    constructed = []
    original = LaurentPoly.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(LaurentPoly, "__init__", counting_init)
    assert main(["alexander", "--pq", "201/77", "--roots"]) == 0
    assert len(constructed) == 0
    assert main(["certify", "--pq", "485/283", "--quiet"]) == 0
    assert len(constructed) == 0


@pytest.mark.parametrize("argv", [
    ["alexander", "--pq", "201/77", "--roots"],
    ["certify", "--pq", "29/17", "--quiet"],
])
def test_one_command_builds_the_presentation_once(argv, monkeypatch):
    # The Alexander routes read the Riley exponents and build no
    # presentation, so alexander builds none and certify builds one,
    # for its rigidity checks and its report.
    calls = []
    original = twobridge.build_presentation

    def counting(fraction):
        calls.append(fraction)
        return original(fraction)

    for module in (twobridge, importlib.import_module("lodehn.certify"), cli):
        monkeypatch.setattr(module, "build_presentation", counting)
    assert main(argv) == 0
    assert len(calls) == {"alexander": 0, "certify": 1}[argv[0]]


def test_alexander_cf_equals_pq(capsys):
    main(["alexander", "--cf", "1,1,2,2,2"])
    via_cf = capsys.readouterr().out
    main(["alexander", "--pq", "29/17"])
    via_pq = capsys.readouterr().out
    assert via_cf == via_pq == "1 -7 13 -7 1\n"


@pytest.mark.parametrize("given, same", [("29/46", "29/17"), ("29/-17", "29/12")])
def test_pq_reads_q_mod_p(given, same, tmp_path, capsys):
    # q + p names the same knot and -q its mirror image p/(p - q); both
    # commands read the reduced fraction.
    runs = []
    for pq in (given, same):
        out = tmp_path / "report.json"
        code = main(["certify", "--pq", pq, "--json", str(out), "--quiet"])
        report = canonical_report(json.loads(out.read_text()))
        assert main(["alexander", "--pq", pq, "--roots"]) == 0
        runs.append((code, report.pop("input"), report, capsys.readouterr().out))
    (code, echo, report, roots), expected = runs
    assert echo == {"mode": "pq", "value": given, "fraction": same}
    assert (code, report, roots) == (expected[0], expected[2], expected[3])


def test_pq_with_a_common_factor_exits_2(capsys):
    assert main(["certify", "--pq", "29/58", "--quiet"]) == 2
    assert capsys.readouterr().err == "error: p and q must be coprime, got '29/58'\n"


def test_alexander_digits_flag(capsys):
    code = main(["alexander", "--pq", "5/2", "--roots", "--digits", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.382" in out and "2.618" in out


def test_verify_family_smoke(capsys):
    code = main(["verify-family", "--j-max", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_verify_family_rejects_zero(capsys):
    code = main(["verify-family", "--j-max", "0"])
    assert code == 2


def test_certify_rejects_family_index_zero(capsys):
    code = main(["certify", "--family-j", "0", "--quiet"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_json_path_without_directory_exits_2_before_computing(
    tmp_path, monkeypatch, capsys
):
    calls = []
    monkeypatch.setattr(cli, "certify", calls.append)
    # a missing directory, an existing directory, a path with a trailing
    # separator, and the empty path
    missing = tmp_path / "missing"
    for out in (missing / "report.json", tmp_path, f"{missing}{os.sep}", ""):
        code = main(["certify", "--pq", "9/1", "--json", str(out), "--quiet"])
        assert code == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error: --json")


class _FailingFile:
    """A text file whose write puts down the first character and then
    fails, as a full disk does."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[:1])
        raise OSError("no space left on device")


def test_failed_json_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "open", lambda *args, **kwargs: _FailingFile(open(*args, **kwargs)),
        raising=False,
    )
    out = tmp_path / "report.json"
    code = main(["certify", "--pq", "5/2", "--json", str(out), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: no space left")
    assert list(tmp_path.iterdir()) == []


def test_unencodable_report_opens_no_file(tmp_path, monkeypatch, capsys):
    # The report is encoded before the temporary file is opened, so an
    # encoding failure leaves nothing to clean up.
    opened = []
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: opened.append(args),
                        raising=False)
    monkeypatch.setattr(cli, "build_report", lambda *args: {"value": object()})
    out = tmp_path / "report.json"
    code = main(["certify", "--pq", "5/2", "--json", str(out), "--quiet"])
    assert code == 2
    assert "error: internal failure (TypeError)" in capsys.readouterr().err
    assert opened == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "failure",
    [
        AssertionError("escaped"),
        ClosedFormMismatch("differs"),
        OSError("disk"),
        ZeroDivisionError("division by zero"),
        RuntimeError("unforeseen"),
    ],
)
def test_internal_failure_exits_2(failure, monkeypatch, capsys):
    # Exit 1 means "inapplicable", so an unforeseen exception must not
    # leave through it: it prints its traceback, then one error line.
    def crash(fraction):
        raise failure

    monkeypatch.setattr(cli, "certify", crash)
    code = main(["certify", "--pq", "5/2", "--quiet"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if line.startswith("error: ")] == [lines[-1]]
    if isinstance(failure, (AssertionError, ClosedFormMismatch, OSError)):
        assert lines == [f"error: {failure}"]
    else:
        assert lines[0] == "Traceback (most recent call last):"
        name = type(failure).__name__
        assert lines[-1] == f"error: internal failure ({name}): {failure}"


def test_alexander_mismatch_exits_2_from_both_commands(monkeypatch, capsys):
    monkeypatch.setattr(reps, "alexander_via_fox", lambda fraction: Poly([1, 1]))
    for argv in (["alexander", "--pq", "5/2"], ["certify", "--pq", "5/2", "--quiet"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: representation route Poly(['1', '-3', '1']) disagrees "
            "with free-derivative route Poly(['1', '1'])\n"
        )


@pytest.mark.parametrize("delta, value", [(Poly([3, -4, 1]), "0"), (Poly([1, 1, 1]), "3")])
def test_alexander_value_at_one_exits_2_from_both_commands(delta, value, monkeypatch, capsys):
    # Both routes agree on a polynomial no knot has: Delta(1) must be +-1.
    monkeypatch.setattr(reps, "alexander_via_rep", lambda fraction: delta)
    monkeypatch.setattr(reps, "alexander_via_fox", lambda fraction: delta)
    for argv in (["certify", "--pq", "29/17", "--quiet"], ["alexander", "--pq", "5/2", "--roots"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: Alexander polynomial {delta!r} has value {value} at 1, not +-1\n"
        )


@pytest.mark.parametrize("longitude", ["x", "xyx^-1y^-1"])
def test_longitude_off_the_identity_exits_2(longitude, monkeypatch, capsys):
    # Filling with the longitude's row 1 alone rests on rho(longitude) = I.
    # The walk of 29/17 corrupted to describe the longitude lambda g, for
    # g = x (a nonzero exponent sum) or the commutator (n = 0, and b/t,
    # here from the word walk of lambda g, not 0 mod F), must raise in
    # check_rigidity, and certify must exit 2 with one error line.
    pres = build_presentation(TwoBridgeFraction(29, 17))
    g = Word.parse(longitude)
    n, b = image_terms(pres.longitude * g)
    walk = knot_walk(pres)
    patched = walk._replace(
        x11=walk.x11 + g.exponent_sum("x"),
        y11=walk.y11 + g.exponent_sum("y"),
        longitude=walk.longitude if n else tau_terms(b, -1),
    )
    (factor, multiplicity), = analyze_roots(alexander_polynomial(pres.fraction))
    with pytest.raises(ValueError, match="longitude does not map to the identity"):
        check_rigidity(patched, ModulusBranch(factor), factor, multiplicity)
    # The package exports the function certify under the module's name.
    certify_module = importlib.import_module("lodehn.certify")
    monkeypatch.setattr(certify_module, "knot_walk", lambda pres: patched)
    assert main(["certify", "--pq", "29/17", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: longitude does not map to the identity on this branch: its "
        "rows 0 and 2 would not vanish on the knot cocycles"
    ]


@pytest.mark.parametrize("digits", ["-1", "-3"])
def test_alexander_rejects_negative_digits(digits, capsys):
    code = main(["alexander", "--pq", "5/2", "--roots", "--digits", digits])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --digits must be >= 0")


def test_unknown_subcommand_exit_2():
    code, _, err = run_cli("frobnicate")
    assert code == 2


def test_decimal_string():
    assert decimal_string(Fraction(381966, 10**6), 6) == "0.381966"
    assert decimal_string(Fraction(-5, 2), 3) == "-2.500"
    assert decimal_string(Fraction(7), 0) == "7"


def test_integer_decimals_round_half_to_even_as_fractions_do():
    # The root lines print the midpoint (lo + hi)/2 as num/den with no
    # common factor divided out.  Exact ties of both signs, at 0 digits
    # and at 3, go to the even neighbour, as round() takes a Fraction.
    ties = [(5, 2), (7, 2), (1, 2), (3, 2), (25, 2000), (35, 2000), (1, 2000)]
    cases = [(n, d, digits) for n, d in ties for digits in (0, 3)]
    cases += [(-n, d, digits) for n, d, digits in cases]
    # Unreduced ratios and the midpoints of refined intervals.
    cases += [(10, 4, 0), (-30, 12, 0), (2 * 1255, 2 * 100000, 3), (0, 7, 2)]
    for lo, hi in ((Fraction(-3, 8), Fraction(-1, 4)), (Fraction(1, 3), Fraction(5, 7))):
        num = lo.numerator * hi.denominator + hi.numerator * lo.denominator
        den = 2 * lo.denominator * hi.denominator
        cases += [(num, den, digits) for digits in (0, 1, 2, 30)]
    for num, den, digits in cases:
        expected = decimal_string_oracle(Fraction(num, den), digits)
        assert cli._ratio_decimal(num, den, digits) == expected, (num, den, digits)
        assert decimal_string(Fraction(num, den), digits) == expected
    assert [cli._ratio_decimal(n, 2, 0) for n in (-5, -3, -1, 1, 3, 5)] == (
        ["-2", "-2", "0", "0", "2", "2"]
    )


def test_parser_help_mentions_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("certify", "alexander", "verify-family"):
        assert name in text
