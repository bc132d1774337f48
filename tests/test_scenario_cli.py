import os
import subprocess
import sys
from pathlib import Path

import pytest

import chowcheck
from chowcheck import cli, exactla, jacobian
from chowcheck.report import Report, StepResult
from chowcheck.runner import CheckConfigError, UnknownCheck, run_scenario
from chowcheck.scenario import ParseError, parse_scenario

FERMAT_RING = """\
[ring]
variables = x0 x1 x2 x3
poly = x0^4 + x1^4 + x2^4 + x3^4
"""

TINY = f"""\
[scenario]
name = tiny
{FERMAT_RING}
[checks]
check hilbert expect="1 4 10 16 19 16 10 4 1" cite="declared table"
check duality a=1 b=3 cite="declared pairing"
"""


def _parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_scenario(text)
    return info.value


# ---------------------------------------------------------------- parsing

def test_minimal_scenario_parses():
    scn = parse_scenario(TINY)
    assert scn.name == "tiny"
    assert scn.ring == {"variables": ["x0", "x1", "x2", "x3"],
                        "poly": "x0^4 + x1^4 + x2^4 + x3^4"}
    assert [c.kind for c in scn.checks] == ["hilbert", "duality"]
    first = scn.checks[0]
    assert first.cite == "declared table"
    assert "cite" not in first.attrs
    assert first.attrs["expect"] == "1 4 10 16 19 16 10 4 1"
    assert scn.checks[1].attrs == {"a": "1", "b": "3"}


def test_comments_and_blank_lines_are_ignored():
    text = "# leading comment\n\n" + TINY + "\n# trailing\n"
    assert parse_scenario(text).name == "tiny"


def test_quoted_attributes_keep_spaces_and_equals():
    scn = parse_scenario(
        "[scenario]\nname = q\n[checks]\n"
        'check multiplicity at="t = 0" expect=4 cite="a b = c"\n')
    check = scn.checks[0]
    assert check.attrs["at"] == "t = 0"
    assert check.attrs["expect"] == "4"
    assert check.cite == "a b = c"


def test_unknown_section():
    err = _parse_error("[frobnicate]\n")
    assert err.line == 1
    assert "unknown section" in str(err)


def test_unterminated_section_header():
    err = _parse_error("[scenario\n")
    assert "unterminated section header" in str(err)


def test_section_argument_rules():
    assert "takes no argument" in str(_parse_error("[scenario extra]\n"))
    assert "exactly one label" in str(_parse_error("[curve]\n"))
    text = "[curve Z1]\npoly = x0\nplane = x0 x1\n" * 2
    assert "declared twice" in str(_parse_error(
        "[scenario]\nname = x\n" + text + "[checks]\ncheck x cite=c\n"))


def test_content_before_first_section():
    err = _parse_error("name = x\n")
    assert err.line == 1
    assert "before the first section" in str(err)


def test_bad_key_for_section():
    err = _parse_error("[ring]\nname = x\n")
    assert err.line == 2
    assert "not valid in [ring]" in str(err)


def test_empty_value():
    err = _parse_error("[scenario]\nname =\n")
    assert "empty value" in str(err)


def test_non_integer_modulus():
    err = _parse_error("[scenario]\nname = x\n[automorphism]\nmodulus = abc\n")
    assert err.line == 4
    assert "expected an integer" in str(err)


def test_duplicate_point():
    err = _parse_error(
        "[scenario]\nname = x\n[curve Z]\nplane = x0 x1\npoly = x0\n"
        "point = P 1 0\npoint = P 0 1\n")
    assert err.line == 7
    assert "declared twice" in str(err)


def test_point_coordinate_count_is_validated():
    err = _parse_error(
        "[scenario]\nname = x\n[curve Z]\nplane = x0 x1 x2\npoly = x0\n"
        "point = P 1 0\n[checks]\ncheck x cite=c\n")
    assert "has 2 coordinates" in str(err)


def test_check_line_rules():
    head = "[scenario]\nname = x\n[checks]\n"
    assert "missing cite=" in str(_parse_error(head + "check hilbert a=1\n"))
    assert "needs a kind" in str(_parse_error(head + "check cite=c\n"))
    assert "only 'check' lines" in str(_parse_error(head + "verify hilbert\n"))
    err = _parse_error(head + "check h a=1 a=2 cite=c\n")
    assert "repeated attribute" in str(err)
    assert err.column > 1
    err = _parse_error(head + 'check h a="unclosed cite=c\n')
    assert "unterminated quote" in str(err)


def test_validation_rules():
    assert "missing [scenario] name" in str(_parse_error(
        "[checks]\ncheck x cite=c\n"))
    assert "declares no checks" in str(_parse_error("[scenario]\nname = x\n"))
    assert "both variables and poly" in str(_parse_error(
        "[scenario]\nname = x\n[ring]\npoly = x0\n[checks]\ncheck x cite=c\n"))
    assert "modulus and exponents" in str(_parse_error(
        "[scenario]\nname = x\n[automorphism]\nmodulus = 5\n"
        "[checks]\ncheck x cite=c\n"))
    assert "needs plane and poly" in str(_parse_error(
        "[scenario]\nname = x\n[curve Z]\nplane = x0 x1\n"
        "[checks]\ncheck x cite=c\n"))


def test_curve_variables_default_to_plane():
    scn = parse_scenario(
        "[scenario]\nname = x\n[curve Z]\nplane = x0 x1 x2\npoly = x0\n"
        "[checks]\ncheck x cite=c\n")
    assert scn.curves["Z"].variables == ["x0", "x1", "x2"]


# ----------------------------------------------------------------- runner

def test_run_scenario_inline_pass():
    report = run_scenario(parse_scenario(TINY))
    assert report.verdict == "pass"
    assert report.exit_code == 0
    assert [s.kind for s in report.steps] == ["hilbert", "duality"]
    assert all(s.citation for s in report.steps)
    assert "arithmetic" in report.mode


def test_run_scenario_inline_failure_is_a_step_not_an_exception():
    bad = TINY.replace("1 4 10 16 19 16 10 4 1", "1 2 3")
    report = run_scenario(parse_scenario(bad))
    assert report.verdict == "fail"
    assert report.exit_code == 1
    assert report.steps[0].status == "fail"
    assert report.steps[1].status == "pass"


def test_unknown_check_kind_raises_before_running():
    scn = parse_scenario(
        "[scenario]\nname = x\n[checks]\ncheck nosuchkind cite=c\n")
    with pytest.raises(UnknownCheck) as info:
        run_scenario(scn)
    assert "nosuchkind" in str(info.value)


def test_missing_attribute_raises_config_error():
    scn = parse_scenario(
        "[scenario]\nname = x\n" + FERMAT_RING +
        "[checks]\ncheck hilbert cite=c\n")
    with pytest.raises(CheckConfigError) as info:
        run_scenario(scn)
    assert "needs attribute 'expect'" in str(info.value)


# ----------------------------------------------------------------- report

def test_step_result_requires_citation():
    with pytest.raises(ValueError):
        StepResult("n", "k", "pass", "")


def test_report_renderings():
    steps = [
        StepResult("alpha", "kind_a", "pass", "cite one",
                   details=["fine"], values={"rank": 3}, duration=0.25),
        StepResult("beta", "kind_b", "fail", "cite two", witness="left over"),
    ]
    report = Report("demo", steps, mode={"arithmetic": "exact"})
    assert report.verdict == "fail"
    assert report.exit_code == 1
    assert [s.name for s in report.failed_steps()] == ["beta"]

    human = report.render_human()
    assert "scenario: demo" in human
    assert "ok" in human and "FAIL" in human
    assert "[0.250s]" in human
    assert "witness: left over" in human
    assert "cites: cite one" in human
    assert "verdict: fail (1 of 2: beta)" in human
    assert "[0." not in report.render_human(show_timings=False)

    machine = report.render_machine()
    lines = machine.splitlines()
    assert machine.endswith("\n")
    assert lines == sorted(lines)
    assert "check.01.name = alpha" in lines
    assert "check.01.value.rank = 3" in lines
    assert "check.01.detail.01 = fine" in lines
    assert "check.02.witness = left over" in lines
    assert "mode.arithmetic = exact" in lines
    assert "summary.verdict = fail" in lines
    assert "summary.failed = 1" in lines
    assert not any("duration" in line or "0.25" in line for line in lines)


# -------------------------------------------------------------------- cli

def test_cli_verify_bundled_shioda(capsys):
    assert cli.main(["verify", "shioda"]) == 0
    out = capsys.readouterr().out
    assert "scenario: shioda" in out
    assert "verdict: pass" in out


def test_cli_verify_bundled_quartic_family_fails_honestly(capsys):
    assert cli.main(["verify", "quartic-family"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "verdict: fail" in out
    assert "pencil parameter condition" in out


def test_cli_machine_output(tmp_path, capsys):
    path = tmp_path / "t.scn"
    path.write_text(TINY, encoding="utf-8")
    assert cli.main(["verify", str(path), "--machine"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("check.01.")
    assert "backend" not in out
    assert "summary.verdict = pass" in out


def test_cli_report_files_are_byte_identical(tmp_path, capsys):
    blobs = []
    for name in ("a.txt", "b.txt"):
        target = tmp_path / name
        code = cli.main(["verify", "quartic-family", "--report", str(target)])
        assert code == 1
        capsys.readouterr()
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_machine_stdout_matches_report_file(tmp_path, capsys):
    path = tmp_path / "t.scn"
    path.write_text(TINY, encoding="utf-8")
    target = tmp_path / "out.txt"
    cli.main(["verify", str(path), "--machine", "--report", str(target)])
    out = capsys.readouterr().out
    assert out == target.read_text(encoding="utf-8")


def test_cli_unknown_scenario(capsys):
    assert cli.main(["verify", "no-such-thing"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "quartic-family" in err and "shioda" in err


def test_cli_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("[nope]\n", encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    assert "error: line 1" in capsys.readouterr().err


def test_cli_unknown_check_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("[scenario]\nname = x\n[checks]\ncheck bogus cite=c\n",
                    encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    assert "unknown check kind 'bogus'" in capsys.readouterr().err


def test_cli_misconfigured_check_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("[scenario]\nname = x\n" + FERMAT_RING +
                    "[checks]\ncheck hilbert cite=c\n", encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    assert "needs attribute 'expect'" in capsys.readouterr().err


def test_cli_pencil_override_fails_factorization(tmp_path, capsys):
    path = tmp_path / "p.scn"
    path.write_text(
        "[scenario]\nname = tilted\n[pencil]\nline0 = x1 + x2\n"
        '[checks]\ncheck pencil_factorization cite="perturbed line"\n',
        encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness:" in out


def test_cli_ring_dim(capsys):
    assert cli.main(["ring", "dim", "--file", "shioda", "--degree", "6"]) == 0
    out = capsys.readouterr().out
    assert "dim = 44 (exact)" in out


def test_cli_ring_map_and_duality(tmp_path, capsys):
    path = tmp_path / "t.scn"
    path.write_text(TINY, encoding="utf-8")
    assert cli.main(["ring", "map", "--file", str(path),
                     "--a", "1", "--b", "3"]) == 0
    out = capsys.readouterr().out
    assert "surjective, rank 19 of 19" in out
    assert cli.main(["ring", "duality", "--file", str(path),
                     "--a", "1", "--b", "3"]) == 0
    assert "no class of degree 1 kills all of degree 3" in capsys.readouterr().out


def test_cli_ring_smooth_rejects_a_cone(tmp_path, capsys):
    path = tmp_path / "cone.scn"
    path.write_text(
        "[scenario]\nname = cone\n[ring]\nvariables = x0 x1 x2 x3\n"
        "poly = x0^4\n[checks]\ncheck smooth cite=c\n", encoding="utf-8")
    assert cli.main(["ring", "smooth", "--file", str(path)]) == 1
    assert "quotient has dimension 136 in degree 9 (exact)" in capsys.readouterr().out


# machine reports of the ring queries, captured before they ran as checks
RING_DIM_MACHINE = """\
check.01.citation = command line query
check.01.detail.01 = dim = 44 (exact)
check.01.kind = ring_dim
check.01.name = dimension in degree 6
check.01.status = pass
check.01.value.dim = 44
scenario.name = shioda: ring dim
summary.failed = 0
summary.steps = 1
summary.verdict = pass
"""

RING_MAP_MACHINE = """\
check.01.citation = command line query
check.01.detail.01 = surjective, rank 19 of 19 (modular(p=1000003))
check.01.kind = ring_map
check.01.name = multiplication 1 x 3 -> 4
check.01.status = pass
check.01.value.mode = modular(p=1000003)
check.01.value.rank = 19
check.01.value.surjective = True
check.01.value.target_dim = 19
scenario.name = tiny: ring map
summary.failed = 0
summary.steps = 1
summary.verdict = pass
"""


def test_cli_ring_dim_and_map_machine_reports_are_unchanged(tmp_path, capsys):
    path = tmp_path / "t.scn"
    path.write_text(TINY, encoding="utf-8")
    assert cli.main(["ring", "dim", "--file", "shioda", "--degree", "6",
                     "--machine"]) == 0
    assert capsys.readouterr().out == RING_DIM_MACHINE
    assert cli.main(["ring", "map", "--file", str(path), "--a", "1", "--b", "3",
                     "--machine"]) == 0
    assert capsys.readouterr().out == RING_MAP_MACHINE


# a seeded dense cubic in x0 x1 x2 plus 3 * 1000033 * x3^3: smooth over Q
# and proven so at the default prime, but a cone mod 1000033, where the
# degree-2 piece is refused
CONE_MOD_P = """\
[scenario]
name = cone-mod-p
[ring]
variables = x0 x1 x2 x3
poly = 6*x0^3 - 8*x0^2*x1 - x0*x1^2 - 2*x1^3 + 8*x0^2*x2 - 7*x0*x1*x2 \
- 4*x1^2*x2 - 4*x0*x2^2 + 5*x1*x2^2 - 7*x2^3 + 3000099*x3^3
[checks]
check smooth cite=c
"""


def _map_machine(name, a, b, rank, mode):
    return f"""\
check.01.citation = command line query
check.01.detail.01 = surjective, rank {rank} of {rank} ({mode})
check.01.kind = ring_map
check.01.name = multiplication {a} x {b} -> {a + b}
check.01.status = pass
check.01.value.mode = {mode}
check.01.value.rank = {rank}
check.01.value.surjective = True
check.01.value.target_dim = {rank}
scenario.name = {name}: ring map
summary.failed = 0
summary.steps = 1
summary.verdict = pass
"""


def _duality_machine(name, a, b, rank, mode):
    return f"""\
check.01.citation = command line query
check.01.detail.01 = multiplication onto the complementary piece has rank \
{rank} of {rank} ({mode})
check.01.detail.02 = socle pairing at degree {a} has rank {rank} ({mode})
check.01.detail.03 = no class of degree {a} kills all of degree {b}
check.01.kind = duality
check.01.name = left kernel via duality
check.01.status = pass
check.01.value.empty = True
check.01.value.pairing_mode = {mode}
check.01.value.pairing_rank = {rank}
check.01.value.surjectivity_mode = {mode}
check.01.value.surjectivity_rank = {rank}
scenario.name = {name}: ring duality
summary.failed = 0
summary.steps = 1
summary.verdict = pass
"""


# one ring query per route, with the text it printed before exact and GF(p)
# pieces became one piece type: (query, machine report, route line)
@pytest.mark.parametrize("source, flags, expected", [
    ("shioda", ("--a", "3", "--b", "3"), [
        ("map", _map_machine("shioda", 3, 3, 44, "modular(p=1000003)"),
         "pieces mod p=1000003 at degrees 3, 6; multiplication 44x400"),
        ("duality", _duality_machine("shioda", 3, 3, 20, "modular(p=1000003)"),
         "pieces mod p=1000003 at degrees 3, 6, 9, 12; "
         "surjectivity 20x880, pairing 20x20"),
    ]),
    ("shioda", ("--a", "3", "--b", "3", "--exact"), [
        ("map", _map_machine("shioda", 3, 3, 44, "exact"), "exact pieces"),
        ("duality", _duality_machine("shioda", 3, 3, 20, "exact"),
         "exact pieces"),
    ]),
    (CONE_MOD_P, ("--a", "1", "--b", "1", "--prime", "1000033"), [
        ("map", _map_machine("cone-mod-p", 1, 1, 6, "modular(p=1000033)"),
         "exact pieces, mod-p gate refused at degree 2"),
        ("duality", _duality_machine("cone-mod-p", 1, 1, 4,
                                     "modular(p=1000033)"),
         "exact pieces, mod-p gate refused at degree 2"),
    ]),
    (TINY, ("--a", "1", "--b", "3"), [
        ("map", _map_machine("tiny", 1, 3, 19, "modular(p=1000003)"),
         "monomial pieces"),
        ("duality", _duality_machine("tiny", 1, 3, 4, "modular(p=1000003)"),
         "monomial pieces"),
    ]),
], ids=["shioda-gfp-pieces", "shioda-exact-pieces", "cone-exact-fallback",
        "tiny-monomial-pieces"])
def test_ring_query_reports_and_routes_are_pinned(source, flags, expected,
                                                  tmp_path, capsys):
    if source != "shioda":
        path = tmp_path / "ring.scn"
        path.write_text(source, encoding="utf-8")
        source = str(path)
    for query, machine, route in expected:
        argv = ["ring", query, "--file", source, *flags]
        assert cli.main([*argv, "--machine"]) == 0
        assert capsys.readouterr().out == machine
        assert cli.main(argv) == 0
        routes = [line.strip() for line in capsys.readouterr().out.splitlines()
                  if line.strip().startswith("route:")]
        assert routes == [f"route: {route}"]


def test_cli_ring_dim_below_degree_zero_is_zero(capsys):
    assert cli.main(["ring", "dim", "--file", "shioda", "--degree", "-1"]) == 0
    assert "dim = 0 (exact)" in capsys.readouterr().out


def test_cli_ring_duality_on_a_cone_fails_with_a_witness(tmp_path):
    path = tmp_path / "cone.scn"
    path.write_text(
        "[scenario]\nname = cone\n[ring]\nvariables = x0 x1 x2 x3\n"
        "poly = x0^4\n[checks]\ncheck smooth cite=c\n", encoding="utf-8")
    out = _run_cli("ring", "duality", "--file", str(path), "--a", "1", "--b", "3",
                   "--machine")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert "check.01.status = fail" in out.stdout.splitlines()
    assert "check.01.witness = dim R_8 = 109, expected 1" in out.stdout.splitlines()
    assert "(line" not in out.stdout


def test_cli_ring_missing_flag(capsys):
    assert cli.main(["ring", "dim", "--file", "shioda"]) == 2
    assert "--degree" in capsys.readouterr().err


def _run_cli(*argv):
    src = str(Path(chowcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "chowcheck", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("check", [
    "check smooth mode=modular prime=4 cite=c",
    "check duality a=1 b=3 prime=561 cite=c",
    "check no_left_kernel a=1 b=3 prime=1 cite=c",
])
def test_cli_bad_prime_in_scenario_exits_two(tmp_path, check):
    path = tmp_path / "p.scn"
    path.write_text("[scenario]\nname = x\n" + FERMAT_RING + "[checks]\n"
                    + check + "\n", encoding="utf-8")
    out = _run_cli("verify", str(path))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: check ")
    assert "(line 7)" in out.stderr and "modulus" in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("check, argv, message", [
    ("check duality a=5 b=5 cite=c", ("verify",),
     "check 'duality' (line 7): a + b = 10 is above the socle degree 8"),
    ("check uniform_bound b=-2 expect=1 cite=c", ("verify",),
     "check 'uniform_bound' (line 7): b=-2 is negative"),
    ("check no_left_kernel a=-1 b=3 cite=c", ("verify",),
     "check 'no_left_kernel' (line 7): a=-1 is negative"),
    ('check green_gotzmann g="x0" b=-1 expect_rank=1 cite=c', ("verify",),
     "check 'green_gotzmann' (line 7): b=-1 is negative"),
    (None, ("ring", "map", "--file", "shioda", "--a", "-1", "--b", "3"),
     "check 'ring_map': a=-1 is negative"),
], ids=["duality-above-socle", "uniform_bound-negative-b",
        "no_left_kernel-negative-a", "green_gotzmann-negative-b",
        "ring-map-negative-a"])
def test_cli_bad_degree_exits_two(tmp_path, check, argv, message):
    if check is not None:
        path = tmp_path / "d.scn"
        path.write_text("[scenario]\nname = x\n" + FERMAT_RING + "[checks]\n"
                        + check + "\n", encoding="utf-8")
        argv = (*argv, str(path))
    out = _run_cli(*argv)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr == f"error: {message}\n"


@pytest.mark.parametrize("prime", ["1", "4", "1105"])
def test_cli_ring_bad_prime_exits_two(prime):
    out = _run_cli("ring", "smooth", "--file", "shioda", "--prime", prime)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith(f"error: modulus {prime} ")
    assert len(out.stderr.splitlines()) == 1


def _cubic_duality(prime):
    return parse_scenario(
        "[scenario]\nname = x\n[ring]\nvariables = x0 x1 x2\n"
        "poly = x0^3 + x1^3 + x2^3 + 2*x0*x1*x2\n[checks]\n"
        f"check duality a=1 b=1 prime={prime} cite=c\n")


def test_prime_dividing_a_pairing_denominator_leaves_the_exact_rank_to_decide():
    # mod 2 the partials are x0^2, x1^2, x2^2: every piece has its rational
    # dimension, so the pieces mod 2 prove the verdict
    step = run_scenario(_cubic_duality(2)).steps[0]
    assert step.passed
    assert (step.values["surjectivity_mode"], step.values["pairing_mode"]) == (
        "modular(p=2)", "modular(p=2)")
    assert step.route == ("pieces mod p=2 at degrees 1, 2, 3; "
                          "surjectivity 3x9, pairing 3x3")
    # mod 3 the partials are 2*x1*x2, 2*x0*x2, 2*x0*x1: the socle piece is
    # refused, and the exact pieces carry a denominator divisible by 3, so
    # no rank mod 3 certifies anything and the exact ranks decide
    step = run_scenario(_cubic_duality(3)).steps[0]
    assert step.passed
    assert (step.values["surjectivity_mode"], step.values["pairing_mode"]) == (
        "exact", "exact")
    assert step.route == "exact pieces, mod-p gate refused at degree 3"


@pytest.mark.parametrize("sections, check, message", [
    ("[ring]\nvariables = x0 x1\npoly = x0^3 + x1^2\n",
     'check hilbert expect="1" cite=c',
     "bad [ring] poly: defining form must be homogeneous and nonzero"),
    ("[ring]\nvariables = x0 x1\npoly = x0 + x1\n",
     'check hilbert expect="1" cite=c',
     "bad [ring] poly: defining form must have degree at least 2"),
    ("[pencil]\ndeclared_quadratic = lam^2*t\n",
     "check pencil_hyperelliptic cite=c",
     "bad [pencil] declared_quadratic: it must be linear in lam"),
    (FERMAT_RING + "[automorphism]\nmodulus = 0\nexponents = 1 0 0 0\n",
     'check picard_bound cite=c',
     "bad [automorphism]: modulus must be a positive integer"),
    ("[curve Z]\nplane = x0 x1 x2\npoly = x0^2 + x1\n",
     'check intersection curve=Z line=x2 expect="P:1" cite=c',
     "bad poly for curve 'Z': not homogeneous in the plane coordinates x0 x1 x2"),
    ("[curve Z]\nplane = x0 x1 x2\nvariables = x0 x1 t\npoly = x0 + x1\n",
     'check intersection curve=Z line=x2 expect="P:1" cite=c',
     "curve 'Z': plane coordinates ['x2'] are not among its variables"),
    (FERMAT_RING + "[automorphism]\nmodulus = 4\nexponents = 1 0 0\n",
     'check picard_bound cite=c',
     "[automorphism] has 3 exponents, [ring] has 4 variables"),
    ("[curve Z]\nplane = x0 x1\npoly = x0^2 + x1^2\n",
     'check intersection curve=Z line=x1 expect="P:1" cite=c',
     "curve 'Z': a plane needs exactly three coordinates, got x0 x1"),
    (FERMAT_RING, 'check green_gotzmann g="x0^2*x1^2 + x0" b=3 expect_rank=4 '
                  'cite=c',
     "check 'green_gotzmann' (line 7): bad g: not a nonzero homogeneous form"),
], ids=["ring-not-homogeneous", "ring-linear", "pencil-quadratic-in-lam",
        "automorphism-zero-modulus", "curve-not-homogeneous",
        "curve-plane-not-in-variables", "automorphism-exponent-count",
        "curve-plane-of-two-coordinates", "green-gotzmann-g-not-homogeneous"])
def test_cli_malformed_scenario_values_exit_two(tmp_path, sections, check,
                                                message):
    path = tmp_path / "bad.scn"
    path.write_text("[scenario]\nname = x\n" + sections + "[checks]\n"
                    + check + "\n", encoding="utf-8")
    out = _run_cli("verify", str(path))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr == f"error: {message}\n"


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


# hilbert and picard_bound on shioda, hilbert on quartic-family; then the
# routes of the other steps, in report order
@pytest.mark.parametrize("name, route, count, others", [
    ("shioda", "closed form, smooth at degree 13 "
               "(modular p=1000003, 880x560, 1540 nonzeros)", 2,
     ["pieces mod p=1000003 at degrees 3, 6, 9, 12; "
      "surjectivity 20x880, pairing 20x20"]),
    ("quartic-family", "closed form, smooth at degree 9 (monomial count)", 1,
     ["monomial pieces"]),
])
def test_route_lines_are_human_only(name, route, count, others, capsys):
    cli.main(["verify", name, "--machine"])
    machine = capsys.readouterr().out
    assert machine == (GOLDEN / f"{name}.machine").read_text(encoding="utf-8")
    assert "route" not in machine
    cli.main(["verify", name])
    human = capsys.readouterr().out.splitlines()
    routes = [line.strip() for line in human if line.strip().startswith("route:")]
    assert routes.count(f"route: {route}") == count
    assert [r for r in routes if r != f"route: {route}"] == [
        f"route: {other}" for other in others]


def test_shioda_machine_report_is_the_same_on_exact_pieces(monkeypatch, capsys):
    piece = jacobian.HypersurfaceRing.piece
    monkeypatch.setattr(jacobian.HypersurfaceRing, "piece",
                        lambda self, k, prime=None:
                        None if prime else piece(self, k))
    cli.main(["verify", "shioda", "--machine"])
    machine = capsys.readouterr().out
    assert machine == (GOLDEN / "shioda.machine").read_text(encoding="utf-8")
    cli.main(["verify", "shioda"])
    assert ("route: exact pieces, mod-p gate refused at degree 6"
            in capsys.readouterr().out)


def test_a_closed_certificate_serves_every_later_check(monkeypatch):
    calls = []
    modular_rank = exactla.modular_rank

    def counting(matrix, prime, upper_bound=None):
        calls.append(prime)
        return modular_rank(matrix, prime, upper_bound=upper_bound)

    text = ("[scenario]\nname = x\n[ring]\nvariables = x0 x1 x2 x3\n"
            "poly = x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3\n[checks]\n"
            "check smooth prime={prime}cite=c\n"
            'check hilbert expect="1 4 10 16 19 16 10 4 1" cite=c\n')
    plain = run_scenario(parse_scenario(text.format(prime="1000003 ")))
    monkeypatch.setattr(exactla, "modular_rank", counting)
    report = run_scenario(parse_scenario(text.format(prime="1000033 ")))
    assert calls == [1000033]
    assert report.exit_code == 0
    hilbert = [line for line in report.render_machine().splitlines()
               if line.startswith("check.02.")]
    assert hilbert == [line for line in plain.render_machine().splitlines()
                       if line.startswith("check.02.")]
    assert report.steps[1].route == ("closed form, smooth at degree 9 "
                                     "(modular p=1000033, 336x220, 672 nonzeros)")


def test_ring_dim_reports_its_route(tmp_path, capsys):
    assert cli.main(["ring", "dim", "--file", "shioda", "--degree", "6"]) == 0
    assert ("route: closed form, smooth at degree 13 "
            "(modular p=1000003, 880x560, 1540 nonzeros)"
            in capsys.readouterr().out)
    path = tmp_path / "cone.scn"
    path.write_text(
        "[scenario]\nname = cone\n[ring]\nvariables = x0 x1 x2 x3\n"
        "poly = x0^4 + x1^4\n[checks]\ncheck smooth cite=c\n", encoding="utf-8")
    assert cli.main(["ring", "dim", "--file", str(path), "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "dim = 27 (exact)" in out and "route: elimination" in out


# numpy is loaded by the GF(p) kernel and the slice arrays alone: importing
# the package and checking the monomial-ideal quartic family never need it,
# while shioda's degree-13 certificate does (so the guard is not vacuous)
@pytest.mark.parametrize("code, loaded", [
    ("import chowcheck, chowcheck.cli", False),
    ("cli.main(['verify', 'quartic-family', '--machine'])", False),
    ("cli.main(['verify', 'shioda', '--machine'])", True),
], ids=["import", "quartic-family", "shioda"])
def test_numpy_is_loaded_only_by_a_gfp_elimination(code, loaded):
    probe = ("import contextlib, io, sys\n"
             "from chowcheck import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    {code}\n"
             "print('numpy' in sys.modules)\n")
    src = str(Path(chowcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loaded)
