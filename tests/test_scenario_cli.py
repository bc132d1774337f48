import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import chowcheck
from chowcheck import cli, curves, exactla, jacobian
from chowcheck.poly import enumerate_monomials
from chowcheck.report import Report, StepResult
from chowcheck.runner import (_REQUIRED, ATTRIBUTES, CHECKS, CheckConfigError,
                              ScenarioContext, UnknownCheck, run_check,
                              run_scenario)
from chowcheck.scenario import (CheckSpec, ParseError, ScenarioFile,
                                parse_scenario)

FERMAT_RING = """\
[ring]
variables = x0 x1 x2 x3
poly = x0^4 + x1^4 + x2^4 + x3^4
"""

# a smooth quartic whose Jacobian ideal is not monomial
MIXED_QUARTIC = "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3"

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
    # an incomplete section names its header's line, a bad point its own;
    # an empty header is a section without keys
    head = "[scenario]\nname = x\n[checks]\ncheck x cite=c\n"
    for tail, line in (("[ring]\nvariables = x0\n", 5),
                       ("[ring]\n[cycle]\ntau = 1\n", 5),
                       ("[automorphism]\n[cycle]\ntau = 1\n", 5),
                       ("[automorphism]\n\nexponents = 1\n", 5),
                       ("[curve A]\nplane = x0 x1 x2\npoly = x0\n"
                        "[curve Z]\nplane = x0 x1 x2\n", 8),
                       ("[curve Z]\nplane = x0 x1 x2\npoly = x0\n"
                        "point = Q 1 0 0\npoint = P 1 0\n", 9)):
        error = _parse_error(head + tail)
        assert (error.line, error.column) == (line, 1)
        assert str(error).startswith(f"line {line}, column 1: ")


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


@pytest.mark.parametrize("kind", sorted(CHECKS))
def test_every_kind_refuses_an_unknown_attribute(kind):
    # refused before the check touches a scenario object, so the empty
    # scenario's missing sections never come into it
    spec = CheckSpec(kind, {"cite": "c", "bogus": "1"}, line=None)
    with pytest.raises(CheckConfigError) as info:
        run_check(ScenarioContext(ScenarioFile()), spec)
    assert str(info.value) == f"check {kind!r}: unknown attribute 'bogus'"


def test_readme_lists_every_kinds_attribute_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Scenario files")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    expected = []
    for kind in sorted(CHECKS):
        required, optional = [], []
        for name, (_, default) in ATTRIBUTES[kind].items():
            if default is _REQUIRED:
                required.append(f"`{name}`")
            else:
                optional.append(f"`{name}`" if default is None
                                else f"`{name}={default}`")
        expected.append(f"| `{kind}` | {' '.join(required) or '—'} | "
                        f"{' '.join(optional) or '—'} |")
    assert rows == expected


def test_a_declared_label_off_the_lattice_is_a_failing_step():
    text = (Path(chowcheck.__file__).parent / "scenarios" / "shioda.scn"
            ).read_text(encoding="utf-8")
    text = text.replace("point = R 1 0 0\n",
                        "point = R 1 0 0\npoint = S 1 1 1\n")
    text = text.replace('pair="P Q" expect=13', 'pair="P S" expect=13')
    report = run_scenario(parse_scenario(text))
    [step] = [s for s in report.steps
              if s.name == "equivalence_order (line 42)"]
    assert step.status == "fail"
    assert step.witness == "'S'"
    assert report.verdict == "fail"


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
# and proven so at the default prime, but a cone mod 1000033, so a query
# at 1000033 takes exact pieces
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


def _duality_machine(name, a, b, rank, mode, surjectivity_mode=None):
    onto = surjectivity_mode or mode
    return f"""\
check.01.citation = command line query
check.01.detail.01 = multiplication onto the complementary piece has rank \
{rank} of {rank} ({onto})
check.01.detail.02 = socle pairing at degree {a} has rank {rank} ({mode})
check.01.detail.03 = no class of degree {a} kills all of degree {b}
check.01.kind = duality
check.01.name = left kernel via duality
check.01.status = pass
check.01.value.empty = True
check.01.value.pairing_mode = {mode}
check.01.value.pairing_rank = {rank}
check.01.value.surjectivity_mode = {onto}
check.01.value.surjectivity_rank = {rank}
scenario.name = {name}: ring duality
summary.failed = 0
summary.steps = 1
summary.verdict = pass
"""


SHIODA_PROOF = ("smooth at degree 13 (modular p=1000003, 560x560 Macaulay "
                "rows of 880x560, 1056 nonzeros, sparse)")


# one ring query per route: (query, machine report, route line).  The
# machine reports stay fixed when a route changes; the ids keep the names
# the queries were first pinned under
@pytest.mark.parametrize("source, flags, expected", [
    ("shioda", ("--a", "3", "--b", "3"), [
        ("map", _map_machine("shioda", 3, 3, 44, "modular(p=1000003)"),
         f"closed form (generated in degree 1), {SHIODA_PROOF}"),
        ("duality", _duality_machine("shioda", 3, 3, 20, "modular(p=1000003)"),
         f"closed form (Macaulay duality), {SHIODA_PROOF}"),
    ]),
    ("shioda", ("--a", "3", "--b", "3", "--exact"), [
        ("map", _map_machine("shioda", 3, 3, 44, "exact"),
         f"closed form (generated in degree 1), {SHIODA_PROOF}"),
        ("duality", _duality_machine("shioda", 3, 3, 20, "exact"),
         f"closed form (Macaulay duality), {SHIODA_PROOF}"),
    ]),
    # the map is onto by generation in degree 1, and its mode says so:
    # no rank mod 1000033 was taken
    (CONE_MOD_P, ("--a", "1", "--b", "1", "--prime", "1000033"), [
        ("map", _map_machine("cone-mod-p", 1, 1, 6,
                             "exact(generated in degree 1)"),
         "generated in degree 1, dimension by closed form, smooth at degree 5 "
         "(modular p=1000003, 56x56 Macaulay rows of 80x56, 296 nonzeros, "
         "dense), ring not proven smooth at p=1000033"),
        ("duality", _duality_machine("cone-mod-p", 1, 1, 4,
                                     "modular(p=1000033)",
                                     "exact(generated in degree 1)"),
         "exact pieces, ring not proven smooth at p=1000033"),
    ]),
    (TINY, ("--a", "1", "--b", "3"), [
        ("map", _map_machine("tiny", 1, 3, 19, "modular(p=1000003)"),
         "closed form (generated in degree 1), "
         "smooth at degree 9 (monomial count)"),
        ("duality", _duality_machine("tiny", 1, 3, 4, "modular(p=1000003)"),
         "closed form (Macaulay duality), smooth at degree 9 (monomial count)"),
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


QUARTIC_FAMILY_RING = """\
[ring]
variables = x0 x1 x2 x3
poly = x0^4 + x1^4 - x2^4 - x3^4
"""

_GREEN_GOTZMANN_ABOVE_SIGMA = {"class_nonzero": "False", "rank": "0",
                               "subspace_dim": "0", "target_dim": "0"}


@pytest.mark.parametrize("ring, check, code, values", [
    (QUARTIC_FAMILY_RING, 'check green_gotzmann g="x0^60" b=3 expect_rank=0',
     1, _GREEN_GOTZMANN_ABOVE_SIGMA),
    (QUARTIC_FAMILY_RING, 'check green_gotzmann g="x0^5000" b=3 '
     'expect_rank=0', 1, _GREEN_GOTZMANN_ABOVE_SIGMA),
    ("[ring]\nvariables = x0 x1 x2 x3\npoly = x0^4 + x1^4\n",
     "check uniform_bound b=1000003 expect=6000015", 0,
     {"bound": "6000015", "per_variable": "6000015 6000015 9000018 9000018"}),
], ids=["green_gotzmann-g-of-degree-60", "green_gotzmann-g-of-degree-5000",
        "uniform_bound-singular-b-1000003"])
def test_degrees_far_above_the_socle_answer_at_once(tmp_path, capsys, ring,
                                                    check, code, values):
    # a smooth ring vanishes above sigma, so a g of degree above it is
    # answered before any piece of its degree is built; a monomial ideal's
    # uniform bound is counted, not listed, on a singular ring too
    path = tmp_path / "far.scn"
    path.write_text("[scenario]\nname = x\n" + ring + "[checks]\n" + check
                    + " cite=c\n", encoding="utf-8")
    start = time.perf_counter()
    assert cli.main(["verify", "--machine", str(path)]) == code
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("check.01.value.")] == [
        f"check.01.value.{key} = {value}" for key, value in values.items()]


# x0 pairs to zero on the Fermat cubic curve (2 * 1 is not sigma = 3);
# on the Fermat quartic curve (sigma = 6, R_3 of dimension 7) x0^2*x1
# pairs to x1*x2^2, W has dimension 6, and for b = 0 it is all of the
# image, one short of R_3
@pytest.mark.parametrize("poly, check, witness", [
    ("x0^3 + x1^3 + x2^3", 'g="x0" b=1 expect_rank=3', "g pairs to zero"),
    ("x0^3 + x1^3 + x2^3", 'g="x0" b=1 expect_rank=2',
     "rank mismatch, g pairs to zero"),
    ("x0^4 + x1^4 + x2^4", 'g="x0^2*x1" b=1 expect_rank=5', "rank mismatch"),
    ("x0^4 + x1^4 + x2^4", 'g="x0^2*x1" b=0 expect_rank=6', "map not onto"),
    ("x0^4 + x1^4 + x2^4", 'g="x0^2*x1" b=0 expect_rank=7',
     "rank mismatch, map not onto"),
    ("x0^4 + x1^4 + x2^4", 'g="x0^2*x1" b=1 expect_rank=6', None),
])
def test_the_green_gotzmann_witness_names_what_failed(poly, check, witness):
    scn = parse_scenario("[scenario]\nname = x\n[ring]\nvariables = x0 x1 x2\n"
                         f"poly = {poly}\n[checks]\n"
                         f"check green_gotzmann {check} cite=c\n")
    (step,) = run_scenario(scn).steps
    assert step.witness == witness
    assert step.passed == (witness is None)


def test_a_functional_that_pairs_to_zero_says_so(tmp_path, capsys):
    # x0 is nonzero in R_1 of the Fermat cubic curve, whose partials have
    # degree 2, but 2 * 1 is not sigma = 3, so x0 pairs to zero with every
    # class of degree 1: the step must not say that its class vanishes
    path = tmp_path / "g.scn"
    path.write_text("[scenario]\nname = x\n[ring]\nvariables = x0 x1 x2\n"
                    "poly = x0^3 + x1^3 + x2^3\n[checks]\n"
                    'check green_gotzmann g="x0" b=1 expect_rank=3 cite=c\n',
                    encoding="utf-8")
    assert cli.main(["verify", "--machine", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("check.01.detail.")] == [
        "check.01.detail.01 = kernel subspace of dimension 3 multiplies onto "
        "a target of dimension 3 with rank 3",
        "check.01.detail.02 = g pairs to zero with every class of degree 1"]
    assert "check.01.value.class_nonzero = False" in lines


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


def test_prime_dividing_a_pairing_denominator_still_certifies():
    # mod 2 the partials are x0^2, x1^2, x2^2: the ring is smooth mod 2,
    # so the certificate at 2 closes and the closed form answers
    step = run_scenario(_cubic_duality(2)).steps[0]
    assert step.passed
    assert (step.values["surjectivity_mode"], step.values["pairing_mode"]) == (
        "modular(p=2)", "modular(p=2)")
    assert step.route == ("closed form (Macaulay duality), smooth at degree 4 "
                          "(modular p=2, 15x15 Macaulay rows of 18x15, 15 nonzeros, "
                          "dense)")
    # mod 3 the partials are 2*x1*x2, 2*x0*x2, 2*x0*x1: the ring is not
    # proven smooth at 3, and the exact pieces carry a denominator divisible
    # by 3.  The map is onto by generation in degree 1, with no rank taken
    # mod 3.  The pairing matrix is scaled to integer rows, whose rank mod 3
    # never exceeds the rank over Q; it falls short, so the exact rank
    # decides
    step = run_scenario(_cubic_duality(3)).steps[0]
    assert step.passed
    assert (step.values["surjectivity_mode"], step.values["pairing_mode"]) == (
        "exact(generated in degree 1)", "exact")
    assert step.route == "exact pieces, ring not proven smooth at p=3"


# the plane quintic of shioda.scn, with two of its points
PLANE_QUINTIC_CURVE = ("[curve Z1]\nplane = x0 x1 x2\n"
                       "poly = x0*x1^4 + x1*x2^4 + x2*x0^4\n"
                       "point = P 1 0 0\npoint = Q 0 1 0\n")


@pytest.mark.parametrize("sections, check, message", [
    ("[ring]\nvariables = x0 x1\npoly = x0^3 + x1^2\n",
     'check hilbert expect="1" cite=c',
     "check 'hilbert' (line 7): defining form must be homogeneous and "
     "nonzero"),
    ("[ring]\nvariables = x0 x1\npoly = x0 + x1\n",
     'check hilbert expect="1" cite=c',
     "check 'hilbert' (line 7): defining form must have degree at least 2"),
    ("[pencil]\ndeclared_quadratic = lam^2*t\n",
     "check pencil_hyperelliptic cite=c",
     "check 'pencil_hyperelliptic' (line 6): declared quadratic must be "
     "linear in lam"),
    (FERMAT_RING + "[automorphism]\nmodulus = 0\nexponents = 1 0 0 0\n",
     'check picard_bound cite=c',
     "line 7, column 1: bad [automorphism]: modulus must be a positive "
     "integer"),
    (FERMAT_RING + "[automorphism]\nmodulus = 0\nexponents = 1 0 0 0\n",
     'check hilbert expect="1 4 10 16 19 16 10 4 1" cite=c',
     "line 7, column 1: bad [automorphism]: modulus must be a positive "
     "integer"),
    ("[curve Z]\nplane = x0 x1 x2\npoly = x0^2 + x1\n",
     'check intersection curve=Z line=x2 expect="P:1" cite=c',
     "check 'intersection' (line 7): bad poly for curve 'Z': not "
     "homogeneous in the plane coordinates x0 x1 x2"),
    ("[curve Z]\nplane = x0 x1 x2\nvariables = x0 x1 t\npoly = x0 + x1\n",
     'check intersection curve=Z line=x2 expect="P:1" cite=c',
     "check 'intersection' (line 8): curve 'Z': plane coordinates ['x2'] "
     "are not among its variables"),
    (FERMAT_RING + "[automorphism]\nmodulus = 4\nexponents = 1 0 0\n",
     'check picard_bound cite=c',
     "line 8, column 1: [automorphism] has 3 exponents, [ring] has 4 "
     "variables"),
    (FERMAT_RING + "[automorphism]\nmodulus = 4\nexponents = 1 0 0\n"
     "[cycle]\ntau = 52 -52\n", 'check tau_nonzero cite=c',
     "line 8, column 1: [automorphism] has 3 exponents, [ring] has 4 "
     "variables"),
    ("[curve Z]\nplane = x0 x1\npoly = x0^2 + x1^2\n",
     'check intersection curve=Z line=x1 expect="P:1" cite=c',
     "check 'intersection' (line 7): curve 'Z': a plane needs exactly three "
     "coordinates, got x0 x1"),
    (FERMAT_RING, 'check green_gotzmann g="x0^2*x1^2 + x0" b=3 expect_rank=4 '
                  'cite=c',
     "check 'green_gotzmann' (line 7): bad g: not a nonzero homogeneous form"),
    ("", 'check hilbert expect="1" cite=c',
     "check 'hilbert' (line 4): this check needs a [ring] section"),
    ("[ring]\n", 'check hilbert expect="1" cite=c',
     "line 3, column 1: [ring] needs both variables and poly"),
    ("[ring]\nvariables = x0 x1 x2\npoly = x0^4 + x1^4 + x2^4\n"
     "[automorphism]\nmodulus = 4\nexponents = 1 0 0\n",
     "check picard_bound cite=c",
     "check 'picard_bound' (line 10): the bound needs a surface of degree at "
     "least 4 in P^3, got degree 4 in 3 variables"),
    ("[ring]\nvariables = x0 x1 x2 x3\npoly = x0^3 + x1^3 + x2^3 + x3^3\n"
     "[automorphism]\nmodulus = 3\nexponents = 1 0 0 0\n",
     "check picard_bound cite=c",
     "check 'picard_bound' (line 10): the bound needs a surface of degree at "
     "least 4 in P^3, got degree 3 in 4 variables"),
    ("[pencil]\nclosed_form_den = 0\n", "check pencil_degenerations cite=c",
     "check 'pencil_degenerations' (line 6): closed form has a zero "
     "denominator"),
    ("[curve Z]\nplane = x y z\npoly = x^2 + y^2 - z^2\npoint = P 1 0 1\n",
     'check multiplicity curve=Z point=P at="x=1" expect=1 cite=c',
     "check 'multiplicity' (line 8): polynomial is not homogeneous in the "
     "chart variables"),
    ("[pencil]\nline0 = x1^2\n", "check pencil_factorization cite=c",
     "check 'pencil_factorization' (line 6): lines must be linear forms"),
    ("[pencil]\nline0 = 0\n", "check pencil_factorization cite=c",
     "check 'pencil_factorization' (line 6): lines must be linear forms"),
    ("[pencil]\nclosed_form_num = lam*t\n", "check pencil_degenerations cite=c",
     "check 'pencil_degenerations' (line 6): polynomial involves 'lam'"),
    ("[curve Z]\nplane = x0 x1 x2\npoly = x0^2 + x1\npoint = P 1 0 0\n"
     "point = Q 0 1 0\n",
     'check equivalence_order curve=Z lines="" pair="P Q" expect=1 cite=c',
     "check 'equivalence_order' (line 9): bad poly for curve 'Z': not "
     "homogeneous in the plane coordinates x0 x1 x2"),
    (PLANE_QUINTIC_CURVE,
     'check equivalence_order curve=Z1 lines="" pair="P Q" expect=13 cite=c',
     "check 'equivalence_order' (line 9): lines= names no line"),
    (PLANE_QUINTIC_CURVE,
     'check combined_order curve1=Z1 lines1="x0 x1 x2" pair1="P Q" '
     'curve2=Z1 lines2=" " pair2="P Q" expect=13 cite=c',
     "check 'combined_order' (line 9): lines2= names no line"),
], ids=["ring-not-homogeneous", "ring-linear", "pencil-quadratic-in-lam",
        "automorphism-zero-modulus", "automorphism-zero-modulus-hilbert",
        "curve-not-homogeneous", "curve-plane-not-in-variables",
        "automorphism-exponent-count", "automorphism-exponent-count-tau",
        "curve-plane-of-two-coordinates", "green-gotzmann-g-not-homogeneous",
        "no-ring-section", "empty-ring-header", "picard-three-variables",
        "picard-cubic", "pencil-zero-denominator",
        "multiplicity-at-plane-coordinate", "pencil-line-quadratic",
        "pencil-line-zero", "pencil-closed-form-in-lam",
        "equivalence-order-without-lines-on-a-bad-curve",
        "equivalence-order-without-lines", "combined-order-without-lines"])
def test_cli_malformed_scenario_values_exit_two(tmp_path, sections, check,
                                                message):
    path = tmp_path / "bad.scn"
    path.write_text("[scenario]\nname = x\n" + sections + "[checks]\n"
                    + check + "\n", encoding="utf-8")
    out = _run_cli("verify", str(path))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr == f"error: {message}\n"


# a form the automorphism does not fix, and a singular quartic, are
# failing steps, not configuration errors, whose witness states the fact
@pytest.mark.parametrize("poly, exponents, error, witness", [
    ("x0^4 + x1^4 + x2^4 + x3^4", "1 0 0 0", "NotInvariant",
     "form is not an eigenvector of the automorphism"),
    ("x0^4 + x1^4 + x2^4", "0 0 0 1", "NotSmooth",
     "quotient does not vanish above the socle: dim R_9 = 27 (exact)"),
], ids=["not-invariant", "singular"])
def test_picard_bound_on_a_ring_it_refuses_fails_its_step(poly, exponents,
                                                          error, witness):
    scn = parse_scenario(
        "[scenario]\nname = x\n[ring]\nvariables = x0 x1 x2 x3\n"
        f"poly = {poly}\n[automorphism]\nmodulus = 3\n"
        f"exponents = {exponents}\n[checks]\ncheck picard_bound cite=c\n")
    step = run_scenario(scn).steps[0]
    assert step.status == "fail"
    assert step.details == [f"{error}: {witness}"]
    assert step.witness == witness


# the orbit scan reads a Galois orbit through gcd(c, N), never through
# the units mod N, so a twelve-digit modulus costs what a small one does:
# the trivial action, and exponents 1 + k*N/4 that give every x_i^4 the
# character 4
@pytest.mark.parametrize("exponents", [
    "0 0 0 0", "1 250000000001 500000000001 750000000001"],
    ids=["trivial", "four-characters"])
def test_picard_bound_takes_a_twelve_digit_modulus(tmp_path, exponents):
    path = tmp_path / "big.scn"
    path.write_text(
        "[scenario]\nname = x\n" + FERMAT_RING + "[automorphism]\n"
        f"modulus = {10 ** 12}\nexponents = {exponents}\n[checks]\n"
        "check picard_bound cite=c\n", encoding="utf-8")
    src = str(Path(chowcheck.__file__).resolve().parent.parent)
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "chowcheck", "verify", str(path), "--machine"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10)
    assert out.returncode == 0, out.stderr
    assert time.perf_counter() - start < 5
    assert "check.01.status = pass" in out.stdout.splitlines()


# x2 = 0 cuts x0^3 - N*x1^3, irreducible for these N, so the step fails
# with a non-rational intersection; rational roots come from p-adic
# lifting, whose cost grows with the digits of N, not with sqrt(N)
@pytest.mark.parametrize("n", [10 ** 20 + 39, 10 ** 39 + 121],
                         ids=["21-digit", "40-digit"])
def test_large_coefficient_curve_section_ends(tmp_path, n):
    path = tmp_path / "big.scn"
    path.write_text(
        "[scenario]\nname = x\n[curve C]\nplane = x0 x1 x2\n"
        f"poly = x0^3 - {n}*x1^3 + x2^3 + x0*x1*x2\npoint = P 1 0 0\n"
        '[checks]\ncheck intersection curve=C line=x2 expect="P:1" cite=c\n',
        encoding="utf-8")
    src = str(Path(chowcheck.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "chowcheck", "verify", str(path), "--machine"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=30)
    assert out.returncode == 1, out.stderr
    assert "check.01.status = fail" in out.stdout.splitlines()
    assert "non-rational points (irreducible factor degrees [3])" in out.stdout


# one attribute or declaration of a bundled scenario made malformed: a
# value its reader refuses, a variable the curve does not have, a curve
# point whose coordinates are all zero, a misspelt attribute, a variable
# named twice, a curve, point label or line the scenario does not declare
# (each named under its check's kind and line)
@pytest.mark.parametrize("name, old, new, message", [
    ("quartic_family", 'expect_zero="-3/2 3"', 'expect_zero="-3/2 x"',
     "check 'pencil_degenerations' (line 26): expect_zero='-3/2 x' is not "
     "a list of rational numbers"),
    ("quartic_family", 'expect_zero="-3/2 3"', 'expect_zero="1/0 3"',
     "check 'pencil_degenerations' (line 26): expect_zero='1/0 3' is not "
     "a list of rational numbers"),
    ("shioda", "check smooth mode=modular", "check smooth mode=exactt",
     "check 'smooth' (line 35): mode='exactt' is not 'exact' or 'modular'"),
    ("shioda", "sample_t=1 ", "sample_t=1/0 ",
     "check 'intersection' (line 37): sample_t='1/0' is not a rational "
     "number"),
    ("shioda", 'point=P at="t=0"', 'point=P at="t=1/0"',
     "check 'multiplicity' (line 44): bad value in 't=1/0'"),
    ("shioda", 'point=P at="t=0"', 'point=P at="s=0"',
     "check 'multiplicity' (line 44): 's' is not a variable of the source "
     "ring"),
    ("shioda", 'assign="x1 = ', 'assign="s = t0; x1 = ',
     "check 'parametrization' (line 45): 's' is not a variable of the "
     "source ring"),
    ("shioda", 'expect="P:1 R:4" cite', 'expect="P:1 R:4" sample_t=2 cite',
     "check 'intersection' (line 39): sample_t names 't', which is not a "
     "variable of curve 'Z1'"),
    ("shioda", "point = P 1 0 0", "point = P 0 0 0",
     "line 30, column 1: point 'P' of curve 'Z2' has all coordinates zero"),
    ("quartic_family", "b=3 expect=13", "b=3 expect=thirteen",
     "check 'uniform_bound' (line 28): expect='thirteen' is not an integer"),
    ("shioda", 'expect="P:4 Q:1"', 'expect="P:4 Q1"',
     "check 'intersection' (line 37): expected cycle entries look like "
     "NAME:MULT, got 'Q1'"),
    ("shioda", 'expect="Q:5"', 'expect="Q:five"',
     "check 'intersection' (line 38): bad multiplicity in 'Q:five'"),
    ("shioda", 'point=P at="t=0"', 'point=P at="t"',
     "check 'multiplicity' (line 44): at= entries look like name=value, "
     "got 't'"),
    ("shioda", 'pair="P Q" expect=13', 'pair="P" expect=13',
     "check 'equivalence_order' (line 41): pair needs two labels"),
    ("quartic_family", "threshold=2", "treshold=99",
     "check 'uniform_bound' (line 28): unknown attribute 'treshold'"),
    ("shioda", "check picard_bound expect=1", "check picard_bound expct=7",
     "check 'picard_bound' (line 47): unknown attribute 'expct'"),
    ("shioda", "variables = x0 x1 x2 x3", "variables = x0 x1 x2 x2",
     "line 9, column 1: variable 'x2' declared twice"),
    ("shioda", "variables = x1 x2 x3 t", "variables = x1 x2 x3 t t",
     "line 28, column 1: variable 't' declared twice"),
    ("shioda", 'params="t0 t1"', 'params="t0 t0"',
     "check 'parametrization' (line 45): params names 't0' twice"),
    ("shioda", 'pair="P Q" expect=13', 'pair="P Z" expect=13',
     "check 'equivalence_order' (line 41): point 'Z' is not declared on "
     "curve 'Z1'"),
    ("shioda", 'pair1="P Q"', 'pair1="P Z"',
     "check 'combined_order' (line 43): point 'Z' is not declared on "
     "curve 'Z1'"),
    ("shioda", "curve=Z2 line=x3", "curve=x line=x3",
     "check 'intersection' (line 37): curve 'x' is not declared"),
    ("shioda", "curve=Z2 line=x3", "curve=Z2 line=x9",
     "check 'intersection' (line 37): 'x9' is not a plane coordinate"),
    ("shioda", 'point=P at="t=0"', 'point=Z at="t=0"',
     "check 'multiplicity' (line 44): point 'Z' is not declared on "
     "curve 'Z2'"),
], ids=["expect-zero-not-rational", "expect-zero-zero-denominator",
        "smooth-mode-misspelt", "sample-t-zero-denominator",
        "at-zero-denominator", "at-variable-not-on-curve",
        "assign-variable-not-on-curve", "sample-t-without-t",
        "curve-point-all-zero", "expect-not-an-integer",
        "cycle-entry-without-colon", "cycle-multiplicity-not-an-integer",
        "at-entry-without-value", "pair-of-one-label", "threshold-misspelt",
        "expect-misspelt", "ring-variable-twice", "curve-variable-twice",
        "param-twice", "pair-label-undeclared",
        "combined-pair-label-undeclared", "curve-undeclared",
        "line-not-a-plane-coordinate", "point-undeclared"])
def test_cli_malformed_bundled_attribute_exits_two(tmp_path, name, old, new,
                                                   message):
    scenario = Path(chowcheck.__file__).parent / "scenarios" / f"{name}.scn"
    text = scenario.read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "bad.scn"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    out = _run_cli("verify", str(path))
    assert out.returncode == 2
    assert out.stderr == f"error: {message}\n"


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


# hilbert and picard_bound on shioda, hilbert on quartic-family; then the
# routes of the other steps, in report order
@pytest.mark.parametrize("name, route, count, others", [
    ("shioda", f"closed form, {SHIODA_PROOF}", 2,
     [SHIODA_PROOF, f"closed form (Macaulay duality), {SHIODA_PROOF}"]),
    ("quartic-family", "closed form, smooth at degree 9 (monomial count)", 1,
     ["monomial count, inclusion and exclusion over 4 generators",
      "socle functional mod p=1000003, M 680x4, rank reached 4",
      "closed form (Macaulay duality), smooth at degree 9 (monomial count)"]),
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


DEFAULT_PENCIL = """\
[pencil]
line0 = x1 - x2
line1 = x0 - x3
line2 = x1 + x3
line3 = x0 - x2
strict_transform = x^3 + lam*y^3 + z^2*x + lam^3*z^2*y + lam*t*z * (x + y + (lam - 1)*z) * (x - y + (lam + 1)*z)
declared_quadratic = lam*(t^2 - 18*t + 9) + 4*t^2 - 6*t - 18
closed_form_num = -(4*t^2 - 6*t - 18)
closed_form_den = t^2 - 18*t + 9
"""


def test_a_pencil_section_restating_the_defaults_changes_nothing(tmp_path,
                                                                  capsys):
    source = (Path(chowcheck.__file__).parent / "scenarios"
              / "quartic_family.scn").read_text(encoding="utf-8")
    assert source.count("[checks]\n") == 1
    path = tmp_path / "restated.scn"
    path.write_text(source.replace("[checks]\n", DEFAULT_PENCIL + "[checks]\n"),
                    encoding="utf-8")
    assert cli.main(["verify", str(path), "--machine"]) == 1
    assert capsys.readouterr().out == (
        GOLDEN / "quartic-family.machine").read_text(encoding="utf-8")


def test_the_pencil_section_takes_exactly_the_keys_of_the_pencil_table():
    # scenario cannot import pencil on the cold path, so it keeps its own
    # list of the keys; this test holds the two lists together
    from chowcheck import pencil, scenario
    assert scenario._SECTION_KEYS["pencil"] == set(pencil._DEFAULTS)
    assert set(parse_scenario(
        "[scenario]\nname = x\n" + DEFAULT_PENCIL
        + "[checks]\ncheck pencil_factorization cite=c\n"
    ).pencil_overrides) == set(pencil._DEFAULTS)


def test_shioda_machine_report_is_the_same_on_exact_pieces(monkeypatch, capsys):
    # with the closed-form gate refusing every ring, the duality step
    # computes the pairing on exact pieces, and the map is onto by
    # generation in degree 1: only its mode, which names that theorem and
    # no prime, differs from the golden report
    monkeypatch.setattr(jacobian, "_smooth_for", lambda hring, prime: None)
    cli.main(["verify", "shioda", "--machine"])
    machine = capsys.readouterr().out
    golden = (GOLDEN / "shioda.machine").read_text(encoding="utf-8")
    lines = [
        "check.13.detail.01 = multiplication onto the complementary piece "
        "has rank 20 of 20 ({})",
        "check.13.value.surjectivity_mode = {}"]
    for line in lines:
        old = line.format("modular(p=1000003)") + "\n"
        assert golden.count(old) == 1
        golden = golden.replace(
            old, line.format("exact(generated in degree 1)") + "\n")
    assert machine == golden
    cli.main(["verify", "shioda"])
    assert ("route: exact pieces, ring not proven smooth at p=1000003"
            in capsys.readouterr().out)


def test_shioda_runs_each_proof_section_and_order_once(monkeypatch, capsys):
    # one verify run: the smoothness proof ranks the 560 matched square
    # rows of the degree-13 slice and never builds that slice, and the
    # 4 intersection checks (two sampled), 2 equivalence orders and the
    # combined order share 7 distinct section cycles, 2 relation lattices
    # and 2 equivalence orders (without the memo: 16, 4 and 4)
    ranks, slices, calls = [], [], Counter()
    modular_rank = exactla.modular_rank
    span_sparse = jacobian.HypersurfaceRing.span_sparse

    def recording_rank(matrix, prime, upper_bound=None):
        ranks.append((len(matrix), upper_bound))
        return modular_rank(matrix, prime, upper_bound=upper_bound)

    def recording_slice(self, k, p):
        slices.append(k)
        return span_sparse(self, k, p)

    def counting(name):
        function = getattr(curves, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(exactla, "modular_rank", recording_rank)
    monkeypatch.setattr(jacobian.HypersurfaceRing, "span_sparse",
                        recording_slice)
    for name in ("section_cycle", "hyperplane_relations",
                 "minimal_equivalence_order"):
        monkeypatch.setattr(curves, name, counting(name))
    assert cli.main(["verify", "shioda", "--machine"]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / "shioda.machine").read_text(encoding="utf-8")
    assert ranks == [(560, 560)]
    assert 13 not in slices
    assert calls == Counter({"section_cycle": 7, "hyperplane_relations": 2,
                             "minimal_equivalence_order": 2})


def test_a_certificate_serves_later_checks_only_at_its_prime(monkeypatch):
    calls, builds = [], []
    modular_rank = exactla.modular_rank
    square_rows = jacobian.HypersurfaceRing._square_rows

    def counting(matrix, prime, upper_bound=None):
        calls.append(prime)
        return modular_rank(matrix, prime, upper_bound=upper_bound)

    # the square rows are counted whichever kernel takes them
    def counting_square_rows(self, k, p, matching):
        builds.append((k, p))
        return square_rows(self, k, p, matching)

    text = ("[scenario]\nname = x\n[ring]\nvariables = x0 x1 x2 x3\n"
            f"poly = {MIXED_QUARTIC}\n[checks]\n"
            "check smooth prime={prime}cite=c\n"
            'check hilbert expect="1 4 10 16 19 16 10 4 1" cite=c\n')
    monkeypatch.setattr(exactla, "modular_rank", counting)
    monkeypatch.setattr(jacobian.HypersurfaceRing, "_square_rows",
                        counting_square_rows)
    # at the default prime, the smooth check's certificate serves hilbert
    plain = run_scenario(parse_scenario(text.format(prime="1000003 ")))
    assert calls == [1000003]
    assert builds == [(9, 1000003)]
    calls.clear()
    builds.clear()
    # at another prime it does not: hilbert asks at the default prime
    report = run_scenario(parse_scenario(text.format(prime="1000033 ")))
    assert calls == [1000033, 1000003]
    assert builds == [(9, 1000033), (9, 1000003)]
    assert report.exit_code == 0
    hilbert = [line for line in report.render_machine().splitlines()
               if line.startswith("check.02.")]
    assert hilbert == [line for line in plain.render_machine().splitlines()
                       if line.startswith("check.02.")]
    assert report.steps[1].route == plain.steps[1].route == (
        "closed form, smooth at degree 9 "
        "(modular p=1000003, 220x220 Macaulay rows of 336x220, 440 nonzeros, "
        "dense)")


def _routes(scn):
    return sorted((step.name, step.route) for step in run_scenario(scn).steps)


def test_routes_do_not_depend_on_check_order():
    checks = ["check smooth prime=7 cite=c",
              'check hilbert expect="1 4 10 16 19 16 10 4 1" cite=c',
              "check ring_dim degree=4 cite=c"]
    head = ("[scenario]\nname = x\n[ring]\nvariables = x0 x1 x2 x3\n"
            f"poly = {MIXED_QUARTIC}\n[checks]\n")
    first = _routes(parse_scenario(head + "\n".join(checks) + "\n"))
    last = _routes(parse_scenario(head + "\n".join(checks[1:] + checks[:1])
                                  + "\n"))
    assert first == last
    assert dict(first)["hilbert function"] == (
        "closed form, smooth at degree 9 (modular p=1000003, 220x220 "
        "Macaulay rows of 336x220, 440 nonzeros, dense)")


@pytest.mark.parametrize("name", ["shioda", "quartic-family"])
def test_bundled_routes_do_not_depend_on_check_order(name):
    forward = cli._load(name)
    backward = cli._load(name)
    backward.checks.reverse()
    assert _routes(forward) == _routes(backward)


def test_ring_dim_reports_its_route(tmp_path, capsys):
    assert cli.main(["ring", "dim", "--file", "shioda", "--degree", "6"]) == 0
    assert (f"route: closed form, {SHIODA_PROOF}"
            in capsys.readouterr().out)
    path = tmp_path / "cone.scn"
    path.write_text(
        "[scenario]\nname = cone\n[ring]\nvariables = x0 x1 x2 x3\n"
        "poly = x0^4 + x1^4\n[checks]\ncheck smooth cite=c\n", encoding="utf-8")
    assert cli.main(["ring", "dim", "--file", str(path), "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "dim = 27 (exact)" in out and "route: elimination" in out


@pytest.fixture
def probe_paths(tmp_path):
    """Scenario files for the cold-process probes: a dense generic quartic,
    a sparse quintic with every pure power, and a singular sparse quintic
    cone."""
    # every quartic monomial, with coefficients 1..9 and alternating signs
    terms = [f"{(-1) ** i * (i % 9 + 1)}*"
             + "*".join(f"x{v}^{e}" for v, e in enumerate(m) if e)
             for i, m in enumerate(enumerate_monomials(4, 4))]
    dense = tmp_path / "dense.scn"
    dense.write_text(
        "[scenario]\nname = dense\n[ring]\nvariables = x0 x1 x2 x3\n"
        f"poly = {' + '.join(terms)}\n[checks]\n"
        "check smooth mode=modular cite=c\n", encoding="utf-8")
    pure = tmp_path / "pure.scn"
    pure.write_text(
        "[scenario]\nname = pure\n[ring]\nvariables = x0 x1 x2 x3\n"
        "poly = x0^5 + x1^5 + x2^5 + x3^5 + x0*x1*x2*x3^2\n[checks]\n"
        "check smooth mode=modular cite=c\n"
        'check hilbert expect="1 4 10 20 31 40 44 40 31 20 10 4 1" cite=c\n',
        encoding="utf-8")
    cone = tmp_path / "cone.scn"
    cone.write_text(
        "[scenario]\nname = cone\n[ring]\nvariables = x0 x1 x2 x3\n"
        "poly = x0*x1^4 + x1*x2^4 + x2*x0^4\n[checks]\n"
        "check smooth cite=c\n", encoding="utf-8")
    return {"dense": str(dense), "pure": str(pure), "cone": str(cone)}


def _cold_probe(code, blas_threads=None):
    """Run ``code`` after ``from chowcheck import cli`` in a fresh
    interpreter whose environment sets OPENBLAS_NUM_THREADS to
    ``blas_threads``, or leaves it unset.  Return the chowcheck modules,
    numpy, dataclasses and inspect it loaded, OPENBLAS_NUM_THREADS as the
    code left it, its thread count (None where /proc/self/task is
    missing) and the code's stdout."""
    probe = ("import contextlib, io, json, os, sys\n"
             "from chowcheck import cli\n"
             "out = io.StringIO()\n"
             "with contextlib.redirect_stdout(out):\n"
             f"    {code}\n"
             "tasks = '/proc/self/task'\n"
             "print(json.dumps({\n"
             "    'modules': [m for m in sys.modules\n"
             "                if m in ('numpy', 'dataclasses', 'inspect')\n"
             "                or m.startswith('chowcheck')],\n"
             "    'blas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
             "    'threads': (len(os.listdir(tasks)) if os.path.isdir(tasks)\n"
             "                else None),\n"
             "    'out': out.getvalue()}))\n")
    src = str(Path(chowcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# numpy is loaded by the dense GF(p) kernel and the slice arrays alone:
# importing the package, checking the monomial-ideal quartic family,
# proving shioda smooth on the matched square rows of its sparse degree-13
# slice, proving a sparse quintic with every pure power smooth on
# Macaulay's square rows of that slice, and lifting the degree-12 piece
# of the singular cone over shioda's
# plane quintic from its sparse 660x455 slice, which falls short of full
# rank, never need it, while the certificate of a dense generic quartic
# does (so the guard is not vacuous).  The exact rows of the dense
# quartic's degree-9 slice (span_rows) need no numpy either.
@pytest.mark.parametrize("code, loaded, route", [
    ("import chowcheck, chowcheck.cli", False, None),
    ("cli.main(['verify', 'quartic-family', '--machine'])", False, None),
    ("cli.main(['verify', 'shioda', '--machine'])", False, None),
    ("cli.main(['verify', {pure!r}])", False,
     "route: closed form, smooth at degree 13 (modular p=1000003, 560x560 "
     "Macaulay rows of 880x560, 1120 nonzeros, sparse)"),
    ("cli.main(['ring', 'dim', '--degree', '12', '--file', {cone!r}])",
     False, "route: elimination"),
    ("cli.main(['verify', {dense!r}, '--machine'])", True, None),
    ("from chowcheck import runner, scenario; "
     "h = runner.ScenarioContext(scenario.load_scenario({dense!r}))"
     ".hypersurface(); rows, monos, _ = h.span_rows(9); "
     "print(len(rows), len(monos))", False, "336 220"),
], ids=["import", "quartic-family", "shioda", "sparse-pure-powers",
        "sparse-cone-lifted-piece", "dense-generic-quartic",
        "dense-generic-quartic-exact-rows"])
def test_numpy_is_loaded_only_by_a_gfp_elimination(code, loaded, route,
                                                   probe_paths):
    probe = _cold_probe(code.format(**probe_paths))
    assert ("numpy" in probe["modules"]) == loaded
    if route is not None:
        assert route in probe["out"]


# a cold process compiles only the check modules its scenario runs, and
# the command line starts numpy with one OpenBLAS thread unless its caller
# asked for more: importing the command line (which sets nothing), a dense
# generic quartic (numpy and no curve, pencil or character check), shioda
# (no pencil), a duality query on shioda's ring (which reads no
# [automorphism]), the quartic family (no characters), and a caller's own
# thread count kept
@pytest.mark.parametrize("code, blas_in, blas_out, absent", [
    ("pass", None, None, ("pencil", "curves", "characters")),
    ("cli.main(['verify', {dense!r}, '--machine'])", None, "1",
     ("pencil", "curves", "characters")),
    ("cli.main(['verify', 'shioda', '--machine'])", None, "1", ("pencil",)),
    ("cli.main(['ring', 'duality', '--a', '3', '--b', '3', '--file', "
     "'shioda'])", None, "1", ("pencil", "curves", "characters")),
    ("cli.main(['verify', 'quartic-family', '--machine'])", None, "1",
     ("characters",)),
    ("cli.main(['verify', {dense!r}, '--machine'])", "2", "2", ()),
], ids=["import-cli", "dense-generic-quartic", "shioda",
        "shioda-ring-duality", "quartic-family", "caller-threads-kept"])
def test_cold_process_loads_only_what_its_checks_run(code, blas_in, blas_out,
                                                     absent, probe_paths):
    probe = _cold_probe(code.format(**probe_paths), blas_threads=blas_in)
    loaded = set(probe["modules"])
    assert not loaded & {f"chowcheck.{name}" for name in absent}
    assert ("numpy" in loaded) == ("dense" in code)
    # numpy imports inspect; nothing else a cold process runs may import
    # either (dataclasses, and inspect with it, cost 8-12 ms cold)
    if "dense" not in code:
        assert not loaded & {"dataclasses", "inspect"}
    assert probe["blas"] == blas_out
    if blas_out == "1" and probe["threads"] is not None:
        # OpenBLAS started no worker threads beside the main one
        assert probe["threads"] == 1
