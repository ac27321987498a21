"""Driver-level checks: matrix parsing, job validation, reports, exit codes."""

import json
import sys

import pytest

import borelweyl.cartan
import borelweyl.cli
import borelweyl.datum
from borelweyl.cartan import CATALOG, CartanError
from borelweyl.cli import (
    CHECK_NAMES,
    JobSpec,
    MatrixParseError,
    _resolve_checks,
    _section,
    emit_report,
    main,
    parse_matrix,
    parse_report,
    run,
)
from borelweyl.cartan import catalog_matrix, quasi_inverse
from borelweyl.datum import ClassicalDatum, solve_beta
from borelweyl.exact import qq


def job(command="verify", name="A1", **kw):
    kw.setdefault("matrix_name", name)
    return JobSpec(command=command, matrix=catalog_matrix(name), **kw)


def sections(report):
    return {(s["check"], s["mode"]): s for s in report["checks"]}


# -- matrix input -------------------------------------------------------------


def test_inline_rows_split_on_semicolons():
    assert parse_matrix("2 -1; -1 2").entries == ((2, -1), (-1, 2))


def test_inline_rows_split_on_newlines_and_commas():
    assert parse_matrix("2, -2\n-2, 2").entries == ((2, -2), (-2, 2))


def test_file_shape_reads_a_size_line(tmp_path):
    text = "3\n2 -1 0\n-1 2 -1\n0 -1 2\n"
    assert parse_matrix(text).entries == catalog_matrix("A3").entries


def test_a_single_line_is_always_inline():
    assert parse_matrix("2").entries == ((2,),)
    assert parse_matrix("1\n2").entries == ((2,),)  # the file shape, size line first


def test_verify_takes_a1_as_the_inline_matrix_2(capsys):
    assert main(["verify", "--matrix", "2", "--mode", "classical"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_file_shape_accepts_comments_and_a_d_line():
    from borelweyl.cli import _parse_matrix_text

    matrix, d = _parse_matrix_text("# B2, doubled symmetrizer\n2\n2 -2\n-1 2\nd: 2 4\n")
    assert matrix.entries == ((2, -2), (-1, 2))
    assert d == (2, 4)


def test_non_integer_entry_points_at_row_and_column():
    with pytest.raises(MatrixParseError, match="row 1, column 2: 'x'"):
        parse_matrix("2 x; -1 2")


def test_validation_failure_carries_the_position():
    # the message names the entry, 1-based
    with pytest.raises(CartanError, match=r"zero-symmetry violated at \(2,1\)"):
        parse_matrix("2 -1; 0 2")


@pytest.mark.parametrize(
    "text, complaint",
    [
        ("", "empty"),
        ("2\n2 -2\n", "expected 2 matrix rows"),
    ],
)
def test_rejected_matrix_text(text, complaint):
    with pytest.raises(MatrixParseError, match=complaint):
        from borelweyl.cli import _parse_matrix_text

        _parse_matrix_text(text)


def test_ragged_rows_are_not_square():
    with pytest.raises(CartanError, match="not square"):
        parse_matrix("2 -1; -1")


# -- job validation -----------------------------------------------------------


@pytest.mark.parametrize(
    "command, name, d, complaint",
    [
        ("analyze", "A1affine", (1,), r"needs 2 positive integers, got \[1\]"),
        ("analyze", "A1affine", (1, -1), "2 positive integers"),
        ("analyze", "B2", (2, 1), r"override d = \[2, 1\] does not symmetrize the matrix at \(1, 2\)"),
        ("analyze", "B2", (0, -3), "2 positive integers"),
        ("verify", "B2", (1, 1), r"does not symmetrize the matrix at \(1, 2\)"),
    ],
    ids=["too-short", "negative", "transposed", "programmatic-analyze", "programmatic-quantum"],
)
def test_a_job_rejects_a_symmetrizer_override_that_does_not_fit(command, name, d, complaint):
    # JobSpec checks d for every entry point, so no section runs on it
    with pytest.raises(ValueError, match=complaint):
        JobSpec(command=command, matrix=catalog_matrix(name), d=d, mode="quantum")


def test_a_bad_d_line_exits_2_with_the_override_message(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_text("2\n2 -2\n-1 2\nd: 2 1\n")
    assert main(["verify", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: override d = [2, 1] does not symmetrize the matrix at (1, 2)\n"


def test_default_checks_expand_per_mode():
    assert _resolve_checks("both", None) == CHECK_NAMES
    # the mode filter happens at run time; defaults stay the full tuple
    assert _resolve_checks("classical", None) == CHECK_NAMES


def test_explicit_checks_keep_canonical_order_and_dedupe():
    assert _resolve_checks("both", "biproduct,datum,biproduct") == ("datum", "biproduct")


def test_all_keyword_expands():
    assert _resolve_checks("both", "all") == CHECK_NAMES


@pytest.mark.parametrize(
    "mode, requested, complaint",
    [
        ("quantum", "weyl-embedding", "classical mode only"),
        ("classical", "quantum-weyl", "quantum mode only"),
        ("both", "borel", "unknown check 'borel'"),
        ("both", "", "no checks selected"),
    ],
)
def test_check_conflicts_are_rejected(mode, requested, complaint):
    with pytest.raises(ValueError, match=complaint):
        _resolve_checks(mode, requested)


def test_biproduct_needs_room_for_two_rule_leads():
    with pytest.raises(ValueError, match="at least 2"):
        job(checks=("biproduct",), degree_bound=1)


def test_rewrite_refuses_both_modes():
    with pytest.raises(ValueError, match="single mode"):
        job(command="rewrite", mode="both", word="E1")


# -- analyze ------------------------------------------------------------------


def test_analyze_reports_the_affine_combinatorics():
    report, status = run(job(command="analyze", name="A1affine"))
    assert status == 0 and report["passed"]
    derived = report["derived"]
    assert derived["rank"] == 1 and derived["corank"] == 1
    assert derived["left_kernel"] == [[1, 1]]
    assert derived["dual_directions"] == [[1, 0]]
    assert derived["torus_complement"] == [[1, 1]]
    assert derived["quasi_inverse_rows"] == [["1/2", "0"], ["1", "1"]]


# -- verify -------------------------------------------------------------------


def test_rank_one_classical_run_is_all_green():
    report, status = run(job(mode="classical"))
    assert status == 0 and report["passed"]
    assert [s["check"] for s in report["checks"]] == [
        "datum",
        "borel-upper",
        "borel-lower",
        "weyl-embedding",
        "biproduct",
    ]
    assert all(s["passed"] for s in report["checks"])


def test_sections_interleave_modes_in_fixed_order():
    report, _ = run(job(name="A1"))
    assert [(s["check"], s["mode"]) for s in report["checks"]] == [
        ("datum", "classical"),
        ("datum", "quantum"),
        ("borel-upper", "classical"),
        ("borel-upper", "quantum"),
        ("borel-lower", "classical"),
        ("borel-lower", "quantum"),
        ("weyl-embedding", "classical"),
        ("quantum-weyl", "quantum"),
        ("biproduct", "classical"),
        ("biproduct", "quantum"),
    ]


def test_adjacent_vertices_fail_exactly_the_serre_rows():
    report, status = run(job(name="A2", mode="classical"))
    assert status == 1 and not report["passed"]
    by_name = sections(report)
    assert by_name[("datum", "classical")]["passed"]
    assert by_name[("weyl-embedding", "classical")]["passed"]
    assert by_name[("biproduct", "classical")]["passed"]
    upper = by_name[("borel-upper", "classical")]
    assert not upper["passed"]
    failing = [ln for ln in upper["lines"] if ln.startswith("[FAIL]")]
    assert [ln.split("  ")[0] for ln in failing] == [
        "[FAIL] ad(E1)^2(E2) = 0",
        "[FAIL] ad(E2)^2(E1) = 0",
    ]


def test_quantum_parity_splits_the_catalog():
    # odd entries break the quantum Serre images, even ones do not
    red, _ = run(job(name="A2", mode="quantum", checks=("borel-upper",)))
    assert not red["passed"]
    green, status = run(job(name="A1affine", mode="quantum", checks=("borel-upper",)))
    assert status == 0 and green["passed"]


def test_quantum_datum_section_tracks_the_documented_pattern():
    report, _ = run(job(name="A2", mode="quantum", checks=("datum",)))
    section = sections(report)[("datum", "quantum")]
    assert section["passed"]
    lines = section["lines"]
    assert any(ln.startswith("[FAIL] plain window:") for ln in lines)
    assert any(ln.startswith("[FAIL] localized window (printed):") for ln in lines)
    adapted = [ln for ln in lines if "weight-adapted" in ln]
    assert adapted and all(ln.startswith("[pass]") for ln in adapted)
    tables = [ln for ln in lines if "scaling table" in ln]
    assert tables and all(ln.startswith("[pass]") for ln in tables)


def test_orientation_signs_surface_in_the_notes():
    report, _ = run(job(name="A1", mode="quantum", checks=("borel-upper", "borel-lower")))
    by_name = sections(report)
    assert "orientation signs: [1]" in by_name[("borel-upper", "quantum")]["notes"]
    assert "orientation signs: [-1]" in by_name[("borel-lower", "quantum")]["notes"]


def test_witness_block_names_the_denominator_factors():
    report, _ = run(job(mode="classical", checks=("borel-upper",)))
    witness = sections(report)[("borel-upper", "classical")]["witness"]
    assert witness["passed"] and witness["flagged"] == []
    assert witness["generators"] == ["b1", "h1", "torus unit"]


def test_affine_embedding_notes_the_combined_directions():
    report, status = run(job(name="A1affine", mode="classical", checks=("weyl-embedding",)))
    assert status == 0
    notes = sections(report)[("weyl-embedding", "classical")]["notes"]
    assert any("combined torus directions" in n for n in notes)


def test_corrupting_the_correction_terms_is_caught():
    report, status = run(job(name="A2", mode="classical", corrupt_beta=True))
    assert status == 1
    by_name = sections(report)
    datum = by_name[("datum", "classical")]
    assert not datum["passed"]
    failing = [ln for ln in datum["lines"] if ln.startswith("[FAIL]")]
    assert failing == [
        "[FAIL] D1^2(b2) = 0  residual: 1/2",
        "[FAIL] D2^2(b1) = 0  residual: 1/2",
    ]
    assert not by_name[("borel-upper", "classical")]["passed"]


@pytest.mark.parametrize("corrupt_beta", [False, True])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_the_d_i_b_i_rows_witness_generation(name, corrupt_beta):
    spec = job(name=name, mode="classical", checks=("datum",), corrupt_beta=corrupt_beta)
    lines = sections(run(spec)[0])[("datum", "classical")]["lines"]
    assert lines[-1] == "[pass] jacobian determinant: 1  (generation witnessed)"


def test_a_failing_d_i_b_i_row_fails_generation():
    spec = job(name="A2", mode="classical", checks=("datum",))
    datum = solve_beta(quasi_inverse(spec.matrix))
    doubled = ClassicalDatum(
        datum.context, datum.aux, datum.alpha, datum.beta, (datum.b[0] * 2,) + datum.b[1:]
    )
    section = _section("datum", "classical", spec, {"classical-datum": ("ok", doubled)})
    assert not section["passed"]
    assert section["lines"][0].startswith("[FAIL] D1(b1) = h1  residual: ")
    assert section["lines"][-1] == "[FAIL] generation not witnessed: D1(b1) = h1 fails"


def test_a_classical_job_builds_each_shift_table_once(monkeypatch, capsys):
    # three sections read the witness's shift columns off one datum: one build
    # per b_j, where one per section would make 9
    built = []
    original = borelweyl.datum._shift_columns
    monkeypatch.setattr(borelweyl.datum, "_shift_columns", lambda ctx, b: built.append(b) or original(ctx, b))
    assert main(["verify", "--catalog", "A3", "--mode", "classical"]) == 1
    assert len(built) == 3


def count_calls(monkeypatch, module, name):
    """Wrap module.name wherever a borelweyl module binds it; returns the list of calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for bound in list(sys.modules.values()):
        if bound and bound.__name__.startswith("borelweyl") and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["verify", "--catalog", "B2", "--mode", "both"],
    ["rewrite", "--catalog", "B2", "--mode", "quantum", "K1", "E1"],
])
def test_a_job_derives_its_symmetrizer_once(argv, monkeypatch, capsys):
    # the datum, the presentations and the rules all read the job's CartanAux
    symmetrized = count_calls(monkeypatch, borelweyl.cartan, "symmetrize")
    inverted = count_calls(monkeypatch, borelweyl.cartan, "quasi_inverse")
    assert main(argv) == (1 if argv[0] == "verify" else 0)
    assert len(symmetrized) == 1
    assert len(inverted) == 1


def test_a_symmetrizer_override_is_the_one_every_quantum_object_reads(tmp_path, monkeypatch, capsys):
    path = tmp_path / "scaled.mat"
    path.write_text("2\n2 -2\n-1 2\nd: 2 4\n")
    built = []
    for name in ("build_quantum_datum", "build_rules"):

        def keep(*args, _build=getattr(borelweyl.cli, name), **kwargs):
            built.append(_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(borelweyl.cli, name, keep)
    assert main(["verify", "--matrix", str(path), "--mode", "quantum", "--format", "structured"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["derived"]["symmetrizer_d"] == [2, 4]
    notes = sections(report)[("datum", "quantum")]["notes"]
    assert "symmetrizer d = [2, 4]; scaling weights g = [4, 4]" in notes
    qd, rules = built
    assert qd.context.aux is qd.aux and qd.aux.d == rules.d == (2, 4)


@pytest.mark.parametrize("argv", [["--catalog", "A3"], ["--catalog", "B2", "--format", "structured"]])
def test_a_classical_job_checks_its_datum_once(argv, monkeypatch, capsys):
    # solve_beta's re-check is the section's report: the conditions are evaluated once
    calls = count_calls(monkeypatch, borelweyl.datum, "check_bound_classical")
    assert main(["verify", *argv, "--mode", "classical"]) == 1
    assert len(calls) == 1
    assert "D1(b1) = h1" in capsys.readouterr().out


def test_rank_three_straightening_is_honest_about_degree_four():
    red, status = run(job(name="A3", mode="classical", checks=("biproduct",)))
    assert status == 1
    line = sections(red)[("biproduct", "classical")]["lines"][0]
    assert "112 ambiguities, 110 resolved" in line
    green, status = run(
        job(name="A3", mode="classical", checks=("biproduct",), degree_bound=3)
    )
    assert status == 0 and green["passed"]


def test_unsolvable_matrix_turns_into_failing_sections():
    matrix = parse_matrix("2 -1; -4 2")
    spec = JobSpec(command="verify", matrix=matrix, mode="classical")
    report, status = run(spec)
    assert status == 1
    datum = sections(report)[("datum", "classical")]
    assert not datum["passed"]
    assert datum["lines"][0].startswith("error: no admissible beta")
    # the shared build failure propagates to every dependent section
    assert not sections(report)[("borel-upper", "classical")]["passed"]


def test_a2_affine_names_its_unsolvable_b_in_every_classical_section(capsys):
    assert main(["verify", "--matrix", "2 -1 -1; -1 2 -1; -1 -1 2", "--mode", "classical"]) == 1
    out = capsys.readouterr().out
    blocks = [block.splitlines() for block in out.split("\n== ")[1:]]
    # every classical section but the biproduct, which needs no datum
    classical = [lines for lines in blocks if "(classical)" in lines[0] and not lines[0].startswith("biproduct")]
    assert [lines[0].split()[0] for lines in classical] == ["datum", "borel-upper", "borel-lower", "weyl-embedding"]
    for lines in classical:
        errors = [line.strip() for line in lines if line.strip().startswith("error:")]
        assert errors[0].startswith("error: no admissible beta for this matrix:")
        assert "b1" in errors[0]


# -- report plumbing ----------------------------------------------------------


def test_reports_survive_the_json_round_trip():
    report, _ = run(job(name="B2"))
    assert parse_report(emit_report(report)) == report


def test_reader_rejects_other_schema_versions():
    with pytest.raises(ValueError, match="unsupported schema_version 2"):
        parse_report(json.dumps({"schema_version": 2}))


def test_reports_are_deterministic_once_timings_drop():
    def stripped():
        report, _ = run(job(name="G2", mode="quantum"))
        report.pop("timings")
        for section in report["checks"]:
            section.pop("seconds")
        return emit_report(report)

    assert stripped() == stripped()


# -- the job memo ---------------------------------------------------------------


def _count_products(monkeypatch):
    """A list that receives, per Q(q) product formed, whether a job memo was open."""
    seen, original = [], qq._mul

    def counted(a, b, c, d):
        seen.append(qq._MEMO.get() is not None)
        return original(a, b, c, d)

    monkeypatch.setattr(qq, "_mul", counted)
    return seen


def test_a_job_runs_inside_its_own_memo_and_closes_it(monkeypatch):
    seen = _count_products(monkeypatch)
    report, status = run(job("verify", "A2", mode="quantum", fmt="structured"))
    assert seen and all(seen)
    assert qq._MEMO.get() is None
    # a section that fails on an engine error closes the memo too
    report, status = run(job("rewrite", "A2", mode="quantum", word="E1 X9"))
    assert status == 1 and "error" in report["rewrite"]
    assert qq._MEMO.get() is None


def test_a_job_that_raises_closes_its_memo(monkeypatch):
    def broken(p, R):
        raise KeyError("not an engine error")

    monkeypatch.setattr(borelweyl.cli, "normal_form", broken)
    with pytest.raises(KeyError):
        run(job("rewrite", "A2", mode="quantum", word="E1 F1"))
    assert qq._MEMO.get() is None


def test_two_runs_of_a_job_form_the_same_products(monkeypatch):
    # a memo kept across jobs would answer the second run from the first
    seen = _count_products(monkeypatch)
    spec = job("verify", "A3", mode="quantum", checks=("borel-upper", "biproduct"), fmt="structured")
    counts = []
    for _ in range(2):
        seen.clear()
        run(spec)
        counts.append(len(seen))
    monkeypatch.setattr(qq, "_MEMO_MAX_COEFFS", -1)  # nothing is small enough to memoise
    seen.clear()
    run(spec)
    assert counts[0] == counts[1] < len(seen)


# -- the executable -----------------------------------------------------------


def test_main_prints_a_text_verdict(capsys):
    assert main(["verify", "--catalog", "A1", "--mode", "classical"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS (5 of 5 sections passed)" in out


def test_main_emits_parseable_structured_output(capsys):
    status = main(["verify", "--catalog", "A2", "--format", "structured"])
    report = parse_report(capsys.readouterr().out)
    assert status == 1 and report["passed"] is False
    assert report["matrix_name"] == "A2"


def test_main_rejects_bad_input_on_stderr(capsys):
    assert main(["analyze", "--matrix", "2 -1; 0 2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero-symmetry violated" in captured.err


def test_an_inline_matrix_too_long_for_a_file_name_keeps_the_exit_contract(capsys):
    # affine A11 written inline is longer than a file name may be (255 bytes),
    # so the path probe raises OSError and the text is read as the matrix
    n = 12
    rows = [[2 if i == j else -1 if (i - j) % n in (1, n - 1) else 0 for j in range(n)] for i in range(n)]
    text = "; ".join(" ".join(map(str, row)) for row in rows)
    assert len(text) > 255
    assert main(["analyze", "--matrix", text]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert main(["analyze", "--matrix", "x" + text[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_main_rejects_a_non_symmetrizable_matrix(command, capsys):
    # the entries pass the axioms; the symmetrizer inside run() rejects the matrix
    assert main([command, "--matrix", "2 -1 -1; -2 2 -1; -1 -1 2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not symmetrizable: inconsistent ratio cycle through (3,2)\n"


def test_main_straightens_a_word(capsys):
    assert main(["rewrite", "--catalog", "A1", "F1", "E1"]) == 0
    assert "normal form: E1*F1 - H1" in capsys.readouterr().out


def test_main_straightens_quantum_units(capsys):
    assert main(["rewrite", "--catalog", "A1", "--mode", "quantum", "K1*K1^-1"]) == 0
    assert "normal form: 1\n" in capsys.readouterr().out


def test_main_reports_unknown_letters(capsys):
    assert main(["rewrite", "--catalog", "A1", "X9"]) == 1
    assert "unknown generator 'X9'" in capsys.readouterr().out


def test_symmetrizer_override_reaches_the_quantum_rules(tmp_path, capsys):
    path = tmp_path / "scaled.mat"
    path.write_text("2\n2 -2\n-1 2\nd: 2 4\n")
    assert main(["rewrite", "--matrix", str(path), "--mode", "quantum", "K1", "E1"]) == 0
    assert "normal form: q^4*E1*K1" in capsys.readouterr().out


def test_matrix_and_catalog_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--catalog", "A1", "--matrix", "2"])
    assert "not allowed with" in capsys.readouterr().err
