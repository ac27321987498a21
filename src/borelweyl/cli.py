"""Command line driver: parse a matrix, build the data, run the checks.

Three subcommands share one matrix vocabulary.  ``analyze`` prints the
combinatorial layer (symmetrizer, rank, quasi-inverse, kernel, dual
directions), ``verify`` runs any subset of the model checks in dependency
order, and ``rewrite`` straightens a single word through the merged-algebra
rules.  Structured output is plain JSON built from lists, strings, ints and
booleans only, so a report survives a dump/load round trip unchanged; the
timing fields are the one part that varies between runs and comparisons are
expected to drop them.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .biproduct import (
    RewriteLimitError,
    build_rules,
    check_local_confluence,
    mixed_relation_check,
    normal_form,
    parse_word,
)
from .cartan import CATALOG, CartanError, CartanMatrix, quasi_inverse, validate_gcm
from .datum import (
    ClassicalDatum,
    DatumError,
    build_quantum_datum,
    check_bound_quantum,
    solve_beta,
)
from .exact import MLaurent, job_memo
from .morphisms import (
    birational_witness,
    classical_borel_assignment,
    fix_orientation,
    quantum_weyl_assignment,
    verify,
    weyl_assignment,
)

__all__ = [
    "CHECK_NAMES",
    "JobSpec",
    "MatrixParseError",
    "emit_report",
    "main",
    "parse_matrix",
    "parse_report",
    "run",
]

SCHEMA_VERSION = 1

# exceptions a section converts into a failing report instead of a crash
_ENGINE_ERRORS = (DatumError, CartanError, RewriteLimitError, ValueError, ArithmeticError)


class MatrixParseError(ValueError):
    pass


# -- matrix input ------------------------------------------------------------


def _int_row(text, row_no):
    out = []
    for col, tok in enumerate(text.replace(",", " ").split()):
        try:
            out.append(int(tok))
        except ValueError:
            raise MatrixParseError(
                f"row {row_no}, column {col + 1}: {tok!r} is not an integer"
            ) from None
    return out


def _parse_matrix_text(text):
    """Matrix plus optional symmetrizer override from inline or file text.

    Two shapes are accepted.  Inline: rows split on ';' or newlines, entries
    on spaces or commas ("2 -1; -1 2").  File: a size line n followed by n
    rows, then optionally "d: 1 2 ..." overriding the symmetrizer (`JobSpec`
    checks that it symmetrizes the matrix).  The sniff
    is unambiguous because no generalized Cartan row is a single bare
    positive integer other than the 1x1 matrix (2), and a single line is
    always inline: "2" is A1, and so is the file "1" / "2".
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MatrixParseError("empty matrix input")

    d = None
    if len(lines) > 1 and re.fullmatch(r"\d+", lines[0]):
        n = int(lines[0])
        body = lines[1:]
        if body and body[-1].lower().startswith("d:"):
            d_text = body[-1][2:]
            body = body[:-1]
            d = tuple(_int_row(d_text, len(body) + 2))
        if len(body) != n:
            raise MatrixParseError(
                f"expected {n} matrix rows after the size line, got {len(body)}"
            )
        rows = [_int_row(ln, i + 2) for i, ln in enumerate(body)]
        for i, row in enumerate(rows):
            if len(row) != n:
                raise MatrixParseError(
                    f"row {i + 1}: expected {n} entries, got {len(row)}"
                )
    else:
        pieces = []
        for ln in lines:
            pieces.extend(p for p in ln.split(";") if p.strip())
        rows = [_int_row(p, k + 1) for k, p in enumerate(pieces)]

    return validate_gcm(rows), d


def parse_matrix(text) -> CartanMatrix:
    return _parse_matrix_text(text)[0]


def _load_matrix_argument(value):
    """--matrix takes inline text or a path; file contents use either shape."""
    path = Path(value)
    try:
        is_file = path.is_file()
    except OSError:
        is_file = False
    return _parse_matrix_text(path.read_text() if is_file else value)


# -- shared builds -----------------------------------------------------------


def _shared(cache, key, builder):
    # an exception is cached too: every dependent section reports it
    if key not in cache:
        try:
            cache[key] = ("ok", builder())
        except _ENGINE_ERRORS as exc:
            cache[key] = ("err", exc)
    tag, value = cache[key]
    if tag == "err":
        raise value
    return value


def _corrupted(datum: ClassicalDatum) -> ClassicalDatum:
    """Drop every correction term: b_j collapses to h_j(h_j - 2)/4."""
    n = datum.context.n
    quarter = Fraction(1, 4)
    bs = []
    for j in range(n):
        hj = MLaurent.var(n, j)
        bs.append((hj * hj - hj * 2) * quarter)
    zero = MLaurent.const(n, Fraction(0))
    return ClassicalDatum(datum.context, datum.aux, datum.alpha, (zero,) * n, tuple(bs))


def _aux(job, cache):
    """The job's CartanAux, built once; a `d` override, validated by JobSpec,
    replaces the minimal symmetrizer in it."""

    def build():
        aux = quasi_inverse(job.matrix)
        return aux if job.d is None else replace(aux, d=job.d)

    return _shared(cache, "quasi-inverse", build)


def _classical_datum(job, cache):
    def build():
        datum = solve_beta(_aux(job, cache))
        return _corrupted(datum) if job.corrupt_beta else datum

    return _shared(cache, "classical-datum", build)


def _quantum_datum(job, cache):
    return _shared(cache, "quantum-datum", lambda: build_quantum_datum(_aux(job, cache)))


# -- sections ----------------------------------------------------------------


def _witness_block(report):
    witness = birational_witness(report)
    return witness, {
        "passed": witness.passed,
        "generators": list(witness.generators),
        "flagged": [f"{e.coeff_str} (torus exponent {list(e.torus_exp)})" for e in witness.flagged()],
    }


def _morphism_section(report, extra_notes=()):
    witness, block = _witness_block(report)
    lines = report.summary_lines()
    notes = list(extra_notes) + list(report.conventions)
    return report.passed and witness.passed, lines, notes, block


def _run_datum_classical(job, cache):
    datum = _classical_datum(job, cache)
    conditions = datum.conditions
    lines = [str(c) for c in conditions]
    # the first n rows are D_i(b_i) = h_i: when they hold, the system D_i(b_i)
    # is (h_1, ..., h_n), its Jacobian is the identity, and every h_i is in the image
    missed = [c.label for c in conditions[: datum.context.n] if not c.passed]
    if missed:
        lines.append(f"[FAIL] generation not witnessed: {', '.join(missed)} fails")
    else:
        lines.append("[pass] jacobian determinant: 1  (generation witnessed)")
    notes = [f"b{j + 1} = {b.to_str(datum.context.names)}" for j, b in enumerate(datum.b)]
    notes += [
        f"beta{j + 1} = {beta.to_str(datum.coordinate_names)}"
        for j, beta in enumerate(datum.beta)
    ]
    return all(c.passed for c in conditions), lines, notes, None


def _run_datum_quantum(job, cache):
    qd = _quantum_datum(job, cache)
    conditions = check_bound_quantum(qd)
    lines = [str(c) for c in conditions]
    # `datum._omega` raises unless every cell is the exponent it expects
    for i, row in enumerate(qd.scaling_exponents):
        for j, e in enumerate(row):
            lines.append(
                f"[pass] scaling table: direction {j + 1}"
                f" sends omega{i + 1} -> q^{e}*omega{i + 1}  (expected exponent {e})"
            )
    notes = [
        f"omega{i + 1} has torus exponent {list(exp)}"
        for i, exp in enumerate(qd.omega_exponents)
    ]
    notes.append(f"symmetrizer d = {list(qd.aux.d)}; scaling weights g = {list(qd.g)}")
    notes.append(
        "plain and printed-localized rows may FAIL by design on negative entries;"
        " the section verdict checks every row against the documented pattern"
    )
    return all(c.passed == c.expected for c in conditions), lines, notes, None


def _run_borel_classical(job, cache, side):
    datum = _classical_datum(job, cache)
    report = verify(classical_borel_assignment(datum, side=side))
    return _morphism_section(report)


def _run_borel_quantum(job, cache, side):
    qd = _quantum_datum(job, cache)
    assignment, choice = fix_orientation(qd, side=side)
    if assignment is None:
        lines = ["[FAIL] no orientation satisfies the weight relations"]
        return False, lines, list(choice.detail), None
    report = verify(assignment)
    notes = [f"orientation signs: {list(choice.signs)}"] + list(choice.detail)
    passed, lines, more, block = _morphism_section(report, extra_notes=notes)
    return passed, lines, more, block


def _run_weyl(job, cache):
    datum = _classical_datum(job, cache)
    report = verify(weyl_assignment(datum))
    return _morphism_section(report)


def _run_quantum_weyl(job, cache):
    qd = _quantum_datum(job, cache)
    report = verify(quantum_weyl_assignment(qd))
    return _morphism_section(report)


def _run_biproduct(job, cache, mode):
    rules = _shared(cache, f"rules-{mode}", lambda: build_rules(_aux(job, cache), mode=mode))
    confluence = check_local_confluence(rules, job.degree_bound)
    mixed = mixed_relation_check(rules)
    lines = confluence.summary_lines() + mixed.summary_lines()
    notes = [f"{len(rules.rules)} rules over alphabet {', '.join(rules.alphabet)}", rules.order]
    passed = confluence.passed and mixed.passed
    return passed, lines, notes, None


_SECTIONS = {
    # (check, mode) -> (headline, runner), in report order
    ("datum", "classical"): (
        "difference conditions binding the b-polynomials to the matrix",
        _run_datum_classical,
    ),
    ("datum", "quantum"): (
        "scaling and window conditions on the quantum coefficients, plain and localized",
        _run_datum_quantum,
    ),
    ("borel-upper", "classical"): (
        "upper Borel presentation mapped into the twisted model",
        lambda job, cache: _run_borel_classical(job, cache, "upper"),
    ),
    ("borel-upper", "quantum"): (
        "quantum upper Borel presentation under the fixed orientation",
        lambda job, cache: _run_borel_quantum(job, cache, "upper"),
    ),
    ("borel-lower", "classical"): (
        "lower Borel presentation mapped into the twisted model",
        lambda job, cache: _run_borel_classical(job, cache, "lower"),
    ),
    ("borel-lower", "quantum"): (
        "quantum lower Borel presentation under the fixed orientation",
        lambda job, cache: _run_borel_quantum(job, cache, "lower"),
    ),
    ("weyl-embedding", "classical"): (
        "canonical pairs realized inside the localized torus model",
        _run_weyl,
    ),
    ("quantum-weyl", "quantum"): (
        "quantum canonical pairs built on the omega weights",
        _run_quantum_weyl,
    ),
    ("biproduct", "classical"): (
        "straightening rules: bounded-degree confluence and cross relations",
        lambda job, cache: _run_biproduct(job, cache, "classical"),
    ),
    ("biproduct", "quantum"): (
        "straightening rules: bounded-degree confluence and cross relations",
        lambda job, cache: _run_biproduct(job, cache, "quantum"),
    ),
}
CHECK_NAMES = tuple(dict.fromkeys(check for check, _ in _SECTIONS))


def _section(check, mode, job, cache):
    started = time.perf_counter()
    headline, runner = _SECTIONS[(check, mode)]
    try:
        passed, lines, notes, witness = runner(job, cache)
    except _ENGINE_ERRORS as exc:
        passed, lines, notes, witness = False, [f"error: {exc}"], [], None
    return {
        "check": check,
        "mode": mode,
        "headline": headline,
        "passed": passed,
        "lines": list(lines),
        "notes": list(notes),
        "witness": witness,
        "seconds": round(time.perf_counter() - started, 6),
    }


# -- job description ---------------------------------------------------------


def _resolve_checks(mode, requested):
    """Expand 'all' against the mode; reject explicit mode conflicts."""
    if requested is None:
        names = CHECK_NAMES
        implicit = True
    else:
        names = tuple(tok for tok in re.split(r"[,\s]+", requested) if tok)
        implicit = False
    if not names:
        raise ValueError("no checks selected")
    out = []
    for name in names:
        if name == "all":
            out.extend(CHECK_NAMES)
            continue
        if name not in CHECK_NAMES:
            raise ValueError(
                f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}"
            )
        if not implicit and mode != "both" and (name, mode) not in _SECTIONS:
            other = "quantum" if mode == "classical" else "classical"
            raise ValueError(f"check {name!r} runs in {other} mode only")
        out.append(name)
    return tuple(name for name in CHECK_NAMES if name in out)


@dataclass(frozen=True)
class JobSpec:
    """Everything run() needs, validated up front."""

    command: str  # analyze | verify | rewrite
    matrix: CartanMatrix
    d: tuple = None
    mode: str = "both"  # classical | quantum | both
    checks: tuple = CHECK_NAMES
    degree_bound: int = 4
    fmt: str = "text"  # text | structured
    corrupt_beta: bool = False
    word: str = ""
    matrix_name: str = None

    def __post_init__(self):
        if self.command not in ("analyze", "verify", "rewrite"):
            raise ValueError(f"unknown command {self.command!r}")
        if self.mode not in ("classical", "quantum", "both"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.fmt not in ("text", "structured"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.command == "verify":
            if not self.checks:
                raise ValueError("no checks selected")
            for name in self.checks:
                if name not in CHECK_NAMES:
                    raise ValueError(f"unknown check {name!r}")
            if "biproduct" in self.checks and self.degree_bound < 2:
                raise ValueError("degree bound must be at least 2 for the biproduct check")
        if self.command == "rewrite" and self.mode == "both":
            raise ValueError("rewrite straightens in a single mode; pick classical or quantum")
        if self.d is not None:
            C, d = self.matrix, list(self.d)
            if len(d) != C.n or any(x <= 0 for x in d):
                raise ValueError(f"symmetrizer override needs {C.n} positive integers, got {d}")
            for i in range(C.n):
                for j in range(C.n):
                    if d[i] * C[i, j] != d[j] * C[j, i]:
                        raise ValueError(
                            f"override d = {d} does not symmetrize the matrix at ({i + 1}, {j + 1})"
                        )


# -- report assembly ---------------------------------------------------------


def _derived_block(aux):
    return {
        "symmetrizer_d": list(aux.d),
        "rank": aux.rank,
        "corank": aux.corank,
        "scaling_g": list(aux.g),
        "quasi_inverse_rows": [[str(x) for x in row] for row in aux.Q],
        "left_kernel": [list(v) for v in aux.left_kernel],
        "dual_directions": [list(m) for _, m in aux.dual_pairs],
        "torus_complement": [list(v) for v in aux.torus_complement],
    }


def run(job: JobSpec):
    """Execute a job and return (report dict, exit status)."""
    with job_memo():  # sums and products are memoised for this job alone
        started = time.perf_counter()
        # the sections draw the quasi-inverse from the cache: one build per job
        cache = {}
        aux = _aux(job, cache)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": job.command,
            "matrix_name": job.matrix_name,
            "matrix": [list(row) for row in job.matrix.entries],
            "derived": _derived_block(aux),
        }

        if job.command == "analyze":
            report["passed"] = True
            report["timings"] = {"total_seconds": round(time.perf_counter() - started, 6)}
            return report, 0

        if job.command == "rewrite":
            section = {"mode": job.mode, "input": None, "normal_form": None}
            passed = True
            try:
                rules = build_rules(aux, mode=job.mode)
                poly = rules.poly(parse_word(job.word, rules))
                section["input"] = str(poly)
                section["normal_form"] = str(normal_form(poly, rules))
            except _ENGINE_ERRORS as exc:
                section["error"] = str(exc)
                passed = False
            report["rewrite"] = section
            report["passed"] = passed
            report["timings"] = {"total_seconds": round(time.perf_counter() - started, 6)}
            return report, 0 if passed else 1

        modes = ("classical", "quantum") if job.mode == "both" else (job.mode,)
        sections = []
        for check in job.checks:
            for mode in modes:
                if (check, mode) in _SECTIONS:
                    sections.append(_section(check, mode, job, cache))
        report["mode"] = job.mode
        report["checks"] = sections
        report["passed"] = all(s["passed"] for s in sections)
        report["timings"] = {"total_seconds": round(time.perf_counter() - started, 6)}
        return report, 0 if report["passed"] else 1


def emit_report(report) -> str:
    return json.dumps(report, indent=2)


def parse_report(text) -> dict:
    report = json.loads(text)
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {report.get('schema_version')!r};"
            f" this reader expects {SCHEMA_VERSION}"
        )
    return report


# -- text rendering -----------------------------------------------------------


def _render_text(report) -> str:
    out = []
    name = report["matrix_name"] or "matrix"
    out.append(f"borelweyl {report['command']}: {name}")
    width = max(
        len(str(x)) for row in report["matrix"] for x in row
    )
    for row in report["matrix"]:
        out.append("  [" + " ".join(f"{x:>{width}}" for x in row) + "]")
    d = report["derived"]
    out.append(
        f"  d = {d['symmetrizer_d']}  rank {d['rank']}, corank {d['corank']},"
        f" scaling g = {d['scaling_g']}"
    )

    if report["command"] == "analyze":
        out.append("  quasi-inverse rows:")
        for row in d["quasi_inverse_rows"]:
            out.append("    [" + " ".join(row) + "]")
        for label, key in (
            ("left kernel", "left_kernel"),
            ("dual directions", "dual_directions"),
            ("torus complement", "torus_complement"),
        ):
            out.append(f"  {label}: {d[key]}")
        out.append("result: PASS")
        return "\n".join(out)

    if report["command"] == "rewrite":
        section = report["rewrite"]
        out.append(f"mode: {section['mode']}")
        if "error" in section:
            out.append(f"error: {section['error']}")
            out.append("result: FAIL")
        else:
            out.append(f"input:       {section['input']}")
            out.append(f"normal form: {section['normal_form']}")
            out.append("result: PASS")
        return "\n".join(out)

    failed = 0
    for section in report["checks"]:
        mark = "pass" if section["passed"] else "FAIL"
        failed += not section["passed"]
        out.append("")
        out.append(
            f"== {section['check']} ({section['mode']}) == [{mark}]"
            f"  {section['seconds']:.2f}s"
        )
        out.append(f"   {section['headline']}")
        out.extend(f"   {line}" for line in section["lines"])
        if section["witness"] is not None:
            w = section["witness"]
            wmark = "pass" if w["passed"] else "FAIL"
            out.append(
                f"   [{wmark}] inverted denominators factor over: {', '.join(w['generators']) or 'nothing inverted'}"
            )
            out.extend(f"   flagged: {line}" for line in w["flagged"])
        out.extend(f"   note: {line}" for line in section["notes"])
    out.append("")
    total = len(report["checks"])
    verdict = "PASS" if report["passed"] else "FAIL"
    out.append(f"result: {verdict} ({total - failed} of {total} sections passed)")
    return "\n".join(out)


# -- argument parsing ---------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="borelweyl",
        description="difference data, Borel presentations, and straightening checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--matrix", help="inline rows ('2 -1; -1 2') or a file path")
        src.add_argument("--catalog", choices=sorted(CATALOG), help="built-in matrix by name")
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="text summary or the versioned JSON report",
        )

    analyze = sub.add_parser("analyze", help="print the combinatorial layer only")
    add_common(analyze)

    check_list = ", ".join(CHECK_NAMES)
    vrf = sub.add_parser("verify", help="build the data and run the checks")
    add_common(vrf)
    vrf.add_argument(
        "--mode", choices=("classical", "quantum", "both"), default="both"
    )
    vrf.add_argument(
        "--checks",
        default=None,
        help=f"comma-separated subset of: {check_list} (default: all that fit the mode)",
    )
    vrf.add_argument(
        "--degree-bound",
        type=int,
        default=4,
        help="overlap degree bound for the biproduct check (default 4)",
    )
    vrf.add_argument("--corrupt-beta", action="store_true", help=argparse.SUPPRESS)

    rw = sub.add_parser("rewrite", help="straighten one word to its normal form")
    add_common(rw)
    rw.add_argument("--mode", choices=("classical", "quantum"), default="classical")
    rw.add_argument("word", nargs="+", help="letters like E1 F2 K1^-1, '*' optional")

    return parser


def _job_from_args(args) -> JobSpec:
    if args.catalog:
        matrix, d = validate_gcm(CATALOG[args.catalog]), None
        name = args.catalog
    else:
        matrix, d = _load_matrix_argument(args.matrix)
        name = None
    kwargs = dict(matrix=matrix, d=d, fmt=args.format, matrix_name=name)
    if args.command == "verify":
        checks = _resolve_checks(args.mode, args.checks)
        return JobSpec(
            command="verify",
            mode=args.mode,
            checks=checks,
            degree_bound=args.degree_bound,
            corrupt_beta=args.corrupt_beta,
            **kwargs,
        )
    if args.command == "rewrite":
        return JobSpec(command="rewrite", mode=args.mode, word=" ".join(args.word), **kwargs)
    return JobSpec(command="analyze", **kwargs)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        job = _job_from_args(args)
    except (MatrixParseError, CartanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report, status = run(job)
    except CartanError as exc:
        # run() derives the quasi-inverse first; a matrix it rejects is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if job.fmt == "structured":
        print(emit_report(report))
    else:
        print(_render_text(report))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
