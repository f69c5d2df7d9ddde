"""Every reader message of a proof step, pinned kind by kind.

For each step kind of both proof formats, ``pclab check`` reads a file
whose step line has one faulty token and must exit 2 with the message
``<path>: <reason> (line <k>)``.  The kinds, their slots and the faults
are listed here, apart from the code that reads them.
"""

import contextlib
import io

import pytest

from pclab.algebra import BOOLEAN, format_var
from pclab.cli import main
from pclab.formulas import cnf_to_axioms, gen_lop, write_axioms, write_dimacs

CNF = gen_lop(3)
AXIOMS = cnf_to_axioms(CNF, BOOLEAN)
VAR = format_var(AXIOMS.universe[0])

# Per format: its header, the other format's tokens, and each kind's valid
# line (file token, slot codes, slots).  i: axiom or clause index, v: a
# variable, c: a "lin" coefficient, L: a line label.
FORMATS = {
    "pc": (f"pcproof v1 basis={BOOLEAN} field={AXIOMS.field.p} axioms=ax.txt", ("IN", "RES"), [
        ("AX", "i", ["1"]),
        ("SQ", "v", [VAR]),
        ("TW", "v", [VAR]),
        ("MUL", "vL", [VAR, "L1"]),
        ("LIN", "cLcL", ["1", "L1", "-1", "L4"]),
    ]),
    "res": ("resproof v1 cnf=f.cnf", ("AX", "MUL"), [
        ("IN", "i", ["1"]),
        ("IN", "i", ["2"]),
        ("RES", "LLv", ["L1", "L2", VAR]),
    ]),
}

NOT_INT = "invalid literal for int() with base 10: {!r}"
BAD_SLOT = {
    "i": [("1.5", NOT_INT.format("1.5"))],
    "c": [("x", NOT_INT.format("x"))],
    "L": [("5", "expected line label, got '5'"), ("L", NOT_INT.format("")), ("Lx", NOT_INT.format("x"))],
    "v": [("1a", "bad variable token '1a'")],
}


def _cases():
    for fmt, (_, others, kinds) in FORMATS.items():
        for k, (tok, codes, slots) in enumerate(kinds, 1):
            def case(fault, label, toks, reason):
                return pytest.param(fmt, k, f"{label} {' '.join(toks)}", reason, id=f"{fmt}-L{k}-{tok}-{fault}")

            def malformed(fault, toks):
                return case(fault, f"L{k}", toks, f"malformed step {' '.join(toks)!r}")

            yield malformed("unknown-token", ["FOO", *slots])
            for other in others:
                yield malformed(f"token-{other}", [other, *slots])
            yield malformed("slot-too-many", [tok, *slots, slots[-1]])
            yield malformed("slot-too-few", [tok, *slots[:-1]])
            for s, code in enumerate(codes):
                for bad, reason in BAD_SLOT[code]:
                    yield case(f"slot{s + 1}-{bad}", f"L{k}", [tok, *slots[:s], bad, *slots[s + 1:]], reason)
            yield case("label-ahead", f"L{k + 1}", [tok, *slots], f"expected label L{k}, got 'L{k + 1}'")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("grammar")
    write_axioms(AXIOMS, d / "ax.txt")
    write_dimacs(CNF, d / "f.cnf")
    return d


def _check(path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return code, err.getvalue()


def _write(files, fmt, lines):
    path = files / f"p.{fmt}"
    path.write_text("\n".join([FORMATS[fmt][0], *lines]) + "\n")
    return path


@pytest.mark.parametrize("fmt", FORMATS)
def test_unfaulted_files_are_read(files, fmt):
    kinds = FORMATS[fmt][2]
    code, err = _check(_write(files, fmt, [f"L{k} {tok} {' '.join(s)}" for k, (tok, _, s) in enumerate(kinds, 1)]))
    assert code in (0, 1) and not err


@pytest.mark.parametrize("fmt, k, line, reason", _cases())
def test_one_faulty_token_is_refused(files, fmt, k, line, reason):
    kinds = FORMATS[fmt][2]
    lines = [f"L{j} {tok} {' '.join(s)}" for j, (tok, _, s) in enumerate(kinds[: k - 1], 1)]
    path = _write(files, fmt, [*lines, line])
    code, err = _check(path)
    assert code == 2
    assert err == f"error: {path}: {reason} (line {k + 1})\n"
