"""Every setting has a setter.

A default-valued parameter that no caller ever sets is a constant in
disguise, and whatever branch it guards is dead. The scan below fails on
each default-valued parameter of a function in ``src/`` whose name is
neither a call keyword nor a string constant (a ``**kw`` key) anywhere
in ``src/``, ``tests/``, ``perfbench/``, ``examples/`` or ``scripts/``.
Such a setting becomes a module or class constant, or loses its branch.

The scan matches names only, so it cannot see a parameter that callers
pass by position. Those, and only those, are listed in ``POSITIONAL``,
each with the reason its default stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "perfbench", "examples", "scripts")
#: Gitignored run outputs inside them: ``compare.py pair`` checks whole
#: commits out there, this file included.
SKIPPED = ("perfbench/out/",)

_CLI = ("`python -m repro <verb>` passes the verb's argv by position; "
        "run as a module, None reads sys.argv")

#: (path under src/, function, parameter) -> why its default stays.
POSITIONAL = {
    ("repro/bulk/cli.py", "main", "argv"): _CLI,
    ("repro/check/cli.py", "main", "argv"): _CLI,
    ("repro/obs/cli.py", "main", "argv"): _CLI,
    ("repro/robust/cli.py", "main", "argv"): _CLI,
    ("repro/bench/manifest.py", "_rounded", "digits"): "columns pass 1 by position, most take 2",
    ("repro/console/console.py", "group_state", "member_urns"):
        "tests pass the members by position; None reads the group's catalog record",
    ("repro/obs/flight.py", "attach", "bus"): "the spine passes its probe bus by position; "
                                              "frame-only recorders pass none",
    ("repro/playground/lang.py", "emit", "arg"): "the compiler passes operands by position; "
                                                 "most opcodes take none",
    ("repro/robust/replicas.py", "walk", "need"): "the catalog client passes its quorum by "
                                                  "position; the other clients need one reply",
    ("repro/security/certificates.py", "make_certificate", "extra_assertions"):
        "tests pass extra assertions by position; most certificates carry only the key",
}


def _scan():
    """``(defaulted, used)``: every default-valued parameter in ``src/``
    as ``(path, function, name)``, and every name some call sets."""
    defaulted, used = [], set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if rel.startswith(SKIPPED) or path == Path(__file__).resolve():
                continue  # this file's POSITIONAL names every listed parameter
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.keyword) and node.arg:
                    used.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
                elif top == "src" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a = node.args
                    positional = a.posonlyargs + a.args
                    names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                    names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    where = path.relative_to(ROOT / "src").as_posix()
                    defaulted += [(where, node.name, n) for n in names]
    return defaulted, used


def test_every_default_valued_parameter_has_a_setter():
    defaulted, used = _scan()
    unset = {p for p in defaulted if p[2] not in used}
    assert unset - set(POSITIONAL) == set(), "settings nothing sets: make them constants"
    # An entry whose parameter went, or gained a keyword setter, goes too.
    assert set(POSITIONAL) - unset == set(), "stale POSITIONAL entries"
    assert all(reason for reason in POSITIONAL.values())
