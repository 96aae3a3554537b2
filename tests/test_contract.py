"""The command-line contract, ``tests/cli_contract.txt``, run in-process, and
the README's examples checked against the library and the contract."""

import ast
import json
import math
import shlex
from pathlib import Path

import pytest

from qprops import cli

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = [
    (int(code), line)
    for code, line in (
        row.split(" ", 1)
        for row in (ROOT / "tests" / "cli_contract.txt").read_text().splitlines()
        if row and not row.startswith("#")
    )
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "code, line", CONTRACT, ids=[line.replace(" ", "_") for _, line in CONTRACT]
)
def test_contract_line(capsys, monkeypatch, code, line, fmt):
    monkeypatch.chdir(ROOT)
    assert cli.main([*shlex.split(line), "--format", fmt]) == code
    out, err = capsys.readouterr()
    if code == 2:
        # an unusable input: one diagnostic line and no report
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
    else:
        assert out.strip()
        assert err == ""
        if fmt == "json":
            json.loads(out)


def test_every_contract_spec_is_named_by_a_line():
    named = {word for _, line in CONTRACT for word in shlex.split(line)}
    specs = {str(path.relative_to(ROOT)) for path in (ROOT / "tests" / "specs").iterdir()}
    assert specs - named == set()


def test_readme_command_lines_are_contract_lines():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {
        row.removeprefix("qprops ").split("#", 1)[0].strip()
        for row in block.splitlines()
        if row.startswith("qprops ")
    }
    assert documented
    assert documented - {line for _, line in CONTRACT} == set()


def test_readme_library_tour_gives_its_commented_results():
    # the tour's history family comes from a generalized context, so its
    # gmh report is read from the eigenbasis certificate
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, checked = block.splitlines(), {}, 0
    for node in ast.parse(block).body:
        line = lines[node.end_lineno - 1]
        if isinstance(node, ast.Expr) and "#" in line:
            want = ast.literal_eval(line.rsplit("#", 1)[1].strip())
            got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            print(ast.unparse(node.value), "->", got, "(documented:", want, ")")
            assert type(got) is type(want) and math.isclose(got, want, abs_tol=1e-12)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == 2
