"""The `quadcert ...` lines of the README's ```sh blocks, plus its composite
line under the other two rules, run through `cli.main`: exit code, stdout
and stderr must match `readme_cli.json` byte for byte.

After a deliberate output change, rewrite the expected file with
``PYTHONPATH=src python tests/test_readme_cli.py``.
"""

import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from quadcert.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
EXPECTED = Path(__file__).with_name("readme_cli.json")


def readme_commands():
    text = README.read_text()
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S)
             for line in block.splitlines() if line.startswith("quadcert ")]
    composite = next(line for line in lines if line.startswith("quadcert composite "))
    assert "--rule midpoint" in composite
    return lines + [composite.replace("--rule midpoint", "--rule perturbed_trapezoid"),
                    composite.replace("--rule midpoint", "--rule generalized --xi-policy random")]


def run(command):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(shlex.split(command)[1:])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_expected_file_covers_exactly_the_readme_commands():
    assert sorted(json.loads(EXPECTED.read_text())) == sorted(readme_commands())


@pytest.mark.parametrize("command", readme_commands())
def test_readme_cli_output(command):
    assert run(command) == json.loads(EXPECTED.read_text())[command]


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps({c: run(c) for c in readme_commands()}, indent=1) + "\n")
