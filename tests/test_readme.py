"""The README's ```pycon examples, run in order through doctest with one
shared namespace, so the documented numbers stay the package's output."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    text = README.read_text()
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    globs, report = {}, []
    blocks = list(re.finditer(r"^```pycon\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block[1], globs, README.name, str(README), lineno)
        runner.run(test, out=report.append, clear_globs=False)
        globs = test.globs  # a DocTest runs in a copy of the names it is given
    assert runner.failures == 0, "".join(report)
