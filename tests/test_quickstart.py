"""The README "Quickstart" Python blocks and the package docstring's
snippets run verbatim, so no name they use can outlive its removal."""

import re
import textwrap
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks():
    """The fenced Python blocks of the README's "Quickstart" section."""
    section = README.read_text().split("\n## Quickstart\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def _docstring_blocks():
    """The literal blocks of ``repro.__doc__`` that import from ``repro``."""
    blocks, current = [], None
    for line in repro.__doc__.splitlines():
        if current is not None:
            if not line.strip() or line.startswith("    "):
                current.append(line)
                continue
            blocks.append(textwrap.dedent("\n".join(current)))
            current = None
        if line.rstrip().endswith("::"):
            current = []
    if current is not None:
        blocks.append(textwrap.dedent("\n".join(current)))
    return [block for block in blocks if "from repro import" in block]


def _snippets():
    """Each distinct snippet once, keyed by code, named by its first source."""
    found = {}
    for source, blocks in (("readme", _readme_blocks()), ("docstring", _docstring_blocks())):
        assert len(blocks) == 2, (source, blocks)
        for index, block in enumerate(blocks):
            found.setdefault(block.strip(), "%s-%d" % (source, index))
    return found


SNIPPETS = _snippets()


@pytest.mark.parametrize("code", list(SNIPPETS), ids=list(SNIPPETS.values()))
def test_snippet_runs_verbatim(code, capsys):
    exec(compile(code, SNIPPETS[code], "exec"), {"__name__": "__quickstart__"})
    assert capsys.readouterr().out.strip()
