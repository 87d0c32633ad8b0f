"""The README's library snippet runs and returns the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet():
    """The first python block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text[text.index("## Library"):], re.S).group(1)


def stated_values(snippet):
    """(name, attribute, value) for each attribute=number in the "# ->"
    comment of a line that assigns name."""
    out = []
    for line in snippet.splitlines():
        code, arrow, comment = line.partition("# ->")
        if arrow:
            name = code.split("=", 1)[0].strip()
            out += [(name, key, complex(num)) for key, num in re.findall(r"(\w+)=([-+.\dj]+)", comment)]
    return out


def test_library_snippet_states_its_values():
    snippet = library_snippet()
    namespace = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    stated = stated_values(snippet)
    assert {(n, k) for n, k, _ in stated} == {("res", "l_critical"), ("res", "gamma_ssr"), ("pole", "delta")}
    assert ("res", "l_critical", 0.55693) in stated and ("res", "gamma_ssr", 4.59112) in stated
    for name, key, want in stated:
        # the comments round to five decimals
        assert abs(getattr(namespace[name], key) - want) <= 5e-6, (name, key)
