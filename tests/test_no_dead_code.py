"""Every function, class and method defined in src/smallq is used somewhere.

A name counts as used when it occurs in src, tests or bench anywhere other
than as the name on its own ``def`` or ``class`` line: a call, an import, an
attribute, a string or a docstring naming it.  Dunder names are exempt, as
Python calls them.  Delete what nothing calls.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smallq"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "bench"]
HEADER = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+\w+")
WORD = re.compile(r"\w+")


def defined_names():
    """(name, path, line) of every function, class and method in the package."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((node.name, path, node.lineno))
    return out


def words_of(text):
    """Every word of the text, each def/class header's own name left out."""
    return {w for line in text.splitlines() for w in WORD.findall(HEADER.sub("", line))}


def used_words():
    return set().union(*(words_of(path.read_text())
                         for base in SEARCHED for path in base.rglob("*.py")))


def test_every_definition_is_used():
    words = used_words()
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for name, path, line in defined_names()
              if not (name.startswith("__") and name.endswith("__"))
              and name not in words]
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def test_negative_control():
    # a name used only on its own def line is flagged; one used elsewhere,
    # even only in a type annotation on another def line, is not
    words = words_of("def lonely(x):\n    return x\n\n"
                     "def caller(y: Helper):\n    return y\n\n"
                     "class Helper:\n    pass\n")
    assert "lonely" not in words
    assert "Helper" in words and "caller" not in words
