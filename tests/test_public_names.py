"""Every public name in ``src/chemoflux`` serves the program.

The name of each public top-level function or class, and of each public
method, must occur in the package's code outside its own definition and
outside ``__init__.py``, which only re-exports: a name that only the tests
call belongs in the tests.  The match is by word, over the name tokens of
the code (comments and strings do not count), not by object, so a generic
method name such as ``copy`` passes when some other object's ``copy`` is
called.
"""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chemoflux"


def _definitions(tree):
    """(name, first line, last line) of each public top-level function or
    class and of each public method, decorators included."""
    def span(node):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return node.name, first, node.end_lineno

    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)) and not node.name.startswith("_"):
            yield span(node)
        if isinstance(node, ast.ClassDef):
            yield from (span(item) for item in node.body
                        if isinstance(item, defs) and not item.name.startswith("_"))


def _name_tokens(path):
    """(word, line) of each name token of a module."""
    with open(path, "rb") as fh:
        return [(tok.string, tok.start[0]) for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.NAME]


def test_every_public_name_is_used_in_src():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    tokens = {path: _name_tokens(path) for path in modules}
    unused = []
    for path in modules:
        for name, first, last in _definitions(ast.parse(path.read_text())):
            if not any(word == name and not (other == path and first <= line <= last)
                       for other in modules for word, line in tokens[other]):
                unused.append(f"{path.name}:{first} {name}")
    assert unused == []
