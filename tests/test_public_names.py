"""Every public name in ``src/chemoflux`` serves the program, and every
name its prose cites exists.

The name of each public top-level function or class, and of each public
method, must occur in the package's code outside its own definition,
outside import statements and outside ``__init__.py``, which only
re-exports: a name that only the tests call belongs in the tests, and one
that is only imported has no caller.  The match is by word, over the name
tokens of the code (comments and strings do not count), not by object, so
a generic method name such as ``copy`` passes when some other object's
``copy`` is called.
"""

import ast
import re
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


def _tokens(path, kind=tokenize.NAME):
    """(text, line) of each token of a module of the given kind."""
    with open(path, "rb") as fh:
        return [(tok.string, tok.start[0]) for tok in tokenize.tokenize(fh.readline)
                if tok.type == kind]


def _uses(path):
    """(text, line) of each name token of a module outside its import
    statements."""
    imports = {line for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for line in range(node.lineno, node.end_lineno + 1)}
    return [(word, line) for word, line in _tokens(path) if line not in imports]


def test_every_public_name_is_used_in_src():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    tokens = {path: _uses(path) for path in modules}
    unused = []
    for path in modules:
        for name, first, last in _definitions(ast.parse(path.read_text())):
            if not any(word == name and not (other == path and first <= line <= last)
                       for other in modules for word, line in tokens[other]):
                unused.append(f"{path.name}:{first} {name}")
    assert unused == []


def _namespace(tree):
    """The top-level names of a module, and the members (methods, class
    attributes and ``self`` attributes) of each of its classes."""
    def targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        return [node.target] if isinstance(node, ast.AnnAssign) else []
    top, members = set(), {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top.add(node.name)
        top.update(t.id for t in targets(node) if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            own = members.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    own.add(item.name)
                own.update(t.id for t in targets(item) if isinstance(t, ast.Name))
            own.update(t.attr for sub in ast.walk(node) for t in targets(sub)
                       if isinstance(t, ast.Attribute)
                       and isinstance(t.value, ast.Name) and t.value.id == "self")
    return top, members


def _prose(path):
    """(text, line) of each docstring and comment of a module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            yield node.body[0].value.value, node.body[0].lineno
    yield from _tokens(path, tokenize.COMMENT)


REFERENCE = re.compile(r"(?<!`)`([^`]+)`(?!`)")   # `name`, not ``literal``


def test_every_cited_name_exists():
    # a docstring or comment that cites a deleted or renamed name fails here:
    # `name` must be a module of the package, a top-level name of a module,
    # a member of a class (bare or as `Class.member`) or `module.name`
    modules = {p.stem: _namespace(ast.parse(p.read_text()))
               for p in sorted(SRC.glob("*.py"))}
    top = set().union(*(names for names, _ in modules.values()))
    members = {c: m for _, classes in modules.values() for c, m in classes.items()}
    known = (set(modules) | top | set().union(*members.values())
             | {f"{m}.{name}" for m, (names, _) in modules.items() for name in names}
             | {f"{c}.{name}" for c, names in members.items() for name in names})
    cited, unknown = 0, []
    for path in sorted(SRC.glob("*.py")):
        for text, line in _prose(path):
            for ref in REFERENCE.findall(text):
                cited += 1
                if ref not in known and not ref.startswith(("np.", "numpy.")):
                    unknown.append(f"{path.name}:{line} `{ref}`")
    assert cited > 0
    assert unknown == []
