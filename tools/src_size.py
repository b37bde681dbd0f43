"""Size of the ``chemoflux`` package, per module and in total.

Usage: ``python tools/src_size.py [package_dir]``; the default is this
checkout's ``src/chemoflux``, and another directory measures another tree.

For each module it prints four counts:

* ``lines``: every line, as ``wc -l`` counts them;
* ``docstring``: the lines of the first-statement string of the module and
  of each class and function in it;
* ``comment``: the lines that hold only a comment;
* ``code``: the non-blank lines that are neither of the two.

Then it prints the settings surface, read from the syntax trees: the config
keys, one per row of ``harness._SCHEMA``, and the CLI options, one per
``add_argument`` call in ``cli.py``.  From ``harness._READ_WHEN``, which
declares when a key is read, it prints how many of those keys each study of
``harness.STUDIES`` accepts, and which keys each recipe kind of
``initial_data.RECIPE_KINDS`` and each dt mode that ``evolve.StepperConfig``
accepts leave unread.  Last it prints how many names ``__init__.py``
re-exports from the package's modules, read from its syntax tree.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chemoflux"
COLUMNS = ("lines", "docstring", "comment", "code")


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _comment_lines(text) -> set:
    """Lines whose only token is a comment."""
    comment, other = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            other.update(range(tok.start[0], tok.end[0] + 1))
    return comment - other


def count(path: Path) -> dict:
    """The four counts of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    doc = _docstring_lines(ast.parse(text))
    comment = _comment_lines(text)
    code = {i for i, line in enumerate(lines, 1) if line.strip()} - doc - comment
    return {"lines": text.count("\n"), "docstring": len(doc),
            "comment": len(comment), "code": len(code)}


def _assigned(tree, name):
    """The value node of the module-level assignment to ``name``, or None."""
    return next((node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == name for t in node.targets)), None)


def _tree(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _tested(tree, attr):
    """The literal tuple that a ``self.<attr> not in (...)`` check tests."""
    return next(ast.literal_eval(node.comparators[0]) for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Attribute) and node.left.attr == attr
                and isinstance(node.comparators[0], ast.Tuple))


def settings(package: Path) -> tuple:
    """(config keys, CLI options, {study: keys it accepts}, {recipe kind or dt
    mode: the keys it leaves unread}) of the package."""
    harness = _tree(package / "harness.py")
    keys = [row.elts[0].value for row in _assigned(harness, "_SCHEMA").elts]
    read_when = _assigned(harness, "_READ_WHEN")   # a tree without it: all read all
    read_when = ast.literal_eval(read_when) if read_when else {}
    choices = {
        "study": ast.literal_eval(_assigned(harness, "STUDIES")),
        "recipe.kind": ast.literal_eval(_assigned(_tree(package / "initial_data.py"),
                                                  "RECIPE_KINDS")),
        "stepper.dt_mode": _tested(_tree(package / "evolve.py"), "dt_mode")}

    def unread(setting, choice):
        names = {key for (named, readers), ks in read_when.items()
                 if named == setting and choice not in readers for key in ks}
        return [key for key in keys if key in names]

    accepted = {study: len(keys) - len(unread("study", study))
                for study in choices["study"]}
    left = {choice: unread(setting, choice)
            for setting in ("recipe.kind", "stepper.dt_mode")
            for choice in choices[setting]}
    cli = _tree(package / "cli.py")
    options = sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument" for node in ast.walk(cli))
    return len(keys), options, accepted, left


def reexports(package: Path) -> int:
    """How many names ``__init__.py`` imports from the package's own modules."""
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    return sum(len(node.names) for node in init.body
               if isinstance(node, ast.ImportFrom) and node.level == 1)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, count(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", {c: sum(r[c] for _, r in rows) for c in COLUMNS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, r in rows:
        print(f"{name:<{width}}" + "".join(f"{r[c]:>11}" for c in COLUMNS))
    keys, options, accepted, left = settings(package)
    print(f"settings: {keys} config keys (harness._SCHEMA), "
          f"{options} CLI options (cli.py)")
    print("keys accepted: " + ", ".join(f"{study} {n}"
                                        for study, n in accepted.items()))
    print("keys unread by recipe kind and dt mode: " + "; ".join(
        f"{choice} {', '.join(names) or 'none'}" for choice, names in left.items()))
    print(f"re-exports: {reexports(package)} names (__init__.py)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
