"""List the settable values of a package's public API in two source trees.

    python tools/list_options.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Every
``.py`` file under each is read with ``ast``, never imported.  A settable
value is a parameter with a default, positional or keyword-only, of a public
module-level function or of a method of a public module-level class
(``__init__`` included); a name is public when it does not start with an
underscore, and a module whose own name does is skipped, ``__init__.py``
apart.  Each value is written ``module:qualname(param=default)``, the default
as its source text.  A command-line flag of such a module, an
``add_argument`` call anywhere in it with a ``--`` name and a ``default=``,
is a settable value too, written ``module:--flag(default=...)``.

The first line is ``N -> M``, the counts under OLD_SRC and NEW_SRC; then one
``- value`` line per value found only under OLD_SRC and one ``+ value`` line
per value found only under NEW_SRC, in sorted order, so a changed default
reads as one of each.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    """(name, default source) of each parameter of fn that has a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [(a.arg, ast.unparse(d)) for a, d in pairs]


def _public(name: str) -> bool:
    return not name.startswith("_")


def _flags(tree: ast.Module):
    """(flag, default source) of each add_argument call with a '--' name and
    a default=."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            names = [a.value for a in node.args
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            default = next((k.value for k in node.keywords if k.arg == "default"), None)
            flag = next((n for n in names if n.startswith("--")), None)
            if flag is not None and default is not None:
                yield flag, ast.unparse(default)


def module_options(tree: ast.Module, module: str) -> list[str]:
    """The settable values of one parsed module."""
    out = [f"{module}:{flag}(default={d})" for flag, d in _flags(tree)]
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and _public(node.name):
            out += [f"{module}:{node.name}({p}={d})" for p, d in _defaults(node)]
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, functions) and (_public(item.name) or item.name == "__init__"):
                    out += [f"{module}:{node.name}.{item.name}({p}={d})"
                            for p, d in _defaults(item)]
    return out


def options(src: Path) -> list[str]:
    """The settable values of every public module under src, sorted."""
    out = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).with_suffix("")
        if not _public(rel.name) and rel.name != "__init__":
            continue
        module = ".".join(rel.parts)
        out += module_options(ast.parse(path.read_text(), filename=str(path)), module)
    return sorted(out)


def report(old: list[str], new: list[str]) -> list[str]:
    gone, added = set(old) - set(new), set(new) - set(old)
    return ([f"{len(old)} -> {len(new)}"] + [f"- {v}" for v in sorted(gone)]
            + [f"+ {v}" for v in sorted(added)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    print("\n".join(report(options(args.old_src), options(args.new_src))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
