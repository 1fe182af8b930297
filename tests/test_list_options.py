"""The settable-value listing tool, on two small source trees."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "list_options", Path(__file__).resolve().parent.parent / "tools" / "list_options.py")
list_options = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(list_options)

OLD = '''
def f(a, b=1, *, c=None):
    def inner(d=2):
        pass

def _private(e=3):
    pass

class Public:
    def __init__(self, g=4):
        pass

    def method(self, h=1e-9):
        pass

    def _helper(self, i=5):
        pass

class _Hidden:
    def method(self, j=6):
        pass
'''

NEW = '''
def f(a, *, c=None):
    pass

class Public:
    def __init__(self, g=4):
        pass

    def method(self, h=1e-10):
        pass
'''


def tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_public_defaults_only(tmp_path):
    src = tree(tmp_path, {"pkg/__init__.py": "def top(x=0):\n    pass\n",
                          "pkg/mod.py": OLD, "pkg/_private.py": "def g(y=1):\n    pass\n"})
    assert list_options.options(src) == [
        "pkg.__init__:top(x=0)", "pkg.mod:Public.__init__(g=4)",
        "pkg.mod:Public.method(h=1e-09)", "pkg.mod:f(b=1)", "pkg.mod:f(c=None)"]


def test_report_lists_removed_and_changed_values(tmp_path, capsys):
    old = tree(tmp_path / "old", {"pkg/mod.py": OLD})
    new = tree(tmp_path / "new", {"pkg/mod.py": NEW})
    assert list_options.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "4 -> 3",
        "- pkg.mod:Public.method(h=1e-09)",
        "- pkg.mod:f(b=1)",
        "+ pkg.mod:Public.method(h=1e-10)"]


CLI_OLD = '''
import argparse

def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--version", action="version", version="1")
    for task in ("a", "b"):
        p = parser.add_subparsers().add_parser(task)
        p.add_argument("--scenario", required=True)
        p.add_argument("-t", "--threads", type=int, default=1)
        p.add_argument("--tolerance", type=float, default=1e-8)
    return parser
'''


def test_flags_with_defaults_are_values(tmp_path, capsys):
    old = tree(tmp_path / "old", {"pkg/cli.py": CLI_OLD})
    new = tree(tmp_path / "new", {"pkg/cli.py": CLI_OLD.replace(
        '        p.add_argument("--tolerance", type=float, default=1e-8)\n', "")})
    assert list_options.options(old) == ["pkg.cli:--threads(default=1)",
                                         "pkg.cli:--tolerance(default=1e-08)"]
    assert list_options.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 -> 1", "- pkg.cli:--tolerance(default=1e-08)"]
