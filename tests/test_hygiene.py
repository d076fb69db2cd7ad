"""Source hygiene: no module imports a name it never uses, and no CLI
flag goes unread.

A plain `ast` scan of every program, test and demo file.  Package
`__init__.py` files re-export on purpose and are skipped; an import
marked `# noqa: F401` is kept on purpose too.  The flag check scans
`ibpdgm.cli`: every flag a subcommand accepts must be read by its
`cmd_*` handler or by a `cli` function that the handler passes its
arguments to (`build_run_config` reads `--config`, `--seed`, `--out` and
`--set`).
"""

import argparse
import ast
import inspect
import os

import pytest

from ibpdgm import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tests", "demos")


def python_files():
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.join(dirpath, name)


def unused_imports(source):
    """(line, name) for every imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [(node.lineno, name) for name in names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads  # noqa: F401\nsys.exit()\n"
    assert unused_imports(source) == [(1, "os")]


@pytest.mark.parametrize("path", list(python_files()),
                         ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def attributes_read(tree, name):
    """Attribute names read off the first parameter of function `name` in
    the module `tree`, or off the parameter it is passed to in any module
    function that `name` calls with it, transitively."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read, seen, todo = set(), set(), [(name, 0)]
    while todo:
        fn, position = todo.pop()
        if (fn, position) in seen:
            continue
        seen.add((fn, position))
        param = funcs[fn].args.args[position].arg
        for node in ast.walk(funcs[fn]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == param):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in funcs):
                todo += [(node.func.id, i) for i, arg in enumerate(node.args)
                         if isinstance(arg, ast.Name) and arg.id == param]
    return read


def test_scan_follows_the_arguments_into_helpers():
    source = ("def cmd(args):\n    helper(0, args)\n    return args.a\n"
              "def helper(n, opts):\n    return n.b, opts.c\n")
    assert attributes_read(ast.parse(source), "cmd") == {"a", "c"}


SUBCOMMANDS = next(action for action in cli.make_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_every_cli_flag_is_read(command):
    flags = {action.dest for action in SUBCOMMANDS[command]._actions
             if action.option_strings and not isinstance(action, argparse._HelpAction)}
    read = attributes_read(ast.parse(inspect.getsource(cli)),
                           cli.COMMANDS[command].__name__)
    assert flags - read == set()
