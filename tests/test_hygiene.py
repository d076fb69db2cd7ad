"""Source hygiene: no module imports a name it never uses, no library
parameter keeps a default that no caller overrides, and no CLI flag goes
unread.

A plain `ast` scan of every program, test and demo file.  Package
`__init__.py` files re-export on purpose and are skipped; an import
marked `# noqa: F401` is kept on purpose too.  A defaulted parameter of
a function in `src/ibpdgm` must be set, by keyword or by position, by
some call to a function of that name in the program, tests, demos or
benchmark; a setting every caller leaves alone is a constant.  Leaving
the tests and `selftest` out, the program alone must set each one too,
but for `cli.main`'s argv.  The flag check scans
`ibpdgm.cli`: every flag a subcommand accepts must be read by its
`cmd_*` handler or by a `cli` function that the handler passes its
arguments to (`build_run_config` reads `--config`, `--seed`, `--out` and
`--set`).
"""

import argparse
import ast
import inspect
import math
import os

import pytest

from ibpdgm import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tests", "demos")


def python_files(tops=SCANNED):
    for top in tops:
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


def defaulted_parameters(tree):
    """(function, parameter, call position) for every parameter with a
    default of every function in the module `tree`.  A method's position
    skips self; `__init__` is called by its class's name.  The position of
    a keyword-only parameter is None."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods.update((id(f), node.name) for f in node.body
                           if isinstance(f, ast.FunctionDef))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        skip = int(id(node) in methods)
        name = methods[id(node)] if skip and node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        found += [(name, a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
        found += [(name, a.arg, None) for a, d in zip(node.args.kwonlyargs,
                                                      node.args.kw_defaults)
                  if d is not None]
    return found


def calls_made(tree):
    """(callee name, positional argument count, keyword names) for every
    call by name or attribute in `tree`; *args counts as every position
    and **kwargs shows as the keyword name None."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, (ast.Name, ast.Attribute)):
            count = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            yield (f.id if isinstance(f, ast.Name) else f.attr, count,
                   {k.arg for k in node.keywords})


def unset_defaults(library, callers):
    """(function, parameter) for every defaulted parameter of a function in
    the `library` sources that no call in the `callers` sources sets."""
    calls = [c for source in callers for c in calls_made(ast.parse(source))]
    return [(fn, arg) for source in library
            for fn, arg, position in defaulted_parameters(ast.parse(source))
            if not any(callee == fn and (arg in keywords or None in keywords
                                         or (position is not None and count > position))
                       for callee, count, keywords in calls)]


def test_scan_finds_a_default_no_caller_sets():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
              "class K:\n    def __init__(self, u=0, w=1):\n        pass\n"
              "    def m(self, p=0, q=1):\n        pass\n"
              "f(0, 1, e=5)\nK(2)\nK().m(**{})\n")
    assert unset_defaults([source], [source]) == [("f", "c"), ("f", "d"), ("K", "w")]


def source_of(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_every_library_default_is_set_by_a_caller():
    library = [source_of(p) for p in python_files(("src",))]
    callers = [source_of(p) for p in python_files(SCANNED + ("perfbench",))]
    assert unset_defaults(library, callers) == []


def test_every_library_default_is_set_by_the_program():
    # as above, with the tests and `selftest`, where the oracles live, left
    # out of both sides: a default that only an oracle sets is a path that
    # training never takes.  The one exception is `cli.main`'s argv, through
    # which the tests drive the CLI.
    def program(tops):
        return [source_of(p) for p in python_files(tops)
                if os.path.basename(p) != "selftest.py"]

    assert unset_defaults(program(("src",)),
                          program(("src", "demos", "perfbench"))) == [("main", "argv")]


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
