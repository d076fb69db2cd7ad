"""Source hygiene: no module imports a name it never uses, no library
parameter keeps a default that no caller overrides, no CLI flag goes
unread, no test is parametrized over an argument its body never reads,
no numeric run setting goes unchecked, and README quotes no stale
signature.

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
`--set`), and README's CLI block must write out exactly the flags that
each subcommand accepts.  The README signature check reads every inline
`name(args)` whose name is a function or class of an `ibpdgm` module,
bare or as `module.name`: its arguments must be that callable's leading
parameter names.  Every `int` or `float` field of `RunConfig` states
the values it accepts, as the field metadata that `validate` checks, but
for the few that accept every finite value.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import re

import pytest

import ibpdgm
from ibpdgm import cli, training

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


def readme_cli_flags(text):
    """{command: set of --flags} for each `ibpdgm <command>` line of the
    code block under README's CLI heading."""
    block = text.split("\n## CLI\n", 1)[1].split("```")[1]
    return {line.split()[1]: set(re.findall(r"--[\w-]+", line))
            for line in block.splitlines() if line.startswith("ibpdgm ")}


def test_readme_cli_lines_match_the_parser():
    # the flag check above takes a flag as read when `build_run_config`
    # reads it; the README shows which flags each command really takes
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        written = readme_cli_flags(fh.read())
    assert written == {command: {flag for action in parser._actions
                                 if not isinstance(action, argparse._HelpAction)
                                 for flag in action.option_strings}
                       for command, parser in SUBCOMMANDS.items()}


def library_callables():
    """{name: callable} for every function and class an `ibpdgm` module
    defines, keyed by its bare name and by `module.name`."""
    found = {}
    for info in pkgutil.iter_modules(ibpdgm.__path__):
        module = importlib.import_module(f"ibpdgm.{info.name}")
        for name, obj in vars(module).items():
            if ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                found[name] = found[f"{info.name}.{name}"] = obj
    return found


def stale_signatures(text, callables):
    """(span, parameter names) for every inline `name(args)` in the
    markdown `text` that names one of `callables` with arguments other
    than its leading parameter names (a `key=value` argument is read as
    its key)."""
    stale = []
    for match in re.finditer(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", text):
        name, args = match.groups()
        if name not in callables:
            continue
        written = [a.split("=")[0].strip() for a in args.split(",") if a.strip()]
        params = list(inspect.signature(callables[name]).parameters)
        if written != params[:len(written)]:
            stale.append((match.group(0), params))
    return stale


def test_scan_finds_a_stale_readme_signature():
    text = ("`score_function_grad(samples, a)`, `bbvi.control_variate_coeffs(f,\n h)`,"
            " `train(cfg)`, `train(config)`, `np.mean(h * f, axis=0)`, `q(y | x)`")
    assert stale_signatures(text, library_callables()) == [
        ("`score_function_grad(samples, a)`", ["f", "h"]),
        ("`train(config)`", ["cfg", "train_data", "test_data", "log"])]


def test_readme_signatures_match_the_library():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        assert stale_signatures(fh.read(), library_callables()) == []


def unread_parametrized_arguments(source):
    """(test, name) for every `pytest.mark.parametrize` argument name that
    its test's body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        for dec in node.decorator_list:
            if not (isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
                    and dec.func.attr == "parametrize"):
                continue
            arg = (dec.args[0] if dec.args else
                   next(k.value for k in dec.keywords if k.arg == "argnames"))
            names = (arg.value.split(",") if isinstance(arg, ast.Constant)
                     else [e.value for e in arg.elts])
            found += [(node.name, n.strip()) for n in names if n.strip() not in read]
    return found


def test_scan_finds_an_unread_parametrized_argument():
    source = ("import pytest\n"
              "@pytest.mark.parametrize('a, b', [(1, 2)])\n"
              "@pytest.mark.parametrize(('c',), [(3,)])\n"
              "def test_one(a, b, c):\n    assert a == c\n"
              "@pytest.mark.parametrize(argnames='d', argvalues=[4])\n"
              "def test_two(d):\n    pass\n")
    assert unread_parametrized_arguments(source) == [("test_one", "b"), ("test_two", "d")]


def test_every_parametrized_argument_is_read():
    # a case dimension that no test body reads multiplies the cases without
    # checking anything more
    unread = [(os.path.relpath(path, ROOT), *found)
              for path in python_files(("tests", "perfbench"))
              for found in unread_parametrized_arguments(source_of(path))]
    assert unread == []


def unchecked_numeric_settings(config_class, free):
    """Names of the `int` and `float` fields of `config_class` that state
    no accepted values and are not listed in `free`."""
    return [f.name for f in dataclasses.fields(config_class)
            if f.type in (int, float) and "accepts" not in f.metadata
            and f.name not in free]


def test_scan_finds_an_unchecked_numeric_setting():
    @dataclasses.dataclass
    class Config:
        checked: int = training._key(1, "[1, inf)")
        unchecked: int = 0
        free: float = -1.0
        path: str = ""

    assert unchecked_numeric_settings(Config, {"free"}) == ["unchecked"]


def test_every_numeric_run_setting_states_what_it_accepts():
    # alpha_sup takes any finite value: a negative one means auto
    assert unchecked_numeric_settings(training.RunConfig, {"alpha_sup"}) == []
