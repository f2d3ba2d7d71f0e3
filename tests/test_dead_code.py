import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import twotower
from twotower import cli

SOURCE_DIR = Path(twotower.__file__).parent
TESTS_DIR = Path(__file__).parent

# Package definitions kept for the tests alone: none, as test oracles and
# fixtures live under tests/.
TEST_ONLY: set = set()


def _uses(tree: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute in `tree`."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_top_level_definition_is_used_in_the_package():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE_DIR.glob("*.py"))}
    uses = sum((_uses(tree) for tree in modules.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        # A use inside its own definition (recursion, a classmethod) does not count.
        and uses[node.name] == _uses(node)[node.name]
        and f"{module}.{node.name}" not in TEST_ONLY
    ]
    assert unused == []


def test_every_test_import_is_read():
    """Each name a file under tests/ imports is read in that file: an
    import nothing reads hides which package names the tests still use."""
    unread = []
    for path in sorted(TESTS_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unread == []


def test_every_cli_option_is_read():
    """Each option a command declares is read as `o["<name>"]` somewhere in
    cli.py, or is a `_FIELDS` flag, which `cli._cell` reads (checked per flag
    by test_cli.py's `test_field_flag_reaches_the_cell`), so a flag nothing
    reads fails here as an unread function does."""
    tree = ast.parse((SOURCE_DIR / "cli.py").read_text())
    read = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "o"
        and isinstance(node.slice, ast.Constant)
    }
    read |= {flag for fields in cli._FIELDS.values() for flag in fields}
    declared = {name for command in cli._COMMANDS for name in cli._options(command)}
    assert sorted(declared - read) == []


def test_every_name_perfbench_traces_exists():
    """perfbench traces the package functions and classes its `tracing.py`
    lists in `EXPECTED`, as "module.name", and runs commands through
    `cli.main`; a name that went missing would show only in perfbench's own
    tests. The tuple is read from the source, not imported."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text())
    expected = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "EXPECTED" for target in node.targets)
    )
    assert expected
    for name in expected:
        module, attr = name.split(".")
        value = getattr(importlib.import_module(f"twotower.{module}"), attr, None)
        assert inspect.isfunction(value) or inspect.isclass(value), name
        assert value.__module__.startswith("twotower."), name
    assert callable(cli.main)
