import ast
from collections import Counter
from pathlib import Path

import twotower

SOURCE_DIR = Path(twotower.__file__).parent

# Kept for the tests alone: an oracle and a fixture builder.
TEST_ONLY = {"training.full_softmax_loss", "synth.build_toy"}


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
