"""Static checks of the library source."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src" / "dlecorr"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # a name a module imports and never reads is a stale import
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_term_has_one_node_class_per_shape():
    # a dotted marker and a defined modality are an App of their role's
    # declaration, as a declared connective is of its own: no node class
    # of their own
    from dlecorr.language import Term
    found, todo = set(), [Term]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls.__name__)
            todo.append(cls)
    assert found == {"Var", "Nominal", "Conominal", "Top", "Bot", "Meet", "Join",
                     "App", "Residual"}


def test_each_rule_id_has_one_dispatch_entry():
    # a rule that applies before and after FirstApprox is one rule, not a
    # stage-one rule and a second one of the same id
    from dlecorr import engine
    assert engine._STAGE_ONE_RULES.keys() & engine._RULES.keys() == set()
