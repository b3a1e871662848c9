"""Static checks of the library source."""

import ast
import pathlib
from collections import Counter

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


# the public names that only tests and bench/ read
API = {"engine.py:check_compact_appropriate", "engine.py:check_topological_adequacy",
       "generators.py:phi_image", "generators.py:random_inductive",
       "generators.py:random_signature", "language.py:Signature:shadows",
       "language.py:layer_of", "models.py:FiniteDLE:arrow_table",
       "models.py:FiniteDLE:coimp_table", "models.py:FiniteDLE:dot_adj_table",
       "models.py:Valuation:describe", "models.py:antichain", "models.py:check_validity",
       "models.py:eval_term", "models.py:load_dle"}


def _names_read(tree) -> Counter:
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute):
            read[node.attr] += 1
        elif isinstance(node, ast.alias):
            read[node.name] += 1
    return read


def test_every_name_is_read():
    # a function, class, method or module name that no module of the
    # library reads, outside its own body, is code nothing calls: deleted
    # if private, listed in API if tests or bench/ read it
    defined, read = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.name}:{node.name}", item.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, n.id, node) for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
        read += _names_read(tree)
    unread = {f"{where}:{name}" for where, name, node in defined
              if not name.startswith("__") and read[name] == _names_read(node)[name]}
    assert sorted(unread - API) == []
    assert sorted(API - unread) == []


def test_no_module_rebinds_a_global():
    # state a function keeps between calls is a cache or an object passed
    # in, not a module global that calls rebind
    found = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []


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
