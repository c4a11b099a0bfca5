"""Source hygiene: no module of the package or test imports a name it never uses,
every top-level function and class is used in the package or exported,
every optional parameter is set by the package or the bench, no function
loops over a batch's groups, importing the package loads no scipy, the
trainer routes only through the gate, only the certifier uses the scalar
sampler and checks hand-made pairs, only the policy module lays out
gradient keys and reads another object's private attributes, only its key
index encodes a key, the certifier names each loss once, and the README's
configuration block is the schema's defaults."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from dypo.trainer import TrainConfig, train_config_from_dict

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dypo"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including those inside string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in source order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((name for name in imported if name not in used), key=imported.get)


def test_the_checker_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    from .tasks import Query\n"
              "def f(q: 'Query') -> int:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["os"]


def test_no_module_imports_a_name_it_does_not_use():
    # the package __init__ imports only to re-export; the tests are checked too
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert modules and tests
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in modules + tests}
    assert {name: names for name, names in unused.items() if names} == {}


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of a package's modules (file name
    -> source) that its ``__init__.py`` does not export and no module reads
    outside their own definition, as ``file:name`` in source order."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exported
            and reads[node.name] == _reads(node)[node.name]]


def test_the_checker_finds_an_unread_definition():
    sources = {"__init__.py": "from .a import shown\n",
               "a.py": ("def shown(): pass\ndef used(): return helper()\n"
                        "def helper(): return helper()\ndef dead(): return dead()\n"
                        "class Lone: pass\n"),
               "b.py": "from .a import used\nused()\n"}
    assert unreferenced_definitions(sources) == ["a.py:dead", "a.py:Lone"]


def test_every_definition_is_used_in_the_package_or_exported():
    # dead API goes: a function whose last caller is deleted is deleted too
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(sources) == []


def _reachable(tree: ast.Module, file: str, package: dict[str, str]
               ) -> tuple[dict[str, str], dict[str, str]]:
    """What a caller module's names reach in a package (file name -> source):
    each name of a package module's top-level definition, its own or imported
    from that module (``from .m import f``, ``from dypo.m import f``), mapped
    to that module's file, and each name of a package module itself
    (``from . import m``, ``from dypo import m``) likewise."""
    defined = {node.name: file for node in tree.body
               if file in package and isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    modules = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level == 0 and not (
                node.module == "dypo" or node.module.startswith("dypo.")):
            continue
        base = (node.module or "") if node.level else node.module.partition(".")[2]
        for alias in node.names:
            if base:
                defined[alias.asname or alias.name] = f"{base}.py"
            elif f"{alias.name}.py" in package:
                modules[alias.asname or alias.name] = f"{alias.name}.py"
    return defined, modules


def _call_sets(call: ast.Call, defined: dict[str, str], modules: dict[str, str]
               ) -> tuple[str | None, str | None, int, set[str] | None]:
    """The name a call calls, the package module whose top-level definition
    it reaches (``""``: none; ``None``: a method call, which reaches every
    method of its name), how many positional arguments it passes, and the
    keywords it sets (``None``: any, through ``**kwargs``); a starred
    argument may fill every position.
    ``partial(f, ...)`` is a call of f that sets every parameter, as what it
    leaves open is set later."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "partial" and call.args:
        func, positional, keywords = call.args[0], sys.maxsize, None
    else:
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        positional = sys.maxsize if starred else len(call.args)
        keywords = {kw.arg for kw in call.keywords}
        keywords = None if None in keywords else keywords
    if isinstance(func, ast.Name):
        return func.id, defined.get(func.id, ""), positional, keywords
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name) and value.id in modules:
            return func.attr, modules[value.id], positional, keywords
        return func.attr, None, positional, keywords
    return None, "", positional, keywords


def unset_options(package: dict[str, str], callers: dict[str, str]) -> list[str]:
    """The defaulted parameters of the module-level functions and methods of
    a package's modules (file name -> source) that no call in ``callers``
    (file name -> source, a package module under its own name) sets by
    position, by keyword or through ``**kwargs``, as
    ``file:function(parameter)`` in source order. A call reaches a function
    or class only from its own module, through a name imported from that
    module, or as an attribute of that module (``_reachable``); a class's
    name calls its ``__init__``. A method is reached by any attribute call
    of its name on an object that is not a package module, and its
    positions start after ``self`` or ``cls``."""
    calls = []
    for file, text in callers.items():
        tree = ast.parse(text)
        defined, modules = _reachable(tree, file, package)
        calls += [_call_sets(node, defined, modules) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)]
    found = []
    for file, text in package.items():
        for top in ast.parse(text).body:
            if isinstance(top, ast.FunctionDef):
                defs = [(top.name, file, top.name, top, 0)]
            elif isinstance(top, ast.ClassDef):  # the package has no static methods
                defs = [(top.name if node.name == "__init__" else node.name,
                         file if node.name == "__init__" else None,
                         f"{top.name}.{node.name}", node, 1)
                        for node in top.body if isinstance(node, ast.FunctionDef)]
            else:
                continue
            for called, where, qualname, node, skip in defs:
                args = node.args
                positional = (args.posonlyargs + args.args)[skip:]
                first = len(positional) - len(args.defaults)
                options = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
                options += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                            if d is not None]
                found += [f"{file}:{qualname}({arg})" for arg, at in options
                          if not any(name == called and module == where
                                     and (keywords is None or arg in keywords
                                          or at is not None and at < count)
                                     for name, module, count, keywords in calls)]
    return found


def test_the_checker_finds_an_unset_option():
    package = {"a.py": ("def f(x, y=1, *, z=2): pass\ndef g(a=0, b=0): pass\n"
                        "def h(c=0): pass\ndef lone(d=0): pass\n"
                        "class K:\n    def __init__(self, n=0): pass\n"
                        "    def m(self, p=0, q=0): pass\n    def r(self, s=0): pass\n"),
               "b.py": "def twin(t=0): pass\ndef far(u=0): pass\ndef out(w=0): pass\n"}
    callers = {"a.py": package["a.py"] + ("f(1, z=3)\ng(0)\nhook = partial(h)\nK(5)\n"
                                          "k.m(**opts)\nk.r()\nlone\n"),
               # a same-named function of another module reaches neither
               "c.py": ("from dypo.a import K\nfrom dypo import b\nfrom .b import far\n"
                        "def twin(t=0): pass\ntwin(1)\nb.out(w=1)\nfar(2)\nK(1)\n"
                        "def lone(d=0): pass\nlone(3)\n")}
    assert unset_options(package, callers) == ["a.py:f(y)", "a.py:g(b)", "a.py:lone(d)",
                                                "a.py:K.r(s)", "b.py:twin(t)"]


# the one option only the tests set, and why it stays
TEST_ONLY_OPTIONS = {
    "trainer.py:train(resume_from)": "bit-exact resume is an acceptance contract (criterion 10)",
}


def test_every_option_is_set_by_the_package_or_the_bench():
    # an optional parameter that no command or bench sets is dead API: a test
    # that needs another value builds it from what the callers use
    package = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    callers = {**package, **{str(p.relative_to(ROOT)): p.read_text() for p in bench}}
    assert unset_options(package, callers) == list(TEST_ONLY_OPTIONS)


PER_GROUP = ("queries", "grade", "k")


def _iterated(node: ast.AST):
    """The nodes an iteration over ``node`` reads its items through: all of
    them but the items of a tuple, list or set display, taken one by one."""
    yield node
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for child in ast.iter_child_nodes(node):
            yield from _iterated(child)


def per_group_loops(sources: dict[str, str]) -> list[str]:
    """Each ``for`` loop and comprehension of a package's modules (file name
    -> source) that iterates through a batch's per-group attribute
    (``PER_GROUP``), as ``file:line``; a loop over the arrays themselves, a
    display of them, is not one. A name holds a batch in a function where
    it is ``self`` or ``cls`` of ``GroupBatch``, a parameter annotated
    ``GroupBatch``, bound to a call of a function or method annotated to
    return one, or bound by a loop over a parameter annotated with a
    sequence of them."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    makers = {node.name for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.returns is not None
              and ast.unparse(node.returns).strip("'\"") == "GroupBatch"}
    found = []
    for file, tree in trees.items():
        scopes = [(node, cls.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
        scopes += [(node, None) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for func, owner in scopes:
            args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            hints = {a.arg: ast.unparse(a.annotation) for a in args if a.annotation}
            batches = {"self", "cls"} if owner == "GroupBatch" else set()
            batches |= {name for name, hint in hints.items() if hint == "GroupBatch"}
            sequences = {name for name, hint in hints.items()
                         if hint != "GroupBatch" and "GroupBatch" in hint}
            loops = [node for node in ast.walk(func)
                     if isinstance(node, (ast.For, ast.comprehension))]
            for node in ast.walk(func):
                call = getattr(node, "value", None)
                if isinstance(node, ast.Assign) and isinstance(call, ast.Call) and getattr(
                        call.func, "id", getattr(call.func, "attr", None)) in makers:
                    batches |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            batches |= {loop.target.id for loop in loops if isinstance(loop.target, ast.Name)
                        and isinstance(loop.iter, ast.Name) and loop.iter.id in sequences}
            found += [f"{file}:{loop.iter.lineno}"
                      for loop in loops if any(
                          isinstance(sub, ast.Attribute) and sub.attr in PER_GROUP
                          and isinstance(sub.value, ast.Name) and sub.value.id in batches
                          for sub in _iterated(loop.iter))]
    return sorted(set(found), key=found.index)


def test_the_checker_finds_a_loop_over_a_batchs_groups():
    source = ("class GroupBatch:\n    def f(self):\n        return [q for q in self.queries]\n"
              "def make() -> 'GroupBatch': pass\n"
              "def g(batch: GroupBatch, pool, cfg):\n    for g in batch.grade.tolist(): pass\n"
              "    for q in pool.queries: pass\n    for a in (batch.queries, batch.k): pass\n"
              "    return [i for i in range(cfg.k)]\n"
              "def h(batches: Sequence[GroupBatch]):\n    other = make()\n"
              "    for k in zip(other.k, other.count): pass\n"
              "    return [q for b in batches for q in b.queries], other.grade == 0\n")
    assert per_group_loops({"a.py": source}) == ["a.py:3", "a.py:6", "a.py:12", "a.py:13"]


def test_no_module_loops_over_a_batchs_groups():
    # a batch's per-group facts are arrays, read by array operations: no
    # function walks its groups in Python (sft_pass walks the queries it is
    # given, to draw one teacher each)
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert per_group_loops(sources) == []


def test_importing_the_package_loads_no_scipy():
    # scipy is the tests' oracle only: importing it would double the start-up
    # time and add ~19 MiB to every run
    code = ("import sys\nimport dypo, dypo.cli, dypo.gradcheck, dypo.instrumentation\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_the_trainer_routes_only_through_the_gate():
    # the pathways are picked and run, and the step's gradient reduced, by
    # objectives.route_groups alone
    tree = ast.parse((SRC / "trainer.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "route_groups" in imported
    assert imported.isdisjoint({"sft_pass", "grpo_pass", "mixed_pass", "pair_arrays",
                                "sum_blocks"})


def test_only_the_certifier_samples_one_trajectory_at_a_time():
    # the lab samples through sample_lockstep; the scalar sampler is the
    # certifier's failure draw alone
    importers = sorted(
        p.name for p in SRC.glob("*.py")
        if any(alias.name == "sample_trajectory" for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.ImportFrom) for alias in node.names))
    assert importers == ["gradcheck.py"]


def test_only_the_certifier_checks_pairs_made_by_hand():
    # pair_arrays' pairs are right as drawn: the training step and the benches
    # pass them on unchecked, and only the certifier's hand-made pairs go
    # through BatchPairs.of
    callers = sorted(
        p.name for p in SRC.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "of"
               and isinstance(node.value, ast.Name) and node.value.id == "BatchPairs"
               for node in ast.walk(ast.parse(p.read_text()))))
    assert callers == ["gradcheck.py"]


def test_only_the_policy_lays_out_gradient_keys():
    # a key is owner * span + row: KeyIndex encodes it and KeyedBlocks
    # decodes it, so no other module calls divmod or reads a span
    readers = sorted(
        p.name for p in SRC.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr in ("divmod", "span")
               or isinstance(node, ast.Name) and node.id == "divmod"
               for node in ast.walk(ast.parse(p.read_text()))))
    assert readers == ["policy.py"]


def span_scalers(source: str) -> list[str]:
    """The dotted name of the function or method around each product with a
    span (a name or an attribute ``span``), in source order."""
    found: list[str] = []

    def visit(node: ast.AST, where: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, where + (child.name,))
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult) and any(
                    isinstance(side, ast.Name) and side.id == "span"
                    or isinstance(side, ast.Attribute) and side.attr == "span"
                    for side in (child.left, child.right)):
                found.append(".".join(where))
            visit(child, where)

    visit(ast.parse(source), ())
    return found


def test_the_checker_finds_a_span_scaler():
    source = ("class K:\n    def __init__(self, o, r):\n        self.k = o * self.span + r\n"
              "def f(o, span):\n    return [i * span for i in o], o + span\n")
    assert span_scalers(source) == ["K.__init__", "f"]


def test_only_the_key_index_encodes_a_key():
    # KeyIndex encodes a key and KeyedBlocks.owner_rows decodes it, so no
    # other code of the policy module numbers owners on by a span
    assert span_scalers((SRC / "policy.py").read_text()) == ["KeyIndex.__init__"]


def private_reads(source: str) -> list[str]:
    """Each private attribute (one underscore, not a dunder) a module reads
    off anything but ``self`` or ``cls``, other than NamedTuple's
    ``_replace``, as ``line: expression`` in source order."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.endswith("__") and node.attr != "_replace"
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]


def test_the_checker_finds_a_private_read():
    source = ("class A:\n    def f(self, b):\n        self._x = b._y\n"
              "        return type(b).__name__, b._replace(z=1), A._z, super().__init__()\n")
    assert private_reads(source) == ["3: b._y", "4: A._z"]


def test_only_the_policy_reads_another_objects_private_attributes():
    # the table's arrays and their lazy growth are the policy module's: a pass
    # reads the table through the policy's functions, which fit it themselves
    reads = {p.name: private_reads(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "policy.py"}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_certifier_names_each_loss_once():
    # everything certifying a loss takes sits in its one record in CHECKS, so
    # no second table keyed by the loss names grows beside it
    names = [node.value for node in ast.walk(ast.parse((SRC / "gradcheck.py").read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    losses = ("sft_loss_grad", "grpo_loss_grad", "gal_loss_grad", "dypo_step_loss")
    assert {loss: names.count(loss) for loss in losses} == dict.fromkeys(losses, 1)


def test_the_readme_config_block_is_the_default_config():
    section = (ROOT / "README.md").read_text().split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert train_config_from_dict(json.loads(block)) == TrainConfig()
