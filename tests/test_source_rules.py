"""Rules the package sources keep, checked on their syntax trees."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import altkit
import altkit.cli

SOURCES = sorted(Path(altkit.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "span_solver.py"}


def test_no_assert_statements():
    # python -O strips assert, so a check that rests on one vanishes;
    # checks raise an AltkitError subclass instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_all_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks
    # "from altkit.<module> import *" only when someone runs it
    stale = []
    for path in SOURCES:
        name = "altkit" if path.stem == "__init__" else f"altkit.{path.stem}"
        module = importlib.import_module(name)
        stale += [
            f"{name}.{export}"
            for export in getattr(module, "__all__", ())
            if not hasattr(module, export)
        ]
    assert stale == []


def test_input_bounds_are_documented():
    # every module-level MAX_* constant bounds some input, and README.md
    # names each one, so no bound exists that a user cannot look up
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    bounds = [
        f"{path.name}:{target.id}"
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    ]
    assert "gen_etale.py:MAX_PROBE_WORK" in bounds
    missing = [
        b for b in bounds if not re.search(rf"\b{b.split(':')[1]}\b", readme)
    ]
    assert missing == []


def test_perfbench_trace_targets_resolve():
    # the benchmark's tracer skips a target it cannot find and the layer
    # just goes absent, so a rename in altkit would pass unnoticed there;
    # every target must be a callable in vars() of its owner
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = []
    for _, modname, attr_path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"altkit.{modname}")
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or not callable(vars(owner).get(attr)):
            unresolved.append(f"{modname}.{attr_path}")
    assert len(tracer.TARGETS) >= 27
    assert unresolved == []


def test_every_export_is_documented_or_called():
    # a name that only the tests call is a test helper shipped in the
    # package; each module's __all__ name is named in README.md or used
    # in the sources (the package's own re-exports do not count)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    used = set()
    exports = []
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        module = importlib.import_module(f"altkit.{path.stem}")
        exports += [(path.name, name) for name in getattr(module, "__all__", ())]
    unused = [
        f"{file}:{name}"
        for file, name in exports
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def _defined_functions(node, prefix=""):
    # qualified names of every function and method under node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _defined_functions(child, f"{prefix}{child.name}.")


def test_every_function_is_named_in_the_sources_or_exported():
    # a routine that only the tests call is a test helper shipped in the
    # package; every function or method defined in the sources is named
    # elsewhere in them, or exported through an __all__.  Dunder methods
    # run through Python's own protocols, and _Parser.error overrides the
    # hook argparse calls
    named, defined = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        defined += [(path.name, name) for name in _defined_functions(tree)]
        module = "altkit" if path.stem == "__init__" else f"altkit.{path.stem}"
        named.update(getattr(importlib.import_module(module), "__all__", ()))
    unused = []
    for file, name in defined:
        short = name.rpartition(".")[2]
        if short not in named and not (short.startswith("__") and short.endswith("__")):
            unused.append(f"{file}:{name}")
    assert unused == ["cli.py:_Parser.error"]


def test_readme_python_blocks_run(capsys):
    # every python example in README.md runs as written, so a retired
    # name cannot linger in the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_no_unused_imports():
    # no linter runs on the sources, so an import left behind when its
    # last caller is deleted would stay; each module-level import must be
    # used in its module or re-exported through __all__
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and name not in exported:
                        unused.append(f"{path.name}:{node.lineno}:{name}")
    assert unused == []


def test_plain_int_scalars_stay_in_the_kernel():
    # a GF(p) value is a plain int in 0..p-1 everywhere, so no source
    # names the element class that once wrapped it, and the kernel has
    # one division and one multiply
    named = [
        f"{path.name}:{i}"
        for path in SOURCES
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "FpElem" in line
    ]
    assert named == []
    defined = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("dict_divide_exact", "terms_mul")
    ]
    assert sorted(defined) == [
        "ring_core.py:dict_divide_exact",
        "ring_core.py:terms_mul",
    ]


def test_one_report_renderer():
    # reports render through cli.render_report alone, so no source calls
    # json.dumps with an indent: a second renderer could drift from it
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert found == []


def test_no_error_type_outlives_its_last_raise():
    # an error type that nothing raises any more is a name callers may
    # still catch for nothing; delete it with its last raise
    import altkit.errors

    defined = {
        name
        for name, cls in vars(altkit.errors).items()
        if isinstance(cls, type)
        and issubclass(cls, altkit.errors.AltkitError)
        and cls is not altkit.errors.AltkitError
    }
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert len(defined) >= 20
    assert sorted(defined - raised) == []


# parameters that take a handful of values, so a table keyed by them alone
# stays small with no bound: arity, slot width, a pattern of equal slots
# (one bool per adjacent pair) and the bool fix_last
SHAPE_PARAMETERS = {"n", "width", "pattern", "fix_last"}


def _cache_bound(decorator):
    # (is a functools cache, its maxsize) for one decorator node, with
    # None for unbounded; a maxsize that is not a literal counts as None
    call = decorator if isinstance(decorator, ast.Call) else None
    func = call.func if call else decorator
    name = getattr(func, "attr", getattr(func, "id", None))
    if name not in ("cache", "lru_cache"):
        return False, None
    if name == "cache":
        return True, None
    if call is None:
        return True, 128
    given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    if not given:
        return True, 128
    return True, given[0].value if isinstance(given[0], ast.Constant) else None


def test_caches_are_bounded_or_keyed_by_shape():
    # a cache keyed by data grows with every input it meets, so it needs a
    # finite maxsize and a comment just above it that states how large an
    # entry can get; an unbounded one may only take shape parameters
    bad = []
    for path in SOURCES:
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for decorator in node.decorator_list:
                is_cache, maxsize = _cache_bound(decorator)
                if not is_cache:
                    continue
                where = f"{path.name}:{node.name}"
                params = {a.arg for a in node.args.args}
                if maxsize is None:
                    if not params <= SHAPE_PARAMETERS:
                        bad.append(f"{where} unbounded on {sorted(params)}")
                elif not isinstance(maxsize, int) or maxsize <= 0:
                    bad.append(f"{where} maxsize {maxsize!r}")
                elif not lines[decorator.lineno - 2].lstrip().startswith("#"):
                    bad.append(f"{where} has no comment on its entry size")
    assert bad == []
    tables = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(_cache_bound(d)[0] for d in node.decorator_list)
    }
    assert tables >= {
        "_signed_reindex",
        "_arrangements",
        "_adjacent_swaps",
        "all_signed_permutations",
        "_product_orbits",
        "_symmetric_pairs",
        "_head_keys",
        "GF",
        "_anchor",
        "_coordinate_row",
    }


def test_bounded_tables_are_listed_in_readme():
    # every cache with a finite maxsize holds data-keyed entries, so
    # README's table list names it as `module.name` (N entries) with its
    # maxsize, as it names every MAX_* input bound
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    bounded = [
        f"`{path.stem}.{node.name}` ({maxsize} entries)"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        for is_cache, maxsize in map(_cache_bound, node.decorator_list)
        if is_cache and maxsize is not None
    ]
    assert "`alternator._symmetric_pairs` (32768 entries)" in bounded
    assert len(bounded) >= 5
    missing = [b for b in bounded if b not in " ".join(readme.split())]
    assert missing == []


def _open_calls(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == "open"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "open"
        )
    ]


def test_files_open_only_in_the_cli_reader_and_writer():
    # cli._read_text turns a file that cannot be read or decoded into a
    # ParseError, and cli._emit an --out that cannot be written into a
    # ConfigInvalid; an open() anywhere else would end in a traceback
    allowed, found = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update((path.name, c.lineno, c.col_offset) for c in _open_calls(tree))
        if path.name == "cli.py":
            allowed.update(
                ("cli.py", c.lineno, c.col_offset)
                for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name in ("_read_text", "_emit")
                for c in _open_calls(node)
            )
    assert len(allowed) == 2
    assert sorted(found - allowed) == []


def test_argument_parsers_come_from_the_cli_parser_class():
    # argparse prints its usage and exits on a bad argument; cli._Parser
    # raises ConfigInvalid instead, and add_subparsers builds each
    # subcommand from the parser's own class.  So every mention of
    # ArgumentParser in the sources is the base of that one class, and no
    # parser_class is passed, as a new parser could otherwise bring the
    # usage dump back
    bases, found = {}, set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases.update(
                    ((path.name, b.lineno, b.col_offset), node.name) for b in node.bases
                )
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "ArgumentParser"
                or isinstance(node, ast.Name)
                and node.id == "ArgumentParser"
                or isinstance(node, ast.alias)
                and node.name == "ArgumentParser"
                or isinstance(node, ast.keyword)
                and node.arg == "parser_class"
            ):
                found.add((path.name, node.lineno, node.col_offset))
    assert sorted((k[0], bases[k]) for k in found if k in bases) == [
        ("cli.py", "_Parser")
    ]
    assert sorted(k for k in found if k not in bases) == []
    with pytest.raises(altkit.cli.ConfigInvalid, match="^bad$"):
        altkit.cli._Parser().error("bad")
