"""Public-API surface tests: everything exported exists, and every
public item is documented (the documentation deliverable, enforced)."""

import importlib
import inspect
import pathlib
import pkgutil


import repro


def all_repro_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(importlib.import_module(info.name))
    return modules


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_subpackage_alls_resolve(self):
        for module in all_repro_modules():
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), (
                    f"{module.__name__}.__all__ lists missing {name!r}"
                )

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        for module in all_repro_modules():
            assert module.__doc__ and module.__doc__.strip(), (
                f"module {module.__name__} lacks a docstring"
            )

    def test_every_public_item_is_documented(self):
        undocumented = []
        for module in all_repro_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue  # constants/aliases document themselves in the module
                doc = inspect.getdoc(obj)
                if not doc or len(doc.strip()) < 10:
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_methods_are_documented(self):
        """Every public method of every public class carries a docstring."""
        undocumented = []
        seen = set()
        for module in all_repro_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if not inspect.isclass(obj) or obj in seen:
                    continue
                seen.add(obj)
                import dataclasses

                field_names = (
                    set(obj.__dataclass_fields__)
                    if dataclasses.is_dataclass(obj)
                    else set()
                )
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_") or attr_name in field_names:
                        continue
                    if not (inspect.isfunction(attr) or isinstance(
                        attr, (property, classmethod, staticmethod)
                    )):
                        continue
                    target = attr
                    if isinstance(attr, (classmethod, staticmethod)):
                        target = attr.__func__
                    elif isinstance(attr, property):
                        target = attr.fget
                    doc = inspect.getdoc(target)
                    if not doc:
                        undocumented.append(f"{obj.__module__}.{obj.__name__}.{attr_name}")
        assert not undocumented, f"undocumented methods: {undocumented}"


class TestOneOpener:
    """The seam PR 14 shut: nothing above ``repro/store`` names either
    class of a plain/sharded pair or carries a "sharded?" bit — the
    directory says which kind it is (``repro.store.is_sharded``) and
    the openers pick the class."""

    KIND_CLASSES = {
        "DirectoryStore", "ShardedStore", "StoreReader", "CompositeReader",
        "FrameSource", "ShardedFrameSource", "ReplicaApplier",
        "ShardedReplicaApplier", "promote_shards",
    }
    #: function -> what it may still name: ``create --shard NAME=BASE``
    #: is where the operator *chooses* the kind, and ``main`` checks the
    #: vestigial ``--shards`` expectation against the directory.
    EXCEPTIONS = {
        ("cli.py", "_cmd_create"): {"DirectoryStore", "ShardedStore"},
        ("cli.py", "main"): {"shards"},
    }

    def _offences(self, path):
        import ast

        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = []

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and function is None:
                function = node.name
            named = set()
            if isinstance(node, ast.ImportFrom):
                named = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                named = {node.id}
            elif isinstance(node, ast.Attribute):
                named = {node.attr}
            elif isinstance(node, ast.Constant) and node.value == "shards":
                named = {"shards"}  # getattr(x, "shards")
            allowed = self.EXCEPTIONS.get((path.name, function), set())
            for name in named & (self.KIND_CLASSES | {"shards"}) - allowed:
                found.append(f"{path.name}:{node.lineno} {function}: {name}")
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
        return found

    def test_nothing_above_the_store_names_a_kind(self):
        import pathlib

        package = pathlib.Path(repro.__file__).parent
        offences = []
        for path in [*sorted((package / "server").glob("*.py")),
                     package / "cli.py"]:
            offences.extend(self._offences(path))
        assert not offences, offences

    def test_the_server_takes_no_kind_selector(self):
        from repro.server import DirectoryServer

        assert "shards" not in inspect.signature(DirectoryServer).parameters


class TestOneCheckingPath:
    """The seam PR 17 shut: ``CheckSession.check`` is the only function
    in ``src/repro`` that composes content → structure → extras into a
    full verdict, and nothing selects a route to it."""

    @staticmethod
    def _modules():
        import ast
        import pathlib

        package = pathlib.Path(repro.__file__).parent
        for path in sorted(package.rglob("*.py")):
            yield (
                path.relative_to(package).as_posix(),
                ast.parse(path.read_text(encoding="utf-8")),
            )

    def _takers(self, *params):
        """``[(module, owner, function), ...]`` for every function in
        ``src/repro`` with a parameter named one of ``params``."""
        import ast

        takers = []
        for module, tree in self._modules():
            for owner in ast.walk(tree):
                for node in ast.iter_child_nodes(owner):
                    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    args = node.args
                    names = {
                        a.arg
                        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg]
                        if a is not None
                    }
                    if names & set(params):
                        takers.append(
                            (module, getattr(owner, "name", None), node.name)
                        )
        return takers

    def test_no_function_takes_a_structure_selector(self):
        # the one survivor is an expectation ("batched" or ValueError),
        # pinned by benchmarks/e2e/layers.py
        assert self._takers("structure") == [
            ("legality/checker.py", "LegalityChecker", "__init__")
        ]

    def test_no_function_takes_a_pool_size(self):
        """The engine has one path, sequential: nothing
        sizes a worker pool, from the CLI down to the session."""
        from repro.legality import engine

        assert self._takers("parallelism", "jobs") == []
        assert not hasattr(engine, "MIN_PARALLEL")

    def test_the_legality_engine_imports_no_worker_pool(self):
        import ast

        importers = []
        for module, tree in self._modules():
            if not module.startswith("legality/"):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "concurrent" for name in names):
                    importers.append(module)
        assert importers == []

    def test_the_naive_oracle_is_named_only_where_it_lives(self):
        import ast

        named_in = set()
        for module, tree in self._modules():
            for node in ast.walk(tree):
                names = set()
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, (ast.Name, ast.ClassDef)):
                    names = {getattr(node, "id", None) or getattr(node, "name", None)}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                if "NaiveStructureChecker" in names:
                    named_in.add(module)
        assert named_in == {
            "legality/structure.py", "legality/__init__.py", "__init__.py"
        }

    def _call_sites(self, *callees):
        """``[(module, callee), ...]`` for every call of one of
        ``callees`` (by bare name or attribute) in ``src/repro``."""
        import ast

        sites = []
        for module, tree in self._modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", None) or getattr(
                        node.func, "attr", None
                    )
                    if callee in callees:
                        sites.append((module, callee))
        return sites

    def test_only_the_session_and_the_composite_pass_build_checkers(self):
        """A sharded store's verdict is composed once
        (``sharded._cohort_report`` over a member list): the extras
        pass and the cut-spanning-edge pass are each built at exactly
        one site there, not once per check surface."""
        sites = self._call_sites("ExtrasChecker", "QueryStructureChecker")
        assert {module for module, _ in sites} == {
            "legality/engine.py", "store/sharded.py"
        }
        in_sharded = sorted(c for module, c in sites if module == "store/sharded.py")
        assert in_sharded == ["ExtrasChecker", "QueryStructureChecker"]

    def test_the_extras_delta_check_has_one_caller(self):
        """Plain and sharded stores share one Δ probe
        (``index.ExtrasDeltaProbe``) — the plain store is its one-member
        case — so the Section 6.1 delta check is called from one site."""
        assert self._call_sites("delta_extras_violations") == [
            ("store/index.py", "delta_extras_violations")
        ]


class TestOneWireService:
    """The seam PR 19 shut: server and front door run one connection
    loop (``server/service.py``), requests are checked against one
    table (``server/protocol.py``), and ``host:port`` has one parser."""

    _modules = staticmethod(TestOneCheckingPath._modules)

    def _functions_calling(self, callee, *, attribute=False):
        """``module:function`` for every function in ``src/repro`` whose
        body calls ``callee`` (a bare name, or any ``x.callee(...)``)."""
        import ast

        found = []
        for module, tree in self._modules():
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and callee == (
                        getattr(call.func, "attr", None) if attribute
                        else getattr(call.func, "id", None)
                    ):
                        found.append(f"{module}:{node.name}")
                        break
        return found

    def test_one_function_reads_request_frames(self):
        readers = [
            site for site in self._functions_calling("read_frame")
            if site.startswith("server/") and not site.startswith("server/client.py")
        ]
        assert readers == ["server/service.py:_handle_connection"]

    def test_one_address_parser(self):
        """No second ``host:port`` split, and no second digits-only port
        test, anywhere in ``src/repro``."""
        for method in ("rpartition", "isdigit"):
            assert self._functions_calling(method, attribute=True) \
                == ["server/protocol.py:parse_address"], method

    def test_session_error_codes_are_said_in_one_place(self):
        """One preamble, one place that enforces the table: the issue
        allowed nine ``"bad_request"`` literals (the table's site, seven
        semantic refusals, a spare); the refusals raise ``BadRequest``
        too, so each code is spelled once, in the shared loop."""
        import ast

        for code in ("bad_request", "not_bound", "unknown_op", "internal_error"):
            sites = [
                module
                for module, tree in self._modules() if module.startswith("server/")
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == code
            ]
            assert sites == ["server/service.py"], (code, sites)

    def test_table_op_tables_and_docstring_agree(self):
        import re

        from repro.server import DirectoryServer, FrontDoor, protocol

        operations = protocol.__doc__.split("Operations\n----------\n", 1)[1]
        documented = {
            op
            for line in operations.splitlines()
            if re.fullmatch(r"``\w+``( / ``\w+``)*", line)
            for op in re.findall(r"\w+", line)
        }
        served = set(DirectoryServer.OPS) | set(FrontDoor.OPS)
        assert set(protocol.REQUESTS) == served == documented
        # and every handler an op table names exists
        for member in (DirectoryServer, FrontDoor):
            for handler, _ in member.OPS.values():
                assert inspect.iscoroutinefunction(getattr(member, handler))


class TestOneBenchmark:
    """The seam PR 20 shut: wall-clock claims about the serving stack
    live in ``BENCHMARK.json`` (``benchmarks/e2e``), work-unit claims in
    tier-1 tests.  What is left under ``benchmarks/`` is the paper's
    FIG/THM/SEC reproduction, and only its structure engine bench still
    reads a scale knob."""

    REPO = pathlib.Path(__file__).resolve().parent.parent
    KNOBS = {
        "bench_structure.py": "BENCH_STRUCTURE_SCALE",
    }

    def test_the_bench_lane_reads_only_the_two_engine_knobs(self):
        import ast

        read = {}
        for path in sorted((self.REPO / "benchmarks").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            accesses = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
            ]
            if accesses:
                knobs = sorted(
                    node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and node.value.startswith("BENCH_")
                )
                read[path.name] = (len(accesses), knobs)
        assert read == {name: (1, [knob]) for name, knob in self.KNOBS.items()}

    def test_ci_names_no_deleted_file(self):
        import re

        workflow = (self.REPO / ".github/workflows/ci.yml").read_text(encoding="utf-8")
        named = set(re.findall(r"\b(?:tests|benchmarks)/[\w/]+\.py\b", workflow))
        assert named and not [name for name in named if not (self.REPO / name).exists()]
        assert set(re.findall(r"\bBENCH_\w+_SCALE\b", workflow)) == set(self.KNOBS.values())
