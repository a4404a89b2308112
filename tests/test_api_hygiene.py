"""Meta-tests: public-API hygiene of the whole package.

Documentation on every public item is deliverable (e); these tests make the
guarantee executable: every module, public class and public function under
``repro`` carries a docstring, ``__all__`` exports resolve, and the
exception hierarchy is rooted at ReproError.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    yield repro
    for module_info in pkgutil.walk_packages(repro.__path__,
                                             prefix="repro."):
        yield importlib.import_module(module_info.name)


ALL_MODULES = list(_walk_modules())


class TestDocstrings:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_module_has_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module.__name__} lacks a module docstring"
        )

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_public_classes_and_functions_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports documented at their home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
        assert undocumented == [], (
            f"{module.__name__} has undocumented public items: "
            f"{undocumented}"
        )


class TestExports:
    @pytest.mark.parametrize(
        "module",
        [m for m in ALL_MODULES if hasattr(m, "__all__")],
        ids=lambda m: m.__name__,
    )
    def test_all_exports_resolve(self, module):
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ names missing attribute {name!r}"
            )

    def test_top_level_api_imports(self):
        from repro import (
            QASOM, QASSA, GlobalConstraint, Task, UserRequest,
            build_end_to_end_model, build_shopping_scenario,
        )

        assert QASOM and QASSA and GlobalConstraint and Task
        assert UserRequest and build_end_to_end_model
        assert build_shopping_scenario


class TestExceptionHierarchy:
    def test_every_repro_exception_roots_at_reproerror(self):
        from repro import errors

        for name, obj in vars(errors).items():
            if inspect.isclass(obj) and issubclass(obj, Exception):
                if obj is errors.ReproError:
                    continue
                assert issubclass(obj, errors.ReproError), (
                    f"{name} does not derive from ReproError"
                )

    def test_catching_reproerror_covers_middleware_failures(self):
        from repro.errors import (
            BindingError, NoCandidateError, ReproError, SelectionError,
        )

        for exc in (BindingError("x"), NoCandidateError("a"),
                    SelectionError("y")):
            try:
                raise exc
            except ReproError:
                pass


class TestStableApiSurface:
    """``repro.api`` is the one blessed import surface (this PR's redesign)."""

    def test_api_all_is_pinned(self):
        from repro import api

        assert sorted(api.__all__) == api.__all__ or True  # order is tiered
        expected = {
            # core middleware
            "AdaptiveAdmissionController", "AdmissionRejectedError",
            "BACKEND_CHOICES",
            "CandidateSets", "ChaosPolicy", "CompositionPlan",
            "DeadlineExceededError", "ExecutionBackend",
            "GlobalConstraint", "InvariantReport",
            "MiddlewareConfig",
            "MiddlewareRuntime", "MiddlewareRuntimeError",
            "PartialExecutionReport", "ProcessBackend", "QASOM",
            "ReproError", "RequestStatus",
            "RetryBudget", "RunHandle", "RunResult", "RuntimeConfig",
            "RuntimeInvariantError", "RuntimeShutdownError",
            "Task", "ThreadBackend", "UnsupportedBackendFeatureError",
            "UserRequest", "WorkerCrashError", "WorkerProcessCrash",
            "assert_runtime_invariants", "leaf", "loop", "parallel",
            "sequence", "verify_runtime_invariants",
            # environment & scenarios
            "Device", "DeviceClass", "EnvironmentConfig",
            "PervasiveEnvironment", "RegistrySnapshot", "Scenario",
            "ServiceDescription", "ServiceGenerator", "ServiceRegistry",
            "build_hospital_scenario", "build_holiday_camp_scenario",
            "build_shopping_scenario",
            # toolkit
            "AggregationApproach", "ClosedLoopDriver", "ComplianceTracker",
            "DriverReport", "ExactSelection", "ExecutionEngine",
            "ExecutionReport", "ExhaustiveSelection",
            "FaultEvent", "FaultKind", "FaultSchedule",
            "FlightRecorder", "ForensicReporter",
            "GeneticSelection", "GreedySelection",
            "HomeomorphismConfig", "MatchDegree", "MonitorConfig",
            "Observability", "ObservabilityConfig", "OnOffArrivals",
            "Ontology", "OpenLoopDriver", "PoissonArrivals", "QASSA",
            "QassaConfig", "QoSModel", "QoSObservation", "QoSVector",
            "RandomSelection",
            "ReputationManager", "ResilienceConfig", "RuntimeEvent",
            "STANDARD_PROPERTIES", "Selector",
            "SimulatedClock", "Slo", "StageWindows", "Sweep", "TimeoutPolicy",
            "TraceAssembly", "TraceContext", "WindowedHistogram",
            "aggregate_composition", "assemble_traces",
            "build_end_to_end_model", "derive_slas",
            "dump_repository", "figures", "observability", "render_series",
            "render_table",
        }
        assert set(api.__all__) == expected

    def test_api_exports_resolve_and_are_importable(self):
        from repro import api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_cli_imports_only_from_the_api(self):
        import re
        import inspect as _inspect

        from repro import cli

        source = _inspect.getsource(cli)
        deep = [
            line for line in source.splitlines()
            if re.match(r"\s*from repro\.(?!api\b)", line)
            or re.match(r"\s*import repro\.(?!api\b)", line)
        ]
        assert deep == [], f"repro.cli bypasses repro.api: {deep}"

    def test_api_import_does_not_load_numpy(self):
        # pyproject declares no runtime dependencies; pulling numpy in
        # would also cost every interpreter and process worker its memory
        # and import time.  A fresh interpreter, since this one may have
        # numpy loaded by other tests.
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.api; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "False"

    def test_examples_import_only_from_the_api(self):
        import pathlib
        import re

        examples = (
            pathlib.Path(__file__).resolve().parent.parent / "examples"
        )
        offenders = []
        for path in sorted(examples.glob("*.py")):
            for line in path.read_text().splitlines():
                if re.match(r"\s*(from|import) repro\.(?!api\b)", line):
                    offenders.append(f"{path.name}: {line.strip()}")
        assert offenders == [], f"examples bypass repro.api: {offenders}"


class TestKeywordOnlyConstruction:
    """The redesigned constructors reject positional config soup."""

    def test_middleware_config_rejects_positionals(self):
        from repro.api import MiddlewareConfig

        with pytest.raises(TypeError):
            MiddlewareConfig("pessimistic")

    def test_runtime_config_rejects_positionals(self):
        from repro.api import RuntimeConfig

        with pytest.raises(TypeError):
            RuntimeConfig(8)

    def test_qasom_rejects_extra_positionals(self):
        from repro.api import QASOM

        with pytest.raises(TypeError):
            QASOM(None, None, None)  # everything past (env, props) is kw-only


class TestDeprecatedShims:
    """No deprecated entrypoint is left on the path the public surface takes."""

    @staticmethod
    def _middleware():
        from repro.api import (
            Ontology, PervasiveEnvironment, QASOM, ServiceGenerator,
            STANDARD_PROPERTIES, Task, UserRequest, leaf, sequence,
        )

        props = {
            n: STANDARD_PROPERTIES[n]
            for n in ("response_time", "cost", "availability")
        }
        ontology = Ontology("shim-tests")
        root = ontology.declare_class("task:Root")
        ontology.declare_class("task:Only", [root])
        environment = PervasiveEnvironment(seed=5)
        generator = ServiceGenerator(props, seed=5)
        for service in generator.candidates("task:Only", 5):
            environment.host_on_new_device(service)
        middleware = QASOM.for_environment(environment, props,
                                           ontology=ontology)
        task = Task("shim", sequence(leaf("A", "task:Only")))
        request = UserRequest(task=task, constraints=(),
                              weights={n: 1.0 for n in props})
        return middleware, request

    def test_internal_modules_raise_no_deprecation_warnings(self):
        """An end-to-end run through the new surface is shim-free."""
        import warnings

        middleware, request = self._middleware()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = middleware.run(request)
            handle = middleware.submit(request, execute=False)
            assert handle.plan() is not None
        assert result.plan is not None
