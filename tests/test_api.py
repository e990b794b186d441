"""Public-API surface tests: exports, error hierarchy, package metadata."""

import importlib

import pytest

import repro
from repro.errors import (
    AdmissionError,
    DeadlineExpiredError,
    EvaluationError,
    GraphError,
    GraphFormatError,
    ProtocolError,
    ReproError,
    RPQSyntaxError,
    ServerError,
    StorageError,
    UnknownEngineError,
    UnknownLabelError,
    VertexNotFoundError,
    WorkloadError,
)

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.regex",
    "repro.rpq",
    "repro.core",
    "repro.db",
    "repro.relalg",
    "repro.datasets",
    "repro.workloads",
    "repro.server",
    "repro.cluster",
    "repro.storage",
    "repro.obs",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__")
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name}"

    def test_version(self):
        assert repro.__version__ == "1.16.0"

    def test_top_level_quickstart_names(self):
        for name in (
            "GraphDB",
            "PreparedQuery",
            "ResultSet",
            "register_engine",
            "available_engines",
            "create_engine",
            "LabeledMultigraph",
            "DiGraph",
            "RTCSharingEngine",
            "FullSharingEngine",
            "NoSharingEngine",
            "eval_rpq",
            "parse",
            "compute_rtc",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_main_module_importable(self):
        import repro.__main__  # noqa: F401  (must not execute main)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_class",
        [
            GraphError,
            GraphFormatError,
            VertexNotFoundError,
            RPQSyntaxError,
            EvaluationError,
            UnknownEngineError,
            UnknownLabelError,
            WorkloadError,
            ServerError,
            AdmissionError,
            DeadlineExpiredError,
            ProtocolError,
            StorageError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_class):
        assert issubclass(error_class, ReproError)

    def test_server_errors_carry_wire_codes(self):
        assert AdmissionError().code == "rejected"
        assert DeadlineExpiredError("late").code == "deadline"
        assert ProtocolError("bad").code == "bad_request"
        assert issubclass(AdmissionError, ServerError)
        assert AdmissionError(queue_depth=7).queue_depth == 7
        assert "7" in str(AdmissionError(queue_depth=7))

    def test_unknown_engine_is_also_value_error(self):
        error = UnknownEngineError("warp", ("no", "rtc"))
        assert isinstance(error, ValueError)
        assert error.name == "warp"
        assert error.available == ("no", "rtc")
        assert "warp" in str(error) and "rtc" in str(error)

    def test_unknown_label_carries_label(self):
        error = UnknownLabelError("zz")
        assert error.label == "zz"
        assert "zz" in str(error)

    def test_vertex_not_found_carries_vertex(self):
        error = VertexNotFoundError(42)
        assert error.vertex == 42

    def test_syntax_error_position_formatting(self):
        with_position = RPQSyntaxError("bad", position=3)
        assert "position 3" in str(with_position)
        assert with_position.position == 3
        without = RPQSyntaxError("bad")
        assert without.position is None

    def test_specific_errors_catchable_as_base(self, fig1):
        from repro.rpq.evaluate import eval_rpq

        with pytest.raises(ReproError):
            eval_rpq(fig1, "zz", strict_labels=True)


class TestDocstrings:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_every_module_documented(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__, package_name

    def test_engines_documented(self):
        from repro.core.engines import (
            FullSharingEngine,
            NoSharingEngine,
            RTCSharingEngine,
        )

        for engine_class in (NoSharingEngine, FullSharingEngine, RTCSharingEngine):
            assert engine_class.__doc__
            assert engine_class.evaluate.__doc__
