"""Unit tests for the DSP-aware static-analysis pass (tools/galiot_lint).

Every rule gets at least one positive fixture (must flag) and one
negative fixture (must stay silent); the engine-level behaviours
(noqa, select/ignore, rendering, syntax errors) and the CLI exit codes
are covered too. The final test is the repo gate itself: ``src/`` must
stay clean.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from galiot_lint.cli import main as lint_main  # noqa: E402
from galiot_lint.engine import (  # noqa: E402
    Finding,
    lint_paths,
    lint_source,
    select_rules,
)
from galiot_lint.rules import ALL_RULES, rules_by_code  # noqa: E402


def findings_for(source: str, path: str = "src/repro/stage.py") -> list[Finding]:
    return lint_source(textwrap.dedent(source), path)


def codes_for(source: str, path: str = "src/repro/stage.py") -> list[str]:
    return [f.code for f in findings_for(source, path)]


class TestGL001IqBoundaryGuard:
    def test_flags_unguarded_iq_boundary(self):
        src = """
        def detect(samples: object) -> int:
            return len(samples)
        """
        assert "GL001" in codes_for(src)

    def test_contract_decorator_satisfies(self):
        src = """
        @iq_contract("samples")
        def detect(samples: object) -> int:
            return len(samples)
        """
        assert "GL001" not in codes_for(src)

    def test_ensure_iq_call_satisfies(self):
        src = """
        def detect(samples: object) -> int:
            samples = ensure_iq(samples)
            return len(samples)
        """
        assert "GL001" not in codes_for(src)

    def test_asarray_with_dtype_satisfies(self):
        src = """
        import numpy as np

        def demodulate(iq: object) -> object:
            iq = np.asarray(iq, dtype=np.complex128)
            return iq
        """
        assert "GL001" not in codes_for(src)

    def test_asarray_without_dtype_does_not_satisfy(self):
        src = """
        import numpy as np

        def demodulate(iq: object) -> object:
            iq = np.asarray(iq)
            return iq
        """
        assert "GL001" in codes_for(src)

    def test_private_and_stub_exempt(self):
        src = """
        def _helper(iq: object) -> int:
            return len(iq)

        def interface(iq: object) -> int:
            ...

        @abstractmethod
        def abstract(self, iq: object) -> int:
            raise NotImplementedError
        """
        assert "GL001" not in codes_for(src)

    def test_init_is_checked(self):
        src = """
        class Buffer:
            def __init__(self, samples: object) -> None:
                self.samples = samples
        """
        assert "GL001" in codes_for(src)


class TestGL002AmbiguousUnitParam:
    def test_flags_fs_parameter(self):
        src = """
        def resample(x: object, fs: float) -> object:
            return x
        """
        found = findings_for(src)
        assert [f.code for f in found] == ["GL002"]
        assert "sample_rate_hz" in found[0].message

    def test_unit_suffixed_name_passes(self):
        src = """
        def resample(x: object, sample_rate_hz: float) -> object:
            return x
        """
        assert codes_for(src) == []

    def test_constructor_checked_private_exempt(self):
        src = """
        class Stage:
            def __init__(self, fs: float) -> None:
                self.sample_rate_hz = fs

        def _internal(fs: float) -> float:
            return fs
        """
        assert codes_for(src) == ["GL002"]


class TestGL003FloatNarrowing:
    def test_flags_float32_scale_of_iq(self):
        src = """
        import numpy as np

        def scale(iq_data: object) -> object:
            return np.float32(0.5) * iq_data
        """
        assert "GL003" in codes_for(src)

    def test_flags_float_cast_of_iq_buffer(self):
        src = """
        import numpy as np

        def collapse(iq: object) -> object:
            return np.float64(iq)
        """
        assert "GL003" in codes_for(src)

    def test_plain_float_scale_passes(self):
        src = """
        def scale(iq: object) -> object:
            return 0.5 * iq
        """
        assert "GL003" not in codes_for(src)

    def test_float_cast_of_non_iq_passes(self):
        src = """
        import numpy as np

        def cast(track: object) -> object:
            return np.float64(track)
        """
        assert "GL003" not in codes_for(src)


class TestGL004PublicAnnotations:
    def test_flags_missing_param_and_return(self):
        src = """
        def run(x) -> None:
            pass

        def report(y: int):
            pass
        """
        assert codes_for(src) == ["GL004", "GL004"]

    def test_self_cls_varargs_and_dunder_return_exempt(self):
        src = """
        class Stage:
            def __init__(self, depth: int):
                self.depth = depth

            @classmethod
            def build(cls, depth: int) -> "Stage":
                return cls(depth)

            def run(self, *args: object, **kwargs: object) -> None:
                pass
        """
        assert codes_for(src) == []

    def test_private_functions_exempt(self):
        src = """
        def _run(x):
            pass
        """
        assert codes_for(src) == []


class TestGL005PrivateTelemetry:
    def test_flags_stage_building_registry(self):
        src = """
        from repro.telemetry import Telemetry

        class Stage:
            def __init__(self) -> None:
                self.telemetry = Telemetry()
        """
        assert "GL005" in codes_for(src, "src/repro/gateway/stage.py")

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/cli.py",
            "src/repro/experiments/fig3b.py",
            "tests/test_stage.py",
            "benchmarks/bench_stage.py",
        ],
    )
    def test_composition_roots_and_tests_exempt(self, path):
        src = """
        from repro.telemetry import Telemetry

        def build() -> Telemetry:
            return Telemetry()
        """
        assert "GL005" not in codes_for(src, path)


class TestGL006DataclassMutable:
    def test_flags_bare_dict_annotation(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class Result:
            extra: dict
        """
        assert "GL006" in codes_for(src)

    def test_flags_mutable_literal_default(self):
        src = """
        from dataclasses import dataclass, field

        @dataclass
        class Result:
            events: list[int] = []
            meta: dict[str, object] = field(default={})
        """
        assert codes_for(src) == ["GL006", "GL006"]

    def test_default_factory_and_typed_annotation_pass(self):
        src = """
        from dataclasses import dataclass, field

        @dataclass
        class Result:
            extra: dict[str, object] = field(default_factory=dict)
            events: list[int] = field(default_factory=list)
        """
        assert codes_for(src) == []

    def test_plain_class_exempt(self):
        src = """
        class Result:
            extra: dict
        """
        assert codes_for(src) == []


class TestEngine:
    def test_noqa_bare_suppresses_all(self):
        src = """
        def resample(x: object, fs: float) -> object:  # noqa
            return x
        """
        assert codes_for(src) == []

    def test_noqa_scoped_suppresses_only_listed(self):
        src = """
        def detect(samples, fs: float):  # noqa: GL002
            return samples
        """
        codes = codes_for(src)
        assert "GL002" not in codes
        assert "GL001" in codes and "GL004" in codes

    def test_syntax_error_reported_as_gl900(self):
        found = findings_for("def broken(:\n")
        assert [f.code for f in found] == ["GL900"]

    def test_render_matches_ruff_format(self):
        finding = Finding(
            path="src/x.py", line=3, col=4, code="GL001", message="boom"
        )
        assert finding.render() == "src/x.py:3:4: GL001 boom"

    def test_select_prefix_and_ignore(self):
        assert {r.code for r in select_rules(["GL00"])} == {
            r.code for r in ALL_RULES
        }
        only = select_rules(["GL001", "GL002"], ignore=["GL002"])
        assert [r.code for r in only] == ["GL001"]

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            select_rules(["GL999"])

    def test_rules_by_code_covers_all(self):
        assert sorted(rules_by_code()) == sorted(r.code for r in ALL_RULES)


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def run(x: int) -> int:\n    return x\n")
        assert lint_main([str(target)]) == 0
        assert "All checks passed!" in capsys.readouterr().err

    def test_findings_exit_one_with_ruff_lines(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("def run(x, fs):\n    return x\n")
        assert lint_main([str(target)]) == 1
        out = capsys.readouterr()
        assert f"{target}:1:" in out.out
        assert "GL002" in out.out
        assert "Found" in out.err

    def test_select_limits_rules(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("def run(x, fs):\n    return x\n")
        assert lint_main(["--select", "GL001", str(target)]) == 0

    def test_unknown_code_exits_two(self, tmp_path):
        assert lint_main(["--select", "GL999", str(tmp_path)]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_galiot_lint_forwards_every_argument(self, capsys):
        # ``galiot lint`` passes its arguments to galiot-lint unchanged,
        # so options it never declared itself (--explain) work too.
        from repro.cli import main as galiot_main

        assert galiot_main(["lint", "--explain", "GL104"]) == 0
        assert capsys.readouterr().out.startswith("GL104:")


def test_repo_source_tree_is_lint_clean():
    """The CI gate, as a test: ``galiot-lint src/`` must stay clean."""
    findings = lint_paths([REPO_ROOT / "src"])
    assert findings == [], "\n".join(f.render() for f in findings)
