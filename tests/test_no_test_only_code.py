"""Nothing in ``src/repro`` that only tests reach.

The test walks ``src/repro`` with ``ast`` and lists the public
functions, classes and methods that no file outside ``tests/``
references. The callers are the files under ``src/``, ``benchmarks/``,
``examples/``, ``perfbench/`` and ``tools/``. A re-export in an
``__init__.py`` or an ``__all__`` entry is not a use.

A name may stay only if a test uses it as the oracle for a paper or
modem claim, or to drive behaviour that stays (deleting it would only
move its code into the tests). Those names are listed in ``KEPT`` with
their reasons; anything else that appears is code to delete, with the
tests that check only it.

References are matched by name. A method counts as referenced when any
caller reads an attribute of that name. A module-level function or
class counts when its own module loads it, when a caller imports it
from its module or package, or when a caller reaches it through an
imported module.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "tools")

KEPT = {
    # Oracles for paper claims (Sec. 3 and 5 link budgets; Table 1;
    # the universal preamble's C(P_j, P) check; Fig. 3(b) scoring).
    "repro.analysis.rate_margin_db",
    "repro.analysis.detectable_snr_db",
    "repro.phy.registry.all_technologies",
    "repro.phy.registry.implemented_technologies",
    "repro.gateway.universal.UniversalPreamble.response_to",
    "repro.gateway.detection.detection_ratio",
    # Oracles for modem claims.
    "repro.dsp.measure.occupied_bandwidth",
    "repro.dsp.fm.instantaneous_frequency",
    "repro.dsp.filters.fir_filter",
    "repro.dsp.channel.noise_for_band_snr",
    "repro.phy.psk.bpsk_demodulate_bits",
    "repro.phy.psk.dbpsk_modulate",
    "repro.phy.psk.dbpsk_decode",
    "repro.utils.gray.gray_encode",
    "repro.utils.gray.gray_decode",
    # Oracle for the collision placement of the traffic generators.
    "repro.types.SceneTruth.collisions",
    # Drivers of behaviour that stays.
    "repro.cloud.parallel.ParallelCloudService.process_segments",
    "repro.dsp.fastcorr.spectrum_plan_cache_info",
    "repro.dsp.fastcorr.TemplateBank.n_distinct",
    "repro.dsp.fastcorr.TemplateBank.template",
    "repro.dsp.fastcorr.TemplateBank.max_template_len",
    "repro.contracts.real_contract",
    "repro.contracts.ensure_real",
    "repro.contracts.contract_kind",
    "repro.drill.DrillReport.ledger",
    "repro.guard.GuardStats.rejected",
    "repro.net.adversary.AttackLedger.spoofed",
}


def _module(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions() -> list[tuple[str, str | None, str]]:
    """``(module, class or None, name)`` of every public definition."""
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = _module(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((module, None, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (module, node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                )
    return found


def _import_source(path: Path, node: ast.ImportFrom) -> str:
    """The absolute module an import reads from (relative ones resolved)."""
    if not node.level:
        return node.module or ""
    package = _module(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _references() -> tuple[set[str], set[tuple[str, str]], set[tuple[str, str]]]:
    """Attribute names, ``(module, name)`` pairs reached from other
    modules, and ``(module, name)`` pairs each src module loads itself."""
    src_modules = {_module(p) for p in (ROOT / "src").rglob("*.py")}
    attributes: set[str] = set()
    reached: set[tuple[str, str]] = set()
    own: set[tuple[str, str]] = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            module = _module(path) if top == "src" else None
            aliases: dict[str, str] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        aliases[bound] = alias.name if alias.asname else bound
                elif isinstance(node, ast.ImportFrom):
                    source = _import_source(path, node) if module else node.module or ""
                    for alias in node.names:
                        if f"{source}.{alias.name}" in src_modules:
                            aliases[alias.asname or alias.name] = f"{source}.{alias.name}"
                        elif path.name != "__init__.py":
                            reached.add((source, alias.name))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                    chain, value = [], node.value
                    while isinstance(value, ast.Attribute):
                        chain.append(value.attr)
                        value = value.value
                    if isinstance(value, ast.Name) and value.id in aliases:
                        owner = ".".join([aliases[value.id], *reversed(chain)])
                        reached.add((owner, node.attr))
                elif module and isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        own.add((module, node.id))
    return attributes, reached, own


def test_src_holds_nothing_only_tests_reach():
    attributes, reached, own = _references()

    def referenced(module: str, cls: str | None, name: str) -> bool:
        if cls is not None:
            return name in attributes
        if (module, name) in own:
            return True
        return any(
            name == ref and (module == source or module.startswith(source + "."))
            for source, ref in reached
        )

    unreferenced = {
        ".".join(part for part in (module, cls, name) if part)
        for module, cls, name in _definitions()
        if not referenced(module, cls, name)
    }
    extra = sorted(unreferenced - KEPT)
    assert not extra, f"reached only from tests/: {extra}"
    stale = sorted(KEPT - unreferenced)
    assert not stale, f"kept, but referenced outside tests/: {stale}"
